"""Hermiticity-preserving linear maps as immutable expression trees.

Primitive positive maps (transposition, reduction, Breuer-Hall, Choi,
unitary conjugation, Diag, trace-times-identity) are combined with
lift-to-subsystem, sum, scale and composition nodes.  One stateless walker,
`_eval`, evaluates a tree on a stack of matrices, a subtree that several
parents share once per use.

The paper's construction lifts one positive map onto a side of every
bipartition.  One node, `SideLifts`, holds those 2^(n-1) - 1 lifts as one
child per side size, so a catalog tree has O(n) distinct nodes to build,
walk, dualize and write.  A run of explicit `Lift` nodes of that shape at
the head of a sum (from a map file of an older format, or built with `lift`
and `map_sum`) becomes that node when the sum is built.  When the children
have one `MapExpr.graded_kind`, the node adds its lifts by one recurrence
over grades, the sizes of the sides: about n^2 / 2 site steps instead of
2^(n-1) - 1 lifts.  The kinds are a chain of transpositions and digit
reversals (phi-t, phi-tx), the reduction map (phi-r) and the Breuer-Hall map
with `default_skew_unitary` (phi-b); each is a signed sum of products of
per-site maps with a weight per side size, so the recurrence and its site-0
rule do not depend on the kind.  Every other lift (a lone lift, as
`estimate_mu` makes, or the lifts of other children, as mu-choi's) applies
its child block by block, on tables made at its first such evaluation.
`dual` and `nodes` take each distinct node once.

Some roots have a closed form on the cyclic GHZ ("X") support
(`MapExpr.support`), worked out at their first application: a bipartition
sum of lifted sigma_x T or Choi maps projected onto that support (eta,
mu-choi), which holds for every input, and graded qubit chains or
reductions followed only by a compensation (phi-t and phi-tx on qubits,
phi-r), which holds for an input whose nonzero entries all lie on the
support.  Their duals and map files take it too.  Where a form holds (for
the latter only above `DENSE_MAX_DIM`), `apply_blocks` hands on the output's
blocks on the D d entries of the support; else the walker runs.  GHZ-type
inputs (GHZ, noisy GHZ, I/D) enter as blocks on the support too
(`operators.BlockOperator`, `states.noisy_ghz`): a form reads p, q and the
trace from them with no D x D array, and only a map without a form scatters
them, once, for the walker.
"""
from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from math import prod
from typing import Any, Callable, Iterable, Iterator, NamedTuple, get_type_hints

import numpy as np

from .grades import (GradedLifts, bipartition_diagonal_sum, bipartition_gather_sum,
                     bipartition_sum, bipartitions, graded_form)
from .operators import (DENSE_MAX_DIM, BlockOperator, MpOperator, PartySubset, SiteDims,
                        frozen_copy, gather_blocks, party_subset, real_or_complex,
                        scatter_blocks, site_dims, x_support_index)
from .states import haar_vector

UNITARY_TOL = 1e-12


def _is_unitary(u: np.ndarray) -> bool:
    """U U^dag = I to `UNITARY_TOL`, written so that a NaN or infinite entry
    fails it (every comparison with NaN is False)."""
    with np.errstate(invalid="ignore"):  # inf * 0 in the product is NaN
        return bool(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) <= UNITARY_TOL)


def _keep_unitary(node: MapExpr, name: str, u: np.ndarray) -> None:
    """Keep a read-only copy of the checked unitary `u` as the field `name` of
    `node`, and its `perm` and `phase`: U[i, perm[i]] = phase[i] for a
    monomial U, `phase` None when every phase is 1; both None otherwise."""
    u = frozen_copy(u)
    perm = phase = None
    if np.all(np.count_nonzero(u, axis=1) == 1):
        perm = frozen_copy(np.argmax(u != 0, axis=1))
        phase = u[np.arange(len(u)), perm]
        phase = None if np.all(phase == 1) else frozen_copy(phase)
    object.__setattr__(node, name, u)
    object.__setattr__(node, "perm", perm)
    object.__setattr__(node, "phase", phase)


class MapExpr:
    """Base node; every node knows the side length of matrices it accepts."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"map dimension must be >= 1, got {self.dim}")

    @functools.cached_property
    def support(self) -> SupportForm | None:
        """The closed form of this map on the X support, which `apply` uses on
        a root: a `Compose` of the masked shape (`_support_form`), or graded
        qubit chains or reductions (`SideLifts`) followed only by
        compensations (`_graded_support_form`); None for any other tree.  Kept
        on the node, so it is worked out once."""
        if isinstance(self, Compose):
            return _support_form(self)
        if isinstance(self, (Sum, SideLifts)):
            return _graded_support_form(self)
        return None

    @functools.cached_property
    def parities(self) -> tuple[bool, bool] | None:
        """(odd number of transpositions, odd number of digit reversals) of a
        chain of `Identity`, `Transpose` and digit-reversal `Conjugate` nodes;
        None for any other tree.  Kept on the node, so the lifts that share a
        child work it out once."""
        if isinstance(self, Compose):
            outer, inner = self.outer.parities, self.inner.parities
            if outer is None or inner is None:
                return None
            return outer[0] != inner[0], outer[1] != inner[1]
        if isinstance(self, Identity):
            return False, False
        if isinstance(self, Transpose):
            return True, False
        if (isinstance(self, Conjugate) and self.perm is not None and self.phase is None
                and np.array_equal(self.perm, np.arange(self.dim - 1, -1, -1))):
            return False, True
        return None

    @functools.cached_property
    def graded_kind(self) -> str | None:
        """How `grades.bipartition_sum` adds this map lifted onto a side of
        every bipartition: "chain" when `parities` is not None, "reduction",
        "breuer-hall" when V is exactly `default_skew_unitary`; None for any
        other tree, whose lifts go block by block."""
        if self.parities is not None:
            return "chain"
        if isinstance(self, Reduction):
            return "reduction"
        if isinstance(self, BreuerHall) and np.array_equal(self.v, default_skew_unitary(self.dim)):
            return "breuer-hall"
        return None

    @functools.cached_property
    def sites(self) -> tuple[SiteDims, ...]:
        """The distinct `SiteDims` of the lifts (`Lift`, `SideLifts`) reachable
        without crossing another lift, in the order a depth-first walk
        (children in field order) first meets them; empty for a tree without
        a lift.  Kept on the root, so `apply` checks an operator against them
        without a walk; a subtree several parents share is walked once."""
        sites, seen, stack = {}, set(), [self]
        while stack:
            node = stack.pop()
            if isinstance(node, (Lift, SideLifts)):
                sites[node.dims] = None  # a dict keeps each key's first place
            elif id(node) not in seen:
                seen.add(id(node))
                stack += reversed(children(node))
        return tuple(sites)


@dataclass(frozen=True, eq=False)
class Identity(MapExpr):
    dim: int


@dataclass(frozen=True, eq=False)
class Transpose(MapExpr):
    dim: int


@dataclass(frozen=True, eq=False)
class Reduction(MapExpr):
    """rho -> (Tr(rho) I - rho) / (d - 1), trace preserving."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("reduction map needs d >= 2")


def _breuer_hall_dim(d: int) -> int:
    if d < 4 or d % 2:
        raise ValueError("Breuer-Hall map needs even d >= 4")
    return d


@dataclass(frozen=True, eq=False)
class BreuerHall(MapExpr):
    """rho -> (Tr(rho) I - rho - V rho^T V^dag) / (d - 2), even d >= 4.

    A monomial V records `perm` and `phase` as `Conjugate` does, so
    V rho^T V^dag is a signed gather of rho^T.
    """

    dim: int
    v: np.ndarray
    perm: np.ndarray | None = field(init=False, repr=False)
    phase: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        d = _breuer_hall_dim(self.dim)
        v = real_or_complex(self.v)
        if v.shape != (d, d):
            raise ValueError(f"V must be {d}x{d}")
        if not _is_unitary(v):
            raise ValueError("V must be unitary")
        if np.max(np.abs(v.T + v)) > UNITARY_TOL:
            raise ValueError("V must be skew-symmetric (V^T = -V)")
        _keep_unitary(self, "v", v)


@dataclass(frozen=True, eq=False)
class Choi(MapExpr):
    """rho -> 2 Diag rho + sum_{j=1}^{d-2} X^j Diag(rho) X^{j dag} - rho.

    X is the cyclic shift X|j> = |j-1 mod d>.  At d = 2 the sum is empty and
    the map degenerates to a completely positive conjugation, so d < 3 is
    rejected.  `adjoint` selects the Hilbert-Schmidt dual (shifts reversed).
    """

    dim: int
    adjoint: bool = False

    def __post_init__(self):
        if self.dim < 3:
            raise ValueError("Choi map needs d >= 3")


@dataclass(frozen=True, eq=False)
class Conjugate(MapExpr):
    """rho -> U rho U^dag.

    A monomial U (exactly one nonzero per row, U[i, perm[i]] = phase[i])
    records `perm` and `phase`, so evaluation is a row and column gather;
    `phase` is None when every phase is 1, and both are None otherwise.
    """

    u: np.ndarray
    dim: int = field(init=False)
    perm: np.ndarray | None = field(init=False, repr=False)
    phase: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        u = real_or_complex(self.u)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("U must be square")
        object.__setattr__(self, "dim", u.shape[0])
        super().__post_init__()
        if not _is_unitary(u):
            raise ValueError("U must be unitary")
        _keep_unitary(self, "u", u)


@dataclass(frozen=True, eq=False)
class DiagAll(MapExpr):
    """Keep the main diagonal, zero elsewhere."""

    dim: int


@dataclass(frozen=True, eq=False)
class TraceIdentity(MapExpr):
    """rho -> c Tr(rho) I, with c stored exactly."""

    c: Fraction
    dim: int

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "c", Fraction(self.c))


@dataclass(frozen=True, eq=False)
class TraceOuter(MapExpr):
    """rho -> Tr(weight rho) * output; the dual swaps the adjoints of the two."""

    weight: np.ndarray
    output: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        w, o = real_or_complex(self.weight), real_or_complex(self.output)
        if w.shape != o.shape or w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight and output must be square matrices of equal size")
        object.__setattr__(self, "weight", frozen_copy(w))
        object.__setattr__(self, "output", frozen_copy(o))
        object.__setattr__(self, "dim", w.shape[0])
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class SchurWith(MapExpr):
    """Entrywise product with a fixed Hermitian mask."""

    mask: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = real_or_complex(self.mask)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("mask must be square")
        object.__setattr__(self, "mask", frozen_copy(m))
        object.__setattr__(self, "dim", m.shape[0])
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class Lift(MapExpr):
    """Apply `child` to the composite subsystem A, identity elsewhere.

    The constructor checks the parties and the child's dimension.  The child
    acts block by block, on the tables `blocks` makes at the first
    evaluation.
    """

    child: MapExpr
    parties: PartySubset
    dims: SiteDims
    dim: int = field(init=False)

    def __post_init__(self):
        self.parties.validate(self.dims.n)
        dA = prod(self.dims.dims[p] for p in self.parties.members)
        if self.child.dim != dA:
            raise ValueError(
                f"child map dimension {self.child.dim} does not match subsystem size {dA}")
        object.__setattr__(self, "dim", self.dims.total)

    @functools.cached_property
    def blocks(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(axes, inverse axes, shape): the axes order of
        x.reshape((-1,) + dims + dims) as (batch, rest rows, rest columns, A
        rows, A columns), its inverse, and that tensor's shape."""
        n, k = self.dims.n, len(self.parties)
        order = self.parties.members + self.parties.complement(n).members
        sizes = [self.dims.dims[p] for p in order]
        rows, cols = [1 + p for p in order], [1 + n + p for p in order]
        axes = (0, *rows[k:], *cols[k:], *rows[:k], *cols[:k])
        shape = (-1, *sizes[k:], *sizes[k:], *sizes[:k], *sizes[:k])
        return axes, tuple(np.argsort(axes).tolist()), shape


@dataclass(frozen=True, eq=False)
class SideLifts(MapExpr):
    """`children[k - 1]` lifted onto the side of k parties of every
    bipartition representative (`grades.bipartitions`), k = 1..n // 2, and
    the 2^(n-1) - 1 lifts added in that order: one node for the paper's lift
    onto a side of every bipartition.  The n >= 3 sites all have one
    dimension d, and child k acts on d^k levels.

    When the children have one `graded_kind` (chains with equal parities,
    reductions or default Breuer-Hall maps), `graded` is their
    `grades.GradedLifts` and `_eval` adds the lifts by
    `grades.bipartition_sum`, one recurrence for every kind; otherwise it
    applies the explicit `lifts` one by one.  Nothing here lists the sides
    before an evaluation needs them.
    """

    children: tuple[MapExpr, ...]
    dims: SiteDims
    dim: int = field(init=False)

    def __post_init__(self):
        n, d = self.dims.n, self.dims.dims[0]
        if n < 3 or self.dims.dims != (d,) * n:
            raise ValueError(f"side lifts need n >= 3 sites of one dimension, got {self.dims.dims}")
        if len(self.children) != n // 2:
            raise ValueError(f"side lifts on {n} sites need {n // 2} children, one per side "
                             f"size, got {len(self.children)}")
        for k, c in enumerate(self.children, 1):
            if c.dim != d ** k:
                raise ValueError(f"child {k} dimension {c.dim} does not match the size "
                                 f"{d ** k} of a side of {k} sites")
        object.__setattr__(self, "children", tuple(self.children))
        object.__setattr__(self, "dim", self.dims.total)

    @functools.cached_property
    def graded(self) -> GradedLifts | None:
        return graded_form(self.children, self.dims)

    @functools.cached_property
    def lifts(self) -> tuple[Lift, ...]:
        """The explicit lifts, in `bipartitions` order, made at the first
        evaluation that applies them one by one."""
        return tuple(Lift(self.children[len(A) - 1], A, self.dims)
                     for A in bipartitions(self.dims.n))


def _same_map(a: MapExpr, b: MapExpr) -> bool:
    """Whether two trees are equal node by node, as a map file shares nodes:
    the same class and fields, arrays and floats by their bits."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    for name, tp, _ in node_fields(type(a)):
        u, v = getattr(a, name), getattr(b, name)
        if tp is MapExpr:
            same = _same_map(u, v)
        elif tp == tuple[MapExpr, ...]:
            same = len(u) == len(v) and all(map(_same_map, u, v))
        elif tp is np.ndarray:
            same = u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
        else:
            same = u.hex() == v.hex() if tp is float else u == v
        if not same:
            return False
    return True


def _side_lifts_run(children: tuple[MapExpr, ...]) -> tuple[MapExpr, ...]:
    """The children of a sum with a leading run of lifts made one `SideLifts`
    node: the one place an explicit run becomes that node.  The run is one
    `Lift` per representative of `bipartitions` of n >= 3 sites of one
    dimension, in that order, and the lifts onto sides of one size lift one
    child (`_same_map`); any other children are kept as they are."""
    first = children[0]
    if not isinstance(first, Lift):
        return children
    dims = first.dims
    n, d = dims.n, dims.dims[0]
    if n < 3 or dims.dims != (d,) * n or len(children) < 2 ** (n - 1) - 1:
        return children
    kids: dict[int, MapExpr] = {}
    for c, A in zip(children, bipartitions(n)):
        kid = kids.setdefault(len(A), c.child) if isinstance(c, Lift) else None
        if kid is None or c.dims != dims or c.parties != A or not _same_map(kid, c.child):
            return children
    return (SideLifts(tuple(kids.values()), dims),) + children[2 ** (n - 1) - 1:]


@dataclass(frozen=True, eq=False)
class Sum(MapExpr):
    """The children's outputs added.

    A leading run of explicit lifts onto every bipartition side, one child
    per side size, is kept as one `SideLifts` child (`_side_lifts_run`).
    Graded qubit chains and reductions followed only by compensations also
    have a closed form on the X support (`support`).
    """

    children: tuple[MapExpr, ...]
    dim: int = field(init=False)

    def __post_init__(self):
        if not self.children:
            raise ValueError("empty sum")
        d = self.children[0].dim
        if any(c.dim != d for c in self.children):
            raise ValueError("sum children disagree on dimension")
        object.__setattr__(self, "children", _side_lifts_run(tuple(self.children)))
        object.__setattr__(self, "dim", d)


@dataclass(frozen=True, eq=False)
class Scale(MapExpr):
    r: float
    child: MapExpr
    dim: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", self.child.dim)


@dataclass(frozen=True, eq=False)
class Compose(MapExpr):
    """outer after inner; `support` is a bipartition sum projected onto the X
    support (eta, mu-choi, their duals), which `apply` evaluates on it."""

    outer: MapExpr
    inner: MapExpr
    dim: int = field(init=False)

    def __post_init__(self):
        if self.outer.dim != self.inner.dim:
            raise ValueError("composed maps disagree on dimension")
        object.__setattr__(self, "dim", self.inner.dim)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@functools.cache
def node_fields(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    """(name, declared type, required) of each constructor field of a node class.

    Resolved once per class, because `apply` walks the tree on every call.
    """
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default is MISSING) for f in fields(cls) if f.init)


def children(node: MapExpr) -> list[MapExpr]:
    """The direct sub-expressions of a node, in field order."""
    out = []
    for name, tp, _ in node_fields(type(node)):
        if tp is MapExpr:
            out.append(getattr(node, name))
        elif tp == tuple[MapExpr, ...]:
            out.extend(getattr(node, name))
    return out


def nodes(m: MapExpr) -> Iterator[MapExpr]:
    """Each distinct node of the tree once, every parent before all of its
    children, also under a subtree shared by several parents: the reverse of
    a depth-first post-order."""
    seen, post, stack = set(), [], [(m, False)]
    while stack:
        node, done = stack.pop()
        if done:
            post.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack += [(node, True)] + [(c, False) for c in children(node)]
    return reversed(post)


def _diag_vec(x: np.ndarray) -> np.ndarray:
    return np.einsum("...ii->...i", x)


def _trace(x: np.ndarray) -> np.ndarray:
    return _sum_parts(lambda a: np.trace(a, axis1=-2, axis2=-1), x)


def _sum_parts(total: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """`total(x)` for a function that sums entries of x.  A complex x is summed
    as its real and imaginary parts apart, so a real input's sum is bit for
    bit the real part of the same input's sum in complex128 (numpy adds
    complex numbers in another order)."""
    if not np.iscomplexobj(x):
        return total(x)
    re, im = total(x.real), total(x.imag)
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _embed_diag(v: np.ndarray) -> np.ndarray:
    d = v.shape[-1]
    out = np.zeros(v.shape + (d,), dtype=v.dtype)
    idx = np.arange(d)
    out[..., idx, idx] = v
    return out


def _eval(node: MapExpr, x: np.ndarray) -> np.ndarray:
    """Apply `node` to a stack of matrices, shape (..., d, d).

    A `Lift` applies its child to each block of the rest-space
    (`_eval_blocks`); a `SideLifts` adds its lifts by grades when `graded`,
    else one by one.  A monomial conjugation is a row and column gather.
    """
    if isinstance(node, Compose):
        return _eval(node.outer, _eval(node.inner, x))
    if isinstance(node, Identity):
        return x
    if isinstance(node, Transpose):
        return x.swapaxes(-1, -2)
    if isinstance(node, Lift):
        return _eval_blocks(node, x)
    if isinstance(node, SideLifts):
        if node.graded is not None:
            return bipartition_sum(x, node.graded)
        return _add_up(x, (_eval_blocks(lift, x) for lift in node.lifts))
    if isinstance(node, Reduction):
        # times the reciprocal, as complex128 division scales, so a real input
        # gives the real part of its complex128 result bit for bit
        return (_trace(x)[..., None, None] * np.eye(node.dim) - x) * (1 / (node.dim - 1))
    if isinstance(node, BreuerHall):
        xt = x.swapaxes(-1, -2)
        if node.perm is None:
            vxv = node.v @ xt @ node.v.conj().T
        else:
            vxv = _gather(xt, node.perm, node.phase)
        return (_trace(x)[..., None, None] * np.eye(node.dim) - x - vxv) * (1 / (node.dim - 2))
    if isinstance(node, Choi):
        v = _diag_vec(x)
        shift = 1 if node.adjoint else -1
        acc = 2 * v.copy()
        for j in range(1, node.dim - 1):
            acc = acc + np.roll(v, shift * j, axis=-1)
        return _embed_diag(acc) - x
    if isinstance(node, Conjugate):
        if node.perm is not None:
            return _gather(x, node.perm, node.phase)
        return node.u @ x @ node.u.conj().T
    if isinstance(node, DiagAll):
        return _embed_diag(_diag_vec(x).copy())
    if isinstance(node, TraceIdentity):
        return float(node.c) * _trace(x)[..., None, None] * np.eye(node.dim)
    if isinstance(node, TraceOuter):
        tr = _sum_parts(lambda a: a.sum(axis=(-2, -1)), node.weight.T * x)
        return tr[..., None, None] * node.output
    if isinstance(node, SchurWith):
        return node.mask * x
    if isinstance(node, Sum):
        return _eval_sum(node, x)
    if isinstance(node, Scale):
        return node.r * _eval(node.child, x)
    raise TypeError(f"unknown map node {type(node).__name__}")


def _eval_sum(node: Sum, x: np.ndarray) -> np.ndarray:
    """The children's outputs added in order (`_add_up`); a leading
    `SideLifts` child's output is a fresh buffer, which the rest go into."""
    if len(node.children) == 1:
        return _eval(node.children[0], x)
    outputs = (_eval(c, x) for c in node.children)
    return _add_up(x, outputs, next(outputs) if isinstance(node.children[0], SideLifts) else None)


def _add_up(x: np.ndarray, outputs: Iterator[np.ndarray], out: np.ndarray | None = None
            ) -> np.ndarray:
    """The outputs of at least two terms on x added in order into one fresh
    buffer: `out`, the caller's own, or else output 0 plus output 1 go into a
    new one (an output may be its input or a view of it).  Each further
    output is added in place; the first complex output after real ones
    upcasts the buffer once."""
    if out is None:
        a, b = next(outputs), next(outputs)
        out = np.empty(x.shape, dtype=np.result_type(a, b))
        np.add(a, b, out=out)
    for y in outputs:
        if np.can_cast(y.dtype, out.dtype):
            out += y
        else:
            out = out + y
    return out


def _gather(x: np.ndarray, perm: np.ndarray, phase: np.ndarray | None) -> np.ndarray:
    """U x U^dag for the monomial U[i, perm[i]] = phase[i]."""
    out = x[..., perm[:, None], perm]
    if phase is not None:
        out = phase[:, None] * out * phase.conj()
    return out


def _eval_blocks(lift: Lift, x: np.ndarray) -> np.ndarray:
    """The lift's child applied to every (subsystem x subsystem) block of the
    rest-space.

    One transpose gathers the blocks into a C-contiguous stack of shape
    (-1, dR, dR, dA, dA), and one transpose scatters the result back.
    """
    dims, (axes, inverse, shape) = lift.dims.dims, lift.blocks
    dA, dR = lift.child.dim, lift.dim // lift.child.dim
    t = x.reshape((-1,) + dims + dims).transpose(axes)
    t = _eval(lift.child, np.ascontiguousarray(t).reshape(-1, dR, dR, dA, dA))
    t = t.reshape(shape).transpose(inverse)
    return t.reshape(x.shape)


def _routed(m: MapExpr, x: np.ndarray) -> SupportForm | None:
    """The one route rule for whole matrices: the map's support form where
    that holds for a stack x (`SupportForm.holds`), else None, and the walker
    runs."""
    form = m.support
    return form if form is not None and form.holds(x) else None


def apply(m: MapExpr, op: MpOperator) -> MpOperator:
    """Evaluate the map on a multipartite operator."""
    _check_operator(m, op)
    return MpOperator(op.dims, apply_stack(m, op.mat))


def apply_blocks(m: MapExpr, op: MpOperator | BlockOperator) -> MpOperator | BlockOperator:
    """Evaluate the map on a multipartite operator, a whole matrix or blocks.

    Blocks on the X support of the map's sites (GHZ, noisy GHZ and I/D from
    `states.noisy_ghz`) go straight to the map's support form, masked or
    graded alike; other blocks, or a map without a form, take one
    `scatter_blocks` and the whole-matrix route, where a form is used if it
    holds (`_routed`).  A form's output is its d x d blocks, a
    `BlockOperator` on the form's `index`, the one index object of every
    output on those sites; else the output is the walker's whole matrix.
    Blocks give the bits their scattered matrix gives (`real_or_complex`
    applies to both)."""
    _check_operator(m, op)
    if isinstance(op, MpOperator):
        x = op.mat
    else:
        blocks, form = real_or_complex(op.blocks), m.support
        if form is not None and (op.index is form.index or np.array_equal(op.index, form.index)):
            return BlockOperator(op.dims, form.index, form.blocks(blocks))
        x = scatter_blocks(op.index, blocks, op.dims.total)
    form = _routed(m, x)
    if form is None:
        return MpOperator(op.dims, _eval(m, x))
    return BlockOperator(op.dims, form.index, form.blocks(gather_blocks(x, form.index)))


def apply_stack(m: MapExpr, stack: np.ndarray) -> np.ndarray:
    """Evaluate the map on a stack of matrices, shape (..., d, d)."""
    stack = real_or_complex(stack)
    if stack.shape[-1] != m.dim or stack.shape[-2] != m.dim:
        raise ValueError("stack side does not match map dimension")
    form = _routed(m, stack)
    if form is None:
        return _eval(m, stack)
    return scatter_blocks(form.index, form.blocks(gather_blocks(stack, form.index)), m.dim)


def _check_operator(m: MapExpr, op: MpOperator | BlockOperator) -> None:
    if m.dim != op.dims.total:
        raise ValueError(f"operator side {op.dims.total} does not match map dimension {m.dim}")
    for dims in m.sites:
        if dims != op.dims:
            raise ValueError(f"operator dims {op.dims.dims} do not match lift dims {dims.dims}")


# ---------------------------------------------------------------------------
# the X-support route
# ---------------------------------------------------------------------------
#
# The cyclic GHZ ("X") support S of n sites of dimension d holds the entries
# (u, v) whose digits differ by the same c on every site, mod d: D/d blocks of
# d x d, block b on the basis vectors u, u + (1, ..., 1), ....  Let p(u) =
# x(u, u) and k be the number of lifts, one per bipartition side A.
#
# eta and mu-choi are Compose(m, P) or Compose(P, m), P the 0/1 mask of S,
# m = phi + c1 Diag phi + c2 Diag and phi one lift per side A of sigma_x T
# (qubits) or of the Choi map with local shifts.  m sends the off-diagonal
# entries of S to beta k times themselves (beta = 1 for sigma_x T, -1 for
# Choi), the diagonal to (1 + c1) phi(p) + c2 p, all else to zero, with
# phi(p) = G_1(p) for sigma_x T and k p + G_1(p) + ... + G_{d-2}(p) for Choi,
# G_t(p)(u) = sum_A p(u + s t e_A) and s = -1 for the adjoint shifts.  P
# makes that the output on every input.
#
# phi-t and phi-tx on qubits, and phi-r, are graded lifts followed by c Tr I,
# and they keep S: on an input supported on S they are D-vector work.  A
# qubit chain with parities (t, r) maps |u><v| to |u'><v'|, where u' and v'
# swap u's and v's digits on A when t is odd and flip both there when r is.
# So with q(u) = x(u, u + (1, ..., 1)), the other entry of u's block, and
# G = G_1, the diagonal goes to (r ? G(p) : k p) + c Tr(x) and q to
# (t != r ? G(q) : k q).  A reduction
# lift is w_|A| (I_A (x) Tr_A - 1), and I_A (x) Tr_A, the product of the
# P_i(y) = I_i (x) Tr_i y over A, sends an off-diagonal entry of S to zero
# and the diagonal to a diagonal; so the diagonal goes to
# sum_A w_|A| prod_{i in A} P_i(p) + own p + c Tr(x), own = -sum_A w_|A|,
# and the other entries of S to own times themselves.  A qudit transposition
# or a Breuer-Hall lift moves entries off S, so those keep the walker.


class SupportForm(NamedTuple):
    """A map in closed form on the X support (`MapExpr.support`), applied to
    the input's blocks on the support (`blocks`), as `apply_blocks` hands
    them on from a `BlockOperator` input or gathers them from a matrix.

    The output diagonal is `graded` G(p) + `own` p, G the sum over `shifts`
    of `bipartition_gather_sum` on each table of per-site digit shifts, or,
    for reductions, the graded sum of `lifts` on the diagonal
    (`bipartition_diagonal_sum`, own p included); then c Tr(x) for each c
    of `traces`.  Every other entry of a block is `off` times the input's,
    or, when `off` is None (qubits), q(u) = x(u, u + (1, ..., 1)) goes to
    G(q).  Every
    entry off the support is zero.  `index[b, a]` is the basis index of row
    a of block b of the X support of `dims` (`x_support_index`).  `every`
    is True when the form holds for every input (a masked root), False when
    it holds only for an input whose nonzero entries all lie on the
    support: an input given as blocks on the support, or a matrix that
    `holds` finds so."""

    dims: SiteDims
    index: np.ndarray
    off: float | None
    own: float
    graded: float
    shifts: tuple[np.ndarray, ...]
    traces: tuple[float, ...] = ()
    lifts: GradedLifts | None = None
    every: bool = True

    def holds(self, x: np.ndarray) -> bool:
        """Whether the form gives the map's output on a stack x of whole
        matrices: always for a form that holds for every input, else when
        every exact nonzero entry of x lies on the support.  Inputs given as
        blocks on the support need no such count."""
        if self.every:
            return True
        return np.count_nonzero(x) == np.count_nonzero(gather_blocks(x, self.index))

    def _spread(self, p: np.ndarray) -> np.ndarray:
        """G(p) of a stack of D-vectors."""
        return sum(bipartition_gather_sum(p, t) for t in self.shifts)

    def blocks(self, xb: np.ndarray) -> np.ndarray:
        """The output blocks, shape (..., D/d, d, d), of a stack of inputs
        given by their blocks on the support, (..., D/d, d, d) on `index`
        (`gather_blocks` of a whole matrix).  p, q and Tr(x) are read from
        them, as D-vectors summed in basis order as the whole matrix's
        diagonal is, so both give the same bits."""
        idx = self.index
        a = np.arange(idx.shape[1])
        p = _basis_vector(xb[..., a, a], idx)
        if self.lifts is not None:
            diag = bipartition_diagonal_sum(p, self.lifts)
        elif self.graded:
            diag = self._spread(p) * self.graded + self.own * p
        else:
            diag = self.own * p
        if self.traces:
            tr = _sum_parts(lambda v: v.sum(axis=-1), p)[..., None]
            for c in self.traces:
                diag = diag + c * tr
        if self.off is None:  # qubits: q and the diagonal fill each 2 x 2 block
            out = np.empty_like(xb)
            out[..., a, a[::-1]] = self._spread(_basis_vector(xb[..., a, a[::-1]], idx))[..., idx]
        else:
            out = xb * self.off
        out[..., a, a] = diag[..., idx]
        out += 0.0  # -k times a zero entry is -0.0, which a file would write as such
        return out


def _basis_vector(entries: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The D-vectors (..., D) whose entry index[b, a] is entries[..., b, a]."""
    out = np.empty(entries.shape[:-2] + (index.size,), dtype=entries.dtype)
    out[..., index] = entries
    return out


def _shift_steps(d: int, n: int, t: int) -> np.ndarray:
    """(n, d^n): the change of each basis index when the digit of site i moves
    by t, mod d."""
    digits = np.arange(d ** n)[:, None] // d ** np.arange(n - 1, -1, -1) % d
    return ((digits + t) % d - digits).T * d ** np.arange(n - 1, -1, -1)[:, None]


def _support_form(m: Compose) -> SupportForm | None:
    """The `SupportForm` of a root Compose of the masked shape above, else None."""
    mask, body = (m.inner, m.outer) if isinstance(m.inner, SchurWith) else (m.outer, m.inner)
    if not (isinstance(mask, SchurWith) and isinstance(body, Sum)):
        return None
    phi, *rest = body.children
    c1 = c2 = 0.0
    pair = (rest[0].child.outer, rest[0].child.inner) \
        if rest and isinstance(rest[0], Scale) and isinstance(rest[0].child, Compose) else ()
    if phi in pair and any(isinstance(c, DiagAll) for c in pair):
        c1 = float(rest.pop(0).r)
    if rest and isinstance(rest[0], Scale) and isinstance(rest[0].child, DiagAll):
        c2 = float(rest.pop(0).r)
    side = phi.children[0] if isinstance(phi, Sum) and len(phi.children) == 1 else phi
    if rest or not isinstance(side, SideLifts):
        return None
    dims, d = side.dims, side.dims.dims[0]
    k = 2 ** (dims.n - 1) - 1
    if d == 2 and side.graded is not None and side.graded.parities == (True, True):
        off, own, shifts = k, c2, (1,)
    else:
        signs = {_choi_sign(c, size, d) for size, c in enumerate(side.children, 1)}
        if len(signs) != 1 or None in signs:
            return None
        s = signs.pop()
        off, own, shifts = -k, (1 + c1) * k + c2, range(s, s * (d - 1), s)
    index = x_support_index(dims)
    on_s = gather_blocks(mask.mask, index)
    if np.count_nonzero(mask.mask) != on_s.size or not np.all(on_s == 1):
        return None
    tables = tuple(np.arange(dims.total) + _shift_steps(d, dims.n, t) for t in shifts)
    return SupportForm(dims, index, float(off), float(own), 1 + c1, tables)


def _graded_support_form(m: Sum | SideLifts) -> SupportForm | None:
    """The `SupportForm` of graded qubit chains or reductions (`SideLifts`),
    alone or leading a sum followed only by compensations (`TraceIdentity`),
    on a side above `DENSE_MAX_DIM`, the one rule for whole matrices against
    blocks, so smaller maps keep the walker; None otherwise.  It holds for
    inputs on the X support only."""
    side, rest = (m, ()) if isinstance(m, SideLifts) else (m.children[0], m.children[1:])
    g = side.graded if isinstance(side, SideLifts) else None
    if g is None or m.dim <= DENSE_MAX_DIM or not all(isinstance(c, TraceIdentity) for c in rest):
        return None
    dims, k = g.dims, float(2 ** (g.dims.n - 1) - 1)
    traces = tuple(float(c.c) for c in rest)
    if g.kind == "reduction":
        return SupportForm(dims, x_support_index(dims), g.own, g.own, 0.0, (), traces, g, False)
    if g.kind != "chain" or set(dims.dims) != {2}:
        return None
    (t, r), flips = g.parities, (np.arange(m.dim) + _shift_steps(2, dims.n, 1),)
    return SupportForm(dims, x_support_index(dims), None if t != r else k, 0.0 if r else k,
                       float(r), flips, traces, every=False)


def _choi_sign(node: MapExpr, m: int, d: int) -> int | None:
    """s when `node` on m sites of dimension d is the Choi map whose j-th
    addend shifts the digit of every site by s j: `Choi` on one site (s = -1
    for the adjoint), or the sum `criteria._choi_on_subset` builds, or its
    dual; None otherwise."""
    if isinstance(node, Choi):
        return (-1 if node.adjoint else 1) if m == 1 else None
    kids = node.children if isinstance(node, Sum) and d >= 3 else ()
    if len(kids) != d or not all(
            isinstance(c, Scale) and c.r == r and isinstance(c.child, kind)
            for c, r, kind in ((kids[0], 2, DiagAll), (kids[-1], -1, Identity))):
        return None
    # the j-th addend: a phase-free monomial conjugation composed with diag, either way
    pairs = [(t.outer, t.inner) if isinstance(t, Compose) else () for t in kids[1:-1]]
    perms = [next((c.perm for c in pair if isinstance(c, Conjugate) and c.phase is None), None)
             if any(isinstance(c, DiagAll) for c in pair) else None for pair in pairs]
    for s in (1, -1):
        if all(np.array_equal(perm, np.arange(d ** m) + _shift_steps(d, m, s * j).sum(0))
               for j, perm in enumerate(perms, 1)):
            return s
    return None


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------

def dual(m: MapExpr) -> MapExpr:
    """Hilbert-Schmidt adjoint, computed structurally.

    A subtree shared within `m` has one shared dual.
    """
    return _dual(m, {})


def _dual(m: MapExpr, memo: dict) -> MapExpr:
    if id(m) not in memo:
        memo[id(m)] = _dual_uncached(m, memo)
    return memo[id(m)]


def _dual_uncached(m: MapExpr, memo: dict) -> MapExpr:
    if isinstance(m, (Identity, Transpose, Reduction, DiagAll, TraceIdentity, BreuerHall)):
        # Breuer-Hall is self-dual: I Tr and I are, and skew-symmetry of V
        # makes the V rho^T V^dag addend self-adjoint.
        return m
    if isinstance(m, Choi):
        return Choi(m.dim, adjoint=not m.adjoint)
    if isinstance(m, Conjugate):
        return Conjugate(m.u.conj().T)
    if isinstance(m, TraceOuter):
        return TraceOuter(m.output.conj().T, m.weight.conj().T)
    if isinstance(m, SchurWith):
        return SchurWith(m.mask.conj())
    if isinstance(m, Lift):
        return Lift(_dual(m.child, memo), m.parties, m.dims)
    if isinstance(m, SideLifts):
        return SideLifts(tuple(_dual(c, memo) for c in m.children), m.dims)
    if isinstance(m, Sum):
        return Sum(tuple(_dual(c, memo) for c in m.children))
    if isinstance(m, Scale):
        return Scale(m.r, _dual(m.child, memo))
    if isinstance(m, Compose):
        return Compose(_dual(m.inner, memo), _dual(m.outer, memo))
    raise TypeError(f"unknown map node {type(m).__name__}")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def identity_map(d: int) -> MapExpr:
    return Identity(d)


def transpose_map(d: int) -> MapExpr:
    return Transpose(d)


def reduction_map(d: int) -> MapExpr:
    return Reduction(d)


def default_skew_unitary(d: int) -> np.ndarray:
    """Block form [[0, I], [-I, 0]]."""
    h = _breuer_hall_dim(d) // 2
    v = np.zeros((d, d))
    v[:h, h:] = np.eye(h)
    v[h:, :h] = -np.eye(h)
    return v


def breuer_hall_map(d: int, v: np.ndarray | MpOperator | None = None) -> MapExpr:
    if v is None:
        v = default_skew_unitary(d)
    elif isinstance(v, MpOperator):
        v = v.mat
    return BreuerHall(d, v)


def choi_map(d: int) -> MapExpr:
    return Choi(d)


def conjugation_map(u: np.ndarray | MpOperator) -> MapExpr:
    if isinstance(u, MpOperator):
        u = u.mat
    return Conjugate(u)


def diag_map(d: int) -> MapExpr:
    return DiagAll(d)


def trace_identity(c: Fraction | int | float, d: int) -> MapExpr:
    return TraceIdentity(Fraction(c), d)


def lift(child: MapExpr, parties: Iterable[int] | PartySubset,
         dims: Iterable[int] | SiteDims) -> MapExpr:
    return Lift(child, party_subset(parties), site_dims(dims))


def map_sum(*children: MapExpr) -> MapExpr:
    return Sum(tuple(children))


def scale(r: float, child: MapExpr) -> MapExpr:
    return Scale(r, child)


def compose(outer: MapExpr, inner: MapExpr, *more: MapExpr) -> MapExpr:
    out = Compose(outer, inner)
    for m in more:
        out = Compose(out, m)
    return out


# ---------------------------------------------------------------------------
# minimal output eigenvalue
# ---------------------------------------------------------------------------

def mu_constant(m: MapExpr) -> Fraction:
    """Closed-form minimal output eigenvalue for the supported primitives."""
    if isinstance(m, Transpose):
        return Fraction(1, 2)
    if isinstance(m, Reduction):
        return Fraction(1, m.dim)
    if isinstance(m, BreuerHall):
        return Fraction(1, m.dim)
    raise ValueError(f"no closed-form constant for {type(m).__name__}")


def _neg_min_eig(lifted: MapExpr, vec: np.ndarray) -> float:
    out = _eval(lifted, np.outer(vec, vec.conj()))
    return -float(np.linalg.eigvalsh((out + out.conj().T) / 2)[0])


def estimate_mu(m: MapExpr, d: int, samples: int, seed: int,
                companion: int | None = None) -> float:
    """Lower bound on the minimal output eigenvalue by sampling.

    Maximises -lambda_min((m x I)[|psi><psi|]) over Haar-random pure states
    of C^d x C^companion, always including the maximally entangled ansatz
    at every embedded Schmidt rank.  The rank-2 member attains 1/2 for
    transposition; the full-rank member attains 1/d for the reduction and
    Breuer-Hall maps.
    """
    best = mu_sample_values(m, d, samples, seed, companion).max()
    nc = d if companion is None else companion
    lifted = Lift(m, PartySubset((0,)), SiteDims((d, nc)))
    for rank in range(2, min(d, nc) + 1):
        v = np.zeros(d * nc)
        for i in range(rank):
            v[i * nc + i] = 1
        best = max(best, _neg_min_eig(lifted, v / np.sqrt(rank)))
    return float(best)


def mu_sample_values(m: MapExpr, d: int, samples: int, seed: int,
                     companion: int | None = None) -> np.ndarray:
    """Per-sample -lambda_min values of `estimate_mu` (without the entangled ansatz)."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    if m.dim != d:
        raise ValueError(f"map dimension {m.dim} does not match d={d}")
    nc = d if companion is None else companion
    lifted = Lift(m, PartySubset((0,)), SiteDims((d, nc)))
    rng = np.random.default_rng(seed)
    vals = np.empty(samples)
    for i in range(samples):
        vals[i] = _neg_min_eig(lifted, haar_vector(d * nc, rng))
    return vals
