"""Hermiticity-preserving linear maps as immutable expression trees.

Primitive positive maps (transposition, reduction, Breuer-Hall, Choi,
unitary conjugation, Diag, trace-times-identity) are combined with
lift-to-subsystem, sum, scale and composition nodes.  One walker, `_eval`,
evaluates a tree on a stack of matrices, and duals are computed analytically
node by node.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from typing import Any, Iterable, get_type_hints

import numpy as np

from .operators import (MpOperator, PartySubset, SiteDims, partial_transpose_stack,
                        party_subset, site_dims)

UNITARY_TOL = 1e-12


class MapExpr:
    """Base node; every node knows the side length of matrices it accepts."""

    dim: int

    def __call__(self, op: MpOperator) -> MpOperator:
        return apply(self, op)


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


@dataclass(frozen=True, eq=False)
class BreuerHall(MapExpr):
    """rho -> (Tr(rho) I - rho - V rho^T V^dag) / (d - 2), even d >= 4."""

    dim: int
    v: np.ndarray

    def __post_init__(self):
        d = self.dim
        if d < 4 or d % 2:
            raise ValueError("Breuer-Hall map needs even d >= 4")
        v = np.asarray(self.v, dtype=complex)
        if v.shape != (d, d):
            raise ValueError(f"V must be {d}x{d}")
        if np.max(np.abs(v @ v.conj().T - np.eye(d))) > UNITARY_TOL:
            raise ValueError("V must be unitary")
        if np.max(np.abs(v.T + v)) > UNITARY_TOL:
            raise ValueError("V must be skew-symmetric (V^T = -V)")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "v", v)


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
        u = np.asarray(self.u, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("U must be square")
        if np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) > UNITARY_TOL:
            raise ValueError("U must be unitary")
        u = u.copy()
        u.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "dim", u.shape[0])
        perm = phase = None
        if np.all(np.count_nonzero(u, axis=1) == 1):
            perm = np.argmax(u != 0, axis=1)
            phase = u[np.arange(u.shape[0]), perm]
            perm.flags.writeable = False
            phase.flags.writeable = False
            if np.all(phase == 1):
                phase = None
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "phase", phase)


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
        object.__setattr__(self, "c", Fraction(self.c))


@dataclass(frozen=True, eq=False)
class TraceOuter(MapExpr):
    """rho -> Tr(weight rho) * output; the dual swaps the adjoints of the two."""

    weight: np.ndarray
    output: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=complex)
        o = np.asarray(self.output, dtype=complex)
        if w.shape != o.shape or w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight and output must be square matrices of equal size")
        w, o = w.copy(), o.copy()
        w.flags.writeable = False
        o.flags.writeable = False
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "output", o)
        object.__setattr__(self, "dim", w.shape[0])


@dataclass(frozen=True, eq=False)
class SchurWith(MapExpr):
    """Entrywise product with a fixed Hermitian mask."""

    mask: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("mask must be square")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "mask", m)
        object.__setattr__(self, "dim", m.shape[0])


@dataclass(frozen=True, eq=False)
class Lift(MapExpr):
    """Apply `child` to the composite subsystem A, identity elsewhere.

    Index tables, computed once: `block_axes` orders the axes of
    x.reshape((-1,) + dims + dims) as (batch, rest rows, rest columns, A rows,
    A columns), with shape `block_shape`; `index[a, r]` is the full basis
    index of subsystem index a and rest index r, shape (dA, dR).
    """

    child: MapExpr
    parties: PartySubset
    dims: SiteDims
    dim: int = field(init=False)
    block_axes: tuple[int, ...] = field(init=False, repr=False)
    block_axes_inv: tuple[int, ...] = field(init=False, repr=False)
    block_shape: tuple[int, ...] = field(init=False, repr=False)
    index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, k = self.dims.n, len(self.parties)
        self.parties.validate(n)
        order = self.parties.members + self.parties.complement(n).members
        sizes = [self.dims.dims[p] for p in order]
        dA = int(np.prod(sizes[:k]))
        if self.child.dim != dA:
            raise ValueError(
                f"child map dimension {self.child.dim} does not match subsystem size {dA}")
        D = self.dims.total
        rows, cols = [1 + p for p in order], [1 + n + p for p in order]
        axes = (0, *rows[k:], *cols[k:], *rows[:k], *cols[:k])
        shape = (-1, *sizes[k:], *sizes[k:], *sizes[:k], *sizes[:k])
        index = np.arange(D).reshape(self.dims.dims).transpose(order).reshape(dA, D // dA)
        index.flags.writeable = False
        object.__setattr__(self, "dim", D)
        object.__setattr__(self, "block_axes", axes)
        object.__setattr__(self, "block_axes_inv", tuple(np.argsort(axes).tolist()))
        object.__setattr__(self, "block_shape", shape)
        object.__setattr__(self, "index", index)


@dataclass(frozen=True, eq=False)
class Sum(MapExpr):
    children: tuple[MapExpr, ...]
    dim: int = field(init=False)

    def __post_init__(self):
        if not self.children:
            raise ValueError("empty sum")
        d = self.children[0].dim
        if any(c.dim != d for c in self.children):
            raise ValueError("sum children disagree on dimension")
        object.__setattr__(self, "children", tuple(self.children))
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
    """outer after inner."""

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


def _diag_vec(x: np.ndarray) -> np.ndarray:
    return np.einsum("...ii->...i", x)


def _embed_diag(v: np.ndarray) -> np.ndarray:
    d = v.shape[-1]
    out = np.zeros(v.shape + (d,), dtype=complex)
    idx = np.arange(d)
    out[..., idx, idx] = v
    return out


def _eval(node: MapExpr, x: np.ndarray, lift: Lift | None = None) -> np.ndarray:
    """Apply `node` to a stack of matrices, shape (..., d, d).

    Under `lift`, x is a stack of full-space matrices and `node` acts on the
    lift's subsystem, identity elsewhere.  Composition passes the lift on to
    both sides; the identity, transposition and monomial conjugations act on
    the full matrix as index permutations, and every other node acts block
    by block (`_eval_blocks`).
    """
    if isinstance(node, Compose):
        return _eval(node.outer, _eval(node.inner, x, lift), lift)
    if isinstance(node, Identity):
        return x
    if isinstance(node, Transpose):
        if lift is None:
            return x.swapaxes(-1, -2)
        return partial_transpose_stack(x, lift.dims, lift.parties)
    if isinstance(node, Conjugate) and node.perm is not None:
        if lift is None:
            return _gather(x, node.perm, node.phase)
        # full index (a, r) -> (perm[a], r), with a the subsystem digits
        idx = lift.index
        perm = np.empty(lift.dim, dtype=np.intp)
        perm[idx] = idx[node.perm]
        phase = None
        if node.phase is not None:
            phase = np.empty(lift.dim, dtype=complex)
            phase[idx] = node.phase[:, None]
        return _gather(x, perm, phase)
    if lift is not None:
        return _eval_blocks(node, lift, x)
    if isinstance(node, Lift):
        return _eval(node.child, x, node)
    if isinstance(node, Reduction):
        tr = np.trace(x, axis1=-2, axis2=-1)
        eye = np.eye(node.dim)
        return (tr[..., None, None] * eye - x) / (node.dim - 1)
    if isinstance(node, BreuerHall):
        tr = np.trace(x, axis1=-2, axis2=-1)
        eye = np.eye(node.dim)
        vxv = node.v @ x.swapaxes(-1, -2) @ node.v.conj().T
        return (tr[..., None, None] * eye - x - vxv) / (node.dim - 2)
    if isinstance(node, Choi):
        v = _diag_vec(x)
        shift = 1 if node.adjoint else -1
        acc = 2 * v.copy()
        for j in range(1, node.dim - 1):
            acc = acc + np.roll(v, shift * j, axis=-1)
        return _embed_diag(acc) - x
    if isinstance(node, Conjugate):
        return node.u @ x @ node.u.conj().T
    if isinstance(node, DiagAll):
        return _embed_diag(_diag_vec(x).copy())
    if isinstance(node, TraceIdentity):
        tr = np.trace(x, axis1=-2, axis2=-1)
        return float(node.c) * tr[..., None, None] * np.eye(node.dim)
    if isinstance(node, TraceOuter):
        tr = np.einsum("ij,...ji->...", node.weight, x)
        return tr[..., None, None] * node.output
    if isinstance(node, SchurWith):
        return node.mask * x
    if isinstance(node, Sum):
        out = _eval(node.children[0], x)
        if len(node.children) > 1:
            # a fresh buffer: a child's result may be its input or a view of it
            out = out + _eval(node.children[1], x)
            for c in node.children[2:]:
                out += _eval(c, x)
        return out
    if isinstance(node, Scale):
        return node.r * _eval(node.child, x)
    raise TypeError(f"unknown map node {type(node).__name__}")


def _gather(x: np.ndarray, perm: np.ndarray, phase: np.ndarray | None) -> np.ndarray:
    """U x U^dag for the monomial U[i, perm[i]] = phase[i]."""
    out = x[..., perm[:, None], perm]
    if phase is not None:
        out = phase[:, None] * out * phase.conj()
    return out


def _eval_blocks(node: MapExpr, lift: Lift, x: np.ndarray) -> np.ndarray:
    """`node` applied to every (subsystem x subsystem) block of the rest-space.

    One transpose gathers the blocks into a C-contiguous stack of shape
    (-1, dR, dR, dA, dA), and one transpose scatters the result back.
    """
    dims = lift.dims.dims
    dA, dR = lift.index.shape
    t = x.reshape((-1,) + dims + dims).transpose(lift.block_axes)
    t = _eval(node, np.ascontiguousarray(t).reshape(-1, dR, dR, dA, dA))
    t = t.reshape(lift.block_shape).transpose(lift.block_axes_inv)
    return t.reshape(x.shape)


def _check_lift_dims(m: MapExpr, dims: SiteDims) -> None:
    """Every lift reachable without crossing another lift must match `dims`."""
    if isinstance(m, Lift):
        if m.dims != dims:
            raise ValueError(
                f"operator dims {dims.dims} do not match lift dims {m.dims.dims}")
        return
    for c in children(m):
        _check_lift_dims(c, dims)


def apply(m: MapExpr, op: MpOperator) -> MpOperator:
    """Evaluate the map on a multipartite operator."""
    if m.dim != op.d:
        raise ValueError(f"operator side {op.d} does not match map dimension {m.dim}")
    _check_lift_dims(m, op.dims)
    return MpOperator(op.dims, _eval(m, op.mat))


def apply_stack(m: MapExpr, stack: np.ndarray) -> np.ndarray:
    """Evaluate the map on a stack of matrices, shape (..., d, d)."""
    stack = np.asarray(stack, dtype=complex)
    if stack.shape[-1] != m.dim or stack.shape[-2] != m.dim:
        raise ValueError("stack side does not match map dimension")
    return _eval(m, stack)


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------

def dual(m: MapExpr) -> MapExpr:
    """Hilbert-Schmidt adjoint, computed structurally."""
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
        return Lift(dual(m.child), m.parties, m.dims)
    if isinstance(m, Sum):
        return Sum(tuple(dual(c) for c in m.children))
    if isinstance(m, Scale):
        return Scale(m.r, dual(m.child))
    if isinstance(m, Compose):
        return Compose(dual(m.inner), dual(m.outer))
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
    h = d // 2
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
        v = np.zeros(d * nc, dtype=complex)
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
        v = rng.standard_normal(d * nc) + 1j * rng.standard_normal(d * nc)
        vals[i] = _neg_min_eig(lifted, v / np.linalg.norm(v))
    return vals
