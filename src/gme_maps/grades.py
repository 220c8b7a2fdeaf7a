"""Bipartition sums of lifted maps that factor over the sites, by grades.

The criteria add one lift of a positive map for one side of every
bipartition, its representative (`bipartitions`), and the recurrence below
depends on that choice of side.  `maps.Sum` records the lifts as
`GradedLifts` when the lift onto parties A is, up to a weight w_|A| per side
size and a multiple of the identity, a sum of products of commuting
per-site maps over i in A:

- a chain of transpositions and digit reversals (sigma_x on qubits), weight
  1: the product of L_i, the chain on site i alone, a strided view of
  x.reshape((-1,) + dims + dims) given by `view_recipe`;
- the reduction map, w_k = 1 / (d^k - 1): I_A (x) Tr_A is the product of
  P_i(y) = I_i (x) Tr_i y;
- the Breuer-Hall map with V = `maps.default_skew_unitary(d^k)`, w_k =
  1 / (d^k - 2): besides the P_i, V rho^{T_A} V^dag is the product of the
  transpositions T_i after conjugation by v = `default_skew_unitary(d)` on
  party min(A) alone, since V = v (x) I.

`bipartition_sum` adds all 2^(n-1) - 1 lifts by a recurrence over grades,
the sizes of the sides, in about n^2 / 2 site steps per product;
`bipartition_gather_sum` does so on D-vectors, for L_i an index gather.
Every other lift is evaluated block by block in `maps`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import prod
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .operators import PartySubset, SiteDims

if TYPE_CHECKING:
    from .maps import Lift

#: (axes order, index) of a strided view of x.reshape((-1,) + dims + dims)
ViewRecipe = tuple[tuple[int, ...], tuple[slice, ...]]

#: smallest side D at which `bipartition_sum` runs one block of site-0
#: digits at a time
_BLOCKS_MIN_DIM = 256


@dataclass(frozen=True)
class BipartitionSet:
    """One representative subset per unordered bipartition A|Abar."""

    n: int
    representatives: tuple[PartySubset, ...]

    def __len__(self):
        return len(self.representatives)

    def __iter__(self):
        return iter(self.representatives)


def bipartitions(n: int) -> BipartitionSet:
    """All 2^(n-1) - 1 bipartition representatives, by size then lexicographic.

    The representative is the smaller side; for even splits, the side
    containing party 0.
    """
    if n < 2:
        raise ValueError("need n >= 2 parties")
    reps = []
    for size in range(1, n // 2 + 1):
        for combo in itertools.combinations(range(n), size):
            if 2 * size == n and 0 not in combo:
                continue
            reps.append(PartySubset(combo))
    assert len(reps) == 2 ** (n - 1) - 1
    return BipartitionSet(n, tuple(reps))


@functools.lru_cache(maxsize=16)
def _sides(n: int) -> frozenset[tuple[int, ...]]:
    """The members of every representative of `bipartitions(n)`."""
    return frozenset(a.members for a in bipartitions(n))


def view_recipe(parties: Iterable[int], n: int, parities: tuple[bool, bool]) -> ViewRecipe:
    """The strided view that applies a chain with these (transposition,
    reversal) parities to each party in `parties` of n sites."""
    axes, flip = list(range(1 + 2 * n)), [slice(None)] * (1 + 2 * n)
    for p in parties:
        if parities[0]:
            axes[1 + p], axes[1 + n + p] = 1 + n + p, 1 + p
        if parities[1]:
            flip[1 + p] = flip[1 + n + p] = slice(None, None, -1)
    return tuple(axes), tuple(flip)


class GradedLifts(NamedTuple):
    """The leading `count` children of a sum: one lift per bipartition
    representative of `dims`, all of one `kind` of child
    (`maps.MapExpr.graded_kind`).  For "chain", every child is a chain with
    `parities` and `sites[i]` is its view recipe on site i alone.  For
    "reduction" and "breuer-hall", the lift onto a side of k parties has
    weight `weights[k]`, and `own` is minus the sum of the weights of all the
    lifts: the coefficient of x in their sum."""

    count: int
    dims: SiteDims
    kind: str
    parities: tuple[bool, bool] | None
    sites: tuple[ViewRecipe, ...] = ()
    weights: tuple[float, ...] = ()
    own: float = 0.0


def covers_bipartitions(lifts: Sequence[Lift]) -> bool:
    """True when `lifts` are one lift per bipartition representative
    (`bipartitions`) of n >= 3 sites, all on the same dims."""
    n = lifts[0].dims.n if lifts else 0
    return n >= 3 and len(lifts) == 2 ** (n - 1) - 1 and {
        c.parties.members for c in lifts if c.dims == lifts[0].dims} == _sides(n)


def graded_form(lifts: list[Lift]) -> GradedLifts | None:
    """The `GradedLifts` of a sum's leading lifts whose children have a
    `graded_kind`, when they cover the bipartitions (`covers_bipartitions`)
    with one kind (and, for chains, the same parities), and the weighted
    kinds sit on sites of one dimension; None otherwise."""
    if not covers_bipartitions(lifts) or len({(c.child.graded_kind, c.child.parities)
                                              for c in lifts}) > 1:
        return None
    dims, child = lifts[0].dims, lifts[0].child
    n, kind = dims.n, child.graded_kind
    if kind == "chain":
        return GradedLifts(len(lifts), dims, kind, child.parities,
                           tuple(view_recipe((i,), n, child.parities) for i in range(n)))
    if len(set(dims.dims)) > 1:
        return None
    # the child on k sites divides by d^k - 1 (reduction) or d^k - 2 (Breuer-Hall)
    shift, d = (1 if kind == "reduction" else 2), dims.dims[0]
    weights = (0.0,) + tuple(1 / (d ** k - shift) for k in range(1, n // 2 + 1))
    own = -sum(weights[len(c.parties)] for c in lifts)
    return GradedLifts(len(lifts), dims, kind, None, (), weights, own)


def _grades(x: np.ndarray, n: int, top: int, add: Callable, first: Callable | None = None,
            fresh: Callable | None = None) -> list[np.ndarray]:
    """[E_0 = x, E_1, ..., E_top], the latter fresh, with E_k the sum over B in
    {1..n-1}, |B| = k, of (F_{min B} prod_{i in B, i > min B} L_i)(x), where
    add(i, y, out) adds L_i(y) into out and returns out, and `first` does so
    for F_i (by default F_i = L_i).

    Built site by site as E_k <- E_k + L_i(E_{k-1}), k = h..2, and
    E_1 <- E_1 + F_i(x), h the grades reached so far; a grade that site i
    opens starts from zero.  With `fresh`, the grades are cumulative
    instead, E_k over |B| <= k with F = L, and grade h + 1 opens as
    fresh(i, E_h) = E_h + L_i(E_h)."""
    first = first or add
    grades = [x]
    for i in range(1, n):
        h = len(grades) - 1
        if h < top:
            grades.append(fresh(i, grades[h]) if fresh else
                          (first if h == 0 else add)(i, grades[h], np.zeros(x.shape, x.dtype)))
        for k in range(h, 0, -1):
            (first if k == 1 else add)(i, grades[k - 1], grades[k])
    return grades


def _at(ndim: int, i: int, row, col) -> tuple:
    """The index that takes `row` of site i's row digit and `col` of its column
    digit in x.reshape((-1,) + dims + dims), a tensor of ndim = 1 + 2n axes."""
    index = [slice(None)] * ndim
    index[1 + i], index[(ndim + 1) // 2 + i] = row, col
    return tuple(index)


@functools.lru_cache(maxsize=64)
def _around(shape: tuple[int, ...], i: int) -> tuple[int, int, int, int, int]:
    """(L, d_i, M, d_i, R): a C-contiguous tensor of `shape`, 1 + 2n axes as
    x.reshape((-1,) + dims + dims) has them, seen around site i's row and
    column axes; few axes make numpy's loops over small blocks cheap."""
    c = (len(shape) + 1) // 2 + i
    return prod(shape[:1 + i]), shape[1 + i], prod(shape[2 + i:c]), shape[c], prod(shape[c + 1:])


def _trace_add(i: int, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out += P_i(y) = I_i (x) Tr_i y, both C-contiguous: the sum of site i's
    diagonal blocks, added to each of them.  The blocks are added one by
    one, so a complex y sums its real and imaginary parts as a real y would."""
    y, o = y.reshape(_around(y.shape, i)), out.reshape(_around(out.shape, i))
    tr = y[:, 0, :, 0] + y[:, 1, :, 1]
    for j in range(2, y.shape[1]):
        tr += y[:, j, :, j]
    for j in range(y.shape[1]):
        diag = o[:, j, :, j]
        diag += tr
    return out


def _transpose_add(i: int, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out += T_i(y), the transposition of site i, both C-contiguous."""
    o = out.reshape(_around(out.shape, i))
    np.add(o, y.reshape(_around(y.shape, i)).transpose(0, 3, 2, 1, 4), out=o)
    return out


#: the signs of v y v^T on one site, v = `maps.default_skew_unitary(d)`, for
#: its rows and columns in halves of d / 2 digits: - where the halves differ
_SKEW_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]]).reshape(1, 2, 1, 1, 2, 1, 1)


def _skew_add(i: int, y: np.ndarray, out: np.ndarray, sign: int = 1) -> np.ndarray:
    """out += sign v T_i(y) v^T on site i, both C-contiguous: with site i's
    digits split into (half, digit in half), a transposition that swaps the
    halves, after `_SKEW_SIGNS`."""
    L, d, M, _, R = _around(y.shape, i)
    signed = y.reshape(L, 2, d // 2, M, 2, d // 2, R) * (sign * _SKEW_SIGNS)
    o = out.reshape(signed.shape)
    np.add(o, signed.transpose(0, 4, 5, 3, 1, 2, 6)[:, ::-1, :, :, ::-1], out=o)
    return out


def _weighted(pairs: Iterable[tuple[float, np.ndarray]], out: np.ndarray | None = None):
    """The sum of w y over the (w, y) pairs, into `out` (fresh when None)."""
    (w, y), *rest = pairs
    out = np.multiply(y, w, out=out)
    for w, y in rest:
        out += y * w
    return out


@functools.lru_cache(maxsize=64)
def _site0_blocks(ndim: int, d0: int, chunked: bool) -> tuple:
    """(index, row digits, column digits) of each block of site-0 digits that
    `bipartition_sum` runs on its own, digits as (start, stop): one row digit
    and one column digit when chunked, else all of them."""
    spans = [(r, r + 1) for r in range(d0)] if chunked else [(0, d0)]
    return tuple((_at(ndim, 0, slice(*rows), slice(*cols)), rows, cols)
                 for rows, cols in itertools.product(spans, spans))


def bipartition_sum(x: np.ndarray, graded: GradedLifts) -> np.ndarray:
    """The graded lifts applied to a stack x, shape (..., D, D), and added up.

    The grades run over sites 1..n-1 (`_grades`).  The representatives
    without party 0 are grades 1..g, g = (n - 1) // 2; those with it take the
    site-0 map on grades 0..g for even n and 0..g-1 for odd n.  L_1..L_{n-1}
    keep the site-0 digits, so from `_BLOCKS_MIN_DIM` on each block of one
    site-0 row digit and one site-0 column digit runs on its own, with grade
    buffers of D^2 / d_0^2 entries.
    """
    dims = graded.dims.dims
    t = x.reshape((-1,) + dims + dims)
    chunked = x.shape[-1] >= _BLOCKS_MIN_DIM
    out = (np.zeros if chunked else np.empty)(t.shape, dtype=x.dtype)
    (_chain_sum if graded.kind == "chain" else _weighted_sum)(t, out, graded, chunked)
    return out.reshape(x.shape)


def _chain_sum(t: np.ndarray, out: np.ndarray, graded: GradedLifts, chunked: bool) -> None:
    """Chains, by cumulative grades: the sides without party 0 add up to
    E_g - x, and those with it to L_0(E_g) for even n and L_0(E_{g-1}) for
    odd n, which moves a block of site-0 digits to the block it names."""
    n, d0 = graded.dims.n, graded.dims.dims[0]
    transpose, reverse = graded.parities
    mirror = (lambda a, b: slice(d0 - b, d0 - a)) if reverse else slice
    sites = graded.sites
    # the view is spelled out in add and fresh too: one Python call per site step
    view = lambda i, y: y.transpose(sites[i][0])[sites[i][1]]  # noqa: E731
    add = lambda i, y, out: np.add(out, y.transpose(sites[i][0])[sites[i][1]], out=out)  # noqa: E731
    fresh = lambda i, y: y + y.transpose(sites[i][0])[sites[i][1]]  # noqa: E731
    for block, (a, b), (c, e) in _site0_blocks(t.ndim, d0, chunked):
        grades = _grades(t[block], n, (n - 1) // 2, add, fresh=fresh)
        own = out[block]
        if chunked:
            own += grades[-1]
            own -= grades[0]
        else:
            np.subtract(grades[-1], grades[0], out=own)
        rows, cols = mirror(a, b), mirror(c, e)
        dest = out[_at(t.ndim, 0, *((cols, rows) if transpose else (rows, cols)))]
        dest += view(0, grades[-1 - n % 2])


def _weighted_sum(t: np.ndarray, out: np.ndarray, graded: GradedLifts, chunked: bool) -> None:
    """Reduction or Breuer-Hall lifts, by exact grades.  The lift onto A is
    w_|A| (prod_{i in A} P_i - 1 - S_A) of x, with S_A = 0 for the reduction,
    and for Breuer-Hall S_A = prod_{i in A} T_i after v on party min(A): the
    grades of the P_i, of the T_i (`low` = the top grade with party 0) and of
    the T_i with v on the first member of B.  P_0 collects the diagonal
    site-0 blocks and adds them to each; v T_0 moves a block of site-0 digits
    to the block it names, signed."""
    n, d0, w = graded.dims.n, graded.dims.dims[0], graded.weights
    top, low = (n - 1) // 2, n // 2 - 1
    skew, h = graded.kind == "breuer-hall", d0 // 2
    traced = None
    for block, (a, _), (c, _) in _site0_blocks(t.ndim, d0, chunked):
        x = np.ascontiguousarray(t[block])
        grades = _grades(x, n, top, _trace_add)
        terms = [(w[k], grades[k]) for k in range(1, top + 1)] + [(graded.own, x)]
        with_0 = _weighted((w[k + 1], grades[k]) for k in range(low + 1))
        if skew:
            firsts = _grades(x, n, top, _transpose_add, first=_skew_add)
            terms += [(-w[k], firsts[k]) for k in range(1, top + 1)]
            transposed = _grades(x, n, low, _transpose_add)
            skewed_0 = with_0 if low == 0 else \
                _weighted((w[k + 1], transposed[k]) for k in range(low + 1))
        if not chunked:
            _weighted(terms, out)
            _trace_add(0, with_0, out)
            if skew:
                _skew_add(0, skewed_0, out, -1)
            continue
        own = out[block]
        own += _weighted(terms)
        if a == c:
            traced = with_0 if traced is None else np.add(traced, with_0, out=traced)
        if skew:
            # v T_0 sends site-0 digits (a, c) to (c + h, a + h) mod d_0, negated
            # when a and c lie in different halves; these sides subtract it
            dest = out[_at(t.ndim, 0, *(slice(r, r + 1) for r in ((c + h) % d0, (a + h) % d0)))]
            (np.subtract if (a < h) == (c < h) else np.add)(dest, skewed_0, out=dest)
    if chunked:
        for j in range(d0):
            diag = out[_at(t.ndim, 0, slice(j, j + 1), slice(j, j + 1))]
            diag += traced


def bipartition_gather_sum(p: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """The sum over bipartition representatives A of (prod_{i in A} L_i) p,
    p of shape (..., D), for commuting gathers (L_i p)[u] = p[sites[i, u]],
    n >= 3, by the recurrence of `bipartition_sum`."""
    n = len(sites)
    grades = _grades(p, n, (n - 1) // 2, lambda i, y, out: np.add(out, y[..., sites[i]], out=out),
                     fresh=lambda i, y: y + y[..., sites[i]])
    out = grades[-1] - grades[0]
    out += grades[-1 - n % 2][..., sites[0]]
    return out
