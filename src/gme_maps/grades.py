"""Bipartition sums of lifted maps that factor over the sites, by grades.

The criteria add one lift of a positive map for one side of every
bipartition, its representative (`bipartitions`), and the recurrence below
depends on that choice of side.  `maps.SideLifts` holds one child per side
size and works out its `GradedLifts` from them (`graded_form`) when the lift
onto parties A is, up to a weight w_|A| per side size and a multiple of the
identity, a signed sum of products F_{min A} prod_{i in A, i > min A} L_i of
commuting per-site maps:

- a chain of transpositions and digit reversals (sigma_x on qubits), weight
  1: L_i = F_i, the chain on site i alone, a strided view;
- the reduction map, w_k = 1 / (d^k - 1): I_A (x) Tr_A is the product of
  P_i(y) = I_i (x) Tr_i y;
- the Breuer-Hall map with V = `maps.default_skew_unitary(d^k)`, w_k =
  1 / (d^k - 2): besides the P_i, minus V rho^{T_A} V^dag, the product of
  the transpositions T_i with F_i = v T_i v^T, v = `default_skew_unitary(d)`,
  since V = v (x) I.

`bipartition_sum` adds all 2^(n-1) - 1 lifts by one recurrence over grades,
the sizes of the sides, in about n^2 / 2 site steps per product;
`bipartition_gather_sum` does so on D-vectors, for L_i an index gather, and
`bipartition_diagonal_sum` for the reductions on a diagonal input.  Every
other lift is evaluated block by block in `maps`.
"""

from __future__ import annotations

import functools
import itertools
from math import comb, prod
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .operators import PartySubset, SiteDims

if TYPE_CHECKING:
    from .maps import MapExpr

#: step(i, y, out=None) adds L_i(y) into out and returns out, or returns a
#: fresh L_i(y) when out is None; y and out are C-contiguous and shaped as
#: x.reshape((-1,) + dims + dims)
Step = Callable[..., np.ndarray]
#: (sign, L, F) per product of per-site maps, L and F by their steps
Terms = tuple[tuple[int, Step, Step], ...]

#: smallest side D at which `bipartition_sum` runs one block of site-0
#: digits at a time
_BLOCKS_MIN_DIM = 256


@functools.lru_cache(maxsize=16)
def bipartitions(n: int) -> tuple[PartySubset, ...]:
    """All 2^(n-1) - 1 bipartition representatives, by size then lexicographic,
    one per unordered bipartition A|Abar.

    The representative is the smaller side; for even splits, the side
    containing party 0.  The tuple is immutable, so one is built per n.
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
    return tuple(reps)


def side_counts(n: int) -> tuple[int, ...]:
    """The number of representatives of `bipartitions(n)` of each size
    k = 1..n // 2, counted without listing them: C(n, k), halved at k = n / 2."""
    return tuple(comb(n, k) // (2 if 2 * k == n else 1) for k in range(1, n // 2 + 1))


class GradedLifts(NamedTuple):
    """One lift per bipartition representative of `dims`, of the child of its
    side size (`maps.SideLifts`), all of one `kind` of child
    (`maps.MapExpr.graded_kind`), chains with `parities`.  The lift onto a
    side A of k parties is `weights[k]` times the sum over `terms`
    (sign, L, F) of sign F_{min A} prod_{i in A, i > min A} L_i, plus a
    multiple of x; `own` is the coefficient of x in the sum of all the lifts."""

    dims: SiteDims
    kind: str
    parities: tuple[bool, bool] | None
    terms: Terms
    weights: tuple[float, ...]
    own: float = 0.0


def graded_form(children: Sequence[MapExpr], dims: SiteDims) -> GradedLifts | None:
    """The `GradedLifts` of `children[k - 1]` lifted onto every side of k
    parties of the sites `dims`, all of one dimension, when the children have
    one `graded_kind` (and, for chains, the same parities); None otherwise."""
    child = children[0]
    n, kind = dims.n, child.graded_kind
    if kind is None or len({(c.graded_kind, c.parities) for c in children}) > 1:
        return None
    if kind == "chain":
        step = _chain_step(*child.parities)
        return GradedLifts(dims, kind, child.parities, ((1, step, step),), (1.0,) * (n // 2 + 1))
    # the child on k sites divides by d^k - 1 (reduction) or d^k - 2 (Breuer-Hall)
    shift, d = (1 if kind == "reduction" else 2), dims.dims[0]
    weights = (0.0,) + tuple(1 / (d ** k - shift) for k in range(1, n // 2 + 1))
    own = -sum(weights[len(A)] for A in bipartitions(n))
    terms = ((1, _trace_step, _trace_step),)
    if kind == "breuer-hall":
        terms += ((-1, _chain_step(True, False), _skew_step),)
    return GradedLifts(dims, kind, None, terms, weights, own)


def _grades(x: np.ndarray, n: int, top: int, step: Step, first: Step | None = None
            ) -> list[np.ndarray]:
    """[E_0 = x, E_1, ..., E_top], with E_k the sum over B in {1..n-1},
    |B| = k, of (F_{min B} prod_{i in B, i > min B} L_i)(x), for the `step`
    of L and the step `first` of F (by default F = L).

    Built site by site as E_k <- E_k + L_i(E_{k-1}), k = h..2, and
    E_1 <- E_1 + F_i(x), h the grades reached so far; the grade that site i
    opens is a fresh L_i(E_h), or F_i(x) for h = 0."""
    first = first or step
    grades = [x]
    for i in range(1, n):
        h = len(grades) - 1
        if h < top:
            grades.append((first if h == 0 else step)(i, grades[h]))
        for k in range(h, 0, -1):
            (first if k == 1 else step)(i, grades[k - 1], grades[k])
    return grades


@functools.lru_cache(maxsize=64)
def _around(shape: tuple[int, ...], i: int) -> tuple[int, int, int, int, int]:
    """(L, d_i, M, d_i, R): a C-contiguous tensor of `shape`, 1 + 2n axes as
    x.reshape((-1,) + dims + dims) has them, seen around site i's row and
    column axes; few axes make numpy's loops over small blocks cheap."""
    c = (len(shape) + 1) // 2 + i
    return prod(shape[:1 + i]), shape[1 + i], prod(shape[2 + i:c]), shape[c], prod(shape[c + 1:])


def _put(view: np.ndarray, shape: tuple[int, ...], out: np.ndarray | None) -> np.ndarray:
    """out += view, out seen in the view's shape, and out; or, when out is
    None, a C-contiguous copy of the view in `shape`."""
    if out is None:
        return view.copy().reshape(shape)
    o = out.reshape(view.shape)
    np.add(o, view, out=o)
    return out


@functools.lru_cache(maxsize=4)
def _chain_step(transpose: bool, reverse: bool) -> Step:
    """The step of a chain with these parities on one site: a view of y with
    site i's row and column digits swapped and/or both reversed."""
    axes = (0, 3, 2, 1, 4) if transpose else (0, 1, 2, 3, 4)
    flip = slice(None, None, -1 if reverse else 1)

    def step(i, y, out=None):
        return _put(y.reshape(_around(y.shape, i)).transpose(axes)[:, flip, :, flip], y.shape, out)
    return step


def _trace_step(i: int, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """P_i(y) = I_i (x) Tr_i y: the sum of site i's diagonal blocks, added to
    each of them.  The blocks are added one by one, so a complex y sums its
    real and imaginary parts as a real y would."""
    if out is None:
        out = np.zeros(y.shape, y.dtype)
    y, o = y.reshape(_around(y.shape, i)), out.reshape(_around(out.shape, i))
    tr = y[:, 0, :, 0] + y[:, 1, :, 1]
    for j in range(2, y.shape[1]):
        tr += y[:, j, :, j]
    for j in range(y.shape[1]):
        diag = o[:, j, :, j]
        diag += tr
    return out


def _digit_sum_step(i: int, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """P_i on the diagonal of a diagonal input, y shaped as p.reshape((-1,) +
    dims): the sum over site i's digit, added at each digit, in the order
    `_trace_step` adds the diagonal blocks."""
    t = y.reshape(prod(y.shape[:1 + i]), y.shape[1 + i], -1)
    if out is None:
        out = np.zeros(y.shape, y.dtype)
    o = out.reshape(t.shape)
    tr = t[:, 0] + t[:, 1]
    for j in range(2, t.shape[1]):
        tr += t[:, j]
    for j in range(t.shape[1]):
        o[:, j] += tr
    return out


#: the signs of v y v^T on one site, v = `maps.default_skew_unitary(d)`, for
#: its rows and columns in halves of d / 2 digits: - where the halves differ
_SKEW_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]]).reshape(1, 2, 1, 1, 2, 1, 1)


def _skew_step(i: int, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """v T_i(y) v^T on site i: with site i's digits split into (half, digit
    in half), a transposition that swaps the halves, after `_SKEW_SIGNS`."""
    L, d, M, _, R = _around(y.shape, i)
    signed = y.reshape(L, 2, d // 2, M, 2, d // 2, R) * _SKEW_SIGNS
    return _put(signed.transpose(0, 4, 5, 3, 1, 2, 6)[:, ::-1, :, :, ::-1], y.shape, out)


def _add(out: np.ndarray, y: np.ndarray, c: float) -> None:
    """out += c y, with no product for c = 1."""
    out += y if c == 1 else c * y


def _graded_parts(x: np.ndarray, n: int, terms: Terms, weights: Sequence[float],
                  out: np.ndarray) -> Iterator[tuple[Step, np.ndarray]]:
    """For each term (sign, L, F): adds sign w_k E_k over the grades
    k = 1..(n-1)//2 of F and L (`_grades`), the sides without party 0, into
    out; then yields (F, Y), Y = sign sum_k w_{k+1} E_k over the grades
    k = 0..n//2-1 of L alone, collected in the buffer of the top one: the
    sides with party 0 add F_0(Y)."""
    top, low = (n - 1) // 2, n // 2 - 1
    for sign, step, first in terms:
        grades = _grades(x, n, top, step, first)
        for k in range(1, top + 1):
            _add(out, grades[k], sign * weights[k])
        if first is not step:
            grades = _grades(x, n, low, step)
        y, c = grades[low], sign * weights[low + 1]
        if c != 1:
            y = c * y if low == 0 else np.multiply(y, c, out=y)
        for k in range(low):
            _add(y, grades[k], sign * weights[k + 1])
        yield first, y


def _whole(x: np.ndarray, out: np.ndarray, n: int, terms: Terms, weights: Sequence[float]
           ) -> np.ndarray:
    """out plus the graded sum of x held whole: F_0 is the step itself."""
    for first, y in _graded_parts(x, n, terms, weights, out):
        first(0, y, out)
    return out


@functools.lru_cache(maxsize=256)
def _at(ndim: int, row: int, col: int) -> tuple:
    """The index of the block of site-0 row digit `row` and column digit
    `col` in x.reshape((-1,) + dims + dims), a tensor of ndim = 1 + 2n axes."""
    index = [slice(None)] * ndim
    index[1], index[(ndim + 1) // 2] = slice(row, row + 1), slice(col, col + 1)
    return tuple(index)


@functools.lru_cache(maxsize=16)
def _moves(step: Step, d0: int) -> tuple[tuple[tuple[int, int, float], ...], ...]:
    """For each block (a, c) of site-0 digits, at a d0 + c, the blocks (row,
    column, coefficient) that F_0 adds it into: F, the `step` on site 0,
    applied to the d0 x d0 basis."""
    images = step(0, np.eye(d0 * d0).reshape(d0 * d0, d0, d0))
    return tuple(tuple((int(r), int(s), float(f[r, s])) for r, s in zip(*np.nonzero(f)))
                 for f in images)


def bipartition_sum(x: np.ndarray, graded: GradedLifts) -> np.ndarray:
    """The graded lifts applied to a stack x, shape (..., D, D), and added up.

    The grades run over sites 1..n-1 (`_graded_parts`) and keep the site-0
    digits, so from `_BLOCKS_MIN_DIM` on each block of one site-0 row digit
    and one site-0 column digit runs on its own, with grade buffers of
    D^2 / d_0^2 entries, and F_0 moves it into the blocks `_moves` lists.
    """
    dims, n, terms, w = graded.dims.dims, graded.dims.n, graded.terms, graded.weights
    t = np.ascontiguousarray(x).reshape((-1,) + dims + dims)
    out = graded.own * t if graded.own else np.zeros(t.shape, x.dtype)
    if x.shape[-1] < _BLOCKS_MIN_DIM:
        return _whole(t, out, n, terms, w).reshape(x.shape)
    for a, c in itertools.product(range(dims[0]), repeat=2):
        block = _at(t.ndim, a, c)
        for first, y in _graded_parts(np.ascontiguousarray(t[block]), n, terms, w, out[block]):
            for r, s, f in _moves(first, dims[0])[a * dims[0] + c]:
                _add(out[_at(t.ndim, r, s)], y, f)
    return out.reshape(x.shape)


def bipartition_gather_sum(p: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """The sum over bipartition representatives A of (prod_{i in A} L_i) p,
    p of shape (..., D), for commuting gathers (L_i p)[u] = p[sites[i, u]],
    n >= 3, by the recurrence of `bipartition_sum`."""
    def gather(i, y, out=None):
        return y[..., sites[i]] if out is None else np.add(out, y[..., sites[i]], out=out)

    n = len(sites)
    return _whole(p, np.zeros(p.shape, p.dtype), n, ((1, gather, gather),), (1.0,) * (n // 2 + 1))


def bipartition_diagonal_sum(p: np.ndarray, graded: GradedLifts) -> np.ndarray:
    """The diagonal of `bipartition_sum` of reduction lifts on an input whose
    only nonzero entries are its diagonal p, shape (..., D): the P_i keep such
    an input diagonal, so the recurrence runs on p (`_digit_sum_step`) from
    own p, as `bipartition_sum` runs it whole from own x."""
    t = np.ascontiguousarray(p).reshape((-1,) + graded.dims.dims)
    terms = ((1, _digit_sum_step, _digit_sum_step),)
    return _whole(t, graded.own * t, graded.dims.n, terms, graded.weights).reshape(p.shape)
