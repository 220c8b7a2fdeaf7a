"""Bipartition sums of lifted site-wise involutions and shifts, by grades.

The criteria add one lift of a positive map for one side of every
bipartition, its representative (`bipartitions`), and the recurrence below
depends on that choice of side.  When the lifted map is a chain of
transpositions and digit reversals (sigma_x on qubits), `maps.Sum` records
the lifts as `GradedLifts`.  With L_i the chain on site i alone, the lift
onto parties A is the product of the commuting involutions L_i, i in A, and
L_i is a strided view of x.reshape((-1,) + dims + dims), given by
`view_recipe`.  `bipartition_sum` adds all 2^(n-1) - 1 lifts by a
recurrence over grades, the sizes of the sides, in about n^2 / 2 strided
adds; `bipartition_gather_sum` does so on D-vectors, for L_i an index
gather.  Every other lift is evaluated block by block in `maps`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
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
    representative of `dims`, each of a chain with `parities`.  `sites[i]` is
    the view recipe of the chain on site i alone."""

    count: int
    dims: SiteDims
    parities: tuple[bool, bool]
    sites: tuple[ViewRecipe, ...]


def covers_bipartitions(lifts: Sequence[Lift]) -> bool:
    """True when `lifts` are one lift per bipartition representative
    (`bipartitions`) of n >= 3 sites, all on the same dims."""
    n = lifts[0].dims.n if lifts else 0
    return n >= 3 and len(lifts) == 2 ** (n - 1) - 1 and {
        c.parties.members for c in lifts if c.dims == lifts[0].dims} == _sides(n)


def graded_form(lifts: list[Lift]) -> GradedLifts | None:
    """The `GradedLifts` of a sum's leading lifts of chains (`MapExpr.parities`
    not None), when they cover the bipartitions (`covers_bipartitions`) with
    the same parities; None otherwise."""
    if not covers_bipartitions(lifts) or len({c.child.parities for c in lifts}) > 1:
        return None
    dims, parities = lifts[0].dims, lifts[0].child.parities
    return GradedLifts(len(lifts), dims, parities,
                       tuple(view_recipe((i,), dims.n, parities) for i in range(dims.n)))


def _grades(x: np.ndarray, step: Callable[[int, np.ndarray], np.ndarray],
            n: int) -> list[np.ndarray]:
    """[E_0 = x, E_1, ..., E_g], the latter fresh, g = (n - 1) // 2, with E_k
    the sum of L_B(x) over B in {1..n-1}, |B| <= k, and L_i(y) = step(i, y).
    Built site by site as E_k <- E_k + L_i(E_{k-1}), k = g..1, from E_k = x;
    every E_k with k at least the number of sites seen so far is one sum."""
    top = (n - 1) // 2
    grades = [x]
    for i in range(1, n):
        h = len(grades) - 1
        if h < top:
            grades.append(grades[h] + step(i, grades[h]))
        for k in range(h, 0, -1):
            np.add(grades[k], step(i, grades[k - 1]), out=grades[k])
    return grades


def bipartition_sum(x: np.ndarray, graded: GradedLifts) -> np.ndarray:
    """The graded lifts applied to a stack x, shape (..., D, D), and added up.

    The representatives without party 0 add up to E_g - x (`_grades`), and
    those with it to L_0(E_g) for even n and L_0(E_{g-1}) for odd n.
    L_1..L_{n-1} keep the site-0 digits, so from `_BLOCKS_MIN_DIM` on each
    block of one site-0 row digit and one site-0 column digit runs on its
    own, with grade buffers of D^2 / d_0^2 entries.
    """
    dims = graded.dims.dims
    n, d0 = len(dims), dims[0]
    transpose, reverse = graded.parities
    t = x.reshape((-1,) + dims + dims)
    chunked = x.shape[-1] >= _BLOCKS_MIN_DIM
    out = (np.zeros if chunked else np.empty)(t.shape, dtype=x.dtype)
    spans = [(r, r + 1) for r in range(d0)] if chunked else [(0, d0)]
    mirror = (lambda a, b: slice(d0 - b, d0 - a)) if reverse else slice
    step = lambda i, y: y.transpose(graded.sites[i][0])[graded.sites[i][1]]  # noqa: E731
    for (a, b), (c, e) in itertools.product(spans, spans):
        block = [slice(None)] * t.ndim
        block[1], block[1 + n] = slice(a, b), slice(c, e)
        grades = _grades(t[tuple(block)], step, n)
        own = out[tuple(block)]
        if chunked:
            own += grades[-1]
            own -= grades[0]
        else:
            np.subtract(grades[-1], grades[0], out=own)
        # L_0 moves this block of site-0 digits to the block `block` names
        rows, cols = mirror(a, b), mirror(c, e)
        block[1], block[1 + n] = (cols, rows) if transpose else (rows, cols)
        dest = out[tuple(block)]
        dest += step(0, grades[-1 - n % 2])
    return out.reshape(x.shape)


def bipartition_gather_sum(p: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """The sum over bipartition representatives A of (prod_{i in A} L_i) p,
    p of shape (..., D), for commuting gathers (L_i p)[u] = p[sites[i, u]],
    n >= 3, by the recurrence of `bipartition_sum`."""
    n = len(sites)
    grades = _grades(p, lambda i, y: y[..., sites[i]], n)
    out = grades[-1] - grades[0]
    out += grades[-1 - n % 2][..., sites[0]]
    return out
