"""Bipartition sums of lifted transpositions and digit reversals, by grades.

A chain of transpositions and digit reversals (sigma_x on qubits) lifted
onto parties A is a strided view of x.reshape((-1,) + dims + dims), given by
`view_recipe`.  With L_i the chain on site i alone, that lift is the product
of the commuting involutions L_i, i in A.  The criteria add such a lift for
one side of every bipartition: the smaller side, or at an even split the
side holding party 0.  `bipartition_sum` adds all 2^(n-1) - 1 of them by a
recurrence over grades, the sizes of the sides, in about n^2 / 2 strided
adds.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from .operators import SiteDims

if TYPE_CHECKING:
    from .maps import Lift

#: (axes order, index) of a strided view of x.reshape((-1,) + dims + dims)
ViewRecipe = tuple[tuple[int, ...], tuple[slice, ...]]

#: smallest side D at which `bipartition_sum` runs one block of site-0
#: digits at a time
_BLOCKS_MIN_DIM = 256


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


def _parities(lift: Lift) -> tuple[bool, bool]:
    """The (transposition, reversal) parities a lift's view recipe applies."""
    axes, flip = lift.view
    p = lift.parties.members[0]
    return axes[1 + p] != 1 + p, flip[1 + p].step == -1


def graded_form(lifts: list[Lift]) -> GradedLifts | None:
    """The `GradedLifts` of a sum's leading lifts with a view recipe, when they
    are exactly one lift per bipartition representative of n >= 3 sites, all
    on the same dims with the same parities; None otherwise."""
    if not lifts:
        return None
    dims, parities = lifts[0].dims, _parities(lifts[0])
    n = dims.n
    count = 2 ** (n - 1) - 1
    if n < 3 or len(lifts) != count or any(c.dims != dims or _parities(c) != parities
                                           for c in lifts):
        return None
    sides = {c.parties.members for c in lifts}
    if len(sides) < count or any(2 * len(A) > n or (2 * len(A) == n and 0 not in A)
                                 for A in sides):
        return None
    return GradedLifts(count, dims, parities,
                       tuple(view_recipe((i,), n, parities) for i in range(n)))


def bipartition_sum(x: np.ndarray, graded: GradedLifts) -> np.ndarray:
    """The graded lifts applied to a stack x, shape (..., D, D), and added up.

    With g = (n - 1) // 2, E_k = sum of L_B(x) over B in {1..n-1}, |B| <= k,
    is built site by site as E_k <- E_k + L_i(E_{k-1}), k = g..1, from
    E_k = x.  Every E_k with k at least the number of sites seen so far is
    the same sum, held once.  The representatives without party 0 add up to
    E_g - x, and those with it to L_0(E_g) for even n and L_0(E_{g-1}) for
    odd n.  L_1..L_{n-1} keep the site-0 digits, so from `_BLOCKS_MIN_DIM` on
    each block of one site-0 row digit and one site-0 column digit runs on
    its own, with grade buffers of D^2 / d_0^2 entries.
    """
    dims = graded.dims.dims
    n, d0 = len(dims), dims[0]
    top = (n - 1) // 2
    transpose, reverse = graded.parities
    t = x.reshape((-1,) + dims + dims)
    chunked = x.shape[-1] >= _BLOCKS_MIN_DIM
    out = (np.zeros if chunked else np.empty)(t.shape, dtype=x.dtype)
    spans = [(r, r + 1) for r in range(d0)] if chunked else [(0, d0)]
    mirror = (lambda a, b: slice(d0 - b, d0 - a)) if reverse else slice
    for (a, b), (c, e) in itertools.product(spans, spans):
        block = [slice(None)] * t.ndim
        block[1], block[1 + n] = slice(a, b), slice(c, e)
        grades = [t[tuple(block)]]
        for axes, flip in graded.sites[1:]:
            h = len(grades) - 1
            if h < top:
                grades.append(grades[h] + grades[h].transpose(axes)[flip])
            for k in range(h, 0, -1):
                np.add(grades[k], grades[k - 1].transpose(axes)[flip], out=grades[k])
        own = out[tuple(block)]
        if chunked:
            own += grades[top]
            own -= grades[0]
        else:
            np.subtract(grades[top], grades[0], out=own)
        # L_0 moves this block of site-0 digits to the block `block` names
        rows, cols = mirror(a, b), mirror(c, e)
        block[1], block[1 + n] = (cols, rows) if transpose else (rows, cols)
        dest = out[tuple(block)]
        axes, flip = graded.sites[0]
        dest += grades[top - n % 2].transpose(axes)[flip]
    return out.reshape(x.shape)
