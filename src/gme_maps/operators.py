"""Dense multipartite operator arithmetic.

Operators live on a tensor product of local Hilbert spaces described by
SiteDims.  The computational product basis is used throughout, row-major,
with party 0 the most significant index (numpy.kron convention).  Partial
transposition and partial trace are defined with respect to this basis.

One dtype rule holds for every operator, vector and map-node array: it is
float64 when every imaginary part is exactly zero, and complex128 otherwise
(`real_or_complex`).  Real states and maps so stay in real arithmetic, with
half the bytes per apply and the real symmetric eigensolver; numpy's type
promotion carries the rule through every evaluation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import prod
from typing import Iterable, NamedTuple, Sequence

import numpy as np

HERM_RTOL = 1e-12
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_TOL = 1e-10
# Up to this side one dense eigensolve costs no more than the block search of
# `joint_blocks` (about 0.1-0.2 ms in numpy calls, measured at D = 27..243).
DENSE_MAX_DIM = 64


@dataclass(frozen=True)
class SiteDims:
    """Ordered local dimensions of a multipartite system."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims:
            raise ValueError("need at least one site")
        if any(d < 2 for d in dims):
            raise ValueError(f"every local dimension must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return prod(self.dims)

    def __iter__(self):
        return iter(self.dims)


def real_or_complex(a) -> np.ndarray:
    """The array as float64 when every imaginary part is exactly zero, else as
    complex128; may return `a` itself or a view of it."""
    a = np.asarray(a)
    if np.iscomplexobj(a) and a.imag.any():
        return a.astype(complex, copy=False)
    return a.real.astype(float, copy=False)


def frozen_copy(a: np.ndarray) -> np.ndarray:
    """A read-only copy of the array, as the operators and map nodes keep."""
    a = a.copy()
    a.flags.writeable = False
    return a


def site_dims(dims: Iterable[int] | SiteDims) -> SiteDims:
    return dims if isinstance(dims, SiteDims) else SiteDims(tuple(dims))


@dataclass(frozen=True)
class PartySubset:
    """Proper nonempty subset of party indices, kept sorted."""

    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(set(int(m) for m in self.members))))

    def validate(self, n: int) -> None:
        if not self.members or len(self.members) >= n:
            raise ValueError(f"subset {self.members} must be proper and nonempty for {n} parties")
        if self.members[0] < 0 or self.members[-1] >= n:
            raise ValueError(f"subset {self.members} out of range for {n} parties")

    def complement(self, n: int) -> "PartySubset":
        return PartySubset(tuple(i for i in range(n) if i not in self.members))

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


def party_subset(members: Iterable[int] | PartySubset) -> PartySubset:
    return members if isinstance(members, PartySubset) else PartySubset(tuple(members))


@dataclass(frozen=True, eq=False)
class MpOperator:
    """Square matrix tagged with the SiteDims it acts on: float64 when every
    entry is real, complex128 otherwise (`real_or_complex`)."""

    dims: SiteDims
    mat: np.ndarray

    def __post_init__(self):
        mat = real_or_complex(self.mat)
        D = self.dims.total
        if mat.shape != (D, D):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {self.dims.dims} (D={D})")
        object.__setattr__(self, "mat", frozen_copy(mat))

    @property
    def d(self) -> int:
        return self.dims.total

    def trace(self) -> complex:
        return complex(np.trace(self.mat))


def operator(dims: Iterable[int] | SiteDims, mat: np.ndarray) -> MpOperator:
    return MpOperator(site_dims(dims), mat)


def identity(dims: Iterable[int] | SiteDims) -> MpOperator:
    sd = site_dims(dims)
    return MpOperator(sd, np.eye(sd.total))


class BlockOperator(NamedTuple):
    """A block-diagonal operator, kept as its diagonal blocks of one size:
    `blocks[b]` acts on the basis vectors `index[b]`; shapes index (B, k),
    blocks (B, k, k).  No basis vector is in two blocks, and every entry
    outside the blocks is zero.

    On the X support (`x_support_index`) it is an input type as well as an
    output type: `states.noisy_ghz` builds GHZ, noisy GHZ and I/D as one,
    with no D x D array, and `maps.apply_blocks` takes it to a support
    form's output blocks, which it hands on as one on that form's index.
    """

    dims: SiteDims
    index: np.ndarray
    blocks: np.ndarray


@functools.lru_cache(maxsize=8)
def x_support_index(dims: SiteDims) -> np.ndarray:
    """(D/d, d): the basis indices of each block of the X support of `dims`,
    all sites of one dimension d, each block's indices ascending.  A basis
    index's block is labelled by its digits' offsets from site 0, mod d,
    read in base d, and the blocks come in label order, so block 0 holds the
    GHZ vectors |i...i>; entry (u, v) lies on the support exactly when u and
    v share a block.  Read-only and shared by every support form and
    X-support state on these dims, so their `BlockOperator`s stack together
    (`joint_blocks`)."""
    d, n = dims.dims[0], dims.n
    digits = np.arange(d ** n) // d ** np.arange(n - 1, -1, -1)[:, None] % d
    block = d ** np.arange(n - 2, -1, -1) @ ((digits[1:] - digits[0]) % d)
    index = np.argsort(block, kind="stable").reshape(-1, d)
    index.flags.writeable = False
    return index


def scatter_blocks(index: np.ndarray, blocks: np.ndarray, D: int) -> np.ndarray:
    """The whole matrices, shape (..., D, D), of blocks (..., B, k, k) on the
    basis vectors `index` (B, k), as in `BlockOperator`: zero off the blocks."""
    out = np.zeros(blocks.shape[:-3] + (D, D), dtype=blocks.dtype)
    out[..., index[:, :, None], index[:, None, :]] = blocks
    return out


def gather_blocks(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The blocks (..., B, k, k) of matrices x (..., D, D) on the basis
    vectors `index` (B, k), a fresh array; `scatter_blocks` undoes it where x
    is zero off the blocks."""
    return x[..., index[:, :, None], index[:, None, :]]


def whole_matrix(op: MpOperator | BlockOperator) -> np.ndarray:
    """The operator's D x D matrix: its own, or its blocks scattered."""
    if isinstance(op, MpOperator):
        return op.mat
    return scatter_blocks(op.index, op.blocks, op.dims.total)


# `joint_blocks` groups: (index (B, k), stack (rows, B, k, k)) per block size,
# rows >= 1
Groups = tuple[tuple[np.ndarray, np.ndarray], ...]
# the axes of a row's blocks in a stack (rows, B, k, k)
_BLOCK_AXES = (1, 2, 3)


def _component_labels(pattern: np.ndarray) -> np.ndarray:
    """The smallest index of each index's connected component in a square
    boolean pattern, (r, c) and (c, r) joined.

    Every index takes the smallest label among itself and its neighbours,
    then that label's own label, until nothing changes.
    """
    r, c = np.divmod(np.flatnonzero(pattern), len(pattern))
    labels = np.arange(len(pattern))
    while True:
        new = labels.copy()
        np.minimum.at(new, r, labels[c])
        np.minimum.at(new, c, labels[r])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def joint_blocks(ops: Sequence[MpOperator | BlockOperator]) -> Groups:
    """Outputs of one map, as operators of one side split on the connected
    components of the union of their exact nonzero patterns, (r, c) and
    (c, r) joined, grouped by size.

    In each group `(index, stack)`, `stack[j, b]` is the block of `ops[j]` on
    the basis vectors `index[b]`; shapes index (B, k), stack (len(ops), B, k, k).
    Groups come in ascending size, blocks in the order of their smallest
    index, each block's indices ascending.  `BlockOperator`s stack on their
    one shared index object, unsearched; any other mix is searched whole.
    Only exact zeros split blocks, so a tiny entry can merge two blocks but
    never drop out.  Without a search, one block holds a matrix of side up to
    `DENSE_MAX_DIM` and a union pattern with more than (D - 1)^2 + 1 nonzero
    entries, more than any split pattern holds.
    """
    lead = ops[0]
    if all(isinstance(op, BlockOperator) and op.index is lead.index for op in ops):
        return ((lead.index, lead.blocks[None] if len(ops) == 1
                 else np.stack([op.blocks for op in ops])),)
    mats = [whole_matrix(op) for op in ops]
    D = len(mats[0])
    pattern = None
    if D > DENSE_MAX_DIM:
        pattern = mats[0] != 0
        for mat in mats[1:]:
            pattern |= mat != 0
    if pattern is None or np.count_nonzero(pattern) > (D - 1) ** 2 + 1:
        return ((np.arange(D)[None], (mats[0][None] if len(mats) == 1 else np.stack(mats))[:, None]),)
    labels = _component_labels(pattern)
    counts = np.bincount(labels, minlength=D)
    sizes = counts[counts > 0]  # per component, in the order of its smallest index
    order = np.argsort(labels, kind="stable")
    first = np.cumsum(sizes) - sizes
    groups = []
    for k in sorted(set(sizes.tolist())):
        index = order[first[sizes == k][:, None] + np.arange(k)]
        groups.append((index, np.stack([gather_blocks(mat, index) for mat in mats])))
    return tuple(groups)


def is_hermitian(op: MpOperator | np.ndarray) -> bool:
    """`hermitian_rows` of an operator, or of a nonempty square array, taken
    as one block."""
    mat = op.mat if isinstance(op, MpOperator) else op
    return hermitian_rows(((np.arange(len(mat))[None], mat[None, None]),))[0][0]


def hermitian_rows(groups: Groups) -> tuple[list[bool], list[float]]:
    """Which rows of `joint_blocks` groups are Hermitian, and each row's
    largest entry.

    The one Hermiticity rule: a row is Hermitian when no block of it moves by
    more than HERM_RTOL times its largest entry over all of its groups (at
    least 1) under m -> m^dag; a NaN or infinite entry fails.  Peaks and
    differences are taken with overflow and inf - inf quiet: a row they touch
    has an infinite or NaN peak or difference, and fails the rule anyway.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        peaks = functools.reduce(np.maximum, [np.maximum.reduce(np.abs(s), axis=_BLOCK_AXES)
                                              for _, s in groups]).tolist()
        diff = functools.reduce(np.maximum, [
            np.maximum.reduce(np.abs(s - s.conj().swapaxes(-1, -2)), axis=_BLOCK_AXES)
            for _, s in groups]).tolist()
    ok = [p < np.inf and e <= HERM_RTOL * max(1.0, p) for p, e in zip(peaks, diff)]
    return ok, peaks


def _symmetrised(groups: Groups) -> Groups:
    """The groups with every block replaced by (m + m^dag) / 2."""
    return tuple((index, (s + s.conj().swapaxes(-1, -2)) / 2) for index, s in groups)


def _hermitian(groups: Groups) -> tuple[Groups, list[float]]:
    """`_symmetrised` groups and `hermitian_rows`' peaks; ValueError when a
    row is not Hermitian."""
    ok, peaks = hermitian_rows(groups)
    if not all(ok):
        raise ValueError("min_eig requires a Hermitian operator")
    return _symmetrised(groups), peaks


def _lowest(herm: Groups) -> np.ndarray:
    """The smallest eigenvalue of each row of symmetrised groups, from one
    batched eigenvalue-only solve per group."""
    return functools.reduce(np.minimum, [np.minimum.reduce(np.linalg.eigvalsh(h), axis=(1, 2))
                                         for _, h in herm])


def min_eigvals(groups: Groups) -> np.ndarray:
    """The smallest eigenvalue of each row of `joint_blocks` groups, from one
    batched eigenvalue-only solve per group; a row that is not Hermitian
    (`hermitian_rows`) raises ValueError."""
    return _lowest(_hermitian(groups)[0])


def blocks_above(herm: Groups, bound: float) -> bool:
    """Whether the symmetrised groups of one row have no eigenvalue at or
    below `bound`: every block H - bound I has a Cholesky factor, from one
    batched factorisation per group."""
    for _, h in herm:
        shifted = h.copy()
        diagonal = np.arange(h.shape[-1])
        shifted[..., diagonal, diagonal] -= bound
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return False
    return True


def is_density(op: MpOperator | BlockOperator) -> bool:
    """Whether the operator is a density matrix: on its blocks (`joint_blocks`)
    Hermitian (`hermitian_rows`), trace one and no eigenvalue below
    -DENSITY_EIG_TOL (`blocks_above`)."""
    groups = joint_blocks((op,))
    (ok,), _ = hermitian_rows(groups)
    trace = sum(s.diagonal(0, -2, -1).sum(axis=(-2, -1)) for _, s in groups)[0]
    return (ok and abs(trace - 1.0) <= DENSITY_TRACE_TOL
            and blocks_above(_symmetrised(groups), -DENSITY_EIG_TOL))


def kron(a: MpOperator, b: MpOperator) -> MpOperator:
    """Tensor product; dims concatenate, party order a then b."""
    return MpOperator(SiteDims(a.dims.dims + b.dims.dims), np.kron(a.mat, b.mat))


def _axes_tensor(op: MpOperator) -> np.ndarray:
    d = op.dims.dims
    return op.mat.reshape(d + d)


def partial_transpose(op: MpOperator, parties: Iterable[int] | PartySubset) -> MpOperator:
    """Transpose the indices of the given parties in the computational basis.

    Involution: applying twice returns the input.
    """
    ps = party_subset(parties)
    n = op.dims.n
    ps.validate(n)
    perm = list(range(2 * n))
    for p in ps:
        perm[p], perm[n + p] = n + p, p
    return MpOperator(op.dims, _axes_tensor(op).transpose(perm).reshape(op.mat.shape))


def partial_trace(op: MpOperator, parties: Iterable[int] | PartySubset) -> MpOperator:
    """Trace out the given parties; remaining parties keep their order."""
    ps = party_subset(parties)
    n = op.dims.n
    ps.validate(n)
    keep = [i for i in range(n) if i not in ps.members]
    t = _axes_tensor(op)
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out_idx = [i for i in keep] + [n + i for i in keep]
    t = np.einsum(t, row + col, out_idx)
    new_dims = SiteDims(tuple(op.dims.dims[i] for i in keep))
    D = new_dims.total
    return MpOperator(new_dims, t.reshape(D, D))


def diag_part(op: MpOperator) -> MpOperator:
    return MpOperator(op.dims, np.diag(np.diag(op.mat)))


def od_part(op: MpOperator) -> MpOperator:
    return MpOperator(op.dims, op.mat - np.diag(np.diag(op.mat)))


def schur_product(a: MpOperator, b: MpOperator) -> MpOperator:
    if a.dims != b.dims:
        raise ValueError(f"shape mismatch: {a.dims.dims} vs {b.dims.dims}")
    return MpOperator(a.dims, a.mat * b.mat)


def min_eig(op: MpOperator | BlockOperator) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a complex unit eigenvector of a Hermitian operator.

    The input is symmetrised before diagonalisation; non-Hermitian input
    (beyond tolerance) raises ValueError.  Each group of `joint_blocks` of
    the operator takes one batched eigensolve, and the eigenvector is the
    first lowest block's, embedded in the full space.
    """
    best = None
    for index, h in _hermitian(joint_blocks((op,)))[0]:
        w, v = np.linalg.eigh(h[0])
        b = int(np.argmin(w[:, 0]))
        if best is None or w[b, 0] < best[0]:
            best = w[b, 0], index[b], v[b, :, 0]
    val, index, low = best
    vec = np.zeros(op.dims.total, dtype=complex)
    vec[index] = low
    return float(val), vec


def min_eigval(op: MpOperator | BlockOperator) -> float:
    """The smallest eigenvalue of `min_eig`, from eigenvalue-only solves
    (about half the cost where the vector is not read)."""
    return float(min_eigvals(joint_blocks((op,)))[0])


def min_eigval_above(op: MpOperator | BlockOperator, floor: float) -> float | None:
    """`min_eigval` of the operator, or None when its smallest eigenvalue is
    proven above `floor` (a floor of +inf proves nothing).

    The proof is `blocks_above`, the Cholesky rule of `is_density`, at
    floor + HERM_RTOL k max(1, peak), k the largest block side and peak the
    largest entry: k peak bounds the norm of each block, so the margin stays
    well above the rounding of either the factorisation or the eigensolve,
    and an operator passed over has no eigenvalue `min_eigval` would report
    at or below `floor`.  A non-Hermitian operator raises ValueError as
    `min_eigval` does.
    """
    herm, (peak,) = _hermitian(joint_blocks((op,)))
    k = max(h.shape[-1] for _, h in herm)
    if floor < np.inf and blocks_above(herm, floor + HERM_RTOL * k * max(1.0, peak)):
        return None
    return float(_lowest(herm)[0])

