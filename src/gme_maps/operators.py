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
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

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
    """A block-diagonal operator, kept as its diagonal blocks in groups of one
    block size.

    In each group `(index, blocks)`, `blocks[b]` acts on the basis vectors
    `index[b]`; shapes index (B, k), blocks (B, k, k).  No basis vector is in
    two blocks, and every entry outside the blocks is zero.
    """

    dims: SiteDims
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]


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


@functools.lru_cache(maxsize=None)
def _whole(D: int) -> np.ndarray:
    """The index (1, D) of a matrix of side D taken as one block."""
    index = np.arange(D)[None]
    index.flags.writeable = False
    return index


def _dense(op: MpOperator | BlockOperator) -> np.ndarray:
    """The full matrix of an operator, zero off the blocks of a `BlockOperator`."""
    if isinstance(op, MpOperator):
        return op.mat
    D = op.dims.total
    mat = np.zeros((D, D), dtype=np.result_type(*(b for _, b in op.groups)))
    for index, b in op.groups:
        mat[index[:, :, None], index[:, None, :]] = b
    return mat


def _on_index(op, lead: BlockOperator) -> bool:
    """Whether `op` is a `BlockOperator` on the indices of `lead`."""
    return isinstance(op, BlockOperator) and len(op.groups) == len(lead.groups) and all(
        i is j or np.array_equal(i, j) for (i, _), (j, _) in zip(op.groups, lead.groups))


def joint_blocks(ops: Sequence[MpOperator | BlockOperator]) -> Groups:
    """Operators of one side split on the connected components of the union of
    their exact nonzero patterns, (r, c) and (c, r) joined, grouped by size.

    In each group `(index, stack)`, `stack[j, b]` is the block of `ops[j]` on
    the basis vectors `index[b]`; shapes index (B, k), stack (len(ops), B, k, k).
    Groups come in ascending size, blocks in the order of their smallest
    index, each block's indices ascending.  `BlockOperator`s on one set of
    indices (one X support) pass through on them; other mixes are split as
    full matrices.  Only exact zeros split blocks, so a tiny entry can merge
    two blocks but never drop out.  Without a search, one block holds a
    matrix of side up to `DENSE_MAX_DIM` and a union pattern with more than
    (D - 1)^2 + 1 nonzero entries, more than any split pattern holds.
    """
    lead = ops[0]
    if isinstance(lead, BlockOperator):
        if len(ops) == 1:
            return tuple([(index, b[None]) for index, b in lead.groups])
        if all(_on_index(op, lead) for op in ops[1:]):
            return tuple((index, np.stack([op.groups[g][1] for op in ops]))
                         for g, (index, _) in enumerate(lead.groups))
    mats = [_dense(op) for op in ops]
    D = len(mats[0])
    pattern = None
    if D > DENSE_MAX_DIM:
        pattern = mats[0] != 0
        for mat in mats[1:]:
            pattern |= mat != 0
    if pattern is None or np.count_nonzero(pattern) > (D - 1) ** 2 + 1:
        return ((_whole(D), (mats[0][None] if len(mats) == 1 else np.stack(mats))[:, None]),)
    labels = _component_labels(pattern)
    counts = np.bincount(labels, minlength=D)
    sizes = counts[counts > 0]  # per component, in the order of its smallest index
    order = np.argsort(labels, kind="stable")
    first = np.cumsum(sizes) - sizes
    groups = []
    for k in sorted(set(sizes.tolist())):
        index = order[first[sizes == k][:, None] + np.arange(k)]
        rows, cols = index[:, :, None], index[:, None, :]
        groups.append((index, np.stack([mat[rows, cols] for mat in mats])))
    return tuple(groups)


def is_hermitian_array(m: np.ndarray) -> bool:
    """Hermiticity of a matrix, or of every matrix of a stack, relative to its largest entry."""
    peak = float(np.max(np.abs(m))) if m.size else 1.0
    # a NaN or infinite entry fails, before inf - inf could warn
    return peak < np.inf and (float(np.max(np.abs(m - m.conj().swapaxes(-1, -2))))
                              <= HERM_RTOL * max(1.0, peak))


def is_hermitian(op: MpOperator) -> bool:
    return is_hermitian_array(op.mat)


def _symmetrised(groups: Groups) -> tuple[np.ndarray, Groups]:
    """Each row's largest entry of m - m^dag, and the groups with every block
    replaced by (m + m^dag) / 2."""
    diffs, out = [], []
    for index, s in groups:
        sh = s.conj().swapaxes(-1, -2)
        diffs.append(np.maximum.reduce(np.abs(s - sh), axis=_BLOCK_AXES))
        out.append((index, (s + sh) / 2))
    return functools.reduce(np.maximum, diffs), tuple(out)


def hermitian_rows(groups: Groups) -> tuple[list[bool], Groups]:
    """Which rows of `joint_blocks` groups are Hermitian, and the groups with
    every block replaced by (m + m^dag) / 2.

    A row is Hermitian when no block of it moves by more than HERM_RTOL times
    its largest entry over all of its groups (at least 1) under m -> m^dag; a
    NaN or infinite entry fails.
    """
    peaks = functools.reduce(np.maximum, [np.maximum.reduce(np.abs(s), axis=_BLOCK_AXES)
                                          for _, s in groups]).tolist()
    # an infinite entry makes its row's peak inf (a NaN only NaN, which stays
    # quiet); inf - inf would warn, and a failing row's result is not read
    if max(peaks) < np.inf:
        diff, out = _symmetrised(groups)
    else:
        with np.errstate(invalid="ignore"):
            diff, out = _symmetrised(groups)
    ok = [p < np.inf and e <= HERM_RTOL * max(1.0, p) for p, e in zip(peaks, diff.tolist())]
    return ok, out


def _hermitian(groups: Groups) -> Groups:
    """`hermitian_rows`' symmetrised groups; ValueError when a row is not Hermitian."""
    ok, out = hermitian_rows(groups)
    if not all(ok):
        raise ValueError("min_eig requires a Hermitian operator")
    return out


def min_eigvals(groups: Groups) -> np.ndarray:
    """The smallest eigenvalue of each row of `joint_blocks` groups, from one
    batched eigenvalue-only solve per group; a row that is not Hermitian
    (`hermitian_rows`) raises ValueError."""
    return functools.reduce(np.minimum, [np.minimum.reduce(np.linalg.eigvalsh(h), axis=(1, 2))
                                         for _, h in _hermitian(groups)])


def density_rows(groups: Groups) -> list[bool]:
    """Which rows of `joint_blocks` groups are density matrices: Hermitian,
    trace one and no eigenvalue below -DENSITY_EIG_TOL.

    The eigenvalue bound holds exactly when every H + DENSITY_EIG_TOL I has a
    Cholesky factor: one batched factorisation per group, and one per row of
    a group only where that fails.
    """
    ok, herm = hermitian_rows(groups)
    trace = sum(s.diagonal(0, -2, -1).sum(axis=(-2, -1)) for _, s in groups)
    ok = [o and abs(t - 1.0) <= DENSITY_TRACE_TOL for o, t in zip(ok, trace.tolist())]
    for _, h in herm:
        k = h.shape[-1]
        h[..., np.arange(k), np.arange(k)] += DENSITY_EIG_TOL
        rows = [r for r, o in enumerate(ok) if o]
        try:
            np.linalg.cholesky(h if len(rows) == len(ok) else h[rows])
        except np.linalg.LinAlgError:
            for r in rows:
                try:
                    np.linalg.cholesky(h[r])
                except np.linalg.LinAlgError:
                    ok[r] = False
    return ok


def is_density(op: MpOperator | BlockOperator) -> bool:
    """`density_rows` of the operator's blocks (`joint_blocks`)."""
    return density_rows(joint_blocks((op,)))[0]


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
    for index, h in _hermitian(joint_blocks((op,))):
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


def eigvalsh(op: MpOperator) -> np.ndarray:
    """All eigenvalues of the symmetrised operator, ascending."""
    h = (op.mat + op.mat.conj().T) / 2
    return np.linalg.eigvalsh(h)
