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

from dataclasses import dataclass
from math import prod
from typing import Iterable, NamedTuple

import numpy as np

HERM_RTOL = 1e-12
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_TOL = 1e-10
# Up to this side one dense eigensolve costs no more than the block search of
# `block_form` (about 0.1-0.2 ms in numpy calls, measured at D = 27..243).
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


def block_form(op: MpOperator | BlockOperator) -> BlockOperator:
    """The operator as the blocks of the connected components of its exact
    nonzero pattern, grouped by size; a `BlockOperator` as it is.

    Only exact zeros split blocks, so a tiny entry can merge two blocks but
    never drop out.  Groups come in ascending size, blocks in the order of
    their smallest index, each block's indices ascending.  Without a search,
    one block holds a matrix of side up to `DENSE_MAX_DIM` and one with more
    than (D - 1)^2 + 1 nonzero entries, more than any split matrix holds.
    """
    if isinstance(op, BlockOperator):
        return op
    mat, D = op.mat, op.d
    pattern = mat != 0 if D > DENSE_MAX_DIM else None
    if pattern is None or np.count_nonzero(pattern) > (D - 1) ** 2 + 1:
        return BlockOperator(op.dims, ((np.arange(D)[None], mat[None]),))
    labels = _component_labels(pattern)
    counts = np.bincount(labels, minlength=D)
    sizes = counts[counts > 0]  # per component, in the order of its smallest index
    order = np.argsort(labels, kind="stable")
    first = np.cumsum(sizes) - sizes
    groups = []
    for k in sorted(set(sizes.tolist())):
        index = order[first[sizes == k][:, None] + np.arange(k)]
        groups.append((index, mat[index[:, :, None], index[:, None, :]]))
    return BlockOperator(op.dims, tuple(groups))


def is_hermitian_array(m: np.ndarray) -> bool:
    """Hermiticity of a matrix, or of every matrix of a stack, relative to its largest entry."""
    peak = float(np.max(np.abs(m))) if m.size else 1.0
    # a NaN or infinite entry fails, before inf - inf could warn
    return peak < np.inf and (float(np.max(np.abs(m - m.conj().swapaxes(-1, -2))))
                              <= HERM_RTOL * max(1.0, peak))


def is_hermitian(op: MpOperator) -> bool:
    return is_hermitian_array(op.mat)


def _hermitian_blocks(op: MpOperator | BlockOperator) -> list[tuple[np.ndarray, np.ndarray]]:
    """(index, (m + m^dag) / 2) of every group of `block_form(op)`.

    `is_hermitian_array` of the whole operator, run on its blocks:
    non-Hermitian input (beyond tolerance) raises ValueError.
    """
    groups = block_form(op).groups
    peaks = [float(np.abs(b).max()) for _, b in groups]
    scale = max(1.0, *peaks)
    out = []
    for (index, b), peak in zip(groups, peaks):
        bh = b.conj().swapaxes(-1, -2)
        # a NaN or infinite entry fails, before inf - inf could warn
        if not (peak < np.inf and float(np.abs(b - bh).max()) <= HERM_RTOL * scale):
            raise ValueError("min_eig requires a Hermitian operator")
        out.append((index, (b + bh) / 2))
    return out


def is_density(op: MpOperator | BlockOperator) -> bool:
    """Hermitian, trace one and no eigenvalue below -DENSITY_EIG_TOL, checked
    block by block (`block_form`)."""
    op = block_form(op)
    try:
        groups = _hermitian_blocks(op)
    except ValueError:
        return False
    trace = sum(np.trace(b, axis1=-2, axis2=-1).sum() for _, b in op.groups)
    if abs(trace - 1.0) > DENSITY_TRACE_TOL:
        return False
    # smallest eigenvalue above -DENSITY_EIG_TOL: every H + DENSITY_EIG_TOL I is
    # positive definite, so it has a Cholesky factor
    try:
        for _, h in groups:
            k = h.shape[-1]
            h[..., np.arange(k), np.arange(k)] += DENSITY_EIG_TOL
            np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


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
    (beyond tolerance) raises ValueError.  Each group of `block_form(op)`
    takes one batched eigensolve, and the eigenvector is the first lowest
    block's, embedded in the full space.
    """
    best = None
    for index, h in _hermitian_blocks(op):
        w, v = np.linalg.eigh(h)
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
    return min(float(np.linalg.eigvalsh(h)[:, 0].min()) for _, h in _hermitian_blocks(op))


def eigvalsh(op: MpOperator) -> np.ndarray:
    """All eigenvalues of the symmetrised operator, ascending."""
    h = (op.mat + op.mat.conj().T) / 2
    return np.linalg.eigvalsh(h)
