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
    """A block-diagonal operator, kept as its diagonal blocks.

    `blocks[b]` acts on the basis vectors `index[b]`; every entry outside the
    blocks is zero.  Shapes: index (B, k), blocks (B, k, k).
    """

    dims: SiteDims
    index: np.ndarray
    blocks: np.ndarray


def is_hermitian_array(m: np.ndarray) -> bool:
    """Hermiticity of a matrix, or of every matrix of a stack, relative to its largest entry."""
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    return float(np.max(np.abs(m - m.conj().swapaxes(-1, -2)))) <= HERM_RTOL * scale


def is_hermitian(op: MpOperator) -> bool:
    return is_hermitian_array(op.mat)


def is_density(op: MpOperator) -> bool:
    if not is_hermitian(op):
        return False
    if abs(op.trace() - 1.0) > DENSITY_TRACE_TOL:
        return False
    # smallest eigenvalue above -DENSITY_EIG_TOL: H + DENSITY_EIG_TOL I is
    # positive definite, so it has a Cholesky factor
    h = (op.mat + op.mat.conj().T) / 2
    h[np.diag_indices_from(h)] += DENSITY_EIG_TOL
    try:
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


def _hermitian_part(op: MpOperator | BlockOperator) -> np.ndarray:
    """(m + m^dag) / 2 of the matrix, or of every block; non-Hermitian input
    (beyond tolerance) raises ValueError."""
    m = op.blocks if isinstance(op, BlockOperator) else op.mat
    if not is_hermitian_array(m):
        raise ValueError("min_eig requires a Hermitian operator")
    return (m + m.conj().swapaxes(-1, -2)) / 2


def min_eig(op: MpOperator | BlockOperator) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a complex unit eigenvector of a Hermitian operator.

    The input is symmetrised before diagonalisation; non-Hermitian input
    (beyond tolerance) raises ValueError.  A `BlockOperator` takes one
    batched eigensolve over its blocks, and its eigenvector is the first
    lowest block's, embedded in the full space.
    """
    w, v = np.linalg.eigh(_hermitian_part(op))
    if isinstance(op, MpOperator):
        return float(w[0]), v[:, 0].astype(complex)
    b = int(np.argmin(w[:, 0]))
    vec = np.zeros(op.dims.total, dtype=complex)
    vec[op.index[b]] = v[b, :, 0]
    return float(w[b, 0]), vec


def min_eigval(op: MpOperator | BlockOperator) -> float:
    """The smallest eigenvalue of `min_eig`, from an eigenvalue-only solve
    (about half the cost where the vector is not read)."""
    return float(np.linalg.eigvalsh(_hermitian_part(op))[..., 0].min())


def eigvalsh(op: MpOperator) -> np.ndarray:
    """All eigenvalues of the symmetrised operator, ascending."""
    h = (op.mat + op.mat.conj().T) / 2
    return np.linalg.eigvalsh(h)
