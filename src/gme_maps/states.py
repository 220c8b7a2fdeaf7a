"""Constructors for the state families used by the detection criteria.

Includes GHZ and W states, depolarised states, generalized Pauli
shift/clock matrices, the PPT-invariant 3-qutrit family, and seeded random
pure / product / biseparable states for verification sampling.  GHZ, noisy
GHZ and I/D also come as their blocks on the X support (`noisy_ghz`), with
no D x D array.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod, sqrt
from typing import Iterable

import numpy as np

from .grades import bipartitions
from .operators import (BlockOperator, MpOperator, PartySubset, SiteDims, party_subset,
                        real_or_complex, site_dims, x_support_index)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector tagged with its SiteDims; float64 or complex128 by the
    dtype rule of `operators.real_or_complex`."""

    dims: SiteDims
    vec: np.ndarray

    def __post_init__(self):
        v = real_or_complex(self.vec)
        if v.shape != (self.dims.total,):
            raise ValueError(f"vector length {v.shape} does not match dims {self.dims.dims}")
        if not np.isfinite(v).all():
            raise ValueError("vector entries must be finite (no NaN or infinity)")
        # a complex entry by its larger part: |re + i im| overflows near the float limit
        peak = max(np.abs(v.real).max(), np.abs(v.imag).max()) if np.iscomplexobj(v) \
            else np.abs(v).max()
        if peak > 1e150 or 0 < peak < 1e-150:  # the squared norm would overflow or underflow
            v = v / peak
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValueError("zero vector")
        v = v / nrm
        v.flags.writeable = False
        object.__setattr__(self, "vec", v)

    @property
    def d(self) -> int:
        return self.dims.total

    def density(self) -> MpOperator:
        return MpOperator(self.dims, np.outer(self.vec, self.vec.conj()))


@dataclass(frozen=True)
class NoiseMixture:
    """Pure target mixed with white noise at visibility p."""

    base: PureState
    visibility: float

    def __post_init__(self):
        check_visibility(self.visibility)

    def density(self) -> MpOperator:
        return depolarized(self.base, self.visibility)


@dataclass(frozen=True)
class PptFamilyParams:
    l1: float
    l2: float
    l3: float

    def __post_init__(self):
        if not all(0 < lam < np.inf for lam in (self.l1, self.l2, self.l3)):
            raise ValueError("all family parameters must be finite and strictly positive")


def check_ppt_dims(dims: SiteDims) -> None:
    """Reject sites other than the three qutrits the ppt family lives on."""
    if dims.dims != (3, 3, 3):
        raise ValueError("the ppt family is a 3-qutrit family (n=3, d=3)")


def pure(dims: Iterable[int] | SiteDims, vec: np.ndarray) -> PureState:
    return PureState(site_dims(dims), vec)


def _check_ghz(n: int, d: int) -> None:
    if n < 2 or d < 2:
        raise ValueError("ghz needs n >= 2 and d >= 2")


def ghz(n: int, d: int = 2) -> PureState:
    """|GHZ_n^d> = (1/sqrt(d)) sum_i |i>^n."""
    _check_ghz(n, d)
    v = np.zeros(d ** n)
    for i in range(d):
        v[sum(i * d ** k for k in range(n))] = 1
    return PureState(SiteDims((d,) * n), v)


def w_state(n: int) -> PureState:
    """Uniform superposition of all weight-1 bitstrings of n qubits."""
    if n < 3:
        raise ValueError("w_state needs n >= 3")
    v = np.zeros(2 ** n)
    for k in range(n):
        v[1 << k] = 1
    return PureState(SiteDims((2,) * n), v)


def maximally_entangled(d: int) -> PureState:
    """Bipartite |eps> = (1/sqrt(d)) sum_i |ii>."""
    if d < 2:
        raise ValueError("need d >= 2")
    v = np.zeros(d * d)
    v[:: d + 1] = 1
    return PureState(SiteDims((d, d)), v)


def maximally_mixed(dims: Iterable[int] | SiteDims) -> MpOperator:
    sd = site_dims(dims)
    return MpOperator(sd, np.eye(sd.total) / sd.total)


def check_visibility(p: float) -> None:
    """Reject a visibility outside [0, 1] (or NaN)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {p}")


def depolarized(psi: PureState, p: float) -> MpOperator:
    """p |psi><psi| + (1-p) I/D."""
    check_visibility(p)
    D = psi.d
    rho = p * np.outer(psi.vec, psi.vec.conj()) + (1 - p) * np.eye(D) / D
    return MpOperator(psi.dims, rho)


def noisy_ghz(n: int, d: int, p: float) -> BlockOperator:
    """p |GHZ_n^d><GHZ_n^d| + (1 - p) I/D as its d x d blocks on the X support
    (`x_support_index`), built with no D x D array: GHZ at p = 1, I/D at
    p = 0.  GHZ's vectors |i...i> are block 0.  Every entry is the one
    `depolarized(ghz(n, d), p)` computes (at p = 0, `maximally_mixed`), by
    the same floating-point operations, so bit for bit; the blocks are
    read-only."""
    _check_ghz(n, d)
    check_visibility(p)
    dims = SiteDims((d,) * n)
    index = x_support_index(dims)
    amp = 1 / sqrt(d)  # each amplitude of `ghz(n, d)`, as its normalisation rounds it
    blocks = np.zeros(index.shape + (d,))
    diagonal = np.arange(d)
    # p |GHZ><GHZ| + (1 - p) I/D entry by entry, as `depolarized` rounds it:
    # adding the exact zeros of either term changes no bit
    blocks[:, diagonal, diagonal] = (1 - p) / dims.total
    blocks[0] += p * (amp * amp)
    blocks.flags.writeable = False
    return BlockOperator(dims, index, blocks)


def white_noise(dims: Iterable[int] | SiteDims) -> MpOperator | BlockOperator:
    """I/D: its X-support blocks (`noisy_ghz` at p = 0) on n >= 2 sites of one
    dimension, else the whole matrix (`maximally_mixed`), the same entries."""
    sd = site_dims(dims)
    d = sd.dims[0]
    if sd.n >= 2 and sd.dims == (d,) * sd.n:
        return noisy_ghz(sd.n, d, 0.0)
    return maximally_mixed(sd)


def shift_matrix(d: int) -> MpOperator:
    """Cyclic shift X_d with X|j> = |j-1 mod d>; shift_matrix(2) = sigma_x."""
    if d < 2:
        raise ValueError("need d >= 2")
    X = np.zeros((d, d))
    for j in range(d):
        X[(j - 1) % d, j] = 1
    return MpOperator(SiteDims((d,)), X)


def clock_matrix(d: int, k: int) -> MpOperator:
    """Z_k = diag(1, w^k, w^{2k}, ...) with w = exp(2 pi i / d)."""
    if d < 2:
        raise ValueError("need d >= 2")
    if not 0 <= k < d:
        raise ValueError(f"clock index k={k} out of range for d={d}")
    phases = np.exp(2j * np.pi * k * np.arange(d) / d)
    return MpOperator(SiteDims((d,)), np.diag(phases))


# Each pair is (ket weighted by l_k, ket weighted by 1/l_k) in the family's
# two-term vectors sqrt(l_k) |x> + sqrt(1/l_k) |y>, one triple per index pair.
_PPT_PAIRS = (
    (("001", "110"), ("010", "101"), ("100", "011")),
    (("112", "221"), ("121", "212"), ("211", "122")),
    (("220", "002"), ("202", "020"), ("022", "200")),
)


def ppt_family_terms() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pieces (P, Q, C) of the unnormalised family E = sum_k (l_k P[k] + Q[k] / l_k) + C.

    P and Q have shape (3, 27, 27): the diagonal projectors of the kets
    weighted by l_k and by 1/l_k.  C (27 x 27) holds the cross terms of the
    two-term vectors and the unnormalised GHZ projector.
    """
    P = np.zeros((3, 27, 27))
    Q = np.zeros((3, 27, 27))
    C = np.zeros((27, 27))
    for k, pairs in enumerate(_PPT_PAIRS):
        for lam_ket, inv_ket in pairs:
            i, j = int(lam_ket, 3), int(inv_ket, 3)
            P[k, i, i] = Q[k, j, j] = 1
            C[i, j] = C[j, i] = 1
    ghz3 = [int(s, 3) for s in ("000", "111", "222")]
    C[np.ix_(ghz3, ghz3)] = 1
    return P, Q, C


def ppt_family(params: PptFamilyParams | tuple[float, float, float]) -> MpOperator:
    """PPT-invariant 3-qutrit family rho(l1, l2, l3).

    Built from ten vectors: an unnormalised GHZ plus nine two-term vectors,
    one triple per index pair (see `ppt_family_terms`).  With equal
    parameters the state is invariant under partial transposition of any
    single party, and the composed Choi-lift criterion flags it for l < 1/3.
    """
    if not isinstance(params, PptFamilyParams):
        params = PptFamilyParams(*params)
    lam = np.array([params.l1, params.l2, params.l3])
    P, Q, C = ppt_family_terms()
    E = np.tensordot(lam, P, 1) + np.tensordot(1 / lam, Q, 1) + C
    return MpOperator(SiteDims((3, 3, 3)), E / np.trace(E))


def haar_vector(D: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random unit vector of length D: a complex Gaussian, real parts
    drawn before imaginary parts, normalised."""
    v = rng.standard_normal(D) + 1j * rng.standard_normal(D)
    return v / np.linalg.norm(v)


def random_pure(dims: Iterable[int] | SiteDims, seed: int) -> PureState:
    """Haar-random pure state (normalised complex Gaussian vector)."""
    sd = site_dims(dims)
    rng = np.random.default_rng(seed)
    return PureState(sd, haar_vector(sd.total, rng))


def _product_vector(sd: SiteDims, subset: PartySubset,
                    rng: np.random.Generator) -> np.ndarray:
    """|phi_A> x |phi_Abar>, Haar factors drawn for A first, in the site order."""
    keep = subset.members
    order = keep + tuple(i for i in range(sd.n) if i not in keep)
    dA = prod(sd.dims[i] for i in keep)
    va = haar_vector(dA, rng)
    vb = haar_vector(sd.total // dA, rng)
    v = np.multiply.outer(va, vb).reshape([sd.dims[o] for o in order])
    return v.transpose(sorted(range(sd.n), key=order.__getitem__)).reshape(sd.total)


def random_product_pure(dims: Iterable[int] | SiteDims,
                        parties: Iterable[int] | PartySubset,
                        seed: int) -> PureState:
    """|phi_A> x |phi_Abar> with independent Haar factors."""
    sd = site_dims(dims)
    ps = party_subset(parties)
    ps.validate(sd.n)
    rng = np.random.default_rng(seed)
    return PureState(sd, _product_vector(sd, ps, rng))


def random_biseparable(dims: Iterable[int] | SiteDims, k: int, seed: int) -> MpOperator:
    """Convex mixture of k pure product states over uniformly chosen cuts.

    Weights are Dirichlet(1,...,1) via normalised exponentials; a valid
    biseparable state by construction.
    """
    if k < 1:
        raise ValueError("need k >= 1 mixture terms")
    sd = site_dims(dims)
    n = sd.n
    rng = np.random.default_rng(seed)
    reps = bipartitions(n)
    w = rng.exponential(size=k)
    w = w / w.sum()
    rho = np.zeros((sd.total, sd.total), dtype=complex)
    for i in range(k):
        A = reps[rng.integers(len(reps))]
        v = _product_vector(sd, A, rng)
        rho += w[i] * np.outer(v, v.conj())
    return MpOperator(sd, rho)
