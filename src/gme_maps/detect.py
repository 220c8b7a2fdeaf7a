"""Detection verdicts, exact noise thresholds, family scans and fuzz verification."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .criteria import GmeMap, bipartitions
from .maps import apply, apply_blocks
from .operators import (MpOperator, eigvalsh, is_density, min_eig, min_eigval,
                        partial_transpose)
from .states import (PptFamilyParams, PureState, depolarized,
                     maximally_entangled, maximally_mixed, ppt_family_terms,
                     random_biseparable)
from .states import ppt_family  # noqa: F401  perfbench/spans.py wraps detect.ppt_family

DETECT_TOL = 1e-9
PPT_TOL = 1e-10


class NotDetectedError(ValueError):
    """Raised when a threshold is requested but the endpoint state is not detected."""


@dataclass(frozen=True)
class Verdict:
    min_eig: float
    eigvec: np.ndarray
    detected: bool
    map_id: str
    tolerance: float


@dataclass(frozen=True)
class ThresholdResult:
    p_star: float
    residual: float


@dataclass(frozen=True)
class ScanRow:
    param: float
    min_eig: float
    detected: bool


@dataclass(frozen=True)
class Violation:
    index: int
    seed: int | None
    min_eig: float
    label: str = ""


@dataclass(frozen=True)
class BisepReport:
    map_id: str
    samples: int
    seed: int
    tolerance: float
    min_over_samples: float
    worst_index: int
    worst_seed: int | None
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class PptCut:
    parties: tuple[int, ...]
    min_eig: float


@dataclass(frozen=True)
class PptReport:
    cuts: tuple[PptCut, ...]
    all_ppt: bool
    tolerance: float


def _detected(val: float, tol: float) -> bool:
    """The one detection rule: an output eigenvalue below -tol."""
    return val < -tol


def detect(m: GmeMap, rho: MpOperator, tol: float = DETECT_TOL) -> Verdict:
    """Apply the map and flag the state when the output dips below -tol."""
    if rho.dims != m.dims:
        raise ValueError(f"state dims {rho.dims.dims} do not match map dims {m.dims.dims}")
    if not is_density(rho):
        raise ValueError("input is not a density matrix")
    val, vec = min_eig(apply_blocks(m.expr, rho))
    return Verdict(val, vec, _detected(val, tol), m.label, tol)


def _noise_outputs(m: GmeMap, target: MpOperator) -> tuple[MpOperator, MpOperator]:
    """A = m(target) and B = m(I/D); by linearity a noisy state's output combines them."""
    return apply(m.expr, target), apply(m.expr, maximally_mixed(m.dims))


def _pencil_min(a: np.ndarray, b: np.ndarray, tol: float) -> float:
    """Smallest generalized eigenvalue sigma of the pencil (a, b), b >= 0.

    a - s b is positive semidefinite exactly for s <= sigma.  Returns -inf
    when no s makes it so: a is negative on the kernel of b, or couples the
    kernel to the range of b along a direction where a vanishes.
    """
    try:
        low = np.linalg.cholesky(b)
    except np.linalg.LinAlgError:
        return _pencil_min_singular(a, b, tol)
    half = np.linalg.solve(low, a)
    c = np.linalg.solve(low, half.conj().T)
    return float(np.linalg.eigvalsh((c + c.conj().T) / 2)[0])


def _pencil_min_singular(a: np.ndarray, b: np.ndarray, tol: float) -> float:
    """`_pencil_min` for a singular b, restricted to the range of b.

    Split the kernel of b into directions kp where a is positive and kn where
    it vanishes.  Then a - s b >= 0 iff a does not couple kn to the range and
    the Schur complement of a on kp is >= s b on the range.  Eigenvalues and
    couplings within tol of zero count as zero.
    """
    w, u = np.linalg.eigh(b)
    in_range = w > tol
    if not in_range.any():
        return -np.inf
    r, k = u[:, in_range], u[:, ~in_range]
    wk, vk = np.linalg.eigh(k.conj().T @ a @ k)
    if _detected(wk[0], tol):
        return -np.inf
    pos = wk > tol
    kp, kn = k @ vk[:, pos], k @ vk[:, ~pos]
    ra = r.conj().T @ a
    if np.abs(ra @ kn).max(initial=0.0) > tol:
        return -np.inf
    rkp = ra @ kp
    s = ra @ r - (rkp / wk[pos]) @ rkp.conj().T
    scale = 1 / np.sqrt(w[in_range])
    c = s * scale[:, None] * scale[None, :]
    return float(np.linalg.eigvalsh((c + c.conj().T) / 2)[0])


def _threshold(a: MpOperator, b: MpOperator, tol: float, white_noise: bool) -> ThresholdResult:
    """p* from the pencil of a (the noiseless output) and b (the output on I/D).

    lambda_min(q a + (1-q) b) is concave in the weight q of a; with a detected
    and b not, it crosses zero exactly once, at q* = 1/(1 - sigma_min).
    """
    q = 1 / (1 - _pencil_min(a.mat, b.mat, tol))
    mixed = MpOperator(a.dims, q * a.mat + (1 - q) * b.mat)
    residual = abs(min_eigval(mixed))
    return ThresholdResult(1 - q if white_noise else q, residual)


def noise_threshold(m: GmeMap, psi: PureState, tol: float = DETECT_TOL) -> ThresholdResult:
    """Critical visibility of p |psi><psi| + (1-p) I/D under the map.

    The output is p A + (1-p) B with A = m(|psi><psi|) and B = m(I/D), so the
    map is applied twice and p* is the exact crossing of that pencil; the
    state is detected (output eigenvalue below -tol) for p above it.
    """
    if psi.dims != m.dims:
        raise ValueError(f"state dims {psi.dims.dims} do not match map dims {m.dims.dims}")
    a, b = _noise_outputs(m, psi.density())
    if not _detected(min_eigval(a), tol):
        raise NotDetectedError("not detected at p=1")
    if _detected(min_eigval(b), tol):
        raise ValueError("already detected at p=0; no threshold")
    return _threshold(a, b, tol, white_noise=False)


def white_noise_threshold(m: GmeMap, rho0: MpOperator,
                          tol: float = DETECT_TOL) -> ThresholdResult:
    """Largest white-noise fraction p with p I/D + (1-p) rho0 still detected.

    Exact, from the same pencil of m(rho0) and m(I/D) as `noise_threshold`.
    """
    if rho0.dims != m.dims:
        raise ValueError(f"state dims {rho0.dims.dims} do not match map dims {m.dims.dims}")
    a, b = _noise_outputs(m, rho0)
    if not _detected(min_eigval(a), tol):
        raise NotDetectedError("not detected at p=0")
    if _detected(min_eigval(b), tol):
        raise ValueError("still detected at p=1; no threshold")
    return _threshold(a, b, tol, white_noise=True)


def _scan_row(dims, param: float, out: np.ndarray, tol: float) -> ScanRow:
    val = min_eigval(MpOperator(dims, out))
    return ScanRow(param, val, _detected(val, tol))


def lambda_scan(m: GmeMap, grid: Sequence[float], noise: float = 0.0,
                tol: float = DETECT_TOL) -> list[ScanRow]:
    """Detection scan of the 3-qutrit family, optionally with white noise.

    The unnormalised family is E(l) = l P + Q/l + C (`ppt_family_terms`), so
    the map is applied to P, Q and C (and to I/D with noise) once; each row
    combines those outputs and takes one eigensolve.
    """
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"white-noise fraction must lie in [0, 1], got {noise}")
    P, Q, C = ppt_family_terms()
    parts = (P.sum(axis=0), Q.sum(axis=0), C)
    outs = [apply(m.expr, MpOperator(m.dims, x)).mat for x in parts]
    traces = [np.trace(x) for x in parts]
    mixed_out = apply(m.expr, maximally_mixed(m.dims)).mat if noise else 0.0
    rows = []
    for lam in grid:
        lam = float(lam)
        PptFamilyParams(lam, lam, lam)  # rejects lam <= 0, as ppt_family does
        weights = (lam, 1 / lam, 1.0)
        family = sum(w * o for w, o in zip(weights, outs)) / np.dot(weights, traces)
        rows.append(_scan_row(m.dims, lam, noise * mixed_out + (1 - noise) * family, tol))
    return rows


def visibility_scan(m: GmeMap, psi: PureState, grid: Sequence[float],
                    tol: float = DETECT_TOL) -> list[ScanRow]:
    """Detection scan of p |psi><psi| + (1-p) I/D over the visibilities in grid.

    Each row checks its state as `detect` does, then combines m(|psi><psi|)
    and m(I/D), each computed once.
    """
    if psi.dims != m.dims:
        raise ValueError(f"state dims {psi.dims.dims} do not match map dims {m.dims.dims}")
    a, b = _noise_outputs(m, psi.density())
    rows = []
    for p in grid:
        if not is_density(depolarized(psi, p)):
            raise ValueError("input is not a density matrix")
        rows.append(_scan_row(m.dims, p, p * a.mat + (1 - p) * b.mat, tol))
    return rows


def adversarial_product(dims) -> MpOperator:
    """Maximally entangled pair on parties (0, 1) tensored with |0...0>.

    Biseparable across {0,1}|rest; the tight compensation makes lifted
    transposition-style criteria vanish on it exactly, so any undersized
    compensation is exposed.
    """
    d = dims.dims[0]
    pair = maximally_entangled(d).vec
    rest = np.prod(dims.dims[2:], dtype=int) if dims.n > 2 else 1
    block = np.zeros(rest)
    block[0] = 1.0
    v = np.kron(pair, block)
    return MpOperator(dims, np.outer(v, v.conj()))


def verify_biseparable_positivity(m: GmeMap, samples: int, *, seed: int = 0,
                                  tol: float = DETECT_TOL,
                                  include_adversarial: bool = True) -> BisepReport:
    """Fuzz the defining property on seeded random biseparable states.

    Sample i is the pure product state `random_biseparable(dims, 1, seed + i)`
    across a uniformly drawn cut.  Pure samples suffice: they are the extreme
    points of the biseparable set, and lambda_min of a mixture's output is at
    least the smallest lambda_min over its terms.  A deterministic
    adversarial product state is evaluated as index -1.  Violations below
    -tol are collected, never raised.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    dims = m.dims
    results = [(i, seed + i,
                min_eigval(apply_blocks(m.expr, random_biseparable(dims, 1, seed + i))))
               for i in range(samples)]
    if include_adversarial and dims.n >= 3 and len(set(dims.dims)) == 1:
        adv = adversarial_product(dims)
        results.append((-1, None, min_eigval(apply_blocks(m.expr, adv))))

    worst_index, worst_seed, worst = min(results, key=lambda t: t[2])
    violations = tuple(
        Violation(i, s, v, "adversarial" if i == -1 else "")
        for i, s, v in results if _detected(v, tol)
    )
    return BisepReport(m.label, samples, seed, tol,
                       worst, worst_index, worst_seed, violations)


def ppt_check(rho: MpOperator, tol: float = PPT_TOL) -> PptReport:
    """Minimal eigenvalue of every bipartition's partial transpose."""
    if not is_density(rho):
        raise ValueError("input is not a density matrix")
    cuts = []
    for A in bipartitions(rho.dims.n):
        val = float(eigvalsh(partial_transpose(rho, A))[0])
        cuts.append(PptCut(A.members, val))
    all_ppt = not any(_detected(c.min_eig, tol) for c in cuts)
    return PptReport(tuple(cuts), all_ppt, tol)
