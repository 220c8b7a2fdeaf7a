"""Detection verdicts, exact noise thresholds, family scans and fuzz verification."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .criteria import GmeMap, bipartitions
# every application here keeps an X-support output as its blocks
# (`maps.apply_blocks`); bound as `apply`, the name perfbench/spans.py times
from .maps import apply_blocks as apply
from .operators import (Groups, MpOperator, density_rows, eigvalsh, is_density,
                        joint_blocks, min_eig, min_eigval, min_eigvals,
                        partial_transpose)
from .states import (PptFamilyParams, PureState, check_visibility,
                     maximally_entangled, maximally_mixed, ppt_family_terms,
                     random_biseparable)
from .states import depolarized, ppt_family  # noqa: F401  perfbench/spans.py wraps both

DETECT_TOL = 1e-9
PPT_TOL = 1e-10
# most entries a scan stacks at once: its rows are solved in runs this size
SCAN_CHUNK_ENTRIES = 2 ** 20


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
    val, vec = min_eig(apply(m.expr, rho))
    return Verdict(val, vec, _detected(val, tol), m.label, tol)


def _noise_outputs(m: GmeMap, target: MpOperator) -> Groups:
    """The blocks of A = m(target) and B = m(I/D) (`joint_blocks`); by
    linearity a noisy state's output combines them."""
    return joint_blocks((apply(m.expr, target),
                         apply(m.expr, maximally_mixed(m.dims))))


def _mixed(groups: Groups, p: np.ndarray) -> Groups:
    """Rows p A + (1 - p) B of the groups of (A, B), one per weight in p."""
    w = p[:, None, None, None]
    return tuple((index, w * a + (1 - w) * b) for index, (a, b) in groups)


def _pencil_min(groups: Groups, tol: float) -> float:
    """Smallest generalized eigenvalue sigma of the pencil (a, b), b >= 0,
    given as the groups of `joint_blocks((a, b))`.

    a - s b is positive semidefinite exactly for s <= sigma, the minimum over
    the blocks.  -inf when no s makes a block so: a is negative on the kernel
    of b, or couples the kernel to the range of b along a direction where a
    vanishes; +inf when every block has b = 0 and a >= 0.
    """
    return min(_pencil_min_stack(a, b, tol) for _, (a, b) in groups)


def _pencil_min_stack(a: np.ndarray, b: np.ndarray, tol: float) -> float:
    """`_pencil_min` over a stack of blocks (B, k, k): one batched Cholesky
    factorisation, two solves and one eigenvalue-only solve, or block by
    block when a b is singular."""
    try:
        low = np.linalg.cholesky(b)
    except np.linalg.LinAlgError:
        if len(b) == 1:
            return _pencil_min_singular(a[0], b[0], tol)
        return min(_pencil_min_stack(a[i:i + 1], b[i:i + 1], tol) for i in range(len(b)))
    half = np.linalg.solve(low, a)
    c = np.linalg.solve(low, half.conj().swapaxes(-1, -2))
    return float(np.linalg.eigvalsh((c + c.conj().swapaxes(-1, -2)) / 2)[:, 0].min())


def _pencil_min_singular(a: np.ndarray, b: np.ndarray, tol: float) -> float:
    """`_pencil_min` of one block with a singular b, restricted to the range of b.

    Split the kernel of b into directions kp where a is positive and kn where
    it vanishes.  Then a - s b >= 0 iff a does not couple kn to the range and
    the Schur complement of a on kp is >= s b on the range; with no range
    (b = 0) that holds for every s once a >= 0.  Eigenvalues and couplings
    within tol of zero count as zero.
    """
    w, u = np.linalg.eigh(b)
    in_range = w > tol
    r, k = u[:, in_range], u[:, ~in_range]
    wk, vk = np.linalg.eigh(k.conj().T @ a @ k)
    if _detected(wk.min(initial=np.inf), tol):
        return -np.inf
    if not in_range.any():
        return np.inf
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


def _threshold(m: GmeMap, target: MpOperator, tol: float, white_noise: bool,
               not_detected: str, detected: str) -> ThresholdResult:
    """p* from the pencil of a = m(target) and b = m(I/D).

    lambda_min(q a + (1-q) b) is concave in the weight q of a; with a detected
    and b not, it crosses zero exactly once, at q* = 1/(1 - sigma_min).  The
    end points, the pencil and the residual at q* all run on the blocks of
    (a, b).  `not_detected` and `detected` are the errors for an a that is
    not detected and a b that is.
    """
    if target.dims != m.dims:
        raise ValueError(f"state dims {target.dims.dims} do not match map dims {m.dims.dims}")
    groups = _noise_outputs(m, target)
    at_a, at_b = min_eigvals(groups)
    if not _detected(at_a, tol):
        raise NotDetectedError(not_detected)
    if _detected(at_b, tol):
        raise ValueError(detected)
    q = 1 / (1 - _pencil_min(groups, tol))
    residual = abs(float(min_eigvals(_mixed(groups, np.array([q])))[0]))
    return ThresholdResult(1 - q if white_noise else q, residual)


def noise_threshold(m: GmeMap, psi: PureState, tol: float = DETECT_TOL) -> ThresholdResult:
    """Critical visibility of p |psi><psi| + (1-p) I/D under the map.

    The output is p A + (1-p) B with A = m(|psi><psi|) and B = m(I/D), so the
    map is applied twice and p* is the exact crossing of that pencil; the
    state is detected (output eigenvalue below -tol) for p above it.
    """
    return _threshold(m, psi.density(), tol, False, "not detected at p=1",
                      "already detected at p=0; no threshold")


def white_noise_threshold(m: GmeMap, rho0: MpOperator,
                          tol: float = DETECT_TOL) -> ThresholdResult:
    """Largest white-noise fraction p with p I/D + (1-p) rho0 still detected.

    Exact, from the same pencil of m(rho0) and m(I/D) as `noise_threshold`.
    """
    return _threshold(m, rho0, tol, True, "not detected at p=0",
                      "still detected at p=1; no threshold")


def _chunks(grid: Sequence[float], *groupings: Groups) -> list[list[float]]:
    """The grid in runs of rows whose stacked blocks hold at most
    SCAN_CHUNK_ENTRIES entries, at least one row per run."""
    per_row = max(sum(s[0].size for _, s in groups) for groups in groupings)
    step = max(1, SCAN_CHUNK_ENTRIES // per_row)
    grid = list(grid)
    return [grid[i:i + step] for i in range(0, len(grid), step)]


def _leading(ok: np.ndarray) -> int:
    """How many rows pass before the first that fails."""
    return len(ok) if ok.all() else int(np.argmin(ok))


def _scan_rows(params: Sequence[float], rows: Groups, tol: float) -> list[ScanRow]:
    if not len(params):
        return []
    return [ScanRow(x, v, _detected(v, tol)) for x, v in zip(params, min_eigvals(rows).tolist())]


def lambda_scan(m: GmeMap, grid: Sequence[float], noise: float = 0.0,
                tol: float = DETECT_TOL) -> list[ScanRow]:
    """Detection scan of the 3-qutrit family, optionally with white noise.

    The unnormalised family is E(l) = l P + Q/l + C (`ppt_family_terms`), so
    the map is applied to P, Q and C (and to I/D with noise) once; the rows
    combine the blocks of those outputs and take one eigenvalue-only solve
    per group and run of rows (`_chunks`).  A row is checked as `ppt_family`
    checks its parameter, in grid order: an invalid row raises once the rows
    before it have been solved.
    """
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"white-noise fraction must lie in [0, 1], got {noise}")
    P, Q, C = ppt_family_terms()
    parts = [MpOperator(m.dims, x) for x in (P.sum(axis=0), Q.sum(axis=0), C)]
    traces = np.array([np.trace(x.mat) for x in parts])
    if noise:
        parts.append(maximally_mixed(m.dims))
    groups = joint_blocks([apply(m.expr, x) for x in parts])
    rows = []
    for chunk in _chunks(grid, groups):
        lam = np.array(chunk, dtype=float)
        good = _leading((0 < lam) & (lam < np.inf))  # PptFamilyParams' rule
        lam = lam[:good]
        weights = np.stack([lam, 1 / lam, np.ones_like(lam)], axis=1)
        norm = np.array([np.dot(w, traces) for w in weights])[:, None, None, None]
        w = lam[:, None, None, None]
        # each row as the dense route formed it: sum(w_i out_i) / norm, then the noise
        rows += _scan_rows(lam.tolist(), [
            (index, noise * (outs[3] if noise else 0.0)
             + (1 - noise) * (sum(c * o for c, o in zip((w, 1 / w, 1.0), outs)) / norm))
            for index, outs in groups], tol)
        if good < len(chunk):
            PptFamilyParams(chunk[good], chunk[good], chunk[good])  # raises its own error
    return rows


def visibility_scan(m: GmeMap, psi: PureState, grid: Sequence[float],
                    tol: float = DETECT_TOL) -> list[ScanRow]:
    """Detection scan of p |psi><psi| + (1-p) I/D over the visibilities in grid.

    m(|psi><psi|) and m(I/D) are each computed once, and the rows combine
    their blocks.  Each row's state is checked as `detect` checks it, by one
    batched check on the blocks of (|psi><psi|, I/D) per run of rows
    (`_chunks`), in grid order: an invalid row raises once the rows before
    it have been solved.
    """
    if psi.dims != m.dims:
        raise ValueError(f"state dims {psi.dims.dims} do not match map dims {m.dims.dims}")
    rho = psi.density()
    outs = _noise_outputs(m, rho)
    states = joint_blocks((rho, maximally_mixed(m.dims)))
    rows = []
    for chunk in _chunks(grid, outs, states):
        p = np.array(chunk, dtype=float)
        in_range = (0 <= p) & (p <= 1)
        is_state = in_range.copy()
        if in_range.any():
            is_state[in_range] = density_rows(_mixed(states, p[in_range]))
        good = _leading(is_state)
        rows += _scan_rows(chunk[:good], _mixed(outs, p[:good]), tol)
        if good < len(chunk):
            check_visibility(chunk[good])
            raise ValueError("input is not a density matrix")
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
                min_eigval(apply(m.expr, random_biseparable(dims, 1, seed + i))))
               for i in range(samples)]
    if include_adversarial and dims.n >= 3 and len(set(dims.dims)) == 1:
        adv = adversarial_product(dims)
        results.append((-1, None, min_eigval(apply(m.expr, adv))))

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
