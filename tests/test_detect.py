"""Detector: verdicts, exact thresholds, scans, fuzzing, PPT report."""

from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from gme_maps.criteria import (GmeMap, alpha_critical, bipartitions, eta_map,
                               mu_map, phi_b, phi_r, phi_t, phi_tx,
                               witness_to_map)
from gme_maps.detect import (NotDetectedError, adversarial_product, detect,
                             lambda_scan, noise_threshold, ppt_check,
                             verify_biseparable_positivity, visibility_scan,
                             white_noise_threshold)
from gme_maps.maps import (Lift, Sum, TraceIdentity, TraceOuter, apply,
                           transpose_map)
from gme_maps.operators import MpOperator, SiteDims, min_eigval, operator
from gme_maps.states import (PureState, depolarized, ghz, maximally_mixed,
                             ppt_family, random_biseparable, w_state)


@pytest.mark.parametrize("m", [eta_map(5), mu_map(3, 4)], ids=["eta-5", "mu-choi-3-4"])
def test_detect_takes_min_eig_from_blocks(m):
    n, d = m.dims.n, m.dims.dims[0]
    rho = depolarized(ghz(n, d), 0.9)
    v = detect(m, rho)
    out = apply(m.expr, rho).mat
    assert v.min_eig == pytest.approx(np.linalg.eigvalsh(out)[0], abs=1e-12)
    assert abs(np.linalg.norm(v.eigvec) - 1) <= 1e-12
    assert np.linalg.norm(out @ v.eigvec - v.min_eig * v.eigvec) <= 1e-10
    rep = verify_biseparable_positivity(m, samples=5, seed=1)
    dense = [np.linalg.eigvalsh(apply(m.expr, random_biseparable(m.dims, 1, 1 + i)).mat)[0]
             for i in range(5)]
    worst = min(dense + [np.linalg.eigvalsh(apply(m.expr, adversarial_product(m.dims)).mat)[0]])
    assert rep.min_over_samples == pytest.approx(worst, abs=1e-12)


def test_detect_noisy_ghz():
    m = phi_tx(3)
    assert detect(m, depolarized(ghz(3, 2), 0.8)).detected
    assert not detect(m, depolarized(ghz(3, 2), 0.7)).detected
    assert not detect(m, maximally_mixed((2, 2, 2))).detected


def test_detect_validates_input():
    m = phi_tx(3)
    with pytest.raises(ValueError):
        detect(m, maximally_mixed((2, 2)))
    with pytest.raises(ValueError):
        detect(m, operator((2, 2, 2), np.eye(8)))  # trace 8, not a state


def test_detect_verdict_fields():
    m = phi_tx(3)
    v = detect(m, ghz(3, 2).density())
    assert v.map_id == "phi-tx"
    assert v.min_eig == pytest.approx(-0.5, abs=1e-9)
    assert v.tolerance == 1e-9
    assert abs(np.linalg.norm(v.eigvec) - 1) <= 1e-9


def test_noise_threshold_eta():
    res = noise_threshold(eta_map(3), ghz(3, 2))
    assert res.p_star == pytest.approx(3 / 7, abs=1e-6)
    assert res.residual <= 1e-12


def test_noise_threshold_not_detected():
    with pytest.raises(NotDetectedError):
        noise_threshold(phi_t(4), w_state(4))


def test_noise_threshold_dims_check():
    with pytest.raises(ValueError):
        noise_threshold(phi_tx(3), ghz(4, 2))


def test_white_noise_threshold():
    m = mu_map(3, 3)
    res = white_noise_threshold(m, ppt_family((1 / 9, 1 / 9, 1 / 9)), tol=1e-9)
    assert res.p_star == pytest.approx(9 / 179, abs=1e-5)
    with pytest.raises(NotDetectedError):
        white_noise_threshold(m, ppt_family((0.5, 0.5, 0.5)))


def test_lambda_scan():
    m = mu_map(3, 3)
    rows = lambda_scan(m, [0.1, 0.34])
    assert rows[0].detected and not rows[1].detected
    assert rows[0].param == 0.1
    # boundary guard around the white-noise threshold at lambda = 1/9
    lo = lambda_scan(m, [1 / 9], noise=9 / 179 - 0.001)[0]
    hi = lambda_scan(m, [1 / 9], noise=9 / 179 + 0.001)[0]
    assert lo.detected and not hi.detected


@pytest.mark.parametrize("noise", [5.0, -3.0, float("nan")])
def test_lambda_scan_rejects_noise_outside_unit_interval(noise):
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        lambda_scan(mu_map(3, 3), [0.1], noise=noise)


@pytest.mark.parametrize("m, target, white_noise, want", [
    (phi_tx(3), ghz(3, 2), False, 11 / 15),
    (phi_r(2), ghz(3, 2), False, 11 / 15),
    (eta_map(3), ghz(3, 2), False, 3 / 7),
    (phi_b(4), ghz(3, 4), False, 35 / 51),
    (mu_map(3, 3), ghz(3, 3), False, alpha_critical(3, 3)),
    (phi_t(3), w_state(3), False, 11 * sqrt(3) / (16 + 3 * sqrt(3))),
    (mu_map(3, 3), ppt_family((1 / 9, 1 / 9, 1 / 9)), True, 9 / 179),
], ids=["phi-tx", "phi-r", "eta", "phi-b", "mu-choi", "phi-t-w", "ppt-white-noise"])
def test_thresholds_match_closed_forms(m, target, white_noise, want):
    if white_noise:
        res = white_noise_threshold(m, target)
    else:
        res = noise_threshold(m, target)
    assert abs(res.p_star - want) <= 1e-12
    assert res.residual <= 1e-12


@pytest.mark.parametrize("n", range(3, 9))
def test_phi_tx_threshold_claim_is_exact(n):
    claim = next(c for c in phi_tx(n).claims if c.quantity == "threshold:noisy-ghz")
    assert claim.source == "closed-form"
    assert abs(noise_threshold(phi_tx(n), ghz(n, 2)).p_star - claim.value) <= 1e-12


def _witness_terms(dims, *terms) -> GmeMap:
    """rho -> sum_i Tr(W_i rho) O_i; m(I/D) is singular when the traces allow it."""
    return GmeMap("hand-built", Sum(tuple(TraceOuter(w, o) for w, o in terms)), dims)


def test_threshold_with_singular_noise_output():
    e11, e22 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    dims = SiteDims((2,))
    psi = PureState(dims, np.array([1.0, 0.0]))
    # m(I/2) = E11 / 2 and m(|0><0|) = [[-1/2, 1], [1, 1]]: the kernel of
    # m(I/2) couples to its range, and the Schur complement gives p* = 1/4
    coupled = _witness_terms(dims, (np.diag([-0.5, 1.5]), e11),
                             (np.diag([1.0, -1.0]), e22), (np.diag([1.0, -1.0]), x))
    assert noise_threshold(coupled, psi).p_star == pytest.approx(0.25, abs=1e-12)
    assert white_noise_threshold(coupled, psi.density()).p_star == pytest.approx(0.75, abs=1e-12)
    # negative on the kernel of m(I/2): detected for every p > 0
    kernel_negative = _witness_terms(dims, (np.diag([-0.5, 1.5]), e11),
                                     (np.diag([-1.0, 1.0]), e22))
    assert noise_threshold(kernel_negative, psi).p_star == 0.0
    # m(|0><0|) = [[-1/2, 1], [1, 0]] vanishes on the kernel but couples it to
    # the range: the determinant is -p^2 < 0, so again p* = 0
    kernel_coupled = _witness_terms(dims, (np.diag([-0.5, 1.5]), e11),
                                    (np.diag([1.0, -1.0]), x))
    assert noise_threshold(kernel_coupled, psi).p_star == 0.0
    # GHZ witness read out on a rank-4 projector: m(I/8) = 3/8 P, m(GHZ) = -1/2 P
    g = ghz(3, 2)
    w = 0.5 * np.eye(8) - np.outer(g.vec, g.vec.conj())
    projected = _witness_terms(g.dims, (w, np.diag([1.0] * 4 + [0.0] * 4)))
    assert noise_threshold(projected, g).p_star == pytest.approx(3 / 7, abs=1e-12)


def test_threshold_endpoints_use_detection_tolerance():
    # the output at p=1 dips below zero, but by less than tol: not detected
    g = ghz(3, 2)
    w = np.eye(8) / 8 - (1 / 8 + 1e-12) * np.outer(g.vec, g.vec.conj())
    m = witness_to_map(operator(g.dims, w))
    v = detect(m, g.density())
    assert v.min_eig < 0 and not v.detected
    with pytest.raises(NotDetectedError):
        noise_threshold(m, g)


@pytest.mark.parametrize("noise", [0.0, 0.03])
def test_lambda_scan_matches_per_row_detect(noise):
    m = mu_map(3, 3)
    grid = [0.01 * i for i in range(1, 40)]
    mm = maximally_mixed(m.dims).mat
    for row in lambda_scan(m, grid, noise=noise):
        rho = ppt_family((row.param, row.param, row.param))
        v = detect(m, MpOperator(m.dims, noise * mm + (1 - noise) * rho.mat))
        assert abs(row.min_eig - v.min_eig) <= 1e-12
        assert row.detected == v.detected


def test_visibility_scan_matches_per_row_detect():
    m, psi = eta_map(3), ghz(3, 2)
    grid = [0.025 * i for i in range(40)]
    rows = visibility_scan(m, psi, grid)
    assert [r.param for r in rows] == grid
    for row in rows:
        v = detect(m, depolarized(psi, row.param))
        assert abs(row.min_eig - v.min_eig) <= 1e-12
        assert row.detected == v.detected
    assert [r.detected for r in rows] == [p > 3 / 7 for p in grid]


def test_scans_keep_per_row_checks():
    with pytest.raises(ValueError):
        lambda_scan(mu_map(3, 3), [0.1, 0.0])
    with pytest.raises(ValueError):
        visibility_scan(eta_map(3), ghz(3, 2), [0.5, 1.5])
    with pytest.raises(ValueError):
        visibility_scan(eta_map(3), ghz(4, 2), [0.5])


def test_verify_biseparable_positivity_passes():
    m = phi_tx(3)
    rep = verify_biseparable_positivity(m, samples=150, seed=5, include_adversarial=False)
    assert rep.passed
    assert rep.min_over_samples >= -1e-9
    # sample i is the pure product state random_biseparable(dims, 1, seed + i)
    assert rep.worst_seed == 5 + rep.worst_index
    worst = random_biseparable(m.dims, 1, rep.worst_seed)
    assert np.trace(worst.mat @ worst.mat).real == pytest.approx(1, abs=1e-12)
    assert min_eigval(apply(m.expr, worst)) == rep.min_over_samples


def _phi_t_with_compensation(c: Fraction) -> GmeMap:
    dims = SiteDims((2, 2, 2))
    lifts = [Lift(transpose_map(2 ** len(a)), a, dims) for a in bipartitions(3)]
    expr = Sum(tuple(lifts) + (TraceIdentity(c, 8),))
    return GmeMap("phi-t-broken", expr, dims)


def test_verify_flags_undersized_compensation():
    broken = _phi_t_with_compensation(Fraction(999, 1000))
    rep = verify_biseparable_positivity(broken, samples=50, seed=5)
    assert not rep.passed
    adversarial = [v for v in rep.violations if v.label == "adversarial"]
    assert adversarial and adversarial[0].min_eig == pytest.approx(-1e-3, abs=1e-9)


def test_adversarial_product_is_biseparable_zero_mode():
    # exact compensation makes the lifted transposition vanish on it
    adv = adversarial_product(SiteDims((2, 2, 2)))
    out = detect(phi_t(3), adv)
    assert not out.detected
    assert out.min_eig == pytest.approx(0.0, abs=1e-12)


def test_ppt_check():
    # holds at every sampled family parameter
    for lam in (0.05, 1 / 9, 0.3, 0.7, 1.5):
        rep = ppt_check(ppt_family((lam, lam, lam)))
        assert rep.all_ppt
        assert len(rep.cuts) == 3

    rep = ppt_check(ghz(3, 2).density())
    assert not rep.all_ppt
    assert all(c.min_eig < -1e-6 for c in rep.cuts)

    assert ppt_check(maximally_mixed((2, 2, 2))).all_ppt
