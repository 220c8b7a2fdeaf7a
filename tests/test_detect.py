"""Detector: verdicts, exact thresholds, scans, fuzzing, PPT report."""

import importlib
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gme_maps import maps
from gme_maps.criteria import (MAP_IDS, SMALLEST, GmeMap, alpha_critical, bipartitions, build_map,
                               eta_map, mu_map, phi_b, phi_r, phi_t, phi_tx,
                               witness_to_map)
from gme_maps.detect import (DETECT_TOL, BisepReport, NotDetectedError, Violation, _noise_outputs,
                             _pencil_min, _pencil_min_singular, _pencil_min_stack,
                             adversarial_product, detect, lambda_scan,
                             noise_threshold, ppt_check,
                             verify_biseparable_positivity, visibility_scan,
                             white_noise_threshold)
from gme_maps.maps import (Lift, Sum, TraceIdentity, TraceOuter, apply,
                           apply_blocks, transpose_map)
from gme_maps.operators import (BlockOperator, MpOperator, SiteDims, joint_blocks,
                                min_eigval, operator, partial_transpose, scatter_blocks)
from gme_maps.states import (PureState, depolarized, ghz, maximally_mixed, noisy_ghz,
                             ppt_family, random_biseparable, w_state)
from helpers import rand_density


# the module, which the package's `detect` function shadows as an attribute
detect_module = importlib.import_module("gme_maps.detect")


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


@pytest.mark.parametrize("m", [phi_t(4), phi_r(4, 3), mu_map(4, 3)])
def test_lambda_scan_refuses_maps_off_three_qutrits(m):
    with pytest.raises(ValueError, match=r"^the ppt family is a 3-qutrit family \(n=3, d=3\)$"):
        lambda_scan(m, [0.1])


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


def _singular_noise_maps():
    """The hand-built maps of `test_threshold_with_singular_noise_output`, with
    their targets: m(I/D) is singular for each."""
    e11, e22 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    dims = SiteDims((2,))
    psi = PureState(dims, np.array([1.0, 0.0]))
    g = ghz(3, 2)
    w = 0.5 * np.eye(8) - np.outer(g.vec, g.vec.conj())
    return [
        (_witness_terms(dims, (np.diag([-0.5, 1.5]), e11), (np.diag([1.0, -1.0]), e22),
                        (np.diag([1.0, -1.0]), x)), psi),
        (_witness_terms(dims, (np.diag([-0.5, 1.5]), e11), (np.diag([-1.0, 1.0]), e22)), psi),
        (_witness_terms(dims, (np.diag([-0.5, 1.5]), e11), (np.diag([1.0, -1.0]), x)), psi),
        (_witness_terms(g.dims, (w, np.diag([1.0] * 4 + [0.0] * 4))), g),
    ]


def _dense(op):
    if isinstance(op, MpOperator):
        return op.mat
    return scatter_blocks(op.index, op.blocks, op.dims.total)


def _assert_block_pencil_matches_dense(m, target):
    a, b = apply_blocks(m.expr, target), apply_blocks(m.expr, maximally_mixed(m.dims))
    blocks = _pencil_min(joint_blocks((a, b)), DETECT_TOL)
    # the whole matrices as one block: the dense pencil
    dense = _pencil_min_stack(_dense(a)[None], _dense(b)[None], DETECT_TOL)
    if np.isinf(dense):
        assert blocks == dense
    else:
        assert abs(blocks - dense) <= 1e-12 * max(1.0, abs(dense))


CATALOG_PENCILS = [(map_id, n, d) for map_id, d in (("phi-t", 2), ("phi-tx", 2), ("eta", 2),
                                                    ("phi-r", 2), ("phi-b", 4), ("mu-choi", 3))
                   for n in range(3, 9) if d ** n <= 256]


@pytest.mark.parametrize("map_id, n, d", CATALOG_PENCILS,
                         ids=[f"{m}-{n}-{d}" for m, n, d in CATALOG_PENCILS])
def test_block_pencil_matches_dense_on_catalog(map_id, n, d):
    m = build_map(map_id, n, d)
    target = w_state(n) if map_id == "phi-t" else ghz(n, d)
    _assert_block_pencil_matches_dense(m, target.density())


@pytest.mark.parametrize("map_id, n", [("phi-t", 7), ("phi-t", 8), ("phi-tx", 8)])
def test_pencil_of_inputs_on_and_off_the_support(map_id, n):
    """I/D lies on the X support, so phi-t and phi-tx take their support form
    for it, and W does not: the one output comes as blocks, the other whole,
    so the pencil is split on their joint pattern as the walker's outputs
    are, to the same blocks, and W is not detected at p = 1, as by the
    walker."""
    m = build_map(map_id, n, 2)
    target, mixed = w_state(n).density(), maximally_mixed(m.dims)
    assert isinstance(apply_blocks(m.expr, target), MpOperator)
    assert isinstance(apply_blocks(m.expr, mixed), BlockOperator)
    walker = joint_blocks([MpOperator(m.dims, maps._eval(m.expr, x.mat)) for x in (target, mixed)])
    groups = _noise_outputs(m, target)
    assert [index.tolist() for index, _ in groups] == [index.tolist() for index, _ in walker]
    assert all(np.max(np.abs(s - t)) <= 1e-12 for (_, s), (_, t) in zip(groups, walker))
    assert _pencil_min(groups, DETECT_TOL) == pytest.approx(_pencil_min(walker, DETECT_TOL),
                                                            abs=1e-12)
    with pytest.raises(NotDetectedError, match="not detected at p=1"):
        noise_threshold(m, w_state(n))


@pytest.mark.parametrize("map_id, n, d, state", [("phi-b", 3, 4, "ghz"), ("phi-t", 3, 2, "w"),
                                                  ("eta", 3, 2, "w")])
def test_noise_outputs_take_i_over_d_as_the_map_reads_it(monkeypatch, map_id, n, d, state):
    """I/D goes to a map without a support form (phi-b, phi-t at D = 8) as its
    matrix and to one with a form (eta) as its X-support blocks; either way
    the pencil parts are, bit for bit, those of I/D given as blocks to every
    map, which a map without a form scattered for its walker."""
    m = build_map(map_id, n, d)
    target = noisy_ghz(n, d, 1.0) if state == "ghz" else w_state(n).density()
    given = []
    monkeypatch.setattr(detect_module, "apply",
                        lambda expr, op: given.append(op) or apply_blocks(expr, op))
    groups = _noise_outputs(m, target)
    assert isinstance(given[1], MpOperator) == (m.expr.support is None) == (map_id != "eta")
    blocks = joint_blocks((apply_blocks(m.expr, target),
                           apply_blocks(m.expr, noisy_ghz(n, d, 0.0))))
    assert len(groups) == len(blocks)
    for (index, parts), (want_index, want) in zip(groups, blocks):
        assert index.tobytes() == want_index.tobytes()
        assert parts.dtype == want.dtype and parts.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", range(4))
def test_block_pencil_matches_dense_on_singular_noise_output(case):
    m, target = _singular_noise_maps()[case]
    _assert_block_pencil_matches_dense(m, target.density())


def test_pencil_block_with_zero_noise_output_is_no_constraint():
    """A block where b = 0 and a >= 0 holds a - s b >= 0 for every s: +inf, so
    sigma_min is the other blocks'.  Taken as a whole, that block alone is a
    b with no range, which the pencil once read as -inf."""
    dims = SiteDims((2, 2))
    index = np.arange(4).reshape(2, 2)
    a_blocks = np.array([[[-1.0, 0.5], [0.5, 2.0]], [[1.0, 0.0], [0.0, 0.0]]])
    b_blocks = np.array([[[0.5, 0.0], [0.0, 0.5]], [[0.0, 0.0], [0.0, 0.0]]])
    a, b = BlockOperator(dims, index, a_blocks), BlockOperator(dims, index, b_blocks)
    want = float(np.linalg.eigvalsh(a_blocks[0] / 0.5)[0])
    assert _pencil_min_singular(a_blocks[1], b_blocks[1], DETECT_TOL) == np.inf
    assert _pencil_min(joint_blocks((a, b)), DETECT_TOL) == pytest.approx(want, abs=1e-12)
    # the whole matrices give the same sigma
    dense = _pencil_min_stack(_dense(a)[None].real, _dense(b)[None].real, DETECT_TOL)
    assert dense == pytest.approx(want, abs=1e-12)
    # a negative on the kernel of b still makes every s infeasible
    a_blocks[1, 1, 1] = -1.0
    assert _pencil_min(joint_blocks((BlockOperator(dims, index, a_blocks), b)),
                       DETECT_TOL) == -np.inf


def test_threshold_with_zero_noise_output_blocks():
    """The GHZ witness read out on a rank-64 diagonal projector at D = 128:
    the outputs are diagonal, so every index is its own block, and on half of
    them a = b = 0.  Those blocks are no constraint, and p* is the witness's
    (D/2 - 1)/(D - 1)."""
    g = ghz(7, 2)
    w = 0.5 * np.eye(128) - np.outer(g.vec, g.vec.conj())
    m = _witness_terms(g.dims, (w, np.diag([1.0] * 64 + [0.0] * 64)))
    _assert_block_pencil_matches_dense(m, g.density())
    assert noise_threshold(m, g).p_star == pytest.approx(63 / 127, abs=1e-12)


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


@pytest.mark.parametrize("m, psi", [(eta_map(7), ghz(7, 2)), (phi_tx(7), ghz(7, 2))],
                         ids=["eta-7", "phi-tx-7"])
def test_visibility_scan_matches_per_row_detect_at_d128(m, psi):
    grid = [0.1 * i for i in range(11)]
    for row in visibility_scan(m, psi, grid):
        v = detect(m, depolarized(psi, row.param))
        assert abs(row.min_eig - v.min_eig) <= 1e-12
        assert row.detected == v.detected


@pytest.mark.parametrize("map_id, n, d", [("eta", 3, 2), ("phi-tx", 4, 2), ("phi-tx", 10, 2),
                                          ("phi-r", 3, 5), ("phi-b", 3, 4), ("mu-choi", 4, 3)])
def test_ghz_target_as_blocks_is_its_pure_state(map_id, n, d):
    """GHZ given as its X-support blocks (`noisy_ghz` at p = 1) and as a pure
    state give the same pencil parts (`_noise_outputs`), threshold and scan
    rows, bit for bit, with or without a support form."""
    m = build_map(map_id, n, d)
    blocks, psi = noisy_ghz(n, d, 1.0), ghz(n, d)
    groups, dense_groups = _noise_outputs(m, blocks), _noise_outputs(m, psi.density())
    assert len(groups) == len(dense_groups)
    for (index, parts), (dense_index, dense_parts) in zip(groups, dense_groups):
        assert np.array_equal(index, dense_index) and parts.tobytes() == dense_parts.tobytes()
    got, want = noise_threshold(m, blocks), noise_threshold(m, psi)
    assert (got.p_star.hex(), got.residual.hex()) == (want.p_star.hex(), want.residual.hex())
    grid = [0.05 * i for i in range(21)]
    assert visibility_scan(m, blocks, grid) == visibility_scan(m, psi, grid)


def test_visibility_scan_spans_two_chunks():
    """At D = 1024 eta's rows hold 2048 block entries, so 600 rows take two
    runs of SCAN_CHUNK_ENTRIES; each row is the per-row solve of its blocks."""
    m, psi = eta_map(10), ghz(10, 2)
    grid = [i / 600 for i in range(600)]
    (index, (a, b)), = _noise_outputs(m, psi.density())
    assert len(grid) * a.size > detect_module.SCAN_CHUNK_ENTRIES
    rows = visibility_scan(m, psi, grid)
    assert [r.param for r in rows] == grid
    for p, row in zip(grid, rows):
        want = min_eigval(BlockOperator(m.dims, index, p * a + (1 - p) * b))
        assert abs(row.min_eig - want) <= 1e-12
        assert row.detected == (want < -DETECT_TOL)


@pytest.mark.parametrize("entries", [1, 81 * 4, 729 * 5])
def test_scan_rows_do_not_depend_on_chunks(monkeypatch, entries):
    """Runs of one row, of a few rows or of all rows give the same rows, bit
    for bit, and an invalid row in a later run still raises its own error."""
    m, psi = mu_map(3, 3), ghz(3, 3)
    lam_grid, p_grid = [0.02 * i for i in range(1, 20)], [0.05 * i for i in range(21)]
    whole = lambda_scan(m, lam_grid, noise=0.02), visibility_scan(m, psi, p_grid)
    monkeypatch.setattr(detect_module, "SCAN_CHUNK_ENTRIES", entries)
    assert (lambda_scan(m, lam_grid, noise=0.02), visibility_scan(m, psi, p_grid)) == whole
    with pytest.raises(ValueError, match="finite and strictly positive"):
        lambda_scan(m, lam_grid + [-1.0])
    with pytest.raises(ValueError, match=r"visibility must lie in \[0, 1\], got 1.05"):
        visibility_scan(m, psi, p_grid + [1.05, 0.5])


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


def _unscreened(m: GmeMap, samples: int, seed: int, tol: float = DETECT_TOL,
                include_adversarial: bool = True) -> BisepReport:
    """The report an eigensolve of every sample's output and of the
    adversarial state's gives, on the outputs `verify` takes (`apply_blocks`):
    the least value, the first of equal ones, and every value below -tol."""
    dims = m.dims
    results = [(i, seed + i, min_eigval(apply_blocks(m.expr, random_biseparable(dims, 1, seed + i))))
               for i in range(samples)]
    if include_adversarial and dims.n >= 3 and len(set(dims.dims)) == 1:
        results.append((-1, None, min_eigval(apply_blocks(m.expr, adversarial_product(dims)))))
    worst_index, worst_seed, worst = min(results, key=lambda t: t[2])
    violations = tuple(Violation(i, s, v, "adversarial" if i == -1 else "")
                       for i, s, v in results if v < -tol)
    return BisepReport(m.label, samples, seed, tol, worst, worst_index, worst_seed, violations)


def _with_compensation(m: GmeMap, factor: Fraction) -> GmeMap:
    """phi-t or phi-tx with its compensation c I Tr scaled by factor."""
    *lifts, comp = m.expr.children
    assert isinstance(comp, TraceIdentity)
    return GmeMap(m.label, Sum(tuple(lifts) + (TraceIdentity(comp.c * factor, comp.dim),)),
                  m.dims)


@st.composite
def _verify_cases(draw):
    """A catalog map at its smallest size, or phi-t (3) or phi-tx (3) with the
    compensation scaled by 1 +- 10^-k, k = 1..12; a sample count, a seed, a
    tolerance and whether the adversarial state is added."""
    kind = draw(st.sampled_from(MAP_IDS + ("phi-t", "phi-tx")))
    m = build_map(kind, *SMALLEST[kind])
    if draw(st.booleans()) and kind in ("phi-t", "phi-tx"):
        eps = Fraction(draw(st.sampled_from([-1, 1])), 10 ** draw(st.integers(1, 12)))
        m = _with_compensation(m, 1 + eps)
    return (m, draw(st.integers(1, 40)), draw(st.integers(0, 2 ** 31)),
            draw(st.sampled_from([DETECT_TOL, 0.0, 1e-3])), draw(st.booleans()))


@settings(max_examples=80, deadline=None)
@given(_verify_cases())
def test_screened_verify_matches_unscreened_property(case):
    """The samples the Cholesky screen passes over never change the report:
    the least value, its index and seed, and every violation with its value
    are those of an eigensolve of every output."""
    m, samples, seed, tol, adversarial = case
    assert verify_biseparable_positivity(m, samples, seed=seed, tol=tol,
                                         include_adversarial=adversarial) \
        == _unscreened(m, samples, seed, tol, adversarial)


def test_verify_reports_every_violation():
    """phi-t (3) with a quarter of its compensation fails on about half the
    samples; each is reported with the value of its own eigensolve."""
    m = _with_compensation(phi_t(3), Fraction(1, 4))
    rep = verify_biseparable_positivity(m, 60, seed=11)
    assert rep == _unscreened(m, 60, 11)
    assert len(rep.violations) >= 30
    for v in rep.violations[:-1]:
        assert v.seed == 11 + v.index
        assert v.min_eig == min_eigval(apply_blocks(m.expr, random_biseparable(m.dims, 1, v.seed)))
    assert rep.violations[-1].label == "adversarial"


def test_adversarial_product_is_biseparable_zero_mode():
    # exact compensation makes the lifted transposition vanish on it
    adv = adversarial_product(SiteDims((2, 2, 2)))
    out = detect(phi_t(3), adv)
    assert not out.detected
    assert out.min_eig == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("entries", [None, 1])
@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 2, 2), (2, 2, 3, 2, 2)])
def test_ppt_check_matches_dense(monkeypatch, dims, entries):
    """Each cut's value is the dense lowest eigenvalue of its partial
    transpose, within 1e-12, in all runs at once or one cut per run."""
    if entries is not None:
        monkeypatch.setattr(detect_module, "SCAN_CHUNK_ENTRIES", entries)
    rng = np.random.default_rng(len(dims))
    D = int(np.prod(dims))
    v = rng.standard_normal(D) + 1j * rng.standard_normal(D)
    for rho in (operator(dims, rand_density(D, rng)), PureState(SiteDims(dims), v).density()):
        rep = ppt_check(rho)
        assert [c.parties for c in rep.cuts] == [A.members for A in bipartitions(len(dims))]
        for c in rep.cuts:
            want = np.linalg.eigvalsh(partial_transpose(rho, c.parties).mat)[0]
            assert abs(c.min_eig - want) <= 1e-12


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
