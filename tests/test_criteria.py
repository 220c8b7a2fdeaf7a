"""Criterion construction: bipartitions, lifted maps, projector, witnesses."""

import numpy as np
import pytest

from gme_maps import criteria
from gme_maps.criteria import (bipartitions, build_map, eta_map,
                               map_to_witness, mu_map, phi_b, phi_r, phi_t,
                               phi_tx, witness_to_map, x_projector,
                               x_projector_mixture)
from gme_maps.detect import detect
from gme_maps.maps import apply, apply_stack, dual
from gme_maps.operators import (MpOperator, SiteDims, min_eig, operator,
                                schur_product)
from gme_maps.states import ghz, maximally_mixed, noisy_ghz, random_biseparable, w_state
from helpers import hermitian_op, rand_density


def test_bipartitions_small():
    assert [a.members for a in bipartitions(2)] == [(0,)]
    assert [a.members for a in bipartitions(3)] == [(0,), (1,), (2,)]
    assert [a.members for a in bipartitions(4)] == [
        (0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3)]
    with pytest.raises(ValueError):
        bipartitions(1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_bipartitions_cardinality(n):
    reps = bipartitions(n)
    assert len(reps) == 2 ** (n - 1) - 1
    seen = set()
    for a in reps:
        comp = tuple(i for i in range(n) if i not in a.members)
        assert a.members not in seen and comp not in seen
        seen.add(a.members)


def test_phi_t_fixed_point():
    m = phi_t(3)
    rho = np.zeros((8, 8))
    rho[0, 0] = 1
    out = apply(m.expr, operator((2, 2, 2), rho))
    assert min_eig(out)[0] == pytest.approx(1.0, abs=1e-12)


def test_phi_tx_on_maximally_mixed():
    # every lifted term fixes I/8 and the compensation adds the identity
    m = phi_tx(3)
    out = apply(m.expr, maximally_mixed((2, 2, 2)))
    assert np.allclose(out.mat, (3 / 8 + 1) * np.eye(8))
    assert min_eig(out)[0] == pytest.approx(11 / 8, abs=1e-12)


def test_phi_constructors_reject_small_n():
    for ctor in (phi_t, phi_tx, eta_map):
        with pytest.raises(ValueError):
            ctor(2)
    with pytest.raises(ValueError):
        phi_r(3, n=2)
    with pytest.raises(ValueError):
        mu_map(2, 3)


def test_phi_b_validation():
    with pytest.raises(ValueError):
        phi_b(3)
    with pytest.raises(ValueError):
        phi_b(5)
    phi_b(4)


def test_x_projector_support_two_qubits():
    proj = x_projector(2, 2)
    out = apply_stack(proj, np.ones((4, 4))[None])[0]
    support = sorted(zip(*np.nonzero(out)))
    assert [tuple(map(int, s)) for s in support] == [
        (0, 0), (0, 3), (1, 1), (1, 2), (2, 1), (2, 2), (3, 0), (3, 3)]


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
def test_x_projector_idempotent_and_routes_agree(n, d):
    rng = np.random.default_rng(n * 10 + d)
    mask_route = x_projector(n, d)
    mix_route = x_projector_mixture(n, d)
    for _ in range(5):
        rho = hermitian_op((d,) * n, rng)
        a = apply(mask_route, rho).mat
        b = apply(mix_route, rho).mat
        assert np.max(np.abs(a - b)) <= 1e-10
        twice = apply(mask_route, MpOperator(rho.dims, a)).mat
        assert np.max(np.abs(twice - a)) <= 1e-12


def test_claims_attached():
    assert any(c.quantity == "min-eig:w3" for c in phi_t(3).claims)
    assert any(c.quantity == "threshold:noisy-ghz" for c in eta_map(4).claims)
    assert all(c.source == "closed-form" for c in phi_tx(3).claims)


def test_witness_to_map_trivial():
    eye = operator((2, 2), np.eye(4))
    m = witness_to_map(eye)
    rng = np.random.default_rng(31)
    rho = operator((2, 2), rand_density(4, rng))
    out = apply(m.expr, rho)
    assert min_eig(out)[0] >= -1e-12

    w = operator((2, 2), np.diag([-0.2, 0, 0, 0]))
    rho0 = np.zeros((4, 4))
    rho0[0, 0] = 1
    out = apply(witness_to_map(w).expr, operator((2, 2), rho0))
    assert min_eig(out)[0] == pytest.approx(-0.2, abs=1e-12)


def test_witness_to_map_rejects_non_hermitian():
    bad = operator((2,), np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        witness_to_map(bad)


def test_witness_roundtrip_through_dual():
    rng = np.random.default_rng(32)
    w0 = hermitian_op((2, 2), rng)
    m = witness_to_map(w0)
    psi = ghz(2, 2)
    w = map_to_witness(m, psi)
    assert np.max(np.abs(w.mat - w0.mat)) <= 1e-12


def test_map_to_witness_ghz_value():
    m = phi_tx(3)
    minus = np.zeros(8, dtype=complex)
    minus[0], minus[7] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    from gme_maps.states import pure
    w = map_to_witness(m, pure((2, 2, 2), minus))
    g = ghz(3, 2).density()
    assert np.trace(w.mat @ g.mat).real == pytest.approx(-0.5, abs=1e-10)


def test_map_to_witness_consistency():
    rng = np.random.default_rng(33)
    m = phi_r(3)
    from gme_maps.states import random_pure
    psi = random_pure((3, 3, 3), 5)
    w = map_to_witness(m, psi)
    for s in range(5):
        rho = random_biseparable((3, 3, 3), 3, 100 + s)
        lhs = np.trace(w.mat @ rho.mat)
        rhs = np.vdot(psi.vec, apply(m.expr, rho).mat @ psi.vec)
        assert abs(lhs - rhs) <= 1e-10


def test_map_to_witness_dims_check():
    with pytest.raises(ValueError):
        map_to_witness(phi_tx(3), ghz(4, 2))


def test_build_map_dispatch_and_errors():
    assert criteria.MAP_IDS == tuple(criteria.SMALLEST)
    for map_id in criteria.MAP_IDS:
        n, d = criteria.SMALLEST[map_id]
        m = build_map(map_id, n, d)
        assert m.label == map_id
        assert m.dims == SiteDims((d,) * n)
    assert build_map("mu-choi", 3, 3).dims == SiteDims((3, 3, 3))
    for map_id in ("phi-tx", "eta"):
        with pytest.raises(ValueError, match=rf"^{map_id} is a qubit criterion \(d = 2\)$"):
            build_map(map_id, 3, 3)
    with pytest.raises(ValueError):
        build_map("mu-choi", 3, 2)
    with pytest.raises(ValueError):
        build_map("phi-b", 3, 5)
    with pytest.raises(ValueError):
        build_map("phi-tx", 3, 3)
    with pytest.raises(ValueError) as err:
        build_map("nope", 3, 2)
    assert str(err.value) == ("unknown map id 'nope'; choose from "
                              "phi-t, phi-tx, eta, phi-r, phi-b, mu-choi")


def test_build_map_size_limit(monkeypatch):
    def enumerate_nothing(n):
        raise AssertionError("bipartitions enumerated")

    monkeypatch.setattr(criteria, "bipartitions", enumerate_nothing)
    for map_id, n, d in [("phi-t", 40, 2), ("phi-t", 11, 2), ("phi-r", 3, 11),
                         ("mu-choi", 10 ** 6, 3)]:
        with pytest.raises(ValueError, match="exceeds"):
            build_map(map_id, n, d)
    with pytest.raises(ValueError, match="d must be >= 2"):
        build_map("phi-t", 10 ** 9, 1)


def test_build_map_at_size_limit():
    assert build_map("phi-b", 5, 4).dims.total == criteria.MAX_DIM


# ---------------------------------------------------------------------------
# one shared map per (map_id, n, d) and process
# ---------------------------------------------------------------------------

#: every catalog id at its smallest size, and maps past `DENSE_MAX_DIM`, where
#: the graded lifts have a support form and mu-choi walks its lifts
SHARED = [(k, *criteria.SMALLEST[k]) for k in criteria.MAP_IDS] + [
    ("phi-t", 7, 2), ("phi-tx", 7, 2), ("eta", 7, 2), ("phi-r", 7, 2), ("mu-choi", 4, 3)]


def _arrays(obj, seen):
    """Every array reachable from obj through tuples, lists, dicts and the
    instance dicts of objects, a node's fields and what its cached
    properties keep included, each once."""
    if id(obj) in seen or callable(obj) or isinstance(obj, (str, int, float)):
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item, seen)
    elif hasattr(obj, "__dict__"):
        yield from _arrays(vars(obj), seen)


def test_build_map_returns_one_map_per_arguments():
    for map_id, n, d in SHARED:
        assert build_map(map_id, n, d) is build_map(map_id, n, d)
    assert build_map("phi-t", 3, 2) is not build_map("phi-t", 4, 2)


@pytest.mark.parametrize("map_id, n, d", SHARED)
def test_shared_map_arrays_are_read_only(map_id, n, d):
    """After applications on X-support blocks, on a dense state on the
    support and on one off it, every array the shared map reaches (node
    fields, support form, lift tables) refuses a write."""
    m = build_map(map_id, n, d)
    for rho in (noisy_ghz(n, d, 0.7), ghz(n, d).density(), random_biseparable(m.dims, 2, 0)):
        detect(m, rho)
    arrays = list(_arrays(m, set()))
    if m.expr.support is not None:
        assert any(a is m.expr.support.index for a in arrays)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_build_map_errors_are_never_cached(monkeypatch):
    """Every refusal is made again on every call, also for arguments whose
    map is already built, and none adds a map to the cache."""
    m = build_map("phi-t", 3, 2)
    held = criteria._built.cache_info().currsize
    refused = [(("phi-t", 11, 2), "exceeds the supported maximum 1024"),
               (("nope", 3, 2), "unknown map id 'nope'"),
               (("eta", 3, 3), "eta is a qubit criterion"),
               (("phi-t", 3, 1), "d must be >= 2"),
               (("phi-t", 2, 2), "phi-t needs n >= 3")]
    for args, message in refused:
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                build_map(*args)
    monkeypatch.setattr(criteria, "MAX_DIM", 4)
    for _ in range(2):
        with pytest.raises(ValueError, match="2\\^3 exceeds the supported maximum 4"):
            build_map("phi-t", 3, 2)
    monkeypatch.undo()
    assert criteria._built.cache_info().currsize == held
    assert build_map("phi-t", 3, 2) is m


@pytest.mark.usefixtures("fresh_maps")
def test_ninth_distinct_build_evicts_the_first():
    """The cache keeps the last 8 distinct maps: after 9 distinct builds the
    first is built again as a fresh object, and the last is still shared."""
    args = [("phi-t", n, 2) for n in range(3, 8)] + [("phi-r", 3, d) for d in range(2, 6)]
    built = [build_map(*a) for a in args]
    assert len(set(map(id, built))) == 9 and criteria._built.cache_info().currsize == 8
    again = build_map(*args[0])
    assert again is not built[0] and again.dims == built[0].dims
    assert build_map(*args[-1]) is built[-1]
