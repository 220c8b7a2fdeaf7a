"""State factory: named families, generalized Paulis, random sampling."""

import numpy as np
import pytest

from gme_maps.operators import SiteDims, eigvalsh, is_density, min_eig, partial_transpose
from gme_maps.states import (NoiseMixture, PptFamilyParams, PureState, clock_matrix,
                             depolarized, ghz, maximally_entangled,
                             maximally_mixed, ppt_family, random_biseparable,
                             random_product_pure, random_pure, shift_matrix,
                             w_state)


def test_ghz_qubits():
    psi = ghz(2, 2)
    assert np.allclose(psi.vec, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])


def test_ghz_qutrits_indices():
    psi = ghz(3, 3)
    nz = np.nonzero(psi.vec)[0]
    assert list(nz) == [0, 13, 26]
    assert np.allclose(psi.vec[nz], 1 / np.sqrt(3))


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 3), (2, 5), (6, 2)])
def test_ghz_normalized(n, d):
    assert abs(np.linalg.norm(ghz(n, d).vec) - 1) <= 1e-12


def test_ghz_rejects_small():
    with pytest.raises(ValueError):
        ghz(1, 2)
    with pytest.raises(ValueError):
        ghz(3, 1)


def test_w_state():
    psi = w_state(3)
    nz = np.nonzero(psi.vec)[0]
    assert list(nz) == [1, 2, 4]
    assert np.allclose(psi.vec[nz], 1 / np.sqrt(3))

    psi4 = w_state(4)
    assert list(np.nonzero(psi4.vec)[0]) == [1, 2, 4, 8]
    assert np.allclose(psi4.vec[np.nonzero(psi4.vec)], 0.5)

    for n in range(3, 11):
        assert abs(np.linalg.norm(w_state(n).vec) - 1) <= 1e-12

    with pytest.raises(ValueError):
        w_state(2)


def test_depolarized_endpoints():
    psi = ghz(3, 2)
    assert np.allclose(depolarized(psi, 0.0).mat, np.eye(8) / 8)
    assert np.allclose(depolarized(psi, 1.0).mat, np.outer(psi.vec, psi.vec.conj()))
    rng = np.random.default_rng(0)
    for _ in range(5):
        p = rng.uniform()
        rho = depolarized(psi, p)
        assert abs(rho.trace() - 1) <= 1e-12
        assert min_eig(rho)[0] >= -1e-12
    with pytest.raises(ValueError):
        depolarized(psi, 1.5)


def test_noise_mixture_type():
    mix = NoiseMixture(ghz(2, 2), 0.5)
    assert is_density(mix.density())
    with pytest.raises(ValueError):
        NoiseMixture(ghz(2, 2), -0.1)


def test_shift_and_clock():
    assert np.array_equal(shift_matrix(2).mat.real, np.array([[0, 1], [1, 0]]))
    w = np.exp(2j * np.pi / 3)
    assert np.allclose(clock_matrix(3, 1).mat, np.diag([1, w, w ** 2]))

    for d in (2, 3, 5):
        x = shift_matrix(d).mat
        assert np.allclose(np.linalg.matrix_power(x, d), np.eye(d))
        for k in range(d):
            for l in range(d):
                prod = clock_matrix(d, k).mat @ clock_matrix(d, l).mat
                assert np.allclose(prod, clock_matrix(d, (k + l) % d).mat)

    with pytest.raises(ValueError):
        clock_matrix(3, 3)


def test_maximally_entangled():
    eps = maximally_entangled(3)
    assert list(np.nonzero(eps.vec)[0]) == [0, 4, 8]


def test_ppt_family_invariance_equal_lambda():
    for lam in (0.05, 1 / 9, 0.25, 0.5):
        rho = ppt_family((lam, lam, lam))
        assert abs(rho.trace() - 1) <= 1e-12
        assert min_eig(rho)[0] >= -1e-10
        for i in range(3):
            dev = np.linalg.norm(partial_transpose(rho, (i,)).mat - rho.mat)
            assert dev <= 1e-10


def test_ppt_family_unequal_lambda_stays_ppt():
    rng = np.random.default_rng(21)
    for _ in range(10):
        l1, l2, l3 = rng.uniform(0.05, 3.0, size=3)
        rho = ppt_family(PptFamilyParams(l1, l2, l3))
        for i in range(3):
            assert eigvalsh(partial_transpose(rho, (i,)))[0] >= -1e-10


def _ppt_family_from_vectors(l1, l2, l3):
    """The family from its ten vectors: reference for the term-wise build."""
    def ket(digits):
        v = np.zeros(27)
        v[int(digits, 3)] = 1
        return v

    vecs = [
        np.sqrt(l1) * ket("001") + np.sqrt(1 / l1) * ket("110"),
        np.sqrt(l1) * ket("010") + np.sqrt(1 / l1) * ket("101"),
        np.sqrt(l1) * ket("100") + np.sqrt(1 / l1) * ket("011"),
        np.sqrt(l2) * ket("112") + np.sqrt(1 / l2) * ket("221"),
        np.sqrt(l2) * ket("121") + np.sqrt(1 / l2) * ket("212"),
        np.sqrt(l2) * ket("211") + np.sqrt(1 / l2) * ket("122"),
        np.sqrt(1 / l3) * ket("002") + np.sqrt(l3) * ket("220"),
        np.sqrt(1 / l3) * ket("020") + np.sqrt(l3) * ket("202"),
        np.sqrt(1 / l3) * ket("200") + np.sqrt(l3) * ket("022"),
        ket("000") + ket("111") + ket("222"),
    ]
    E = sum(np.outer(v, v) for v in vecs)
    return E / np.trace(E)


def test_ppt_family_matches_ten_vector_construction():
    rng = np.random.default_rng(22)
    for lams in [(1 / 9, 1 / 9, 1 / 9)] + [tuple(rng.uniform(0.05, 3.0, size=3)) for _ in range(5)]:
        rho = ppt_family(lams)
        assert np.max(np.abs(rho.mat - _ppt_family_from_vectors(*lams))) <= 1e-15


def test_ppt_family_rejects_nonpositive():
    with pytest.raises(ValueError):
        ppt_family((0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        ppt_family((-1.0, 1.0, 1.0))


def test_random_pure_deterministic():
    a = random_pure((2, 2, 2), 42)
    b = random_pure((2, 2, 2), 42)
    assert np.array_equal(a.vec, b.vec)
    assert abs(np.linalg.norm(a.vec) - 1) <= 1e-12
    c = random_pure((2, 2, 2), 43)
    assert not np.array_equal(a.vec, c.vec)


def test_random_product_pure_schmidt_rank_one():
    psi = random_product_pure((2, 3, 2), (1,), 7)
    # reshape as (A | rest) after moving party 1 first
    t = psi.vec.reshape(2, 3, 2).transpose(1, 0, 2).reshape(3, 4)
    s = np.linalg.svd(t, compute_uv=False)
    assert s[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(s[1:]) <= 1e-12


def test_random_biseparable_valid_state():
    rho = random_biseparable((2, 2, 2), 4, 11)
    assert is_density(rho)
    again = random_biseparable((2, 2, 2), 4, 11)
    assert np.array_equal(rho.mat, again.mat)
    with pytest.raises(ValueError):
        random_biseparable((2, 2), 0, 1)


def test_maximally_mixed():
    mm = maximally_mixed((2, 3))
    assert mm.dims == SiteDims((2, 3))
    assert np.allclose(mm.mat, np.eye(6) / 6)


def test_real_families_are_float64():
    """The paper's states are real and stay float64; random states and clock
    phases are complex128."""
    real = [ghz(3, 3).vec, w_state(4).vec, maximally_entangled(3).vec, shift_matrix(3).mat,
            clock_matrix(3, 0).mat, ppt_family((0.2, 0.3, 0.4)).mat,
            depolarized(ghz(3), 0.5).mat, maximally_mixed((2, 2)).mat]
    assert all(a.dtype == np.float64 for a in real)
    complex_ = [random_pure((2, 2), 1).vec, clock_matrix(3, 1).mat,
                random_biseparable((2, 2, 2), 2, 1).mat]
    assert all(a.dtype == np.complex128 for a in complex_)


@pytest.mark.parametrize("lams", [(np.inf, 1, 1), (1, np.nan, 1), (1, 1, -np.inf), (0, 1, 1)])
def test_ppt_family_params_finite_and_positive(lams):
    with pytest.raises(ValueError, match="finite and strictly positive"):
        PptFamilyParams(*lams)


@pytest.mark.parametrize("scale", [1e-170, 5e-324, 1e300])
def test_pure_state_normalises_tiny_and_huge_entries(scale):
    """A vector whose squared norm would underflow to zero or overflow is
    scaled by its peak entry first, so it normalises, with no warning."""
    with np.errstate(all="raise"):
        psi = PureState(SiteDims((2,)), np.array([scale, scale]))
    assert np.array_equal(psi.vec, np.full(2, 1 / np.sqrt(2)))
    with pytest.raises(ValueError, match="zero vector"):
        PureState(SiteDims((2,)), np.zeros(2))
