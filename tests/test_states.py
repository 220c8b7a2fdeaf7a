"""State factory: named families, generalized Paulis, random sampling."""

from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gme_maps.grades import bipartitions
from gme_maps.operators import (BlockOperator, MpOperator, SiteDims, is_density, min_eig,
                                partial_transpose, scatter_blocks, x_support_index)
from gme_maps.states import (NoiseMixture, PptFamilyParams, PureState, clock_matrix,
                             depolarized, ghz, maximally_entangled,
                             maximally_mixed, noisy_ghz, ppt_family, random_biseparable,
                             random_product_pure, random_pure, shift_matrix,
                             w_state, white_noise)


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
            assert np.linalg.eigvalsh(partial_transpose(rho, (i,)).mat)[0] >= -1e-10


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


def _kron_biseparable(dims, seed):
    """`random_biseparable(dims, 1, seed)` by its draws: an exponential weight,
    a cut, then the two Haar factors, joined by `np.kron` and put in site
    order by `np.argsort`."""
    sd = SiteDims(dims)
    rng = np.random.default_rng(seed)
    reps = bipartitions(sd.n)
    w = rng.exponential(size=1)
    w = w / w.sum()
    keep = list(reps[rng.integers(len(reps))].members)
    order = keep + [i for i in range(sd.n) if i not in keep]
    dA = int(np.prod([dims[i] for i in keep]))
    factors = []
    for D in (dA, sd.total // dA):
        v = rng.standard_normal(D) + 1j * rng.standard_normal(D)
        factors.append(v / np.linalg.norm(v))
    v = np.kron(*factors).reshape([dims[o] for o in order])
    v = v.transpose(np.argsort(order)).reshape(sd.total)
    rho = np.zeros((sd.total, sd.total), dtype=complex)
    rho += w[0] * np.outer(v, v.conj())
    return MpOperator(sd, rho)


@pytest.mark.parametrize("dims", [(2, 2, 2), (4, 4, 4), (3, 3, 3)])
def test_random_biseparable_sample_bits_pinned(dims):
    """A `verify` sample is, bit for bit, the `np.kron` construction of its
    draws."""
    for seed in range(25):
        got, want = random_biseparable(dims, 1, seed).mat, _kron_biseparable(dims, seed).mat
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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


def test_pure_state_normalises_complex_entries_near_the_float_limit():
    """Scaling reads the largest real or imaginary part: the modulus of
    1.27e308 (1 + i) overflows to infinity, and dividing by it would leave a
    zero vector.  Underflow stays ignored, as numpy's default has it."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        psi = PureState(SiteDims((2,)), np.array([0, 1.27116101e308 * (1 + 1j)]))
    assert np.allclose(psi.vec, [0, (1 + 1j) / np.sqrt(2)], rtol=0, atol=1e-15)


@st.composite
def pure_states(draw):
    """A `PureState` on sites with D <= 64, real or complex, its entries drawn
    at a scale of 1e-100, 1 or 1e100, some of them zero."""
    dims = draw(st.lists(st.integers(2, 4), min_size=1, max_size=6))
    while prod(dims) > 64:
        dims.pop()
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    D = prod(dims)
    v = rng.standard_normal(D)
    if draw(st.booleans()):
        v = v + 1j * rng.standard_normal(D)
    v = v * (rng.random(D) < draw(st.sampled_from([0.2, 1.0])))
    v[rng.integers(D)] = 1.0
    return PureState(SiteDims(tuple(dims)), v * draw(st.sampled_from([1e-100, 1.0, 1e100])))


@settings(max_examples=150, deadline=None)
@given(pure_states(), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
def test_depolarized_pure_state_is_density_property(psi, p):
    """p |psi><psi| + (1 - p) I/D is a state for every p in [0, 1], so a
    visibility scan need not check its rows."""
    assert is_density(depolarized(psi, p))


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("psi", [ghz(10, 2), w_state(10)], ids=["ghz", "w"])
def test_depolarized_ten_qubits_is_density(psi, p):
    assert is_density(depolarized(psi, p))


#: (n, d) of every GHZ on at most 1024 levels
GHZ_SIZES = [(n, d) for d in range(2, 11) for n in range(2, 11) if d ** n <= 1024]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GHZ_SIZES), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
def test_noisy_ghz_blocks_are_the_dense_state_property(size, p):
    """`noisy_ghz` holds the entries of `depolarized(ghz(n, d), p)` on the X
    support, bit for bit, and that matrix is zero off it; at p = 0 they are
    `maximally_mixed`'s.  The blocks are read-only, on the shared index."""
    n, d = size
    state = noisy_ghz(n, d, p)
    dims = SiteDims((d,) * n)
    assert isinstance(state, BlockOperator) and state.dims == dims
    assert state.index is x_support_index(dims) and not state.blocks.flags.writeable
    whole = scatter_blocks(state.index, state.blocks, dims.total)
    want = depolarized(ghz(n, d), p).mat
    assert whole.dtype == want.dtype and whole.tobytes() == want.tobytes()
    if p == 0.0:
        assert whole.tobytes() == maximally_mixed(dims).mat.tobytes()
    assert is_density(state)


def test_white_noise_blocks_where_the_sites_have_an_x_support():
    """I/D comes as `noisy_ghz` blocks on n >= 2 sites of one dimension, and as
    `maximally_mixed`'s matrix elsewhere; the entries are the same."""
    for dims in ((2, 2, 2), (3, 3, 3, 3), (2, 2)):
        noise = white_noise(dims)
        assert isinstance(noise, BlockOperator)
        whole = scatter_blocks(noise.index, noise.blocks, noise.dims.total)
        assert whole.tobytes() == maximally_mixed(dims).mat.tobytes()
    for dims in ((2, 3), (4,)):
        noise = white_noise(dims)
        assert isinstance(noise, MpOperator)
        assert noise.mat.tobytes() == maximally_mixed(dims).mat.tobytes()


def test_noisy_ghz_refuses_what_ghz_and_depolarized_refuse():
    with pytest.raises(ValueError, match="ghz needs n >= 2 and d >= 2"):
        noisy_ghz(1, 2, 0.5)
    with pytest.raises(ValueError, match=r"visibility must lie in \[0, 1\], got 1.5"):
        noisy_ghz(3, 2, 1.5)
