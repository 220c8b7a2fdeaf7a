"""Tensor-core arithmetic: kron, partial operations, eigensolver."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gme_maps.operators import (DENSE_MAX_DIM, DENSITY_EIG_TOL, DENSITY_TRACE_TOL, HERM_RTOL,
                                BlockOperator, MpOperator, PartySubset, SiteDims,
                                blocks_above, diag_part, hermitian_rows, identity,
                                is_density, is_hermitian, joint_blocks, kron, min_eig,
                                min_eigval, min_eigval_above, min_eigvals, od_part,
                                operator, partial_trace, partial_transpose,
                                real_or_complex, scatter_blocks, schur_product)
from helpers import hermitian_op, rand_density, rand_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def bell():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return MpOperator(SiteDims((2, 2)), np.outer(v, v))


def test_site_dims_validation():
    assert SiteDims((2, 3, 2)).total == 12
    with pytest.raises(ValueError):
        SiteDims((2, 1))
    with pytest.raises(ValueError):
        SiteDims(())


def test_party_subset_validation():
    ps = PartySubset((2, 0))
    assert ps.members == (0, 2)
    ps.validate(3)
    with pytest.raises(ValueError):
        PartySubset(()).validate(3)
    with pytest.raises(ValueError):
        PartySubset((0, 1, 2)).validate(3)
    with pytest.raises(ValueError):
        PartySubset((5,)).validate(3)


def test_operator_shape_check():
    with pytest.raises(ValueError):
        operator((2, 2), np.eye(3))


def test_kron_identity():
    out = kron(identity((2,)), identity((2,)))
    assert out.dims == SiteDims((2, 2))
    assert np.array_equal(out.mat, np.eye(4))


def test_kron_diag_bookkeeping():
    a = operator((2,), np.diag([1, 0]))
    b = operator((2,), np.diag([0, 1]))
    assert np.array_equal(kron(a, b).mat, np.diag([0, 1, 0, 0]))


def test_kron_sigma_x_entry():
    out = kron(operator((2,), SX), operator((2,), SX))
    # |00><11| entry from the hand-expanded 4x4 product
    assert out.mat[0, 3] == 1


def test_kron_associative():
    rng = np.random.default_rng(5)
    a, b, c = (operator((2,), rand_hermitian(2, rng)) for _ in range(3))
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    assert np.max(np.abs(left.mat - right.mat)) <= 1e-12


def test_partial_transpose_bell_spectrum():
    pt = partial_transpose(bell(), (0,))
    w = np.linalg.eigvalsh(pt.mat)
    assert np.allclose(sorted(w), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_diagonal_invariant():
    d = operator((2, 2), np.diag([0.1, 0.2, 0.3, 0.4]))
    assert np.array_equal(partial_transpose(d, (1,)).mat, d.mat)


def test_partial_transpose_complement_identity():
    rng = np.random.default_rng(7)
    op = hermitian_op((2, 2, 2), rng)
    lhs = partial_transpose(op, (0, 1)).mat
    rhs = partial_transpose(op, (2,)).mat.T
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_partial_transpose_involution_trace_hermiticity():
    rng = np.random.default_rng(8)
    op = hermitian_op((2, 3), rng)
    pt = partial_transpose(op, (1,))
    assert np.max(np.abs(partial_transpose(pt, (1,)).mat - op.mat)) <= 1e-12
    assert abs(pt.trace() - op.trace()) <= 1e-12
    assert is_hermitian(pt)


def test_partial_transpose_invalid_subset():
    with pytest.raises(ValueError):
        partial_transpose(bell(), (0, 1))


def test_partial_trace_product():
    rng = np.random.default_rng(9)
    a = rand_density(2, rng)
    b = rand_hermitian(3, rng)
    op = operator((2, 3), np.kron(a, b))
    out = partial_trace(op, (1,))
    assert out.dims == SiteDims((2,))
    assert np.max(np.abs(out.mat - np.trace(b) * a)) <= 1e-12


def test_partial_trace_bell_marginal():
    out = partial_trace(bell(), (0,))
    assert np.max(np.abs(out.mat - np.eye(2) / 2)) <= 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(10)
    op = hermitian_op((2, 2, 3), rng)
    out = partial_trace(op, (0, 2))
    assert abs(out.trace() - op.trace()) <= 1e-10


def test_diag_od_split():
    assert np.allclose(diag_part(bell()).mat, np.diag([0.5, 0, 0, 0.5]), atol=1e-15)
    d = operator((2,), np.diag([1.0, 2.0]))
    assert np.max(np.abs(od_part(d).mat)) == 0
    rng = np.random.default_rng(11)
    op = hermitian_op((2, 2), rng)
    assert np.array_equal(diag_part(op).mat + od_part(op).mat, op.mat)
    assert np.max(np.abs(diag_part(od_part(op)).mat)) == 0


def test_schur_product():
    rng = np.random.default_rng(12)
    op = hermitian_op((2, 2), rng)
    ones = operator((2, 2), np.ones((4, 4)))
    assert np.array_equal(schur_product(op, ones).mat, op.mat)
    assert np.array_equal(schur_product(op, identity((2, 2))).mat, diag_part(op).mat)
    mask = hermitian_op((2, 2), rng)
    left = schur_product(op, mask).mat.conj().T
    right = schur_product(op, mask).mat  # hermitian Schur of hermitian factors
    assert np.max(np.abs(left - right)) <= 1e-12
    with pytest.raises(ValueError):
        schur_product(op, identity((2,)))


def test_min_eig_basics():
    val, vec = min_eig(operator((3,), np.diag([1.0, 2.0, 3.0])))
    assert val == 1.0
    assert abs(abs(vec[0]) - 1) <= 1e-12

    m = np.eye(2) - 2 * np.diag([1.0, 0.0])
    val, vec = min_eig(operator((2,), m))
    assert abs(val + 1) <= 1e-12
    assert abs(abs(vec[0]) - 1) <= 1e-12

    val, _ = min_eig(partial_transpose(bell(), (0,)))
    assert abs(val + 0.5) <= 1e-12


def test_min_eig_residual_and_sum():
    rng = np.random.default_rng(13)
    op = operator((2, 2, 2), rand_density(8, rng))
    val, vec = min_eig(op)
    resid = np.linalg.norm(op.mat @ vec - val * vec)
    assert resid <= 1e-9 * np.linalg.norm(op.mat)
    assert abs(np.linalg.eigvalsh(op.mat).sum() - 1.0) <= 1e-9


def test_min_eig_rejects_non_hermitian():
    bad = operator((2,), np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        min_eig(bad)


def test_block_operator_min_eig_matches_dense():
    rng = np.random.default_rng(15)
    dims = SiteDims((3, 3))
    index = rng.permutation(9).reshape(3, 3)
    blocks = np.stack([rand_hermitian(3, rng) for _ in range(3)])
    op = BlockOperator(dims, index, blocks)
    mat = np.zeros((9, 9), dtype=complex)
    for b in range(3):
        mat[np.ix_(index[b], index[b])] = blocks[b]
    dense = MpOperator(dims, mat)
    val, vec = min_eig(op)
    assert abs(val - np.linalg.eigvalsh(dense.mat)[0]) <= 1e-12
    assert abs(np.linalg.norm(vec) - 1) <= 1e-12
    assert np.linalg.norm(dense.mat @ vec - val * vec) <= 1e-12

    blocks[1, 0, 2] += 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        min_eig(BlockOperator(dims, index, blocks))


def test_hermitian_rows_quiet_on_overflow():
    """Entries near the float limit give each row its verdict without a
    warning: m - m^dag overflowing, or an entry's modulus, fails the row."""
    rng = np.random.default_rng(58)
    signs = rng.choice([-1.0, 1.0], (8, 8))
    huge = 1.7e308 * (1 + 1j)
    swapped = np.zeros((8, 8), dtype=complex)
    swapped[0, 1], swapped[1, 0] = huge, np.conj(huge)
    cases = [(1e308 * signs, False), (1e308 * np.sign(signs + signs.T), True),
             (swapped, False), (np.full((8, 8), np.inf), False), (np.eye(8), True)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ok, peaks = hermitian_rows(joint_blocks([operator((2, 2, 2), m) for m, _ in cases]))
        assert [is_hermitian(m) for m, _ in cases] == [want for _, want in cases]
    assert ok == [want for _, want in cases]
    assert peaks[1] == 1e308 and peaks[2] == peaks[3] == np.inf and peaks[4] == 1.0


def test_min_eigval_matches_min_eig():
    """The eigenvalue-only solve gives `min_eig`'s value, dense and per block,
    real and complex; `min_eig` returns a complex vector either way."""
    rng = np.random.default_rng(16)
    index = rng.permutation(12).reshape(3, 4)
    for h in (rand_hermitian(12, rng), rand_hermitian(12, rng).real):
        blocks = np.stack([h[:4, :4], h[4:8, 4:8], h[8:, 8:]])
        for op in (operator((3, 4), h), BlockOperator(SiteDims((3, 4)), index, blocks)):
            val, vec = min_eig(op)
            assert vec.dtype == complex
            assert abs(min_eigval(op) - val) <= 1e-12
    with pytest.raises(ValueError, match="Hermitian"):
        min_eigval(operator((2,), np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_rows_above_is_the_cholesky_rule():
    """`blocks_above` holds exactly when each block of the row has every
    eigenvalue above the bound (with a gap of 1e-6 either side), so one
    failing block fails the row."""
    rng = np.random.default_rng(18)
    u = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
    lows = np.array([[-1.0, 0.3], [0.2, 0.4], [-0.25, -0.3]])  # rows x blocks
    for row in lows:
        herm = ((np.arange(10).reshape(2, 5),
                 np.stack([[(u * np.r_[low, 1.0, 1.5, 2.0, 3.0]) @ u.conj().T for low in row]])),)
        for bound in (-1.1, -0.5, -0.3, 0.1, 0.25, 0.35, 0.5):
            for delta in (-1e-6, 1e-6):
                assert blocks_above(herm, bound + delta) == bool(row.min() > bound + delta)


def test_min_eigval_above_solves_only_what_it_cannot_prove():
    """None when the smallest eigenvalue lies above the floor by more than the
    margin, otherwise `min_eigval` itself, bit for bit; a floor of +inf always
    solves, and a non-Hermitian operator raises as `min_eigval` does."""
    rng = np.random.default_rng(19)
    for h in (rand_hermitian(12, rng), rand_hermitian(12, rng).real):
        op = operator((3, 4), h)
        low = min_eigval(op)
        margin = HERM_RTOL * 12 * max(1.0, float(np.abs(h).max()))
        assert min_eigval_above(op, low - 2 * margin) is None
        for floor in (low - margin / 2, low, low + 1.0, np.inf):
            assert min_eigval_above(op, floor) == low
    with pytest.raises(ValueError, match="Hermitian"):
        min_eigval_above(operator((2,), np.array([[0.0, 1.0], [0.0, 0.0]])), 0.0)


def test_dtype_rule():
    """float64 exactly when every imaginary part is zero, else complex128."""
    for a, want in (([1, 2], float), ([1 + 0j, -0j], float), ([1 + 0j, 1e-300j], complex),
                    (np.array([1, 2], dtype=np.complex64), float), ([True, False], float),
                    ([np.nan * 1j], complex)):
        assert real_or_complex(a).dtype == want
    assert operator((2,), np.eye(2) + 0j).mat.dtype == float
    assert operator((2,), np.diag([1, 1j])).mat.dtype == complex
    assert is_density(operator((2, 2), bell().mat.real))


def test_density_predicate():
    rng = np.random.default_rng(14)
    assert is_density(operator((2, 2), rand_density(4, rng)))
    assert not is_density(operator((2,), np.diag([2.0, 0.0])))


@pytest.mark.parametrize("lowest, accepted", [(-0.5e-10, True), (-2e-10, False), (0.0, True)])
def test_density_eigenvalue_tolerance(lowest, accepted):
    """A state is accepted down to a smallest eigenvalue of -DENSITY_EIG_TOL = -1e-10."""
    rng = np.random.default_rng(15)
    u = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0]
    w = np.array([lowest, 0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.25 - lowest])
    assert is_density(operator((2, 2, 2), (u * w) @ u.conj().T)) is accepted


def test_density_accepts_rank_one_ghz():
    v = np.zeros(64, dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    assert is_density(operator((2,) * 6, np.outer(v, v.conj())))


def _dense_is_density(mat):
    """`is_density` on the whole matrix: Hermitian, trace one, and a Cholesky
    factor of H + DENSITY_EIG_TOL I."""
    if not is_hermitian(mat) or abs(np.trace(mat) - 1) > DENSITY_TRACE_TOL:
        return False
    try:
        np.linalg.cholesky((mat + mat.conj().T) / 2 + DENSITY_EIG_TOL * np.eye(len(mat)))
    except np.linalg.LinAlgError:
        return False
    return True


@st.composite
def planted_blocks(draw, D=None):
    """A matrix of side 65..96, above `DENSE_MAX_DIM`, so that `joint_blocks`
    searches it, with planted blocks on scattered indices: each block
    U diag(w) U^dag, the w of all blocks of trace one, positive, singular
    (zeros in w) or indefinite.  Optionally the lowest eigenvalue of one
    block is moved to 0, -0.5e-10 or -2e-10 (the density tolerance is
    -1e-10), one block is scaled by 1e3, tiny couplings (down to the least
    subnormal) join blocks, and one entry of a row of the last block is
    moved by half, twice or 1e6 times the Hermiticity tolerance.  `D` fixes
    the side."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    D = draw(st.integers(DENSE_MAX_DIM + 1, 96)) if D is None else D
    cplx = draw(st.booleans())
    kind = draw(st.sampled_from(["positive", "singular", "indefinite"]))
    cuts = np.sort(rng.choice(np.arange(1, D), draw(st.integers(0, 40)), replace=False))
    blocks = np.split(rng.permutation(D), cuts)
    weights = [rng.random(len(b)) for b in blocks]
    if kind == "singular":
        weights = [w * (rng.random(len(w)) < 0.5) for w in weights]
    elif kind == "indefinite":
        weights = [rng.standard_normal(len(w)) for w in weights]
    total = sum(w.sum() for w in weights)
    weights = [w / total if total else w for w in weights]
    lowest = draw(st.sampled_from([None, 0.0, -0.5e-10, -2e-10]))
    wide = [i for i, w in enumerate(weights) if len(w) > 1]
    if lowest is not None and wide:
        w = weights[wide[0]]
        w[1] += w[0] - lowest
        w[0] = lowest
    mat = np.zeros((D, D), complex if cplx else float)
    for b, w in zip(blocks, weights):
        z = rng.standard_normal((len(b), len(b)))
        u = np.linalg.qr(z + 1j * rng.standard_normal(z.shape) if cplx else z)[0]
        mat[np.ix_(b, b)] = (u * w) @ u.conj().T
    if draw(st.booleans()):
        mat[np.ix_(blocks[0], blocks[0])] *= 1e3
    for _ in range(draw(st.integers(0, 3))):
        i, j = rng.choice(D, 2, replace=False)
        eps = draw(st.sampled_from([5e-324, 1e-300, 1e-17, 1e-3]))
        mat[i, j] = mat[j, i] = eps
    if draw(st.booleans()):  # within, just past or far past the tolerance
        i, j = rng.choice(blocks[-1]), rng.choice(D)
        mat[i, j] += draw(st.sampled_from([0.5, 2.0, 1e6])) * HERM_RTOL * max(1.0, np.abs(mat).max())
    return MpOperator(SiteDims((D,)), mat)


@settings(max_examples=80, deadline=None)
@given(planted_blocks())
def test_block_route_matches_dense_property(op):
    """`min_eig`, `min_eigval` and `is_density` through the blocks of the exact
    nonzero pattern give the dense solve's eigenvalue to 1e-12 relative, its
    density verdict and its ValueError on non-Hermitian input.  The blocks
    are the components: they cover every index once, hold every nonzero
    entry, and each is connected."""
    mat, D = op.mat, op.d
    groups = [(i, s[0]) for i, s in joint_blocks((op,))]
    index = np.concatenate([i.reshape(-1) for i, _ in groups])
    assert np.array_equal(np.sort(index), np.arange(D))
    assert [i.shape[1] for i, _ in groups] == sorted({i.shape[1] for i, _ in groups})
    inside = np.zeros((D, D), bool)
    for i, b in groups:
        inside[i[:, :, None], i[:, None, :]] = True
        assert np.array_equal(b, mat[i[:, :, None], i[:, None, :]])
        # every block is connected: its joined pattern reaches each index from each
        reach = ((b != 0) | (b != 0).swapaxes(1, 2) | np.eye(i.shape[1], dtype=bool)).astype(float)
        for _ in range(i.shape[1].bit_length()):
            reach = np.minimum(reach @ reach, 1.0)
        assert reach.all()
    assert not mat[~inside].any()

    assert is_density(op) == _dense_is_density(mat)
    if not is_hermitian(mat):
        for solve in (min_eig, min_eigval):
            with pytest.raises(ValueError, match="Hermitian"):
                solve(op)
        return
    w = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
    scale = max(1.0, float(np.abs(w).max()))
    val, vec = min_eig(op)
    assert abs(val - w[0]) <= 1e-12 * scale
    assert abs(min_eigval(op) - w[0]) <= 1e-12 * scale
    assert abs(np.linalg.norm(vec) - 1) <= 1e-12
    assert np.linalg.norm(mat @ vec - val * vec) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_joint_blocks_rows_match_dense_property(data):
    """Several operators split on the union of their patterns: every block
    holds each operator's entries there and nothing is left outside, and row
    by row `hermitian_rows` and `min_eigvals` give each operator's dense
    verdicts and eigenvalue, the Hermiticity scale being the row's own largest
    entry, and `is_density` of each operator its dense verdict."""
    D = data.draw(st.integers(DENSE_MAX_DIM + 1, 96))
    ops = data.draw(st.lists(planted_blocks(D), min_size=1, max_size=3))
    groups = joint_blocks(ops)
    inside = np.zeros((D, D), bool)
    for index, stack in groups:
        rows, cols = index[:, :, None], index[:, None, :]
        inside[rows, cols] = True
        for op, blocks in zip(ops, stack, strict=True):
            assert np.array_equal(blocks, op.mat[rows, cols])
    assert not any(op.mat[~inside].any() for op in ops)

    hermitian = [is_hermitian(op.mat) for op in ops]
    assert hermitian_rows(groups)[0] == hermitian
    assert [is_density(op) for op in ops] == [_dense_is_density(op.mat) for op in ops]
    if not all(hermitian):
        with pytest.raises(ValueError, match="Hermitian"):
            min_eigvals(groups)
        return
    for op, val in zip(ops, min_eigvals(groups)):
        w = np.linalg.eigvalsh((op.mat + op.mat.conj().T) / 2)
        assert abs(val - w[0]) <= 1e-12 * max(1.0, float(np.abs(w).max()))


def test_joint_blocks_pass_shared_blocks_through():
    """`BlockOperator`s on one index stack on it, unsearched.  Any other mix
    (an equal copy of the index, or a full matrix among `BlockOperator`s) is
    split as the scattered whole matrices are, bit for bit."""
    rng = np.random.default_rng(17)
    dims = SiteDims((3, 3))
    index = rng.permutation(9).reshape(3, 3)
    ops = [BlockOperator(dims, index, np.stack([rand_hermitian(3, rng) for _ in range(3)]))
           for _ in range(2)]
    (shared, stack), = joint_blocks(ops)
    assert shared is index
    assert all(np.array_equal(s, op.blocks) for s, op in zip(stack, ops))
    full = operator(dims, rand_hermitian(9, rng))
    copy = BlockOperator(dims, index.copy(), ops[1].blocks)
    for mix in ((ops[0], copy), (ops[0], full), (full, ops[0])):
        whole = [op if isinstance(op, MpOperator)
                 else operator(dims, scatter_blocks(op.index, op.blocks, 9)) for op in mix]
        got, want = joint_blocks(mix), joint_blocks(whole)
        assert len(got) == len(want)
        for (i, s), (j, t) in zip(got, want):
            assert np.array_equal(i, j) and s.dtype == t.dtype and s.tobytes() == t.tobytes()
