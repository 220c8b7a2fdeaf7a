"""Map algebra: primitive actions, combinators, duals, minimal output eigenvalue,
and the X-support route."""

import copy
import functools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gme_maps import grades, maps
from gme_maps.criteria import (CATALOG, MAP_IDS, MAX_DIM, SMALLEST, GmeMap, _choi_on_subset,
                               bipartitions, build_map, witness_to_map, x_projector)
from gme_maps.maps import (BreuerHall, Choi, Compose, Conjugate, DiagAll, Lift, Scale, SchurWith,
                           SideLifts, Sum, TraceOuter, Transpose, apply, apply_blocks,
                           apply_stack, breuer_hall_map, choi_map, compose,
                           conjugation_map, default_skew_unitary, diag_map,
                           dual, estimate_mu, identity_map, lift, map_sum,
                           mu_constant, mu_sample_values, reduction_map,
                           scale, trace_identity, transpose_map)
from gme_maps.operators import (BlockOperator, MpOperator, PartySubset, SiteDims, gather_blocks,
                                is_hermitian, min_eig, operator, scatter_blocks)
from gme_maps.serialize import mapexpr_from_json, mapexpr_to_json
from gme_maps.detect import detect
from gme_maps.states import (PureState, clock_matrix, depolarized, ghz, maximally_entangled,
                             maximally_mixed, noisy_ghz, shift_matrix, w_state, white_noise)
from helpers import (density_op, digit_reversal, hermitian_op, lift_by_lift, lift_sites,
                     lifted_map_exprs, map_exprs, monomial, rand_density, rand_hermitian,
                     side_lifts, superoperator, x_projected_exprs)


def test_reduction_on_identity():
    for d in (2, 3, 5):
        out = apply(reduction_map(d), operator((d,), np.eye(d)))
        assert np.allclose(out.mat, np.eye(d))


def test_reduction_on_projector():
    d = 4
    e0 = np.zeros((d, d))
    e0[0, 0] = 1
    out = apply(reduction_map(d), operator((d,), e0))
    expect = (np.eye(d) - e0) / (d - 1)
    assert np.allclose(out.mat, expect)


def test_reduction_trace_preserving():
    rng = np.random.default_rng(0)
    rho = density_op((3,), rng)
    assert abs(apply(reduction_map(3), rho).trace() - 1) <= 1e-12


def test_reduction_entangled_expectation():
    # lifted reduction on the maximally entangled state reaches -1/d
    for d in (2, 3, 4):
        eps = maximally_entangled(d)
        lifted = lift(reduction_map(d), (0,), (d, d))
        out = apply(lifted, eps.density())
        val = np.vdot(eps.vec, out.mat @ eps.vec).real
        assert val == pytest.approx(-1 / d, abs=1e-12)
        assert min_eig(out)[0] == pytest.approx(-1 / d, abs=1e-12)


def test_choi_actions():
    out = apply(choi_map(3), operator((3,), np.diag([1.0, 2.0, 3.0])))
    assert np.allclose(out.mat, np.diag([3.0, 5.0, 4.0]))

    e01 = np.zeros((3, 3))
    e01[0, 1] = 1
    out = apply(choi_map(3), operator((3,), e01))
    assert np.allclose(out.mat, -e01)

    e00 = np.zeros((3, 3))
    e00[0, 0] = 1
    out = apply(choi_map(3), operator((3,), e00))
    assert np.allclose(out.mat, np.diag([1.0, 0.0, 1.0]))


def test_choi_trace_multiplier():
    rng = np.random.default_rng(1)
    for d in (3, 4):
        rho = density_op((d,), rng)
        out = apply(choi_map(d), rho)
        assert out.trace().real == pytest.approx(d - 1, abs=1e-10)


def test_choi_detects_entanglement():
    eps = maximally_entangled(3)
    out = apply(lift(choi_map(3), (0,), (3, 3)), eps.density())
    assert min_eig(out)[0] < -1e-9


def test_choi_rejects_small_dim():
    with pytest.raises(ValueError):
        choi_map(2)


def test_breuer_hall_basic():
    for d in (4, 6):
        out = apply(breuer_hall_map(d), operator((d,), np.eye(d)))
        assert np.allclose(out.mat, np.eye(d))
        rng = np.random.default_rng(d)
        rho = density_op((d,), rng)
        assert abs(apply(breuer_hall_map(d), rho).trace() - 1) <= 1e-12


def test_breuer_hall_entangled_expectation():
    d = 4
    eps = maximally_entangled(d)
    out = apply(lift(breuer_hall_map(d), (0,), (d, d)), eps.density())
    val = np.vdot(eps.vec, out.mat @ eps.vec).real
    assert val == pytest.approx(-1 / d, abs=1e-12)


def test_breuer_hall_validation():
    with pytest.raises(ValueError):
        breuer_hall_map(3)
    with pytest.raises(ValueError):
        breuer_hall_map(2)
    with pytest.raises(ValueError):
        BreuerHall(4, np.eye(4))  # unitary but not skew
    bad = default_skew_unitary(4) * 2
    with pytest.raises(ValueError):
        BreuerHall(4, bad)


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_breuer_hall_odd_d_refused(d):
    """Every odd d is refused with the Breuer-Hall message, before the
    default V is built."""
    for build in (breuer_hall_map, default_skew_unitary):
        with pytest.raises(ValueError, match=r"^Breuer-Hall map needs even d >= 4$"):
            build(d)


@pytest.mark.parametrize("build", [
    lambda: maps.Identity(0), lambda: Transpose(-3), lambda: DiagAll(0),
    lambda: trace_identity(1, 0), lambda: conjugation_map(np.zeros((0, 0))),
    lambda: SchurWith(np.zeros((0, 0))), lambda: TraceOuter(np.zeros((0, 0)), np.zeros((0, 0))),
], ids=["identity", "transpose", "diag", "trace-identity", "conjugate", "schur", "trace-outer"])
def test_node_dimension_below_one_refused(build):
    with pytest.raises(ValueError, match=r"^map dimension must be >= 1, got -?\d+$"):
        build()


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("build, words", [
    (lambda m: conjugation_map(m), "U must be unitary"),
    (lambda m: BreuerHall(4, m), "V must be unitary"),
], ids=["conjugate", "breuer-hall"])
def test_unitary_check_refuses_non_finite_entries(build, words, value):
    """A NaN or infinite entry fails the unitarity check, which a NaN
    maximum deviation would pass as `> UNITARY_TOL`."""
    m = default_skew_unitary(4)
    build(m)
    m[0, 2] = value
    with pytest.raises(ValueError, match=words):
        build(m)


def test_primitive_positivity_on_states():
    rng = np.random.default_rng(2)
    prims = [transpose_map(3), reduction_map(3), choi_map(3), breuer_hall_map(4),
             diag_map(3), conjugation_map(shift_matrix(3).mat), trace_identity(1, 3)]
    for prim in prims:
        d = prim.dim
        for _ in range(20):
            rho = operator((d,), rand_density(d, rng))
            assert min_eig(apply(prim, rho))[0] >= -1e-9


def test_linearity():
    rng = np.random.default_rng(3)
    m = map_sum(lift(choi_map(3), (0,), (3, 3)),
                scale(0.7, lift(transpose_map(3), (1,), (3, 3))))
    a, b = rng.standard_normal(2)
    rho, sig = (hermitian_op((3, 3), rng) for _ in range(2))
    combo = operator((3, 3), a * rho.mat + b * sig.mat)
    lhs = apply(m, combo).mat
    rhs = a * apply(m, rho).mat + b * apply(m, sig).mat
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_hermiticity_preserved_every_node():
    rng = np.random.default_rng(4)
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    nodes = [
        identity_map(4), transpose_map(4), reduction_map(4), breuer_hall_map(4),
        choi_map(4), conjugation_map(u), diag_map(4), trace_identity(2, 4),
        lift(transpose_map(2), (0,), (2, 2)),
        map_sum(identity_map(4), scale(-0.3, diag_map(4))),
        compose(reduction_map(4), choi_map(4)),
    ]
    for node in nodes:
        op = hermitian_op((node.dim,) if node.dim != 4 else (2, 2), rng)
        if op.d != node.dim:
            op = operator((node.dim,), rand_hermitian(node.dim, rng))
        out = apply(node, op)
        assert is_hermitian(out), type(node).__name__


def test_dims_mismatch_raises():
    with pytest.raises(ValueError):
        apply(choi_map(3), operator((2,), np.eye(2)))
    with pytest.raises(ValueError):
        lift(transpose_map(3), (0,), (2, 2))
    # equal total dimension but wrong factorisation is still rejected
    lifted = lift(transpose_map(2), (0,), (2, 4))
    with pytest.raises(ValueError):
        apply(lifted, operator((4, 2), np.eye(8)))
    # and so it is for a map with a support form
    eta = build_map("eta", 4, 2).expr
    for route in (apply, apply_blocks):
        with pytest.raises(ValueError, match="lift dims"):
            route(eta, operator((4, 4), np.eye(16)))


#: site dimensions of D = 8 that `_mixed_site_trees` lifts onto
_SITES_OF_8 = [SiteDims((2, 2, 2)), SiteDims((4, 2)), SiteDims((2, 4))]


@st.composite
def _mixed_site_trees(draw):
    """A random tree on D = 8 whose lifts sit on any of `_SITES_OF_8`; a child
    of side 4 is often itself a lift onto (2, 2).  Sums, scales and
    compositions take their children from the nodes built so far, so a
    subtree is often shared by several parents."""
    def a_lift():
        dims = draw(st.sampled_from(_SITES_OF_8))
        parties = draw(st.lists(st.integers(0, dims.n - 1), min_size=1,
                                max_size=dims.n - 1, unique=True))
        dA = int(np.prod([dims.dims[p] for p in parties]))
        nested = dA == 4 and draw(st.booleans())
        child = draw(lifted_map_exprs(4, 1) if nested else map_exprs(dA, 1))
        return Lift(child, PartySubset(tuple(parties)), dims)

    pool = [a_lift(), draw(map_exprs(8, 1))]
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["sum", "lift", "compose", "scale", "leaf"]))
        if kind == "lift":
            pool.append(a_lift())
        elif kind == "sum":
            pool.append(Sum(tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)))))
        elif kind == "scale":
            pool.append(Scale(draw(st.floats(-2, 2)), draw(st.sampled_from(pool))))
        elif kind == "compose":
            pool.append(Compose(draw(st.sampled_from(pool)), draw(st.sampled_from(pool))))
        else:
            pool.append(draw(map_exprs(8, 1)))
    return draw(st.sampled_from([pool[-1], Sum(tuple(pool[::-1]))]))


@settings(max_examples=150, deadline=None)
@given(_mixed_site_trees())
def test_sites_match_reference_walk_property(m):
    """`MapExpr.sites` holds the distinct sites of the lifts a depth-first walk
    meets without crossing a lift, in the order it meets them, and `apply`
    refuses an operator off any of them with the first one's message."""
    assert m.sites == lift_sites(m)
    for dims in _SITES_OF_8:
        op = operator(dims, np.eye(8) / 8)
        wrong = next((s for s in m.sites if s != dims), None)
        if wrong is None:
            apply(m, op)
        else:
            with pytest.raises(ValueError) as err:
                apply(m, op)
            assert str(err.value) == f"operator dims {dims.dims} do not match lift dims {wrong.dims}"


def test_dual_simple_cases():
    assert isinstance(dual(transpose_map(3)), type(transpose_map(3)))
    u = shift_matrix(4).mat
    dc = dual(conjugation_map(u))
    assert np.allclose(dc.u, u.conj().T)
    # Choi dual reverses the shift direction
    c = dual(choi_map(3))
    assert isinstance(c, Choi) and c.adjoint


def test_dual_adjointness_random():
    rng = np.random.default_rng(6)
    exprs = [
        transpose_map(3), reduction_map(3), choi_map(3), breuer_hall_map(4),
        diag_map(3), trace_identity(2, 3),
        conjugation_map(shift_matrix(3).mat),
        compose(choi_map(3), reduction_map(3)),
        map_sum(lift(choi_map(3), (0,), (3, 3)),
                scale(1.5, compose(diag_map(9), lift(transpose_map(3), (1,), (3, 3))))),
    ]
    for m in exprs:
        d = m.dim
        md = dual(m)
        for _ in range(5):
            rho = rand_hermitian(d, rng)
            sig = rand_hermitian(d, rng)
            lhs = np.trace(sig @ apply_stack(m, rho[None])[0])
            rhs = np.trace(apply_stack(md, sig[None])[0] @ rho)
            assert abs(lhs - rhs) <= 1e-10


def test_dual_against_superoperator_oracle():
    rng = np.random.default_rng(12)
    w, o, mask = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                  for _ in range(3))
    exprs = [
        choi_map(3), breuer_hall_map(4),
        compose(conjugation_map(shift_matrix(3).mat), choi_map(3)),
        map_sum(lift(choi_map(3), (0,), (3, 3)),
                lift(transpose_map(3), (1,), (3, 3)),
                trace_identity(2, 9)),
        # non-Hermitian operators: the adjoint conjugates them
        TraceOuter(w, o), SchurWith(mask),
    ]
    for m in exprs:
        s = superoperator(m)
        sd = superoperator(dual(m))
        assert np.max(np.abs(sd - s.conj().T)) <= 1e-10


def test_mu_constants():
    assert mu_constant(transpose_map(5)) == 0.5
    assert float(mu_constant(reduction_map(4))) == 0.25
    assert float(mu_constant(breuer_hall_map(6))) == pytest.approx(1 / 6)
    with pytest.raises(ValueError):
        mu_constant(choi_map(3))


@pytest.mark.parametrize("prim_factory,d,expect", [
    (transpose_map, 2, 0.5),
    (transpose_map, 3, 0.5),
    (reduction_map, 3, 1 / 3),
    (breuer_hall_map, 4, 0.25),
])
def test_estimate_mu_constants(prim_factory, d, expect):
    est = estimate_mu(prim_factory(d), d, 200, seed=17)
    assert est == pytest.approx(expect, abs=1e-9)


def test_estimate_mu_identity_is_zero():
    assert abs(estimate_mu(identity_map(3), 3, 100, seed=3)) <= 1e-9


def test_estimate_mu_samples_never_beat_constant():
    for factory, d in [(transpose_map, 2), (reduction_map, 3), (breuer_hall_map, 4)]:
        c = float(mu_constant(factory(d)))
        vals = mu_sample_values(factory(d), d, 300, seed=23)
        assert vals.max() <= c + 1e-9


def test_estimate_mu_companion_dim_restriction():
    # enlarging the companion space never increases the estimate beyond tolerance
    for factory, d in [(transpose_map, 2), (reduction_map, 3)]:
        base = estimate_mu(factory(d), d, 150, seed=29)
        wide = estimate_mu(factory(d), d, 150, seed=29, companion=d + 2)
        assert wide <= base + 1e-9


def test_estimate_mu_validation():
    with pytest.raises(ValueError):
        estimate_mu(transpose_map(2), 2, 0, seed=1)
    with pytest.raises(ValueError):
        estimate_mu(transpose_map(2), 3, 10, seed=1)


# ---------------------------------------------------------------------------
# lift evaluation (block stacks and graded sums) against the lift-by-lift route
# ---------------------------------------------------------------------------

def _stack(shape, D, rng):
    return rng.standard_normal(shape + (D, D)) + 1j * rng.standard_normal(shape + (D, D))


def test_conjugate_records_monomial_form():
    x = shift_matrix(3).mat
    c = conjugation_map(x)
    assert c.perm is not None and c.phase is None
    zx = clock_matrix(3, 1).mat @ x
    c = conjugation_map(zx)
    assert np.array_equal(zx[np.arange(3), c.perm], c.phase)
    rng = np.random.default_rng(8)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    c = conjugation_map(u)
    assert c.perm is None and c.phase is None
    for m in (conjugation_map(zx), conjugation_map(x), conjugation_map(u)):
        rho = _stack((2,), 3, rng)
        ref = m.u @ rho @ m.u.conj().T
        assert np.max(np.abs(apply_stack(m, rho) - ref)) <= 1e-12


def _skew_unitary(a):
    """A real skew-symmetric orthogonal 4 x 4 V that is not monomial."""
    q = np.linalg.qr(a)[0]
    v = q @ default_skew_unitary(4) @ q.T
    return (v - v.T) / 2


# name -> (the arrays a caller hands in, made of two random 4 x 4 matrices;
# the operator, state or map node built on them; how many arrays it keeps)
FROZEN_CASES = {
    "mp-operator": (lambda a, b: [a], lambda m: MpOperator(SiteDims((2, 2)), m), 1),
    "pure-state": (lambda a, b: [a[0] + 1j * b[0]], lambda v: PureState(SiteDims((2, 2)), v), 1),
    "schur": (lambda a, b: [a], SchurWith, 1),
    "trace-outer": (lambda a, b: [a, b], TraceOuter, 2),
    "conjugate-phased": (lambda a, b: [shift_matrix(3).mat @ np.diag([1j, -1.0, np.exp(0.3j)])],
                         Conjugate, 3),
    "conjugate-dense": (lambda a, b: [np.linalg.qr(a + 1j * b)[0]], Conjugate, 1),
    "breuer-hall-default": (lambda a, b: [default_skew_unitary(4)],
                            functools.partial(BreuerHall, 4), 3),
    "breuer-hall-skew": (lambda a, b: [_skew_unitary(a)], functools.partial(BreuerHall, 4), 1),
}


@pytest.mark.parametrize("case", sorted(FROZEN_CASES))
def test_kept_arrays_are_frozen_copies(case):
    """Every array an operator, state or map node keeps, a monomial U's perm
    and phase too, is a read-only copy: writing to the caller's arrays
    afterwards changes neither what it keeps nor what it gives."""
    make, build, count = FROZEN_CASES[case]
    given = make(*np.random.default_rng(12).standard_normal((2, 4, 4)))
    obj = build(*given)
    names = ("mat", "vec", "mask", "weight", "output", "u", "v", "perm", "phase")
    kept = [getattr(obj, name) for name in names if getattr(obj, name, None) is not None]

    def gives():
        if isinstance(obj, PureState):
            return obj.density().mat
        if isinstance(obj, MpOperator):
            return obj.mat
        return apply(obj, hermitian_op((obj.dim,), np.random.default_rng(0))).mat

    before, out = [k.copy() for k in kept], gives()
    assert len(kept) == count and not any(k.flags.writeable for k in kept)
    for a in given:
        a[...] = 7
    assert all(np.array_equal(k, b) for k, b in zip(kept, before, strict=True))
    assert np.array_equal(gives(), out)


def _kron(*mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _lift_cases():
    rng = np.random.default_rng(9)
    u3 = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    zx3 = clock_matrix(3, 1).mat @ shift_matrix(3).mat
    zx2 = clock_matrix(3, 2).mat @ np.linalg.matrix_power(shift_matrix(3).mat, 2)
    mono = conjugation_map(_kron(zx3, zx2))
    sx = shift_matrix(2).mat
    return [
        ("monomial-phases", lift(mono, (0, 2), (3, 2, 3)), ()),
        ("monomial-phases-batch", lift(mono, (1, 2), (2, 3, 3)), (2, 3)),
        ("non-monomial", lift(conjugation_map(_kron(u3, zx3)), (0, 1), (3, 3, 2)), ()),
        ("compose-chain", lift(compose(mono, transpose_map(9), conjugation_map(_kron(zx2, zx2)),
                                       identity_map(9)), (0, 2), (3, 2, 3)), (2,)),
        ("compose-mixed", lift(compose(conjugation_map(_kron(sx, sx)), reduction_map(4),
                                       transpose_map(4)), (1, 3), (2, 2, 3, 2)), (2,)),
        ("compose-nested", lift(compose(compose(transpose_map(3), conjugation_map(zx3)),
                                        compose(choi_map(3), conjugation_map(u3))),
                                (1,), (2, 3, 2)), (3,)),
        # lone lifted chains, outside a sum: estimate_mu's, and a qutrit chain
        ("view-mu-transpose", lift(transpose_map(2), (0,), (2, 2)), ()),
        ("view-qutrit-chain", lift(compose(transpose_map(9), digit_reversal((3, 3))),
                                   (0, 2), (3, 2, 3)), (2,)),
    ]


@pytest.mark.parametrize("case", _lift_cases(), ids=lambda c: c[0])
def test_lift_full_space_matches_blocks(case):
    """A lone lift, chain or not, goes block by block and matches the
    lift-by-lift reference on every matrix of the stack."""
    name, m, batch = case
    assert (m.child.parities is not None) == name.startswith("view-")
    x = _stack(batch, m.dim, np.random.default_rng(10))
    for expr in (m, dual(m)):
        full = maps._eval(expr, x)
        assert full.shape == x.shape
        want = [lift_by_lift(map_sum(expr), xi) for xi in x.reshape(-1, m.dim, m.dim)]
        assert np.max(np.abs(full - np.reshape(want, x.shape))) <= 1e-12


CATALOG_UP_TO_256 = [(map_id, n, SMALLEST[map_id][1]) for map_id in MAP_IDS
                     for n in range(3, 7) if SMALLEST[map_id][1] ** n <= 256]


@pytest.mark.parametrize("map_id,n,d", CATALOG_UP_TO_256)
def test_catalog_full_space_matches_blocks(map_id, n, d):
    m = build_map(map_id, n, d).expr
    x = _stack((2,), m.dim, np.random.default_rng(n))
    for e in (m, dual(m)):
        assert np.max(np.abs(maps._eval(e, x) - lift_by_lift(e, x))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from([2, 3, 4, 8]).flatmap(map_exprs),
                 st.sampled_from([4, 8, 9]).flatmap(lifted_map_exprs)))
@example(lift(conjugation_map(monomial(4, 1, 1)), (0, 2), (2, 2, 2)))
@example(map_sum(lift(compose(digit_reversal((3,)), transpose_map(3)), (1,), (3, 3)),
                 lift(digit_reversal((3,)), (0,), (3, 3)), identity_map(9)))
def test_dual_and_full_space_property(expr):
    """dual is the Hilbert-Schmidt adjoint, and `_eval` matches the lift-by-lift
    reference."""
    s = superoperator(expr)
    bound = 1e-12 * max(1.0, float(np.max(np.abs(s))))
    assert np.max(np.abs(superoperator(dual(expr)) - s.conj().T)) <= bound
    assert np.max(np.abs(s - superoperator(expr, lift_by_lift))) <= bound


# ---------------------------------------------------------------------------
# lifted transpositions and digit reversals: the site steps of the grades
# ---------------------------------------------------------------------------

VIEW_MAPS = [("phi-t", n, 2) for n in range(3, 9)] + [("phi-t", n, 3) for n in range(3, 7)] \
    + [("phi-tx", n, 2) for n in range(3, 9)]


def _same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("map_id,n,d", VIEW_MAPS)
def test_lifted_views_match_blocks_bitwise(map_id, n, d):
    """Every lift of phi-t and phi-tx, and of their duals, lifts a chain, and
    the chain's site step in the side lifts' `GradedLifts`, a strided view,
    equals the chain on one site lifted there alone (`maps._eval_blocks`) bit
    for bit on every site, as a fresh buffer and added into zeros."""
    m = build_map(map_id, n, d).expr
    x = rand_hermitian(m.dim, np.random.default_rng(n * d))
    t = x.reshape((-1,) + m.children[0].dims.dims * 2)
    for expr in (m, dual(m)):
        side = expr.children[0]
        assert all(c.parities is not None for c in side.children)
        [(sign, step, first)] = side.graded.terms
        assert sign == 1 and step is first
        for i in range(n):
            want = maps._eval_blocks(Lift(side.children[0], PartySubset((i,)), side.dims), x)
            assert _same_bits(step(i, t).reshape(x.shape), want)
            assert _same_bits(step(i, t, np.zeros_like(t)).reshape(x.shape), want)


def test_chain_parities():
    """Chains of identities, transpositions and digit reversals have parities,
    in any order and on qudits, and their site steps on two of three sites
    make the chain's lift there; phased monomials, cyclic shifts and other
    nodes have none."""
    rev = digit_reversal((3, 3))
    t = transpose_map(9)
    chain = compose(rev, t, identity_map(9), rev, t, compose(rev, t))
    # three of each: A's row and column digits swap, and all four reverse
    assert chain.parities == (True, True)
    assert compose(rev, rev).parities == (False, False)
    dims = SiteDims((3, 2, 3))
    x = rand_hermitian(dims.total, np.random.default_rng(3))
    step = grades._chain_step(*chain.parities)
    got = step(2, step(0, x.reshape((-1,) + dims.dims * 2)))
    assert _same_bits(got.reshape(x.shape), maps._eval_blocks(lift(chain, (0, 2), dims), x))
    for child in (conjugation_map(monomial(3, 1, 2) @ monomial(3, 0, 2)),  # reversal with phases
                  conjugation_map(monomial(3, 0, 1)),  # the cyclic shift X
                  compose(transpose_map(3), reduction_map(3))):
        assert child.parities is None


def test_graded_sum_makes_no_temporaries():
    """phi-tx at n = 8 sums its 127 lifts by the grade recurrence, one block
    of site-0 digits at a time: the peak stays within three D x D complex
    buffers (the output, its copy into the operator and the compensation
    term), where the lifts added one by one, block by block, reach six."""
    g = build_map("phi-tx", 8, 2)
    rho = MpOperator(g.dims, rand_hermitian(g.dims.total, np.random.default_rng(0)))
    apply(g.expr, rho)  # warm up
    tracemalloc.start()
    try:
        apply(g.expr, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * g.dims.total ** 2


# ---------------------------------------------------------------------------
# bipartition sums by the grade recurrence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("map_id,n,d", VIEW_MAPS)
def test_graded_lifts_match_one_by_one(map_id, n, d):
    """The grade recurrence sums the lifts of phi-t, phi-tx and their duals
    as the lift-by-lift reference does, to 1e-13 relative: on a batched
    complex stack and on a real matrix, with grade buffers held whole
    (D < 256) and one block of site-0 digits at a time (D >= 256)."""
    m = build_map(map_id, n, d).expr
    rng = np.random.default_rng(n * d)
    stack = _stack((2,), m.dim, rng)
    stack = stack + stack.conj().swapaxes(-1, -2)
    for expr in (m, dual(m)):
        assert expr.children[0].graded is not None
        for x in (stack, stack[0].real.copy()):
            got = maps._eval(expr, x)
            assert got.dtype == x.dtype
            assert _max_rel(got, lift_by_lift(expr, x)) <= 1e-13


@pytest.mark.parametrize("map_id,d,sizes", [("phi-t", 2, range(3, 11)), ("phi-t", 3, range(3, 7)),
                                            ("phi-tx", 2, range(3, 11))])
def test_catalog_sums_are_graded(map_id, d, sizes):
    """Every bipartition sum of phi-t and phi-tx, and of their duals, is one
    graded `SideLifts` node, one chain per side size, followed by the
    compensation, which the general route adds."""
    parities = (True, map_id == "phi-tx")
    for n in sizes:
        m = build_map(map_id, n, d).expr
        for expr in (m, dual(m)):
            side, comp = expr.children
            assert isinstance(side, SideLifts) and len(side.children) == n // 2
            assert side.graded is not None and side.graded.parities == parities
            assert isinstance(comp, maps.TraceIdentity)


def _graded_cases(n):
    """Sums of lifted chains (digit reversal after transposition) plus a
    compensation: the "exact" cases have the graded pattern, every other case
    is one step off it; a 4-level site gives sides of one size two
    dimensions, so no one child per side size."""
    def flip_t(parties, on):
        k = int(np.prod([on.dims[p] for p in parties]))
        return lift(compose(digit_reversal([on.dims[p] for p in parties]), transpose_map(k)),
                    parties, on)

    dims = SiteDims((2,) * n)
    reps = [flip_t(A, dims) for A in bipartitions(n)]
    rest = [trace_identity(1, 2 ** n)]
    # a 4-level site 0, and the same total dimension with site 1 the 4-level one
    wide, swapped = SiteDims((4,) + (2,) * (n - 1)), SiteDims((2, 4) + (2,) * (n - 2))
    wide_reps = [flip_t(A, wide) for A in bipartitions(n)]
    wide_rest = [trace_identity(1, 2 ** (n + 1))]
    cases = {
        "exact": reps + rest,
        "4-level-site": wide_reps + wide_rest,
        "missing": reps[:-1] + rest,
        "duplicated": reps + reps[:1] + rest,
        "duplicate-for-another": reps[:-1] + reps[:1] + rest,
        "larger-side": [flip_t(reps[0].parties.complement(n), dims)] + reps[1:] + rest,
        "mixed-parities": [lift(transpose_map(2), reps[0].parties, dims)] + reps[1:] + rest,
        "mixed-dims": wide_reps[:-1] + [flip_t(wide_reps[-1].parties, swapped)] + wide_rest,
    }
    if n % 2 == 0:
        # the n/2 side without party 0 in place of its complement
        cases["half-without-party-0"] = [
            flip_t(c.parties.complement(n), dims) if 2 * len(c.parties) == n else c
            for c in reps] + rest
    return cases


def _phased_monomial(k, d, rng):
    """A monomial Z^a X^b on each of k sites, some site's phases not all 1."""
    u = np.ones((1, 1))
    for i in range(k):
        u = np.kron(u, monomial(d, int(rng.integers(i == 0, d)), int(rng.integers(0, d))))
    return conjugation_map(u)


#: kind of `SideLifts` child -> (child of side size k on sites of dimension d,
#: the d it is drawn on, whether the node is graded)
SIDE_KINDS = {
    "identity": (lambda k, d, rng: identity_map(d ** k), (2, 3), True),
    "transpose": (lambda k, d, rng: transpose_map(d ** k), (2, 3), True),
    "reversal": (lambda k, d, rng: digit_reversal((d,) * k), (2, 3), True),
    "flip-transpose": (lambda k, d, rng: compose(digit_reversal((d,) * k), transpose_map(d ** k)),
                       (2, 3), True),
    "reduction": (lambda k, d, rng: reduction_map(d ** k), (2, 3), True),
    "breuer-hall": (lambda k, d, rng: breuer_hall_map(d ** k), (4,), True),
    "choi-subset": (lambda k, d, rng: _choi_on_subset(k, d), (3,), False),
    "phased-monomial": (lambda k, d, rng: _phased_monomial(k, d, rng), (2, 3), False),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SIDE_KINDS)).flatmap(lambda kind: st.tuples(
           st.just(kind), st.sampled_from(SIDE_KINDS[kind][1]))).flatmap(lambda kd: st.tuples(
           st.just(kd), st.integers(3, {2: 7, 3: 5, 4: 4}[kd[1]]))),
       st.sampled_from([(), (2,)]), st.integers(0, 2 ** 32 - 1))
@example((("breuer-hall", 4), 4), (2,), 0)
@example((("choi-subset", 3), 5), (), 1)
@example((("phased-monomial", 3), 4), (2,), 2)
@example((("flip-transpose", 2), 7), (), 3)
@example((("reduction", 3), 5), (), 4)
def test_side_lifts_match_their_lifts_property(drawn, batch, seed):
    """A `SideLifts` node, and its dual, equal its 2^(n-1) - 1 lifts applied
    one by one (`helpers.side_lifts`) to 1e-12 relative, for every graded
    kind of child, summed by grades, and for children summed lift by lift: a
    Choi map on a subset of sites and a phased monomial conjugation."""
    (kind, d), n = drawn
    make, _, graded = SIDE_KINDS[kind]
    rng = np.random.default_rng(seed)
    node = SideLifts(tuple(make(k, d, rng) for k in range(1, n // 2 + 1)), SiteDims((d,) * n))
    x = _stack(batch, node.dim, rng)
    for expr in (node, dual(node)):
        assert (expr.graded is not None) == graded
        want = sum(lift_by_lift(c, x) for c in side_lifts(expr))
        assert _max_rel(maps._eval(expr, x), want) <= 1e-12


#: the sizes of the scaled detection benchmark
SCALED_SIZES = [("eta", 7, 2), ("eta", 8, 2), ("phi-tx", 8, 2), ("phi-t", 8, 2),
                ("phi-r", 5, 3), ("phi-b", 4, 4), ("mu-choi", 5, 3)]


def _spelled_out(m, memo=None):
    """m rebuilt by the public constructors, each `SideLifts` node as the
    explicit lifts it stands for at the head of its sum, each lift with a
    copy of its child of its own; a subtree m shares stays shared."""
    memo = {} if memo is None else memo
    if id(m) in memo:
        return memo[id(m)]
    if isinstance(m, Sum):
        kids = []
        for c in m.children:
            kids += ([lift(copy.deepcopy(one.child), one.parties, one.dims) for one in side_lifts(c)]
                     if isinstance(c, SideLifts) else [_spelled_out(c, memo)])
        out = map_sum(*kids)
    elif isinstance(m, Compose):
        out = compose(_spelled_out(m.outer, memo), _spelled_out(m.inner, memo))
    elif isinstance(m, Scale):
        out = scale(m.r, _spelled_out(m.child, memo))
    else:
        out = m
    return memo.setdefault(id(m), out)


@pytest.mark.parametrize("map_id,n,d", [(k, *SMALLEST[k]) for k in MAP_IDS] + SCALED_SIZES)
def test_explicit_lifts_become_the_catalog_node(map_id, n, d):
    """A catalog map spelled out as one `lift` per bipartition side, each
    with a child of its own equal to the catalog's, becomes one `SideLifts`
    node per run when its sums are built: no `Lift` node is left, it writes
    the catalog's map file, and it gives the catalog's outputs bit for bit."""
    m = build_map(map_id, n, d).expr
    explicit = _spelled_out(m)
    found = list(maps.nodes(explicit))
    assert not any(isinstance(node, Lift) for node in found)
    assert any(isinstance(node, SideLifts) for node in found)
    assert json.dumps(mapexpr_to_json(explicit)) == json.dumps(mapexpr_to_json(m))
    rng = np.random.default_rng(n * d)
    x = _stack((2,), m.dim, rng)
    x = x + x.conj().swapaxes(-1, -2)
    for y in (x, x[0].real.copy()):
        assert apply_stack(explicit, y).tobytes() == apply_stack(m, y).tobytes()


def test_undersized_compensation_stays_graded():
    """phi-t (3) with its compensation x 0.999, built from public
    constructors with a transposition of its own per lift: the lifts become
    one graded `SideLifts` node."""
    lifts = [lift(transpose_map(2 ** len(A)), A, (2, 2, 2)) for A in bipartitions(3)]
    m = map_sum(*lifts, trace_identity(Fraction(999, 1000), 8))
    side, comp = m.children
    assert isinstance(side, SideLifts) and side.graded is not None
    assert isinstance(comp, maps.TraceIdentity) and comp.c == Fraction(999, 1000)


@pytest.mark.parametrize("n", [4, 5, 7])
def test_graded_near_misses(n):
    """A sum one step off the pattern keeps its lifts, and a leading run of
    the pattern (the exact sum, and the one with a lift after the run) makes
    them one graded `SideLifts` child; every case evaluates as the sum of its
    children (at n = 7 one block of site-0 digits at a time)."""
    rng = np.random.default_rng(n)
    for name, children in _graded_cases(n).items():
        m = map_sum(*children)
        side, run = m.children[0], name.startswith("exact") or name == "duplicated"
        assert isinstance(side, SideLifts) == run, name
        assert not run or side.graded is not None
        kept = len(children) - (2 ** (n - 1) - 2 if run else 0)
        assert len(m.children) == kept, name
        x = _stack((), m.dim, rng)
        want = sum(maps._eval(c, x) for c in children)
        assert _max_rel(maps._eval(m, x), want) <= 1e-13, name


def test_breuer_hall_monomial_gather():
    """A monomial V records its form and gathers rho^T, a non-monomial skew V
    keeps the two products; either way the output is the product form's bit
    for bit.  The trace sums real and imaginary parts apart, as the
    evaluator does for every complex input."""
    rng = np.random.default_rng(11)
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    for v in (default_skew_unitary(4), u @ default_skew_unitary(4) @ u.T):
        m = breuer_hall_map(4, v)
        assert (m.perm is None) == (np.count_nonzero(v) > 4)
        x = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        tr = np.trace(x.real, axis1=-2, axis2=-1) + 1j * np.trace(x.imag, axis1=-2, axis2=-1)
        want = (tr[:, None, None] * np.eye(4) - x - m.v @ x.swapaxes(-1, -2) @ m.v.conj().T) * 0.5
        assert _same_bits(apply_stack(m, x), want)


# ---------------------------------------------------------------------------
# reduction and Breuer-Hall lifts by weighted grades
# ---------------------------------------------------------------------------

WEIGHTED_KINDS = {"phi-r": "reduction", "phi-b": "breuer-hall"}
#: odd and even n; D < 256 (grade buffers held whole) and D >= 256 (one block
#: of site-0 digits at a time)
WEIGHTED_SIZES = [("phi-r", 3, 2), ("phi-r", 4, 2), ("phi-r", 5, 3), ("phi-r", 4, 4),
                  ("phi-r", 6, 2), ("phi-r", 7, 2), ("phi-r", 3, 7), ("phi-b", 3, 4),
                  ("phi-b", 4, 4), ("phi-b", 3, 6), ("phi-b", 3, 8)]


@pytest.mark.parametrize("map_id,n,d", WEIGHTED_SIZES)
def test_weighted_grades_match_lift_by_lift(map_id, n, d):
    """phi-r and phi-b, as built, as dual and reloaded from a map file, sum
    their lifts by weighted grades and match the lift-by-lift reference to
    1e-13 relative, on a batched complex stack and on a real matrix."""
    m = build_map(map_id, n, d).expr
    rng = np.random.default_rng(n * d)
    stack = _stack((2,), m.dim, rng)
    stack = stack + stack.conj().swapaxes(-1, -2)
    for expr in (m, dual(m), _reload(m)):
        assert expr.children[0].graded.kind == WEIGHTED_KINDS[map_id]
        assert len(expr.children) == 2
        for x in (stack, stack[0].real.copy()):
            got = maps._eval(expr, x)
            assert got.dtype == x.dtype
            assert _max_rel(got, lift_by_lift(expr, x)) <= 1e-13


@pytest.mark.parametrize("map_id", ["phi-r", "phi-b"])
def test_catalog_weighted_sums_are_graded(map_id):
    """Every catalog size of phi-r and phi-b, and its dual, takes the weighted
    grades, with the compensation left to the general route."""
    for n in range(3, MAX_DIM.bit_length()):
        for d in range(SMALLEST[map_id][1], 11, 2 if map_id == "phi-b" else 1):
            if d ** n > MAX_DIM:
                break
            m = build_map(map_id, n, d).expr
            for expr in (m, dual(m)):
                assert expr.children[0].graded.kind == WEIGHTED_KINDS[map_id], (n, d)
                assert len(expr.children) == 2


def _weighted_cases(n, d):
    """Sums of lifted reduction or Breuer-Hall maps plus a compensation: the
    "exact" cases have the weighted pattern, every other case is one step off
    it."""
    dims = SiteDims((d,) * n)
    reps = list(bipartitions(n))
    rest = [trace_identity(1, d ** n)]
    q = np.linalg.qr(np.random.default_rng(n).standard_normal((d, d)))[0]

    def reduction(A, on=dims):
        return lift(reduction_map(int(np.prod([on.dims[p] for p in A]))), A, on)

    def breuer_hall(A, v=None):
        return lift(breuer_hall_map(d ** len(A), v), A, dims)

    # a skew-symmetric unitary other than default_skew_unitary, for the one-site side reps[0]
    other_v = q @ default_skew_unitary(d) @ q.T
    wide = SiteDims((2 * d,) + (d,) * (n - 1))
    return {
        "exact-reduction": [reduction(A) for A in reps] + rest,
        "exact-breuer-hall": [breuer_hall(A) for A in reps] + rest,
        "other-skew-v": [breuer_hall(reps[0], other_v)] + [breuer_hall(A) for A in reps[1:]]
        + rest,
        "mixed-kinds": [reduction(reps[0])] + [breuer_hall(A) for A in reps[1:]] + rest,
        "missing-side": [reduction(A) for A in reps[:-1]] + rest,
        "missing-side-breuer-hall": [breuer_hall(A) for A in reps[1:]] + rest,
        "mixed-dims-reduction": [reduction(A, wide) for A in reps]
        + [trace_identity(1, wide.total)],
    }


@pytest.mark.parametrize("n", [3, 4])
def test_weighted_near_misses(n):
    """A sum one step off the weighted pattern (another skew-symmetric V, a
    mix of reduction and Breuer-Hall lifts, a side missing, sites of two
    dimensions) is not graded, and every case matches the lift-by-lift
    reference (at n = 4, D = 256, the exact cases run one block of site-0
    digits at a time)."""
    rng = np.random.default_rng(n)
    for name, children in _weighted_cases(n, 4).items():
        m = map_sum(*children)
        graded = isinstance(m.children[0], SideLifts) and m.children[0].graded is not None
        assert graded == name.startswith("exact"), name
        x = _stack((2,), m.dim, rng)
        assert _max_rel(maps._eval(m, x), lift_by_lift(m, x)) <= 1e-13, name


def test_weighted_grades_stay_chunked():
    """phi-b (5, 4), D = 1024, on a complex input: one apply, blocks of
    site-0 digits at a time, peaks below the 134 352 990 bytes (8.0 D x D
    complex buffers) that the lifts reached when added one by one, block by
    block, on the same input; the grades take about 2.5 buffers."""
    g = build_map("phi-b", 5, 4)
    rho = MpOperator(g.dims, rand_hermitian(g.dims.total, np.random.default_rng(0)))
    apply(g.expr, rho)  # warm up
    tracemalloc.start()
    try:
        apply(g.expr, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 134_352_990


#: sums whose site-0 blocks move at small D: catalog maps, qutrit chains of
#: a transposition and a digit reversal (the reversal fixes a middle digit)
#: and the chain sum with a 4-level site 0
MOVE_CASES = [("phi-t", n, 2) for n in (3, 4, 5)] + [("phi-t", n, 3) for n in (3, 4)] \
    + [("phi-tx", n, 2) for n in (3, 4, 5)] + [("phi-r", 3, 2), ("phi-r", 4, 3), ("phi-b", 3, 4)] \
    + [("qutrit-flips", n, 3) for n in (3, 4)] + [("4-level-site", n, 2) for n in (4, 5)]


def _move_case(kind, n, d):
    """The map and its dual, each with the `GradedLifts` of its lifts and the
    explicit lifts; the chains on a 4-level site 0, which no `SideLifts` node
    holds, as the graded form of their one chain kind on those sites."""
    if kind == "4-level-site":
        lifts = _graded_cases(n)["4-level-site"][:-1]
        graded = grades.graded_form([lifts[0].child], lifts[0].dims)
        return [(graded, lifts), (graded, [dual(c) for c in lifts])]
    if kind == "qutrit-flips":
        dims = SiteDims((d,) * n)
        flips = [lift(compose(digit_reversal((d,) * len(A)), transpose_map(d ** len(A))), A, dims)
                 for A in bipartitions(n)]
        m = map_sum(*flips, trace_identity(1, dims.total))
    else:
        m = build_map(kind, n, d).expr
    return [(e.children[0].graded, side_lifts(e.children[0])) for e in (m, dual(m))]


@pytest.mark.parametrize("kind,n,d", MOVE_CASES)
def test_site0_moves_at_small_dims(monkeypatch, kind, n, d):
    """With every D run one block of site-0 digits at a time, the blocks that
    F_0 moves each one into (`grades._moves`) give the lift-by-lift sum, to
    1e-13 relative, for the lifts and their duals."""
    monkeypatch.setattr(grades, "_BLOCKS_MIN_DIM", 1)
    for graded, lifts in _move_case(kind, n, d):
        assert graded is not None
        x = _stack((2,), lifts[0].dim, np.random.default_rng(n * d))
        want = sum(lift_by_lift(c, x) for c in lifts)
        assert _max_rel(grades.bipartition_sum(x, graded), want) <= 1e-13


# ---------------------------------------------------------------------------
# real problems in real arithmetic
# ---------------------------------------------------------------------------

def _is_real_tree(m):
    """No node of the tree holds a complex array."""
    own = (getattr(m, name) for name, tp, _ in maps.node_fields(type(m)) if tp is np.ndarray)
    return not any(map(np.iscomplexobj, own)) and all(map(_is_real_tree, maps.children(m)))


def _complex_route(m, x):
    """The map on x in complex128, by `apply_stack`: i x stacked beside x
    keeps the stack complex and on the route x takes."""
    return apply_stack(m, np.stack([x, 1j * x]))[0]


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.sampled_from([2, 3, 4, 8]).flatmap(map_exprs),
                 st.sampled_from([4, 8, 9]).flatmap(lifted_map_exprs), x_projected_exprs()),
       st.integers(0, 2 ** 32 - 1))
@example(map_sum(identity_map(2), transpose_map(2), conjugation_map(np.diag([1, 1j]))), 0)
def test_real_input_property(expr, seed):
    """A float64 input gives a float64 output exactly when the tree is real
    too.  The output is the complex-input route's, bit for bit for a real
    tree and to 1e-12 relative otherwise."""
    x = np.random.default_rng(seed).standard_normal((2, expr.dim, expr.dim))
    x = x + x.swapaxes(-1, -2)
    got, want = apply_stack(expr, x), _complex_route(expr, x)
    real = _is_real_tree(expr)
    assert got.dtype == (float if real else complex)
    if real:
        assert not want.imag.any() and np.array_equal(got, want.real)
    else:
        assert _max_rel(got, want) <= 1e-12


@pytest.mark.parametrize("map_id,n,d", [(k, *SMALLEST[k]) for k in MAP_IDS] + SCALED_SIZES)
def test_catalog_real_on_ghz(map_id, n, d):
    """Every catalog map and its dual, at its smallest size and at the sizes of
    the scaled detection benchmark, keeps GHZ real: the float64 output is the
    real part of the complex-input route's bit for bit, and that route's
    imaginary part is zero."""
    m = build_map(map_id, n, d).expr
    psi = ghz(n, d)
    assert psi.vec.dtype == float and _is_real_tree(m)
    rho = psi.density()
    for expr in (m, dual(m)):
        got, want = apply(expr, rho).mat, _complex_route(expr, rho.mat)
        assert got.dtype == float
        assert not want.imag.any() and np.array_equal(got, want.real)


# ---------------------------------------------------------------------------
# the X-support route against the dense walker
# ---------------------------------------------------------------------------

X_ROUTED = [("eta", n, 2) for n in range(3, 9)] + \
    [("mu-choi", n, 3) for n in (3, 4, 5)] + [("mu-choi", 3, 4)]


def _max_rel(got, want):
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


def _reload(m):
    return mapexpr_from_json(json.loads(json.dumps(mapexpr_to_json(m))))


def _x_routed_exprs(map_id, n, d):
    """The map, its dual, and both after a mapexpr-v1 round trip."""
    m = build_map(map_id, n, d).expr
    exprs = [m, dual(m)]
    return exprs + [_reload(e) for e in exprs]


@pytest.mark.parametrize("map_id,n,d", X_ROUTED)
def test_x_support_route_matches_dense(map_id, n, d):
    rng = np.random.default_rng(n * d)
    for expr in _x_routed_exprs(map_id, n, d):
        assert expr.support is not None
        x = rand_hermitian(expr.dim, rng)
        want = maps._eval(expr, x)
        assert _max_rel(apply_stack(expr, x), want) <= 1e-12
        op = MpOperator(SiteDims((d,) * n), x)
        full = apply(expr, op).mat
        assert _max_rel(full, want) <= 1e-12

        # the blocks are the output's support, and their eigensolve the dense one's
        out = apply_blocks(expr, op)
        assert isinstance(out, BlockOperator)
        index = out.index
        assert np.array_equal(out.blocks, full[index[:, :, None], index[:, None, :]])
        val, vec = min_eig(out)
        dense_val = np.linalg.eigvalsh(want)[0]
        assert abs(val - dense_val) <= 1e-12 * max(1.0, abs(dense_val))
        assert abs(np.linalg.norm(vec) - 1) <= 1e-12
        assert np.linalg.norm(want @ vec - val * vec) <= 1e-10


def _bipartition_sum(child_for, n, d):
    """The sum of `child_for(A)` lifted onto every bipartition representative A."""
    dims = SiteDims((d,) * n)
    return Sum(tuple(Lift(child_for(A), A, dims) for A in bipartitions(n)))


def _x_shaped(phi, n, d, mask=None):
    """Compose(phi + Diag phi, P), the shape of eta, with the X-support mask P."""
    D = d ** n
    body = Sum((phi, Scale(1.0, Compose(DiagAll(D), phi))))
    return Compose(body, SchurWith(x_projector(n, d).mask if mask is None else mask))


def _unrouted_maps():
    qubits, qutrits = SiteDims((2, 2, 2)), SiteDims((3, 3, 3))
    eta_phi = build_map("eta", 3, 2).expr.outer.children[0]
    eta_lifts = tuple(side_lifts(eta_phi.children[0]))
    mu_lifts = tuple(side_lifts(build_map("mu-choi", 3, 3).expr.outer.children[0].children[0]))
    mu4_lifts = tuple(side_lifts(build_map("mu-choi", 4, 3).expr.outer.children[0].children[0]))
    mask = x_projector(3, 2).mask.copy()
    mask[0, 0] = 2.0
    return [
        ("phi-t", build_map("phi-t", 3, 2).expr, qubits),
        ("phi-tx", build_map("phi-tx", 3, 2).expr, qubits),
        ("phi-r", build_map("phi-r", 3, 2).expr, qubits),
        ("phi-b", build_map("phi-b", 3, 4).expr, SiteDims((4, 4, 4))),
        ("witness", witness_to_map(ghz(3, 2).density()).expr, qubits),
        ("eta+id", map_sum(build_map("eta", 3, 2).expr, identity_map(8)), qubits),
        ("mu-choi+id", map_sum(build_map("mu-choi", 3, 3).expr, identity_map(27)), qutrits),
        # a lifted qutrit transposition does not keep the support
        ("qutrit-transpose", compose(lift(transpose_map(3), (0,), qutrits),
                                     x_projector(3, 3)), qutrits),
        # without a lift the sites of the support are unknown
        ("no-lift", compose(diag_map(8), x_projector(3, 2)), qubits),
        # near misses of the recognised shape
        ("missing-lift", _x_shaped(Sum(eta_lifts[:-1]), 3, 2), qubits),
        ("mask-entry", _x_shaped(eta_phi, 3, 2, mask), qubits),
        ("phi-t-lifts", _x_shaped(_bipartition_sum(lambda A: Transpose(2 ** len(A)), 3, 2),
                                  3, 2), qubits),
        ("mixed-adjoint", _x_shaped(Sum((Lift(Choi(3, True), mu_lifts[0].parties, qutrits),)
                                        + mu_lifts[1:]), 3, 3), qutrits),
        # on 4 qutrits the two-site lifts hold the Choi sum; one of them dualised
        ("mixed-adjoint-sum", _x_shaped(Sum(mu4_lifts[:-1] + (dual(mu4_lifts[-1]),)), 4, 3),
         SiteDims((3,) * 4)),
        ("qutrit-transposes", _x_shaped(_bipartition_sum(
            lambda A: Compose(digit_reversal((3,) * len(A)), Transpose(3 ** len(A))), 3, 3),
            3, 3), qutrits),
    ]


@pytest.mark.parametrize("case", _unrouted_maps(), ids=lambda c: c[0])
def test_x_support_route_not_taken(case):
    _, expr, dims = case
    assert expr.support is None
    x = rand_hermitian(expr.dim, np.random.default_rng(3))
    assert np.array_equal(apply_stack(expr, x), maps._eval(expr, x))
    assert isinstance(apply_blocks(expr, MpOperator(dims, x)), MpOperator)


#: every catalog size of eta and mu-choi, D <= MAX_DIM
SUPPORT_SIZES = [("eta", n, 2) for n in range(3, 11)] + \
    [("mu-choi", n, d) for d in range(3, 11) for n in range(3, 7) if d ** n <= MAX_DIM]


def test_x_support_route_coverage():
    """eta, mu-choi and their duals take the support form at every catalog
    size, and so do their map files."""
    for map_id, n, d in SUPPORT_SIZES:
        m = build_map(map_id, n, d).expr
        exprs = [m, dual(m)]
        exprs += [_reload(e) for e in exprs]
        assert all(e.support is not None for e in exprs), (map_id, n, d)


def test_nodes_visit_each_distinct_node_once():
    """`nodes` yields every node reachable from the root, each once, every
    parent before all of its children, also under a subtree with several
    parents that are not each other's ancestors: the lifts of one side size
    share their child, equal sub-documents of a map file decode to one node,
    and eta's phi is shared by two terms."""
    trees = [_reload(build_map("phi-tx", 4, 2).expr)]
    for map_id in MAP_IDS:
        m = build_map(map_id, 4, SMALLEST[map_id][1]).expr
        trees += [m, dual(m)]
    for m in trees:
        reachable, stack = {}, [m]
        while stack:
            node = stack.pop()
            reachable[id(node)] = node
            stack.extend(maps.children(node))
        got = list(maps.nodes(m))
        assert len(got) == len({id(node) for node in got}) == len(reachable)
        assert {id(node) for node in got} == set(reachable)
        position = {id(node): i for i, node in enumerate(got)}
        assert all(position[id(node)] < position[id(c)]
                   for node in got for c in maps.children(node))
    m = build_map("eta", 4, 2).expr
    phi = m.outer.children[0]
    assert sum(node is phi for node in maps.nodes(m)) == 1
    assert m.sites == (SiteDims((2,) * 4),)
    assert identity_map(4).sites == ()


#: two sizes of each catalog id, every one with at least two side sizes
SHARING_SIZES = [("phi-t", 4, 2), ("phi-t", 5, 3), ("phi-tx", 4, 2), ("phi-tx", 7, 2),
                 ("eta", 4, 2), ("eta", 8, 2), ("phi-r", 4, 2), ("phi-r", 5, 3),
                 ("phi-b", 3, 4), ("phi-b", 4, 4), ("mu-choi", 4, 3), ("mu-choi", 5, 3)]


@pytest.mark.parametrize("map_id,n,d", SHARING_SIZES)
def test_one_lifted_child_per_side_size(map_id, n, d):
    """The 2^(n-1) - 1 lifts of a catalog map are one `SideLifts` node, one
    child node per side size, with no `Lift` node in the tree, and so are its
    dual's; its map file reloads to as many distinct nodes as the tree has."""
    m = build_map(map_id, n, d).expr
    for expr in (m, dual(m)):
        found = list(maps.nodes(expr))
        [side] = [node for node in found if isinstance(node, SideLifts)]
        assert not any(isinstance(node, Lift) for node in found)
        assert len(side.children) == n // 2 and len(side_lifts(side)) == 2 ** (n - 1) - 1
        assert len(list(maps.nodes(_reload(expr)))) == len(found)


def test_lift_validates_when_built():
    """A lift rejects bad parties and a child of the wrong dimension when it is
    built, before any evaluation, and makes its block tables only when it
    first acts block by block."""
    dims = SiteDims((2, 3, 2))
    for parties, message in [((3,), "out of range"), ((-1,), "out of range"),
                             ((), "proper and nonempty"), ((0, 1, 2), "proper and nonempty")]:
        with pytest.raises(ValueError, match=message):
            Lift(Transpose(2), PartySubset(parties), dims)
    for child in (Transpose(2), reduction_map(4), choi_map(3)):
        with pytest.raises(ValueError, match=f"child map dimension {child.dim} does not "
                                             "match subsystem size 6"):
            Lift(child, PartySubset((0, 1)), dims)
    m = Lift(reduction_map(6), PartySubset((0, 1)), dims)
    assert "blocks" not in vars(m)
    apply_stack(m, np.eye(12))
    assert "blocks" in vars(m)


@pytest.mark.parametrize("map_id,n,d", [("phi-r", 5, 3), ("phi-b", 4, 4)])
def test_block_lifts_after_dual_and_reload(map_id, n, d):
    """The lifts of phi-r and phi-b, which share one child per side size, are
    still summed by weighted grades after a `dual` or a map-file reload, and
    match the lift-by-lift reference."""
    m = build_map(map_id, n, d).expr
    x = rand_hermitian(m.dim, np.random.default_rng(n * d))
    for expr in (dual(m), _reload(m), _reload(dual(m))):
        assert expr.children[0].graded.kind == WEIGHTED_KINDS[map_id]
        assert len(expr.children) == 2
        assert np.max(np.abs(apply_stack(expr, x) - lift_by_lift(expr, x))) <= 1e-12


@functools.cache
def _catalog_phi(map_id, n, d):
    """The shared phi and the X-support mask node of a catalog map."""
    m = build_map(map_id, n, d).expr
    return m.outer.children[0], m.inner


def _support_case(map_id, n, d, c1, c2, dual_, reload):
    """phi + c1 Diag phi + c2 Diag under the mask (a None scalar leaves its term
    out), then optionally its dual and a map-file round trip."""
    phi, mask = _catalog_phi(map_id, n, d)
    D = d ** n
    terms = [phi]
    if c1 is not None:
        terms.append(Scale(c1, Compose(DiagAll(D), phi)))
    if c2 is not None:
        terms.append(Scale(c2, DiagAll(D)))
    m = Compose(Sum(tuple(terms)), mask)
    m = dual(m) if dual_ else m
    return _reload(m) if reload else m


#: (size, reload) draws of the support property: a map file at every catalog
#: size; the dense walker, which takes seconds on mu-choi's lifts above
#: D = 256, there only in the examples
SUPPORT_DRAWS = st.sampled_from(SUPPORT_SIZES).flatmap(
    lambda c: st.tuples(st.just(c), st.booleans() if c[2] ** c[1] <= 256 else st.just(True)))


@settings(max_examples=30, deadline=None)
@given(SUPPORT_DRAWS, st.none() | st.floats(-3, 3), st.none() | st.floats(-3, 3),
       st.booleans(), st.sampled_from([(), (1,), (2,)]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@example((("eta", 9, 2), False), 254.0, None, True, (), True, 1)
@example((("eta", 10, 2), False), 510.0, None, False, (), True, 2)
@example((("eta", 10, 2), False), 510.0, None, True, (), False, 3)
@example((("mu-choi", 6, 3), False), 30.0, -930.0, True, (), True, 4)
@example((("mu-choi", 5, 4), False), 14.0, -210.0, False, (), True, 5)
def test_x_support_route_property(drawn, c1, c2, dual_, batch, real, seed):
    """The support form equals the dense walker to 1e-12 relative, for any c1
    and c2, as built, as dual and reloaded, on a matrix or a stack; a
    reloaded map gives the built map's output bit for bit, at every catalog
    size.  A real input stays float64 and is the complex route's real part
    bit for bit."""
    case, reload = drawn
    m = _support_case(*case, c1, c2, dual_, reload)
    form = m.support
    assert form is not None
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(batch + (m.dim, m.dim))
    if not real:
        x = x + 1j * rng.standard_normal(x.shape)
    x = x + x.conj().swapaxes(-1, -2)
    got = apply_stack(m, x)
    if reload:
        assert got.tobytes() == apply_stack(_support_case(*case, c1, c2, dual_, False), x).tobytes()
    if not reload or m.dim <= 256:
        assert _max_rel(got, maps._eval(m, x)) <= 1e-12
    if real:
        want = _complex_route(m, x)
        assert got.dtype == float and not want.imag.any() and np.array_equal(got, want.real)


#: graded sums with a form on the X support for inputs on it, D = 128..256
GRADED_ROUTED = [("phi-t", 7, 2), ("phi-t", 8, 2), ("phi-tx", 7, 2), ("phi-tx", 8, 2),
                 ("phi-r", 5, 3), ("phi-r", 4, 4), ("phi-r", 7, 2)]


@functools.cache
def _graded_routed(map_id, n, d):
    """The map, its dual, and both after a map-file round trip."""
    return tuple(_x_routed_exprs(map_id, n, d))


def _on_support_input(kind, n, d, real, rng):
    """A random Hermitian matrix whose nonzero entries lie on the X support,
    or GHZ, noisy GHZ or I/D."""
    dims = SiteDims((d,) * n)
    if kind == "ghz":
        return ghz(n, d).density().mat
    if kind == "noisy-ghz":
        return depolarized(ghz(n, d), 0.7).mat
    if kind == "mixed":
        return maximally_mixed(dims).mat
    index = maps.x_support_index(dims)
    blocks = rng.standard_normal(index.shape + (d,))
    if not real:
        blocks = blocks + 1j * rng.standard_normal(blocks.shape)
    return scatter_blocks(index, blocks + blocks.conj().swapaxes(-1, -2), dims.total)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(GRADED_ROUTED), st.integers(0, 3),
       st.sampled_from(["random", "ghz", "noisy-ghz", "mixed"]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@example(("phi-t", 8, 2), 0, "random", True, 1)
@example(("phi-tx", 8, 2), 3, "random", False, 2)
@example(("phi-r", 4, 4), 1, "noisy-ghz", True, 3)
@example(("phi-r", 5, 3), 2, "random", True, 4)
@example(("phi-t", 7, 2), 1, "mixed", True, 5)
def test_graded_support_route_property(case, variant, kind, real, seed):
    """phi-t, phi-tx and phi-r, as built, as dual and reloaded, take the form
    on the X support for an input on it: it equals the walker to 1e-12
    relative in the walker's dtype, and a real input's output is the complex
    route's real part bit for bit.  `apply_blocks` hands on the support
    entries of that output as blocks on `x_support_index`, and `min_eig` of
    the blocks is the whole matrix's, value and vector bit for bit.  The same
    input with one entry moved off the support, and the W state, take the
    walker, bit for bit."""
    n, d = case[1:]
    m = _graded_routed(*case)[variant]
    form = m.support
    assert form is not None and not form.every
    rng = np.random.default_rng(seed)
    x = _on_support_input(kind, n, d, real, rng)
    assert form.holds(x)
    got, want = apply_stack(m, x), maps._eval(m, x)
    assert got.dtype == want.dtype and _max_rel(got, want) <= 1e-12
    op = MpOperator(SiteDims((d,) * n), x)
    out, index = apply_blocks(m, op), maps.x_support_index(op.dims)
    assert isinstance(out, BlockOperator) and out.index is index
    assert np.array_equal(out.blocks, got[..., index[:, :, None], index[:, None, :]])
    (val, vec), (whole_val, whole_vec) = min_eig(out), min_eig(MpOperator(op.dims, got))
    assert val == whole_val and vec.tobytes() == whole_vec.tobytes()
    if not np.iscomplexobj(x):
        want = _complex_route(m, x)
        assert got.dtype == float and not want.imag.any() and np.array_equal(got, want.real)
    moved = x.copy()
    u, v = np.argwhere(x != 0)[rng.integers(np.count_nonzero(x))]
    w = rng.choice(np.setdiff1d(np.arange(m.dim), index[np.any(index == u, axis=1)]))
    moved[u, w], moved[u, v] = x[u, v], 0
    offs = [moved] + ([w_state(n).density().mat] if d == 2 else [])
    for y in offs:
        assert not form.holds(y)
        got, want = apply_stack(m, y), maps._eval(m, y)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_shared_subtree_runs_once_per_input():
    """mu-choi (5, 3) with its mask scaled by 2 leaves the support form, and
    the walker reaches phi twice on one input: it matches the lift-by-lift
    reference."""
    m = build_map("mu-choi", 5, 3).expr
    scaled = Compose(m.outer, SchurWith(2 * m.inner.mask))
    assert scaled.support is None
    x = rand_hermitian(scaled.dim, np.random.default_rng(5))
    assert _max_rel(maps._eval(scaled, x), lift_by_lift(scaled, x)) <= 1e-12


def test_shared_subtree_on_other_inputs():
    """A node reached on different inputs runs on each of them: phi sees x,
    then Diag x, then x again."""
    phi, _ = _catalog_phi("mu-choi", 3, 3)
    diag = DiagAll(phi.dim)
    m = Sum((phi, Compose(phi, diag), Compose(diag, phi), Scale(2.0, phi)))
    x = rand_hermitian(m.dim, np.random.default_rng(6))
    assert _max_rel(maps._eval(m, x), lift_by_lift(m, x)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from([2, 3, 4, 8]).flatmap(map_exprs), x_projected_exprs()),
       st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False))
def test_linearity_property(expr, a, b):
    """m(a x + b y) = a m(x) + b m(y), through `apply_stack` and so through the
    X-support route for the projected trees."""
    rng = np.random.default_rng(6)
    x, y = (rand_hermitian(expr.dim, rng) for _ in range(2))
    lhs = apply_stack(expr, a * x + b * y)
    rhs = a * apply_stack(expr, x) + b * apply_stack(expr, y)
    size = max(1.0, abs(a), abs(b)) * max(1.0, *(float(np.max(np.abs(apply_stack(expr, z))))
                                                for z in (x, y)))
    assert float(np.max(np.abs(lhs - rhs))) <= 1e-12 * size


def test_operator_side_mismatch_same_for_blocks_and_matrices():
    """A `BlockOperator` of another side than the map's is refused with the
    message a matrix of that side gets, and so is one on other sites."""
    m = build_map("phi-tx", 3, 2).expr
    for state in (noisy_ghz(4, 2, 1.0), noisy_ghz(2, 2, 0.5)):
        matrix = MpOperator(state.dims, scatter_blocks(state.index, state.blocks,
                                                        state.dims.total))
        messages = []
        for op in (state, matrix):
            with pytest.raises(ValueError) as err:
                apply_blocks(m, op)
            messages.append(str(err.value))
        side = state.dims.total
        assert messages == [f"operator side {side} does not match map dimension 8"] * 2
    qutrits = noisy_ghz(3, 3, 1.0)
    with pytest.raises(ValueError, match=r"operator side 27 does not match map dimension 8"):
        apply_blocks(m, qutrits)
    on_other_sites = build_map("phi-t", 3, 3).expr  # D = 27 on three qutrits, not (3, 9)
    wrong = BlockOperator(SiteDims((3, 9)), qutrits.index, qutrits.blocks)
    with pytest.raises(ValueError, match=r"operator dims \(3, 9\) do not match lift dims"):
        apply_blocks(on_other_sites, wrong)


def _catalog_sizes(limit):
    """Every valid (map id, n, d) of the catalog with D = d^n <= limit."""
    sizes = []
    for map_id, (_, (n0, d0), qubit_only) in CATALOG.items():
        for d in ([2] if qubit_only else range(d0, limit + 1)):
            for n in range(n0, limit.bit_length()):
                if d ** n > limit:
                    break
                try:
                    build_map(map_id, n, d)
                except ValueError:  # phi-b at odd d
                    break
                sizes.append((map_id, n, d))
    return sizes


#: every catalog size up to MAX_DIM
CATALOG_SIZES = _catalog_sizes(MAX_DIM)


@functools.cache
def _catalog_variant(map_id, n, d, variant):
    """The catalog map as built, its dual, or its map file read back."""
    m = build_map(map_id, n, d).expr
    return {"built": m, "dual": dual(m), "file": _reload(m)}[variant]


def _x_state(kind, n, d, p, seed):
    """GHZ, noisy GHZ at visibility p and I/D (`noisy_ghz`), a random X state
    (a density matrix as blocks, real or complex), or random real or complex
    X blocks that are no state (complex p(u) too)."""
    if kind == "ghz":
        return noisy_ghz(n, d, 1.0)
    if kind == "noisy-ghz":
        return noisy_ghz(n, d, p)
    if kind == "mixed":
        return white_noise(SiteDims((d,) * n))
    dims = SiteDims((d,) * n)
    index = maps.x_support_index(dims)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(index.shape + (d,))
    if kind.endswith("complex"):
        g = g + 1j * rng.standard_normal(g.shape)
    if kind.startswith("blocks"):
        return BlockOperator(dims, index, g)
    rho = g @ g.conj().swapaxes(-1, -2)
    return BlockOperator(dims, index, rho / np.einsum("bii->", rho).real)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CATALOG_SIZES), st.sampled_from(["built", "dual", "file"]),
       st.sampled_from(["ghz", "noisy-ghz", "mixed", "state-real", "state-complex",
                        "blocks-real", "blocks-complex"]),
       st.floats(0, 1), st.integers(0, 2 ** 32 - 1))
@example(("phi-tx", 10, 2), "built", "ghz", 1.0, 0)
@example(("phi-tx", 10, 2), "file", "noisy-ghz", 0.9, 0)
@example(("phi-t", 10, 2), "dual", "state-complex", 0.0, 1)
@example(("phi-r", 10, 2), "built", "mixed", 0.0, 2)
@example(("eta", 10, 2), "built", "noisy-ghz", 511 / 1023 + 0.02, 3)
@example(("eta", 9, 2), "dual", "blocks-complex", 0.0, 4)
@example(("mu-choi", 6, 3), "built", "state-real", 0.0, 5)
@example(("phi-r", 4, 4), "file", "noisy-ghz", 0.3, 6)
@example(("phi-tx", 6, 2), "built", "ghz", 1.0, 7)
@example(("phi-b", 3, 4), "built", "noisy-ghz", 0.5, 8)
@example(("phi-t", 3, 3), "dual", "state-complex", 0.0, 9)
def test_x_state_blocks_match_their_matrix_property(case, variant, kind, p, seed):
    """An X state given as blocks (`noisy_ghz`, `white_noise` or random
    blocks on `x_support_index`) gives, bit for bit and signs of zeros
    included, the output its scattered matrix gives: the same blocks for a
    map with a support form (eta and mu-choi always; phi-t, phi-tx and
    phi-r above side 64), the walker's matrix on the scattered matrix for a
    map without one (phi-b, qudit phi-t, and phi-t, phi-tx and phi-r at
    side 64 and below).  `detect` on a state gives the same verdict,
    eigenvalue and eigenvector."""
    map_id, n, d = case
    m = _catalog_variant(map_id, n, d, variant)
    state = _x_state(kind, n, d, p, seed)
    matrix = MpOperator(state.dims, scatter_blocks(state.index, state.blocks, m.dim))
    got, want = apply_blocks(m, state), apply_blocks(m, matrix)
    assert type(got) is type(want)
    if isinstance(got, BlockOperator):
        assert got.index is want.index and got.blocks.dtype == want.blocks.dtype
        assert got.blocks.tobytes() == want.blocks.tobytes()
    else:
        assert m.support is None
        walker = maps._eval(m, matrix.mat)
        assert got.mat.dtype == walker.dtype and got.mat.tobytes() == walker.tobytes()
    if not kind.startswith("blocks"):
        gm = GmeMap(map_id, m, state.dims)
        v, w = detect(gm, state), detect(gm, matrix)
        assert (v.detected, v.min_eig) == (w.detected, w.min_eig)
        assert v.eigvec.tobytes() == w.eigvec.tobytes()


@pytest.mark.parametrize("map_id", MAP_IDS)
def test_x_states_take_the_form_at_every_catalog_size(map_id):
    """At every catalog size up to D = 1024, each map with a support form,
    as built, dual and re-read, hands GHZ, noisy GHZ and I/D given as blocks
    to that form, with the blocks their scattered matrix gives, bit for bit;
    phi-t, phi-tx and phi-r have a form exactly above side 64 (qubit chains
    and reductions), eta and mu-choi at every size, phi-b at none."""
    for _, n, d in (c for c in CATALOG_SIZES if c[0] == map_id):
        for variant in ("built", "dual", "file"):
            m = _catalog_variant(map_id, n, d, variant)
            if map_id in ("eta", "mu-choi"):
                assert m.support is not None
            else:
                has_form = m.dim > 64 and (map_id == "phi-r" or d == 2)
                assert (m.support is not None) == (map_id != "phi-b" and has_form)
            if m.support is None:
                continue
            for state in (noisy_ghz(n, d, 1.0), noisy_ghz(n, d, 0.3), white_noise((d,) * n)):
                whole = MpOperator(state.dims, scatter_blocks(state.index, state.blocks, m.dim))
                got, want = apply_blocks(m, state), apply_blocks(m, whole)
                assert got.index is want.index is m.support.index
                assert got.blocks.tobytes() == want.blocks.tobytes()


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("n, d", [(3, 2), (7, 2), (10, 2), (5, 3), (4, 4)])
def test_support_form_reads_the_trace_of_the_whole_matrix(n, d, real, batch):
    """A form reads Tr(x) from the input's blocks in the order the whole
    matrix's diagonal is summed (`np.trace`), bit for bit, so blocks and
    their scattered matrix give the same compensation c Tr(x)."""
    dims = SiteDims((d,) * n)
    index = maps.x_support_index(dims)
    only_trace = maps.SupportForm(dims, index, 0.0, 0.0, 0.0, (), (1.0,), every=False)
    rng = np.random.default_rng(n * d)
    x = rng.standard_normal(batch + (dims.total,) * 2) * 10.0 ** rng.integers(-8, 8, dims.total)
    if not real:
        x = x + 1j * rng.standard_normal(x.shape)
    out = only_trace.blocks(gather_blocks(x, index))
    a = np.arange(d)
    want = np.broadcast_to(maps._trace(x)[..., None, None], out[..., a, a].shape)
    assert out[..., a, a].tobytes() == np.ascontiguousarray(want).tobytes()
