"""Shared test utilities: random operators, random map expressions, and
superoperator and block-by-block oracles."""

import contextlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from gme_maps import maps
from gme_maps.maps import (BreuerHall, Choi, Compose, Conjugate, DiagAll,
                           Identity, Lift, MapExpr, Reduction, Scale, SchurWith,
                           Sum, TraceIdentity, TraceOuter, Transpose, apply_stack,
                           default_skew_unitary)
from gme_maps.operators import MpOperator, PartySubset, SiteDims
from gme_maps.states import clock_matrix, shift_matrix


def rand_hermitian(D, rng):
    m = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    return (m + m.conj().T) / 2


def rand_density(D, rng):
    m = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def hermitian_op(dims, rng):
    sd = SiteDims(tuple(dims))
    return MpOperator(sd, rand_hermitian(sd.total, rng))


def density_op(dims, rng):
    sd = SiteDims(tuple(dims))
    return MpOperator(sd, rand_density(sd.total, rng))


def superoperator(m: MapExpr) -> np.ndarray:
    """D^2 x D^2 matrix of the map in the row-major vec convention.

    With vec(rho) the row-major flattening, S @ vec(rho) = vec(m[rho]) and
    the Hilbert-Schmidt adjoint of the map is S^dagger.
    """
    D = m.dim
    basis = np.eye(D * D, dtype=complex).reshape(D * D, D, D)
    out = apply_stack(m, basis)
    return out.reshape(D * D, D * D).T


@contextlib.contextmanager
def blocks_reference():
    """Evaluate every lifted node block by block, the reference for the full-space forms."""
    full_space = maps._eval

    def reference(node, x, lift=None):
        return full_space(node, x) if lift is None else maps._eval_blocks(node, lift, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maps, "_eval", reference)
        yield


def _unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return np.linalg.qr(z)[0]


@st.composite
def map_exprs(draw, d, depth=3):
    """Random expression trees on d x d matrices, d in {2, 3, 4, 8}.

    Conjugations draw either a Haar-like unitary or a monomial Z^k X^j, so
    the full-space gather also runs inside random and nested lifts.
    """
    composite = ["sum", "scale", "compose"] + (["lift"] if d in (4, 8) else [])
    kind = draw(st.sampled_from(composite if depth and draw(st.booleans()) else
                                ["identity", "transpose", "reduction", "diag",
                                 "trace-identity", "conjugate", "trace-outer", "schur"]
                                + (["choi"] if d >= 3 else [])
                                + (["breuer-hall"] if d in (4, 8) else [])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "sum":
        return Sum(tuple(draw(st.lists(map_exprs(d, depth - 1), min_size=1, max_size=3))))
    if kind == "scale":
        return Scale(draw(st.floats(-2, 2, allow_nan=False)), draw(map_exprs(d, depth - 1)))
    if kind == "compose":
        return Compose(draw(map_exprs(d, depth - 1)), draw(map_exprs(d, depth - 1)))
    if kind == "lift":
        return draw(lifted_map_exprs(d, depth - 1))
    if kind == "trace-identity":
        return TraceIdentity(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9))), d)
    if kind == "conjugate":
        if draw(st.booleans()):
            k, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
            x = np.linalg.matrix_power(shift_matrix(d).mat, j)
            return Conjugate(clock_matrix(d, k).mat @ x)
        return Conjugate(_unitary(d, rng))
    if kind == "trace-outer":
        return TraceOuter(rng.standard_normal((d, d)), rng.standard_normal((d, d)))
    if kind == "schur":
        return SchurWith(rng.standard_normal((d, d)))
    if kind == "choi":
        return Choi(d, draw(st.booleans()))
    if kind == "breuer-hall":
        return BreuerHall(d, default_skew_unitary(d))
    return {"identity": Identity, "transpose": Transpose, "reduction": Reduction,
            "diag": DiagAll}[kind](d)


@st.composite
def lifted_map_exprs(draw, d, depth=2):
    """A random expression lifted onto some of the log2(d) qubits, d in {4, 8}."""
    n = 2 if d == 4 else 3
    parties = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))
    child = draw(map_exprs(2 ** len(parties), depth))
    return Lift(child, PartySubset(tuple(sorted(parties))), SiteDims((2,) * n))
