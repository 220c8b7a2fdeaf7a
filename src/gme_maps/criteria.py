"""Construction of biseparable-positive maps from lifted positive maps.

Each criterion sums a positive map applied to one side of every bipartition
and adds a compensation term sized by the primitive's minimal output
eigenvalue.  The lifts are one `maps.SideLifts` node, one child per side
size, so a tree has O(n) distinct nodes.  The Choi-based and
qubit-optimised variants are composed with a projection onto the cyclic GHZ
subspace, realised either as a Schur mask or as a mixture of clock-unitary
conjugations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import sqrt

import numpy as np

from .grades import bipartitions
from .maps import (Choi, Compose, Conjugate, DiagAll, Identity, MapExpr,
                   Scale, SchurWith, SideLifts, Sum, TraceIdentity, TraceOuter,
                   apply, breuer_hall_map, dual, mu_constant, reduction_map,
                   transpose_map)
from .operators import (BlockOperator, MpOperator, PartySubset, SiteDims, is_hermitian,
                        scatter_blocks, x_support_index)
from .states import PureState, clock_matrix, shift_matrix


@dataclass(frozen=True)
class Claim:
    """Closed-form expectation attached to a constructed map."""

    quantity: str
    value: float
    source: str  # "closed-form" or "derived-numeric"
    note: str = ""


@dataclass(frozen=True, eq=False)
class GmeMap:
    """A map that is positive on all biseparable states of `dims`."""

    label: str
    expr: MapExpr
    dims: SiteDims
    claims: tuple[Claim, ...] = ()

    def check_state(self, state: MpOperator | BlockOperator | PureState) -> None:
        """A state the map is applied to must be on its sites."""
        if state.dims != self.dims:
            raise ValueError(f"state dims {state.dims.dims} do not match map dims {self.dims.dims}")


def _compensation(n: int, mu: Fraction, dim: int) -> MapExpr:
    """c * I Tr with c = (#bipartitions - 1) * mu, stored exactly."""
    c = (2 ** (n - 1) - 2) * mu
    return TraceIdentity(c, dim)


def phi_t(n: int, d: int = 2) -> GmeMap:
    """Lifted-transposition criterion: sum of partial transposes plus c I Tr."""
    if n < 3:
        raise ValueError("phi-t needs n >= 3")
    claims = ()
    if n == 3 and d == 2:
        claims = (
            Claim("min-eig:w3", 1 - 2 / sqrt(3), "closed-form"),
            Claim("threshold:noisy-w3", 11 * sqrt(3) / (16 + 3 * sqrt(3)), "closed-form"),
        )
    return _single_lift_criterion("phi-t", n, d, lambda m: transpose_map(d ** m), claims)


def phi_tx(n: int) -> GmeMap:
    """Transposition followed by a sigma_x flip on the transposed side (qubits)."""
    if n < 3:
        raise ValueError("phi-tx needs n >= 3")
    dims = SiteDims((2,) * n)
    # the sigma_x flip is unitary, so it keeps the transposition's constant
    mu = mu_constant(transpose_map(2))
    expr = Sum(_phi_tx_sum(n).children + (_compensation(n, mu, dims.total),))
    b = 2 ** (n - 1)
    claims = (
        Claim("min-eig:ghz", -0.5, "closed-form"),
        Claim("threshold:noisy-ghz", (b * b - b - 1) / (b * b - 1), "closed-form",
              note="b = 2^(n-1); every lift fixes I/D, so m(I/D) = beta I with "
                   "beta = (b^2-b-1)/(2b); lambda_min(m(|GHZ><GHZ|)) = -1/2, so "
                   "p* = 1/(1 + 1/(2 beta)) = (b^2-b-1)/(b^2-1)"),
    )
    return GmeMap("phi-tx", expr, dims, claims)


def x_projector(n: int, d: int) -> MapExpr:
    """Projector onto the cyclic GHZ subspace via a 0/1 Schur mask.

    Keeps entries (u, v) whose digit offsets relative to party 0 agree
    between row and column indices, all offsets taken mod d.
    """
    if n < 2 or d < 2:
        raise ValueError("x_projector needs n >= 2 and d >= 2")
    index = x_support_index(SiteDims((d,) * n))
    return SchurWith(scatter_blocks(index, np.ones(index.shape + (d,)), d ** n))


def x_projector_mixture(n: int, d: int) -> MapExpr:
    """Same projector as a composition of clock-unitary averages."""
    if n < 2 or d < 2:
        raise ValueError("x_projector_mixture needs n >= 2 and d >= 2")
    stages = []
    eye = np.eye(d)
    for j in range(1, n):
        terms = []
        for k in range(d):
            z = clock_matrix(d, k).mat
            u = reduce(np.kron, [z if i == 0 else (z.conj().T if i == j else eye)
                                 for i in range(n)])
            terms.append(Scale(1.0 / d, Conjugate(u)))
        stages.append(Sum(tuple(terms)))
    expr = stages[0]
    for s in stages[1:]:
        expr = Compose(expr, s)
    return expr


def _side_lifts(dims: SiteDims, child_for) -> SideLifts:
    """`child_for(k)` lifted onto the side of k parties of every bipartition,
    one child node per side size."""
    return SideLifts(tuple(child_for(k) for k in range(1, dims.n // 2 + 1)), dims)


def _phi_tx_sum(n: int) -> Sum:
    """sigma_x T lifted onto every bipartition side, one chain per side size."""
    return Sum((_side_lifts(SiteDims((2,) * n), lambda k: Compose(
        Conjugate(reduce(np.kron, [shift_matrix(2).mat] * k)), transpose_map(2 ** k))),))


def eta_map(n: int) -> GmeMap:
    """Diag-compensated qubit criterion, pre-composed with the subspace projector."""
    if n < 3:
        raise ValueError("eta needs n >= 3")
    dims = SiteDims((2,) * n)
    phi = _phi_tx_sum(n)
    k = 2 ** (n - 1) - 1
    eta = Sum((phi, Scale(float(k - 1), Compose(DiagAll(dims.total), phi))))
    expr = Compose(eta, x_projector(n, 2))
    claims = (
        Claim("threshold:noisy-ghz", (2 ** (n - 1) - 1) / (2 ** n - 1), "closed-form"),
    )
    return GmeMap("eta", expr, dims, claims)


def _single_lift_criterion(label: str, n: int, d: int, child_for,
                           claims: tuple[Claim, ...]) -> GmeMap:
    """`child_for(k)` lifted onto every bipartition side of k parties, one child
    per side size, plus the compensation sized by `mu_constant` of `child_for(1)`."""
    dims = SiteDims((d,) * n)
    side = _side_lifts(dims, child_for)
    expr = Sum((side, _compensation(n, mu_constant(side.children[0]), dims.total)))
    return GmeMap(label, expr, dims, claims)


def _ghz3_claims(n: int, d: int) -> tuple[Claim, ...]:
    """The closed forms phi-r and phi-b share on three parties, none otherwise."""
    if n != 3:
        return ()
    return (
        Claim("min-eig:ghz", -1.0 / d, "closed-form"),
        Claim("threshold:noisy-ghz", 1 - d * d / (3 * (d * d + 1)), "closed-form"),
    )


def phi_r(d: int, n: int = 3) -> GmeMap:
    """Lifted reduction-map criterion; compensation (2^(n-1)-2)/d."""
    if n < 3:
        raise ValueError("phi-r needs n >= 3")
    if d < 2:
        raise ValueError("phi-r needs d >= 2")
    return _single_lift_criterion("phi-r", n, d,
                                  lambda m: reduction_map(d ** m), _ghz3_claims(n, d))


def phi_b(d: int, n: int = 3) -> GmeMap:
    """Lifted Breuer-Hall criterion with the block skew-symmetric V."""
    if n < 3:
        raise ValueError("phi-b needs n >= 3")
    if d < 4 or d % 2:
        raise ValueError("phi-b needs even d >= 4")
    return _single_lift_criterion("phi-b", n, d, lambda m: breuer_hall_map(d ** m),
                                  _ghz3_claims(n, d))


def _choi_on_subset(size: int, d: int) -> MapExpr:
    """Choi-style map on a composite subsystem, shifting every party locally.

    For a single party this is the plain Choi map.  For larger subsets the
    j-th addend conjugates by X^j on each party of the subset, keeping the
    same j range; this keeps the unital coefficient at d - 1 independent of
    the subset size.
    """
    if size == 1:
        return Choi(d)
    dA, diag = d ** size, DiagAll(d ** size)
    x = shift_matrix(d).mat
    terms: list[MapExpr] = [Scale(2.0, diag)]
    for j in range(1, d - 1):
        xj = np.linalg.matrix_power(x, j)
        terms.append(Compose(Conjugate(reduce(np.kron, [xj] * size)), diag))
    terms.append(Scale(-1.0, Identity(dA)))
    return Sum(tuple(terms))


def alpha_critical(n: int, d: int) -> float:
    """Critical visibility of the noisy GHZ state under the Choi criterion."""
    a = (d - 2) * (2 ** (n - 1) - 1) + 1
    return a / (a + (d - 2) * d ** (n - 1))


def mu_map(n: int, d: int) -> GmeMap:
    """Choi-lift criterion (one Choi child per side size) with Diag
    compensation, composed with the projector."""
    if n < 3:
        raise ValueError("mu-choi needs n >= 3")
    if d < 3:
        raise ValueError("mu-choi needs d >= 3")
    dims = SiteDims((d,) * n)
    diag = DiagAll(dims.total)
    phi = Sum((_side_lifts(dims, lambda size: _choi_on_subset(size, d)),))
    k = 2 ** (n - 1) - 1
    mu = Sum((phi,
              Scale(float(k - 1), Compose(diag, phi)),
              Scale(-float((k - 1) * k), diag)))
    expr = Compose(mu, x_projector(n, d))
    claims = (
        Claim("threshold:noisy-ghz", alpha_critical(n, d), "closed-form"),
    )
    return GmeMap("mu-choi", expr, dims, claims)


def witness_to_map(w: MpOperator) -> GmeMap:
    """rho -> Tr(W rho) I; biseparable-positive whenever W is a witness."""
    if not is_hermitian(w):
        raise ValueError("witness must be Hermitian")
    expr = TraceOuter(w.mat, np.eye(w.d))
    return GmeMap("witness", expr, w.dims)


def map_to_witness(m: GmeMap, psi: PureState) -> MpOperator:
    """Witness W with Tr(W rho) = <psi| m[rho] |psi> for all rho."""
    m.check_state(psi)
    return apply(dual(m.expr), psi.density())


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

#: one row per catalog id, in catalog order: the builder (n, d) -> GmeMap,
#: the smallest valid (n, d), and whether the id is a qubit criterion
CATALOG = {
    "phi-t": (phi_t, (3, 2), False),
    "phi-tx": (lambda n, d: phi_tx(n), (3, 2), True),
    "eta": (lambda n, d: eta_map(n), (3, 2), True),
    "phi-r": (lambda n, d: phi_r(d, n), (3, 2), False),
    "phi-b": (lambda n, d: phi_b(d, n), (3, 4), False),
    "mu-choi": (mu_map, (3, 3), False),
}
MAP_IDS = tuple(CATALOG)
#: smallest valid (n, d) per catalog id
SMALLEST = {map_id: smallest for map_id, (_, smallest, _) in CATALOG.items()}


#: largest total dimension D = d^n that `build_map` constructs; dense D x D
#: matrices take 8 D^2 bytes each when real, 16 D^2 when complex (16 MB at the limit)
MAX_DIM = 1024


def check_local_dim(d: int) -> None:
    """Refuse a local dimension d below 2, for `build_map` and `mu`."""
    if d < 2:
        raise ValueError(f"local dimension d must be >= 2, got {d}")


def build_map(map_id: str, n: int, d: int) -> GmeMap:
    """Construct a cataloged map by id; raises ValueError for bad combos.

    D = d^n is checked against `MAX_DIM` before anything is built, so no
    D x D array (eta's mask, a whole input or output) is made past it.  The
    checks run on every call; the map is built once per (map_id, n, d) and
    that one `GmeMap` is returned to every later call (`_built`).  Sharing
    is safe because a map never changes: its nodes are frozen, their arrays
    read-only, and what a first application works out (support form, lift
    tables) is kept on the nodes and depends on the tree alone.
    """
    check_local_dim(d)
    # d >= 2, so more than log2(MAX_DIM) parties is too large without computing d^n
    if n > MAX_DIM.bit_length() or d ** n > MAX_DIM:
        raise ValueError(f"D = d^n = {d}^{n} exceeds the supported maximum {MAX_DIM}")
    if map_id not in CATALOG:
        raise ValueError(f"unknown map id {map_id!r}; choose from {', '.join(MAP_IDS)}")
    _, _, qubit_only = CATALOG[map_id]
    if qubit_only and d != 2:
        raise ValueError(f"{map_id} is a qubit criterion (d = 2)")
    return _built(map_id, n, d)


@lru_cache(maxsize=8, typed=True)
def _built(map_id: str, n: int, d: int) -> GmeMap:
    """The catalog map of `build_map`'s checked arguments, kept for the last
    8 distinct ones (the bound of `operators.x_support_index`): at most 8
    dense D x D masks of up to 8 MB each stay resident.  A builder that
    raises caches nothing, and keys are typed, so 3.0 never stands for 3."""
    return CATALOG[map_id][0](n, d)
