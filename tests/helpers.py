"""Shared test utilities: random operators, random map expressions (also
X-projected ones), superoperator and lift-by-lift oracles, the text
`json.dumps` writes for a document with arrays written by runs, and the v3,
v2 and v1 forms of such a text."""

import functools
import itertools
import json
from fractions import Fraction
from math import prod
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from gme_maps import maps
from gme_maps.criteria import x_projector
from gme_maps.grades import bipartitions
from gme_maps.maps import (BreuerHall, Choi, Compose, Conjugate, DiagAll,
                           Identity, Lift, MapExpr, Reduction, Scale, SchurWith,
                           SideLifts, Sum, TraceIdentity, TraceOuter, Transpose,
                           apply_stack, default_skew_unitary)
from gme_maps.operators import MpOperator, PartySubset, SiteDims
from gme_maps.serialize import (MAP_FORMAT, MAP_FORMAT_V2, MAP_FORMAT_V3, MAX_RUN_ENTRIES,
                                _NODE_CLASSES, _key)
from gme_maps.states import clock_matrix, shift_matrix


#: committed files: map files as the mapexpr-v3 writer wrote them
DATA = Path(__file__).parent / "data"


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


def superoperator(m: MapExpr, evaluate=apply_stack) -> np.ndarray:
    """D^2 x D^2 matrix of the map in the row-major vec convention.

    With vec(rho) the row-major flattening, S @ vec(rho) = vec(m[rho]) and
    the Hilbert-Schmidt adjoint of the map is S^dagger.  `evaluate(m, stack)`
    applies the map, by default as `apply_stack` does.
    """
    D = m.dim
    basis = np.eye(D * D, dtype=complex).reshape(D * D, D, D)
    out = evaluate(m, basis)
    return out.reshape(D * D, D * D).T


def side_lifts(m: SideLifts) -> list[Lift]:
    """The explicit lifts a `SideLifts` node stands for, from the definition:
    child k onto each representative of `bipartitions` of k parties."""
    return [Lift(m.children[len(A) - 1], A, m.dims) for A in bipartitions(m.dims.n)]


def lift_by_lift(m: MapExpr, x: np.ndarray) -> np.ndarray:
    """m(x) for a stack x, shape (..., D, D), with every `Lift` evaluated on
    its own from the definition, a `SideLifts` node as its lifts
    (`side_lifts`), and every sum child by child, each node as often as the
    tree reaches it; leaves go through `maps._eval`.  A lift's
    child maps each block of x on the sites of A, one per pair (r, s) of basis
    indices of the sites R outside A, into the same entries: one axis
    transpose of x reads it as (..., dR, dR, dA, dA), and one more puts the
    child's output back."""
    if isinstance(m, Lift):
        # the sites as runs of neighbours on one side, one axis per run
        runs = [(a, prod(m.dims.dims[i] for i in g)) for a, g in itertools.groupby(
            range(m.dims.n), key=lambda i: i in m.parties.members)]
        lead, k = x.ndim - 2, len(runs)
        rest = [lead + j for j, (a, _) in enumerate(runs) if not a]
        inside = [lead + j for j, (a, _) in enumerate(runs) if a]
        # (..., runs, runs) read as (..., R, R, A, A)
        axes = list(range(lead)) + rest + [j + k for j in rest] + inside + [j + k for j in inside]
        sizes = tuple(size for _, size in runs)
        dA = m.child.dim
        blocks = x.reshape(x.shape[:-2] + sizes * 2).transpose(axes)
        out = lift_by_lift(m.child, blocks.reshape(x.shape[:-2] + (m.dim // dA,) * 2 + (dA, dA)))
        return out.reshape(blocks.shape).transpose(np.argsort(axes)).reshape(x.shape)
    if isinstance(m, (Sum, SideLifts)):
        return sum(lift_by_lift(c, x) for c in (side_lifts(m) if isinstance(m, SideLifts)
                                                else m.children))
    if isinstance(m, Scale):
        return m.r * lift_by_lift(m.child, x)
    if isinstance(m, Compose):
        return lift_by_lift(m.outer, lift_by_lift(m.inner, x))
    return maps._eval(m, x)


def lift_sites(m: MapExpr) -> tuple[SiteDims, ...]:
    """The distinct sites of the lifts reachable from m without crossing
    another lift, in the order a depth-first walk in field order first meets
    them; the walk takes a shared subtree as often as the tree reaches it."""
    found = []

    def walk(node):
        if isinstance(node, (Lift, SideLifts)):
            if node.dims not in found:
                found.append(node.dims)
            return
        for c in maps.children(node):
            walk(c)

    walk(m)
    return tuple(found)


def _unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return np.linalg.qr(z)[0]


def _pair_list(arr):
    flat = np.asarray(arr).reshape(-1)
    return np.stack((flat.real, flat.imag), -1).tolist()


def _runs(arr):
    """The [re, im] pairs of an array's runs of equal bit patterns, one pair
    per run, and the run lengths, found entry by entry."""
    pairs = _pair_list(arr)
    bits = np.array(pairs, dtype=float).reshape(-1, 2).view(np.uint64).tolist()
    groups = [list(g) for _, g in itertools.groupby(range(len(pairs)), key=lambda i: bits[i])]
    return [pairs[g[0]] for g in groups], [len(g) for g in groups]


def reference_text(doc) -> str:
    """The file text of `doc` as `json.dumps` writes it when every array in
    `doc` is first made the [re, im] pairs of its runs, each found entry by
    entry, with a "runs" member beside it when some run is longer than one."""
    def plain(obj):
        if isinstance(obj, dict):
            out = {}
            for key, value in obj.items():
                if isinstance(value, np.ndarray):
                    out[key], runs = _runs(value)
                    if len(runs) < value.size:
                        out["runs"] = runs
                else:
                    out[key] = plain(value)
            return out
        if isinstance(obj, (list, tuple)):
            return [_pair_list(v) if isinstance(v, np.ndarray) else plain(v) for v in obj]
        return obj

    return json.dumps(plain(doc)) + "\n"


#: the format of each v2 document and of its v1 form
V1_FORMATS = {"mapexpr-v2": "mapexpr-v1", "mpop-v2": "mpop-v1"}


def _spelled_lifts(node: dict) -> list[dict]:
    """The "lift" node objects a "side-lifts" node object stands for, each
    child object by reference."""
    return [{"kind": "lift", "child": node["children"][len(A) - 1], "parties": list(A.members),
             "dims": node["dims"]} for A in bipartitions(len(node["dims"]))]


def inlined(doc: dict) -> dict:
    """The mapexpr-v2 document of a mapexpr-v4 or v3 one: each child index
    replaced by the node object of the entry it names, spelled out at every
    occurrence, and the last entry the root.  A side-lifts entry is spelled
    out as its lifts, as the sum it leads held them before it was read (a sum
    of them alone elsewhere)."""
    done = []
    for entry in doc["nodes"]:
        fields = maps.node_fields(_NODE_CLASSES[entry["kind"]])
        types = {_key(name): tp for name, tp, _ in fields}
        node = {}
        for key, value in entry.items():
            if types.get(key) is MapExpr:
                value = done[value]
            elif types.get(key) == tuple[MapExpr, ...]:
                value = [done[i] for i in value]
            node[key] = value
        if node["kind"] == "sum" and node["children"][0]["kind"] == "side-lifts":
            node["children"] = _spelled_lifts(node["children"][0]) + node["children"][1:]
        done.append(node)
    for node in done:  # a side-lifts node elsewhere: the sum of its lifts
        if node["kind"] == "side-lifts":
            lifts = _spelled_lifts(node)
            node.clear()
            node.update(kind="sum", children=lifts)
    return {"format": MAP_FORMAT_V2, "root": done[-1]}


def tabled(doc: dict) -> dict:
    """The mapexpr-v3 document of a mapexpr-v2 one, as the v3 writer wrote it:
    the distinct node objects (equal texts once), each child before its
    parent, a parent's children walked last to first, the root last."""
    entries, at = [], {}

    def enter(node: dict) -> int:
        types = {_key(name): tp for name, tp, _ in maps.node_fields(_NODE_CLASSES[node["kind"]])}
        entry = dict(node)
        for key in reversed([k for k in node if types.get(k) in (MapExpr, tuple[MapExpr, ...])]):
            value = node[key]
            entry[key] = ([enter(c) for c in value[::-1]][::-1] if isinstance(value, list)
                          else enter(value))
        text = json.dumps(entry)
        if text not in at:
            at[text] = len(entries)
            entries.append(entry)
        return at[text]

    enter(doc["root"])
    return {"format": MAP_FORMAT_V3, "nodes": entries}


def v3_text(text: str) -> str:
    """The v3 file text of a written v4 map file text: every side-lifts entry
    spelled out as its lifts (`inlined`), the bytes the v3 writer wrote."""
    return json.dumps(tabled(inlined(json.loads(text)))) + "\n" * text.endswith("\n")


def v2_text(text: str) -> str:
    """The v2 file text of a written v4 or v3 map file text: every node nested
    in its parent, the bytes the v2 writer wrote."""
    return json.dumps(inlined(json.loads(text))) + "\n" * text.endswith("\n")


def _declared(doc: dict):
    """The key of the pair list a decoder reads from `doc` with its "runs"
    and the entry count `doc` declares for it, or None."""
    if "entries" in doc and type(doc.get("dim")) is int:
        return "entries", doc["dim"] ** 2
    dims = doc.get("dims")
    if isinstance(dims, list) and all(type(k) is int for k in dims):
        key = "vector" if "vector" in doc else "matrix"
        return key, prod(dims) ** (1 if key == "vector" else 2)
    return None


def spelled_out(doc):
    """Parsed JSON data with each pair list whose "runs" member is well formed
    (one integer >= 1 per pair, summing to the entry count the object declares,
    at most `MAX_RUN_ENTRIES`) spelled out entry by entry and the member
    dropped; anything else is kept as it is."""
    if isinstance(doc, list):
        return [spelled_out(v) for v in doc]
    if not isinstance(doc, dict):
        return doc
    out = {k: spelled_out(v) for k, v in doc.items()}
    runs, declared = doc.get("runs"), _declared(doc)
    if isinstance(runs, list) and declared:
        key, size = declared
        cells = doc.get(key)
        if (isinstance(cells, list) and len(cells) == len(runs) and size <= MAX_RUN_ENTRIES
                and all(type(k) is int and k >= 1 for k in runs) and sum(runs) == size):
            out[key] = [spelled_out(c) for c, k in zip(cells, runs) for _ in range(k)]
            del out["runs"]
    return out


def v1_text(text: str) -> str:
    """The v1 file text of a written v4 or v3 map, v2 map or v2 state file
    text: every node nested in its parent, every run spelled out and the v1
    format, the bytes the v1 writer wrote."""
    doc = json.loads(text)
    doc = spelled_out(inlined(doc) if doc["format"] in (MAP_FORMAT, MAP_FORMAT_V3) else doc)
    doc["format"] = V1_FORMATS[doc["format"]]
    return json.dumps(doc) + "\n" * text.endswith("\n")


# Cells whose texts start alike: "[1.0, 0.0]", "[1.0, 0.05]", "[-0.0, 0.0]", ...
RUN_CELLS = [0.0, -0.0, 1.0, 0.5, 1.0 + 0.05j, complex(1.0, -0.0), complex(-0.0, 1.0)]


@st.composite
def run_heavy_exprs(draw):
    """A Schur node whose d x d mask is a few cells in runs of any length,
    alone or summed with a copy of itself, so that its array repeats too."""
    d = draw(st.sampled_from([1, 2, 3, 4, 8, 16]))
    pool = draw(st.lists(st.sampled_from(RUN_CELLS), min_size=1, max_size=3))
    runs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, d * d)),
                         min_size=1, max_size=8))
    flat = [value for value, k in runs for _ in range(k)]
    flat = (flat * (d * d // len(flat) + 1))[:d * d]
    schur = SchurWith(np.array(flat).reshape(d, d))
    return Sum((schur, SchurWith(schur.mask))) if draw(st.booleans()) else schur


@st.composite
def map_exprs(draw, d, depth=3):
    """Random expression trees on d x d matrices, d in {2, 3, 4, 8}.

    Conjugations draw either a Haar-like unitary or a monomial Z^k X^j, so
    the index gather also runs on the blocks of random and nested lifts.
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
            return Conjugate(monomial(d, draw(st.integers(0, d - 1)),
                                      draw(st.integers(0, d - 1))))
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


def monomial(d, k, j):
    """Z^k X^j on C^d: the cyclic shift X^j with the clock phases Z^k."""
    return clock_matrix(d, k).mat @ np.linalg.matrix_power(shift_matrix(d).mat, j)


#: site dimensions of `lifted_map_exprs(d)`
LIFT_SITES = {4: (2, 2), 8: (2, 2, 2), 9: (3, 3)}


def digit_reversal(dims):
    """The monomial sending every site's digit j to d - 1 - j: sigma_x on qubits."""
    return Conjugate(np.eye(int(np.prod(dims)))[::-1])


@st.composite
def lifted_map_exprs(draw, d, depth=2):
    """A random lifted expression on the sites `LIFT_SITES[d]`, d in {4, 8, 9}.

    A third are a monomial Z^k X^j on the largest subsystem, gathered block
    by block; on two of three qubits X^j is a 4-cycle, not an involution, so
    a gather with the inverse permutation differs.  A third are a sum of
    lifted chains of transpositions and digit reversals, plus one other term;
    on three qubits the chains may cover the bipartitions and be summed by
    grades.  The rest lift a random tree.
    """
    sites = LIFT_SITES[d]
    n = len(sites)
    kind = draw(st.sampled_from(["gather", "chains", "tree"]))

    def subset(min_size):
        parties = draw(st.lists(st.integers(0, n - 1), min_size=min_size,
                                max_size=n - 1, unique=True))
        return PartySubset(tuple(sorted(parties)))

    dims = SiteDims(sites)
    if kind == "chains":
        lifts = []
        for _ in range(draw(st.integers(1, 3))):
            parties = subset(1)
            part = [sites[p] for p in parties]
            steps = st.sampled_from([Transpose(int(np.prod(part))), digit_reversal(part)])
            chain = [Identity(int(np.prod(part)))] + draw(st.lists(steps, max_size=3))
            lifts.append(Lift(functools.reduce(Compose, chain), parties, dims))
        lifts.insert(draw(st.integers(0, len(lifts))), draw(map_exprs(d, 0)))
        return Sum(tuple(lifts))
    parties = subset(n - 1 if kind == "gather" else 1)
    dA = int(np.prod([sites[p] for p in parties]))
    if kind == "gather":
        child = Conjugate(monomial(dA, draw(st.integers(0, dA - 1)),
                                   draw(st.integers(1, dA - 1))))
    else:
        child = draw(map_exprs(dA, depth))
    return Lift(child, parties, dims)


#: (n, d) of the trees `x_projected_exprs` draws, D <= 27
X_SIZES = [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)]


@st.composite
def _x_closed_nodes(draw, d, sites, full, depth):
    """A random tree on `sites` sites of dimension d from nodes that keep the X
    support: a transposition only for qubits or on the full space, and
    monomials Z^k X^j on every site, which keep the digit differences."""
    dim = d ** sites
    if depth and draw(st.booleans()):
        kind = draw(st.sampled_from(["sum", "scale", "compose"]))
        sub = _x_closed_nodes(d, sites, full, depth - 1)
        if kind == "sum":
            return Sum(tuple(draw(st.lists(sub, min_size=1, max_size=3))))
        if kind == "scale":
            return Scale(draw(st.floats(-2, 2, allow_nan=False)), draw(sub))
        return Compose(draw(sub), draw(sub))
    leaves = ["identity", "diag", "conjugate"] + (["transpose"] if d == 2 or full else []) \
        + (["choi"] if dim >= 3 else [])
    kind = draw(st.sampled_from(leaves))
    if kind == "conjugate":
        u = np.ones((1, 1))
        for _ in range(sites):
            u = np.kron(u, monomial(d, draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))))
        return Conjugate(u)
    if kind == "choi":
        return Choi(dim, draw(st.booleans()))
    return {"identity": Identity, "diag": DiagAll, "transpose": Transpose}[kind](dim)


@st.composite
def x_projected_exprs(draw, depth=2):
    """Compose(m, P) or Compose(P, m): m a random closed tree with at least one
    lift, P a Hermitian Schur mask on the X support of n sites of dimension d."""
    n, d = draw(st.sampled_from(X_SIZES))
    dims = SiteDims((d,) * n)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        parties = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1,
                                unique=True))
        child = draw(_x_closed_nodes(d, len(parties), False, depth))
        terms.append(Lift(child, PartySubset(tuple(sorted(parties))), dims))
    if draw(st.booleans()):
        terms.append(draw(_x_closed_nodes(d, n, True, depth)))
    body = Sum(tuple(terms))
    if draw(st.booleans()):
        body = Compose(draw(_x_closed_nodes(d, n, True, depth)), body)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = rand_hermitian(dims.total, rng) if draw(st.booleans()) else 1.0
    mask = SchurWith(x_projector(n, d).mask * weights)
    return Compose(body, mask) if draw(st.booleans()) else Compose(mask, body)
