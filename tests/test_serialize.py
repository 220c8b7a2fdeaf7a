"""JSON round trips for states and map expressions; CSV formatting."""

import dataclasses
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gme_maps import maps, serialize
from gme_maps.criteria import SMALLEST, build_map, eta_map, mu_map, phi_b
from gme_maps.detect import ScanRow
from gme_maps.maps import Choi, apply, apply_stack, compose, identity_map
from gme_maps.serialize import (MAX_MAP_DEPTH, MAX_MAP_NODES, dumps_report, jsonable,
                                load_state, mapexpr_from_json, mapexpr_to_json, save_map,
                                save_state, scan_csv, state_from_json, state_to_json,
                                write_json)
from gme_maps.cli import main
from gme_maps.operators import MpOperator, SiteDims
from gme_maps.states import PureState, ghz, maximally_mixed, ppt_family
from helpers import (DATA, hermitian_op, inlined, lifted_map_exprs, map_exprs, reference_text,
                     side_lifts, v3_text,
                     run_heavy_exprs, v1_text, v2_text, x_projected_exprs)


def test_pure_state_roundtrip():
    psi = ghz(3, 3)
    doc = state_to_json(psi)
    assert doc["format"] == "mpop-v2"
    assert doc["dims"] == [3, 3, 3]
    back = state_from_json(json.loads(json.dumps(doc)))
    assert isinstance(back, PureState)
    assert np.array_equal(back.vec, psi.vec)


def test_density_roundtrip():
    rho = ppt_family((0.2, 0.3, 0.4))
    back = state_from_json(json.loads(json.dumps(state_to_json(rho))))
    assert np.array_equal(back.mat, rho.mat)
    assert back.dims == rho.dims


@pytest.mark.parametrize("make, size", [(lambda: maximally_mixed((2,) * 11), 4 ** 11),
                                        (lambda: ghz(21), 2 ** 21)], ids=["mixed-11", "ghz-21"])
def test_state_writer_refuses_what_the_reader_refuses(tmp_path, make, size):
    """More entries than `load_state` reads back are refused before the file
    is opened, with the reader's message."""
    obj, path = make(), tmp_path / "s.json"
    message = f"^{size} entries exceed the supported maximum 1048576$"
    with pytest.raises(ValueError, match=message):
        save_state(str(path), obj)
    assert not path.exists()
    with pytest.raises(ValueError, match=message):
        state_to_json(obj)


def test_map_writer_refuses_what_the_reader_refuses(tmp_path):
    """A map with an array of more entries than `mapexpr_from_json` reads back
    is refused before the file is opened, with the reader's message."""
    expr, path = maps.SchurWith(np.ones((1025, 1025))), tmp_path / "m.json"
    message = "^1050625 entries exceed the supported maximum 1048576$"
    with pytest.raises(ValueError, match=message):
        save_map(str(path), expr)
    assert not path.exists()
    with pytest.raises(ValueError, match=message):
        mapexpr_to_json(expr)


def test_largest_state_vector_round_trips(tmp_path):
    psi, path = ghz(20), str(tmp_path / "s.json")
    save_state(path, psi)
    # the file holds psi's bits; reading it builds a PureState, which normalises again
    assert np.array_equal(load_state(path).vec, PureState(psi.dims, psi.vec).vec)


def test_state_format_errors():
    with pytest.raises(ValueError):
        state_from_json({"format": "mpop-v2", "dims": [2], "vector": [[1, 0]]})
    with pytest.raises(ValueError):
        state_from_json({"format": "mpop-v1", "dims": [2, 2]})
    with pytest.raises(ValueError):
        state_from_json({"format": "mpop-v1", "dims": [2, 2], "vector": [[1, 0]]})


@pytest.mark.parametrize("dims, message", [
    (None, "mpop-v2 document: missing field 'dims'"),
    ([2.9, 2.2, 2.5], "mpop-v2 document: bad field 'dims': expected an integer, got 2.9"),
    ([2, True, 2], "bad field 'dims': expected an integer, got True"),
    (8, "bad field 'dims': expected a list of integers, got 8"),
    ([2, 1, 4], "bad field 'dims': every local dimension must be >= 2"),
], ids=["missing", "floats", "bool", "int", "one"])
def test_state_dims_are_integers(tmp_path, dims, message):
    """A state file's dims decode as a map file's do; the file reader
    (`load_state`) and the decoder fail with the same text."""
    doc = json.loads(json.dumps(state_to_json(ghz(3, 2))))
    doc.pop("dims")
    if dims is not None:
        doc["dims"] = dims
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    errors = []
    for read in (lambda: serialize.load_state(str(path)), lambda: state_from_json(doc)):
        with pytest.raises(ValueError) as info:
            read()
        errors.append(str(info.value))
    assert errors[0] == errors[1] and message in errors[0]


@pytest.mark.parametrize("factory", [
    lambda: eta_map(3).expr,
    lambda: mu_map(3, 3).expr,
    lambda: phi_b(4).expr,
])
def test_mapexpr_roundtrip(factory):
    expr = factory()
    doc = mapexpr_to_json(expr)
    assert doc["format"] == "mapexpr-v4"
    back = mapexpr_from_json(json.loads(json.dumps(doc)))
    rng = np.random.default_rng(1)
    dims = (2, 2, 2) if expr.dim == 8 else ((3, 3, 3) if expr.dim == 27 else (4, 4, 4))
    rho = hermitian_op(dims, rng)
    a = apply(expr, rho).mat
    b = apply(back, rho).mat
    assert np.max(np.abs(a - b)) <= 1e-12


# sha256 of json.dumps(mapexpr_to_json(...)), the text `detect --export-map`
# writes before its newline, for each catalog map at its smallest size: as
# mapexpr-v1 wrote it, every entry spelled out, as mapexpr-v2 wrote it, every
# node nested in its parent, as mapexpr-v3 wrote it, each lift an entry of
# its own (the files tests/data/<id>-<n>-<d>-v3.json hold those bytes and a
# newline), and as mapexpr-v4 writes it.
CATALOG_SHA256_V1 = {
    "phi-t": "59591ff08fd5df383e898856f1552b9304b433493ecc04b5854952d4cf5e826b",
    "phi-tx": "ad64e64556aeb30b8569cf1062406f085c6c1e38fed3eebb3b8b7c0f743f13c8",
    "eta": "4f4f1f49ab6624643d7e4a50a122b13d074bb84de9e7ee4af6817cd7621686fa",
    "phi-r": "a7236da90747077e0b91ee15a8362e015b9d151e0cf91c2fb8eb7be761718794",
    "phi-b": "d9a035f7875ccba6dee136077b20ae65d0c531a32298524b09fe09be9d21e3ad",
    "mu-choi": "9ac64209d802e5b1f6321b9f479e1f8a3273b9fb2841d1f4263dd78a13a9f4be",
}
CATALOG_SHA256_V2 = {
    "phi-t": "5edb3b8977a6461b5ccb4a21145cab80a049c7524d45003a3d59fdb210c0d57c",
    "phi-tx": "0ad0087285e6dc0b7623438c3898a41ddb801510a4820690bd41202d95d27d21",
    "eta": "82c5066215210cfa13948dca000bb319b03cded0b1a6963ba30bdd02c7c06284",
    "phi-r": "c063ed6b43242193528a8367bc86ef182b32497a4150bdf9e6d55b36cb3ba32c",
    "phi-b": "a1cbb72ac07ca00810bb1985614976ab517fdeb9f182fd3ad86acc8fd43451bb",
    "mu-choi": "3c772b2fbffdd835c11726ac25ba3d5d6672d23858860475d39f0b49bc73feec",
}
CATALOG_SHA256_V4 = {
    "phi-t": "dcc62777cce71606c75a1fd9363a5a1d03d48f0ecdaaa1f16bb2afd3b8d0a358",
    "phi-tx": "1260904ead5a0464228cb882cfe783f754c891a49ca7c0a38b5fe7949a1d3bbd",
    "eta": "22837f7998fe5b6f9836197f12a7bf405a094c554d27da7ab1963986acf4c23f",
    "phi-r": "5d106dd89f4c1027ff2cefc41411c4ae5e940f5a3f71dba9110520ce81015627",
    "phi-b": "6e71c70822c5edc3683899338c654f8fac58cdd63a70083a4ecffa437549c911",
    "mu-choi": "9b6db7b18bd8a8fc13bf08c469e452921cd452fa863fa9b09041eab405b226a6",
}
CATALOG_SHA256 = {
    "phi-t": "49b5d52c8d965418a04fc52405d1821d0b87d5d992e9807c74d1d3afde4076ba",
    "phi-tx": "b4e215d2a73efb06512c17d65cb61a6dfec6433886e3b556f3bca02e94583f21",
    "eta": "b4f8e2c67eded891050476aabb9a656bb39dc9777a134eae22a983391bd06a63",
    "phi-r": "6657fc17cccc5f1314591985cbfc205c60d2b5bd21158b5b81203b502e40ad30",
    "phi-b": "e32e769bc72fbf9c47ab37f63b38f48d1f9529ab83354beeb6edfcc0e68d3fc1",
    "mu-choi": "223a3d50f607d99b88b1958018707b08012bb448ce4761cfcbd61c1297e35a1c",
}


@pytest.mark.parametrize("map_id", sorted(CATALOG_SHA256))
def test_mapexpr_bytes_pinned(map_id):
    """The v4 text is pinned; its side lifts spelled out as lifts give the v3
    text the v3 writer wrote, the committed file's bytes, so the table
    carries the v3 file's node data; that table inlined into the v2 tree
    hashes to the v2 pin, and its v1 form to the v1 pin.  The v3, v2 and v1
    texts read to the catalog tree: the same v4 text, the same outputs."""
    n, d = SMALLEST[map_id]
    expr = build_map(map_id, n, d).expr
    text = json.dumps(mapexpr_to_json(expr))
    v3 = v3_text(text)
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_SHA256_V4[map_id]
    assert hashlib.sha256(v3.encode()).hexdigest() == CATALOG_SHA256[map_id]
    assert (DATA / f"{map_id}-{n}-{d}-v3.json").read_text() == v3 + "\n"
    assert hashlib.sha256(v2_text(v3).encode()).hexdigest() == CATALOG_SHA256_V2[map_id]
    assert hashlib.sha256(v1_text(v3).encode()).hexdigest() == CATALOG_SHA256_V1[map_id]
    stack = np.random.default_rng(5).standard_normal((2, expr.dim, expr.dim)) + 0j
    for old in (v3, v2_text(v3), v1_text(v3)):
        back = mapexpr_from_json(json.loads(old))
        assert json.dumps(mapexpr_to_json(back)) == text
        assert apply_stack(back, stack).tobytes() == apply_stack(expr, stack).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from([2, 3, 4, 8]).flatmap(map_exprs), run_heavy_exprs()),
       st.integers(0, 2 ** 32 - 1))
def test_mapexpr_roundtrip_property(expr, seed):
    text = json.dumps(mapexpr_to_json(expr))
    back = mapexpr_from_json(json.loads(text))
    assert json.dumps(mapexpr_to_json(back)) == text
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((2, expr.dim, expr.dim)) + 0j
    assert np.array_equal(apply_stack(back, stack), apply_stack(expr, stack))


def test_mapexpr_unknown_kind():
    with pytest.raises(ValueError):
        mapexpr_from_json({"format": "mapexpr-v1", "root": {"kind": "mystery"}})


def _root(node):
    """A mapexpr-v2 document: the decoder reads the fields of its nested node
    objects as it reads a v3 table's entries."""
    return {"format": serialize.MAP_FORMAT_V2, "root": node}


IDENTITY8 = {"kind": "identity", "d": 8}


@pytest.mark.parametrize("node", [
    {"kind": "choi", "d": 3, "adjoint": "false"},
    {"kind": "choi", "d": 3, "adjoint": 0},
    {"kind": "choi", "d": 2.7},
    {"kind": "choi", "d": "3"},
    {"kind": "choi", "d": True},
    {"kind": "scale", "r": "2", "child": IDENTITY8},
    {"kind": "scale", "r": False, "child": IDENTITY8},
    {"kind": "trace-identity", "c": "1/0", "d": 2},
    {"kind": "lift", "child": {"kind": "identity", "d": 2}, "parties": ["0"],
     "dims": [2, 2, 2]},
    {"kind": "lift", "child": {"kind": "identity", "d": 2}, "parties": [0],
     "dims": [2, 2.5, 2]},
    {"kind": "schur", "mask": {"dim": 1.0, "entries": [[1, 0]]}},
], ids=["str-bool", "int-bool", "float-int", "str-int", "bool-int", "str-float",
        "bool-float", "zero-denominator", "str-party", "float-dim", "float-mat-dim"])
def test_mapexpr_rejects_other_json_types(node):
    with pytest.raises(ValueError, match="bad field"):
        mapexpr_from_json(_root(node))


def test_mapexpr_decodes_json_bools():
    for flag in (False, True):
        m = mapexpr_from_json(_root({"kind": "choi", "d": 3, "adjoint": flag}))
        assert isinstance(m, Choi) and m.adjoint is flag


def test_mapexpr_encoder_depth_matches_decoder():
    deepest = compose(*[identity_map(2)] * MAX_MAP_DEPTH)
    text = json.dumps(mapexpr_to_json(deepest))
    assert json.dumps(mapexpr_to_json(mapexpr_from_json(json.loads(text)))) == text
    with pytest.raises(ValueError, match="deeper"):
        mapexpr_to_json(compose(*[identity_map(2)] * (MAX_MAP_DEPTH + 1)))
    with pytest.raises(ValueError, match="deeper"):
        mapexpr_to_json(compose(*[identity_map(2)] * 70))


def _complex_per_entry(pairs):
    """The decoder of earlier releases: one `complex(re, im)` per entry."""
    return np.array([complex(re, im) for re, im in pairs])


@pytest.mark.parametrize("entries", [
    [[1, 0], [0, 0]],
    [[0.5, -0.0], [0.25, 1e-300]],
    [[True, False], [0, 1]],
    [["1.5", 0], [0, 1]],
    [[1, "0"], [0, 1]],
    [[None, 0], [0, 1]],
    [[1], [0, 1, 2]],
    [[1, 0], [0, 1, 2]],
    [[1], [0]],
    ["ab", [0, 1]],
    [{"a": 1, "b": 2}, [0, 1]],
    [[[1], 0], [0, 1]],
    [[1, 0], 5],
    [[10 ** 400, 0], [0, 1]],
    "ab",
    5,
    None,
], ids=["ints", "floats", "bools", "str-re", "str-im", "null", "lengths-1-3", "length-3",
        "length-1", "str-pair", "object-pair", "nested", "int-pair", "huge-int", "str-entries",
        "int-entries", "null-entries"])
def test_entry_decoding_accepts_what_complex_accepts(entries):
    """A state vector, like every matrix, accepts exactly the entry lists that
    one `complex(re, im)` per entry accepts, with the same values; the decoded
    vector is float64 when every imaginary part is zero."""
    doc = {"format": "mpop-v1", "dims": [2], "vector": entries}
    try:
        want = _complex_per_entry(entries)
    except (TypeError, ValueError, OverflowError):
        with pytest.raises(ValueError):
            state_from_json(doc)
        return
    got = state_from_json(doc).vec
    assert got.dtype == (complex if want.imag.any() else float)
    assert np.array_equal(got, want / np.linalg.norm(want))


def test_map_matrix_entries_reject_strings():
    with pytest.raises(ValueError, match="bad field 'mask'"):
        mapexpr_from_json(_root({"kind": "schur", "mask": {"dim": 1, "entries": [["1.5", 0]]}}))


def test_map_node_count_limit(tmp_path, capsys):
    """A file of `MAX_MAP_NODES` nodes loads and one more is refused before its
    nodes are built; eta at n = 10, the largest catalog file, is well inside."""
    def sum_of(k):
        return _root({"kind": "sum", "children": [{"kind": "identity", "d": 8}] * k})

    assert len(mapexpr_from_json(sum_of(MAX_MAP_NODES - 1)).children) == MAX_MAP_NODES - 1
    with pytest.raises(ValueError, match=f"more than {MAX_MAP_NODES} nodes"):
        mapexpr_from_json(sum_of(MAX_MAP_NODES))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(sum_of(MAX_MAP_NODES + 1)))
    code = main(["detect", "--map-file", str(path), "--n", "3", "--state", "mixed"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:") and "nodes" in err
    with pytest.raises(ValueError, match="nodes"):
        mapexpr_to_json(maps.map_sum(*[identity_map(2)] * MAX_MAP_NODES))

    def written(m):  # nodes the bound counts: a shared subtree once per occurrence,
        # a side-lifts node as its lifts in the sum it leads
        if isinstance(m, maps.SideLifts):
            return sum(written(c) for c in side_lifts(m))
        return 1 + sum(written(c) for c in maps.children(m))

    assert written(build_map("eta", 10, 2).expr) == 4096 <= MAX_MAP_NODES // 8


@pytest.mark.parametrize("map_id, n, d", [("eta", 8, 2), ("phi-tx", 7, 2), ("phi-r", 5, 3),
                                           ("mu-choi", 5, 3), ("phi-b", 4, 4)])
def test_side_lifts_count_as_their_lifts(monkeypatch, map_id, n, d):
    """The writer and the reader bound a catalog map's v4 table by the same
    expanded tree (depth and node count) as its v3 form, where each lift is
    an entry of its own."""
    checked = []
    check = serialize._check_size
    monkeypatch.setattr(serialize, "_check_size", lambda *size: checked.append(size) or check(*size))
    m = build_map(map_id, n, d).expr
    text = json.dumps(mapexpr_to_json(m))
    written = checked[-1]
    roots = []
    for source in (text, v3_text(text)):
        mapexpr_from_json(json.loads(source))
        roots.append(checked[-1])
    assert roots == [written, written]


def test_scan_csv_format():
    rows = [ScanRow(0.1, -0.02236, True), ScanRow(0.34, 0.00184, False)]
    text = scan_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "param,min_eig,detected"
    assert lines[1].startswith("0.1,") and lines[1].endswith(",true")
    assert lines[2].endswith(",false")


def test_dumps_report_deterministic():
    rep = {"b": 1.5, "a": np.float64(0.25), "v": np.array([1 + 2j])}
    assert dumps_report(rep) == dumps_report(rep)
    assert json.loads(dumps_report(rep))["v"] == [[1.0, 2.0]]


@dataclasses.dataclass(frozen=True)
class _Report:
    value: object
    label: str = "x"


# Floats whose tokens a report must keep apart: signed zeros, non-finite values
# and the float neighbours of 0.1.
REPORT_FLOATS = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1,
                                 np.nextafter(0.1, 1), 1e16, -2.5])
REPORT_STRINGS = st.text(alphabet=st.sampled_from(["a", "\0", "\\", '"', "u", "0", "\n"]),
                         max_size=6)


@st.composite
def _report_arrays(draw):
    """A float64 or complex128 array whose parts are drawn bit for bit."""
    shape = draw(st.sampled_from([(0,), (1,), (5,), (2, 3), ()]))
    parts = draw(st.sampled_from([1, 2]))  # real, or [re, im]
    n = parts * int(np.prod(shape))
    floats = np.array(draw(st.lists(REPORT_FLOATS, min_size=n, max_size=n)), dtype=float)
    return floats.view(complex if parts == 2 else float).reshape(shape)


REPORT_LEAVES = st.one_of(
    REPORT_FLOATS, st.integers(-3, 3), st.booleans(), st.none(), REPORT_STRINGS,
    _report_arrays(), st.builds(np.float64, REPORT_FLOATS), st.builds(np.int64, st.integers(-3, 3)),
    st.builds(complex, REPORT_FLOATS, REPORT_FLOATS),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5)))
REPORTS = st.recursive(REPORT_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.tuples(inner, inner),
    st.dictionaries(REPORT_STRINGS, inner, max_size=3),
    st.builds(_Report, inner, REPORT_STRINGS)), max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(REPORTS)
@example({"eigvec": np.array([0.5 + 0.0j, -0.0 - 0.0j]), "min_eig": -0.5, "note": "\0"})
@example({"a": [np.array([1.0, np.nan]), np.array([], dtype=complex)], "b": np.zeros((2, 2))})
@example(_Report(np.array([-0.0, 0.0]), "\0"))
def test_dumps_report_matches_json_dumps_property(report):
    """`dumps_report` prints what `json.dumps` prints of `jsonable(report)`:
    arrays real and complex, empty, non-finite and signed zeros, in nested
    dicts, lists and dataclasses, beside strings that hold NUL characters."""
    assert dumps_report(report) == json.dumps(jsonable(report), sort_keys=True, indent=2) + "\n"


def test_dumps_report_refuses_what_json_refuses():
    """A value `jsonable` leaves as it is and `json.dumps` refuses is refused
    with `json.dumps`' error."""
    report = {"v": np.array([1.0]), "flag": np.bool_(True)}
    with pytest.raises(TypeError) as want:
        json.dumps(jsonable(report), sort_keys=True, indent=2)
    with pytest.raises(TypeError) as got:
        dumps_report(report)
    assert str(got.value) == str(want.value)


def test_mapexpr_decode_shares_equal_subtrees():
    """A reloaded eta shares its phi again, as the catalog tree does, and
    re-encodes to the same text; equal documents become one node, nodes that
    differ in any field (0.0 against -0.0 included) stay apart."""
    text = json.dumps(mapexpr_to_json(eta_map(5).expr))
    m = mapexpr_from_json(json.loads(text))
    assert m.outer.children[1].child.inner is m.outer.children[0]
    assert json.dumps(mapexpr_to_json(m)) == text
    ident = {"kind": "identity", "d": 1}
    doc = {"kind": "sum", "children": [
        {"kind": "scale", "r": r, "child": ident} for r in (0.0, 0.0, -0.0, 1.0)]
        + [{"kind": "schur", "mask": {"dim": 1, "entries": [[e, 0.0]]}} for e in (1.0, 1.0, 2.0)]}
    terms = mapexpr_from_json(_root(doc)).children
    assert terms[0] is terms[1] and terms[3] is not terms[0] and terms[5] is terms[4]
    assert terms[2] is not terms[0] and terms[6] is not terms[4]
    assert len({id(t.child) for t in terms[:4]}) == 1
    back = mapexpr_to_json(mapexpr_from_json(_root(doc)))
    assert json.dumps(inlined(back)) == json.dumps(_root(doc))


def test_equal_table_entries_become_one_node():
    """Equal entries of a mapexpr-v3 table decode to one node, as equal v2
    sub-documents do, and the writer writes a node once however many parents
    share it: the table re-exports with the duplicate entry dropped."""
    ident = {"kind": "identity", "d": 2}
    table = [ident, dict(ident), {"kind": "sum", "children": [0, 1, 1]}]
    m = mapexpr_from_json({"format": "mapexpr-v3", "nodes": table})
    assert m.children[0] is m.children[1] is m.children[2]
    assert mapexpr_to_json(m)["nodes"] == [ident, {"kind": "sum", "children": [0, 0, 0]}]
    # equal nodes that are distinct objects are one entry
    twins = maps.Sum((maps.SchurWith(np.ones((2, 2))), maps.SchurWith(np.ones((2, 2)))))
    assert [e["kind"] for e in mapexpr_to_json(twins)["nodes"]] == ["schur", "sum"]


def _doubling(levels):
    """A sum of two copies of a sum of two copies ..., `levels` deep over an
    identity: 2 ** (levels + 1) - 1 nodes in `levels` + 1 distinct ones."""
    m = identity_map(2)
    for _ in range(levels):
        m = maps.Sum((m, m))
    return m


def test_writer_bounds_the_expanded_tree(tmp_path):
    """The writer counts a shared subtree once per occurrence, as `_eval`
    walks it, and refuses a tree past a bound before the file is opened."""
    text = json.dumps(mapexpr_to_json(_doubling(14)))  # 32767 nodes in 15 entries
    assert len(json.loads(text)["nodes"]) == 15
    assert json.dumps(mapexpr_to_json(mapexpr_from_json(json.loads(text)))) == text
    path = tmp_path / "m.json"
    for m, message in ((_doubling(15), f"more than {MAX_MAP_NODES} nodes"),
                       (_doubling(40), f"more than {MAX_MAP_NODES} nodes"),
                       (compose(*[identity_map(2)] * (MAX_MAP_DEPTH + 1)), "deeper")):
        with pytest.raises(ValueError, match=message):
            save_map(str(path), m)
        assert not path.exists()


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from([2, 3, 4, 8]).flatmap(map_exprs),
                 st.sampled_from([4, 8, 9]).flatmap(lifted_map_exprs), x_projected_exprs(),
                 run_heavy_exprs()))
def test_map_file_is_json_dumps_property(tmp_path_factory, expr):
    """`save_map` writes `json.dumps(mapexpr_to_json(m))` and a newline, the
    bytes of the runs' pair lists `tolist` makes."""
    path = tmp_path_factory.mktemp("maps") / "m.json"
    save_map(str(path), expr)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(mapexpr_to_json(expr)) + "\n"
    assert text == reference_text(serialize._map_doc(expr))


# Entries whose tokens differ in form: signed zeros, NaN with either sign bit,
# infinities, the least subnormal, exponent and fixed notation.
SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5, 0.1]


@st.composite
def entry_arrays(draw):
    """A real or complex vector or square matrix, possibly empty, whose parts
    are drawn from `SPECIAL`, standard normals and any float; drawing from a
    few values repeats entries, drawing from any float rarely does."""
    k = draw(st.integers(0, 6))
    shape = draw(st.sampled_from([(k,), (k, k)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = SPECIAL + rng.standard_normal(3).tolist()
    part = st.one_of(st.sampled_from(pool), st.floats())
    size = int(np.prod(shape))
    arr = np.empty(size, complex if draw(st.booleans()) else float)
    arr.real = draw(st.lists(part, min_size=size, max_size=size))
    if np.iscomplexobj(arr):
        arr.imag = draw(st.lists(part, min_size=size, max_size=size))
    return arr.reshape(shape)


@pytest.mark.parametrize("arr", [
    np.array([-0.0, 0.0, 0.0, -0.0, -0.0]),
    np.array([np.nan, -np.nan, np.nan, 1.0, np.nan]),
    np.array([np.inf, np.inf, -np.inf, -np.inf, np.inf]),
    np.array([2.5]),
    np.array([-0.0 + 0.0j]),
    np.array([1 + 1j, 1 + 1j, 1 + 2j, 1 + 2j, 1 - 0.0j, 1 + 0j, 2 + 0j]),
    np.array([[np.nan + 1j, np.nan + 1j], [np.nan - np.inf * 1j, 0.0]]),
    np.zeros((4, 4)),
], ids=["signed-zeros", "nan", "infinities", "single", "single-complex", "shared-real",
        "complex-specials", "one-run"])
def test_array_text_by_runs(arr):
    """The run-wise text of an array is `json.dumps` of its runs' pair list
    and run lengths: runs of equal bit patterns, never of equal values, so
    -0.0 and 0.0 and the two imaginary parts under one real part stay apart."""
    text = '{"entries": ' + "".join(serialize._pairs_text(arr)) + "}\n"
    assert text == reference_text({"entries": arr})
    doc, pairs = json.loads(text), json.loads(json.dumps(serialize._pairs(arr)))
    got, want = serialize.unpairs(doc["entries"], doc.get("runs"), arr.size), serialize.unpairs(pairs)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_repeated_array_object_written_once(tmp_path, monkeypatch):
    """An array object met twice in one document is turned into text once; an
    equal array that is another object is turned into text on its own."""
    a = np.arange(6.0).reshape(2, 3) - 2.5
    doc = {"x": a, "y": [a, a.copy()], "z": {"w": a}}
    texts = []
    monkeypatch.setattr(serialize, "_pairs_text",
                        lambda arr, f=serialize._pairs_text: texts.append(arr) or f(arr))
    write_json(str(tmp_path / "d.json"), doc)
    assert len(texts) == 2
    assert (tmp_path / "d.json").read_text(encoding="utf-8") == reference_text(doc)


def test_array_with_runs_only_as_a_member_value(tmp_path):
    """An array with runs is written as the value of an object member, where
    its "runs" member can stand beside it; in a list it is refused, not
    written as text that is no JSON, before the file is opened."""
    path = tmp_path / "d.json"
    write_json(str(path), {"x": [np.arange(3.0)], "y": np.zeros(3)})
    assert json.loads(path.read_text()) == {"x": [[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]],
                                            "y": [[0.0, 0.0]], "runs": [3]}
    for doc in ([np.zeros(3)], {"x": [1, np.zeros(3)]}, {"x": {"y": [np.zeros(3)]}},
                {"a": [np.zeros(3)]}, {"a": np.arange(3.0), "b": [np.zeros(3)]}):
        new = tmp_path / "new.json"
        with pytest.raises(ValueError, match="object member"):
            write_json(str(new), doc)
        assert not new.exists()


@settings(max_examples=200, deadline=None)
@given(entry_arrays())
@example(np.zeros(0))
@example(np.zeros((0, 0), complex))
def test_array_text_is_json_dumps_property(tmp_path_factory, arr):
    """`write_json` and `save_state` write an array with the bytes of its
    runs' `tolist` pair list and run lengths through `json.dumps`."""
    path = tmp_path_factory.mktemp("arrays") / "a.json"
    write_json(str(path), {"dim": len(arr), "entries": arr})
    assert path.read_text(encoding="utf-8") == reference_text({"dim": len(arr), "entries": arr})
    if arr.size < 2:
        return
    if arr.ndim == 1:
        if not np.isfinite(arr).all():
            with pytest.raises(ValueError, match="finite"):
                PureState(SiteDims((arr.size,)), arr)
            return
        with np.errstate(over="ignore"):  # a norm past the largest float is inf, not 0
            if np.linalg.norm(arr) == 0:
                return
    state = (MpOperator(SiteDims((len(arr),)), arr) if arr.ndim == 2
             else PureState(SiteDims((arr.size,)), arr))
    save_state(str(path), state)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(state_to_json(state)) + "\n"
    assert text == reference_text(serialize._state_doc(state))
