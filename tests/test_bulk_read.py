"""Arrays read by runs against the same documents with every run spelled out.

A file is read by `json.load` and one decoder.  For every input, as written
(mapexpr-v3, mpop-v2), hand-written as a mapexpr-v2 tree, or edited, the
document reads as its spelled-out form (`helpers.spelled_out`, each pair list
entry by entry as mapexpr-v1 and mpop-v1 wrote it) reads: to a tree that
re-exports to the same bytes with the same number of distinct nodes, or to
the same ValueError text.
"""

import functools
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gme_maps import maps, serialize
from gme_maps.cli import main
from gme_maps.criteria import MAP_IDS, build_map, map_to_witness
from gme_maps.maps import dual
from gme_maps.operators import MpOperator, SiteDims
from gme_maps.serialize import (MAP_FORMAT_V2, MAX_MAP_DEPTH, MAX_MAP_NODES, STATE_FORMAT,
                                mapexpr_from_json, mapexpr_to_json, save_state,
                                state_from_json, state_to_json, unpairs)
from gme_maps.states import PureState, ghz, w_state
from helpers import (density_op, lifted_map_exprs, map_exprs, run_heavy_exprs, spelled_out,
                     v1_text, v2_text, v3_text, x_projected_exprs)


def _map_summary(m):
    """The map's file text, `json.dumps(mapexpr_to_json(m))` as `save_map`
    writes it, and its number of distinct nodes."""
    return "".join(serialize._chunks(serialize._map_doc(m))), len(list(maps.nodes(m)))


def _state_summary(s):
    arr = s.vec if isinstance(s, PureState) else s.mat
    return type(s).__name__, s.dims, arr.dtype.str, arr.tobytes()


MAP = (mapexpr_from_json, _map_summary)
STATE = (state_from_json, _state_summary)


def _outcome(parse, decode, summary):
    try:
        return "ok", summary(decode(parse()))
    except ValueError as exc:  # the text's JSON error or the decoder's
        return "error", repr(exc)


def _agree(text, kind=MAP):
    """Check that `text` and its runs spelled out read alike; return that
    outcome, ("ok", summary) or ("error", repr)."""
    want = _outcome(lambda: json.loads(text), *kind)
    if want[0] == "error" and want[1].startswith("JSONDecodeError"):
        return want
    assert _outcome(lambda: spelled_out(json.loads(text)), *kind) == want
    return want


def _written(doc):
    """The text `write_json` writes for `doc`, without its newline."""
    return "".join(serialize._chunks(doc))


#: the local dimensions `build_map` takes for each catalog id, up to 6
LOCAL_DIMS = {"phi-t": (2, 3, 4, 5, 6), "phi-tx": (2,), "eta": (2,),
              "phi-r": (2, 3, 4, 5, 6), "phi-b": (4, 6), "mu-choi": (3, 4, 5, 6)}
EXPORTS_UP_TO_256 = [(map_id, n, d) for map_id in MAP_IDS for d in LOCAL_DIMS[map_id]
                     for n in range(3, 9) if d ** n <= 256]


@pytest.mark.parametrize("map_id,n,d", EXPORTS_UP_TO_256)
def test_catalog_exports_read_in_bulk(map_id, n, d):
    """Every catalog export with D <= 256 and its dual reads to its tree as
    written, re-indented and in its v2 and v1 forms."""
    m = build_map(map_id, n, d).expr
    for expr in (m, dual(m)):
        doc, want = mapexpr_to_json(expr), _map_summary(expr)
        text = json.dumps(doc)
        assert _agree(text) == ("ok", want)
        for other in (json.dumps(doc, indent=1), v2_text(text), v1_text(text)):
            assert _outcome(lambda: json.loads(other), *MAP) == ("ok", want)


def test_each_distinct_pair_list_and_sub_document_once(monkeypatch):
    """eta at n = 8 has 20 distinct nodes (its 127 lifts one side-lifts node)
    and 5 distinct array objects; its v2 form spells out 1024 node
    occurrences, 255 of them holding an array.  Its table writes each node
    once and each array object as text once, and reading it decodes 20
    entries, where its v2 form decodes 1024 sub-documents to the same 20
    distinct nodes."""
    written, write = Counter(), serialize._pairs_text
    monkeypatch.setattr(serialize, "_pairs_text", lambda arr: written.update([id(arr)]) or write(arr))
    expr = build_map("eta", 8, 2).expr
    text = json.dumps(mapexpr_to_json(expr))
    assert text.count('"kind"') == 20 and text.count('"entries": [[') == 5
    assert len(text) <= 20_000
    assert len(written) == 5 and set(written.values()) == {1}
    old = v2_text(text)
    assert old.count('"entries": [[') == 255 and old.count('"kind"') == 1024
    decoded, decode = Counter(), serialize._node_from_json
    monkeypatch.setattr(serialize, "_node_from_json",
                        lambda doc, *rest: decoded.update([id(doc)]) or decode(doc, *rest))
    for source, count in ((text, 20), (old, 1024)):
        decoded.clear()
        assert len(list(maps.nodes(mapexpr_from_json(json.loads(source))))) == 20
        assert sum(decoded.values()) == count


@pytest.mark.usefixtures("fresh_maps")
def test_lift_parities_once_per_child(monkeypatch):
    """The lifts of one side size share their child, whose parities are
    worked out once; eta at n = 8 has 127 lifts and 4 children, as built and
    read from its v3 form, where each lift is an entry of its own."""
    calls = Counter()
    work = maps.MapExpr.parities.func

    def counted(node):
        calls[id(node)] += 1
        return work(node)

    parities = functools.cached_property(counted)
    parities.__set_name__(maps.MapExpr, "parities")
    monkeypatch.setattr(maps.MapExpr, "parities", parities)
    m = build_map("eta", 8, 2).expr
    v3 = v3_text(json.dumps(mapexpr_to_json(m)))
    assert v3.count('"kind": "lift"') == 127
    for expr in (m, mapexpr_from_json(json.loads(v3))):
        calls.clear()
        [side] = [node for node in maps.nodes(expr) if isinstance(node, maps.SideLifts)]
        assert len(side.children) == 4 and side.graded is not None
        assert set(calls.values()) == {1}
        assert {id(c) for c in side.children} <= set(calls)


# A mask of 27 x 27 entries and a file of repeated conjugations.
BASE = json.dumps(mapexpr_to_json(build_map("mu-choi", 3, 3).expr))
CONJ = json.dumps(mapexpr_to_json(build_map("phi-tx", 3, 2).expr))


def _first_cell(text):
    """(start, end) of the first cell of the first pair list in `text`."""
    start = text.index('"entries": [[') + len('"entries": [[')
    return start, text.index("]", start)


def _with_first_cell(text, cell):
    start, end = _first_cell(text)
    return text[:start] + cell + text[end:]


TOKENS = ["1, 0", "true, false", "false, 1", "NaN, 0.0", "Infinity, 0.0",
          "-Infinity, 1.0", "-0.0, -0.0", "1e400, 0.0", f"{10 ** 400}, 0", "0.0, 1e-400",
          '"1.0", 0.0', "null, 0.0", "1.0", "1.0, 0.0, 0.0", "", "1.0 , 0.0", "01.0, 0.0",
          "1.0, 0.0]"]


@pytest.mark.parametrize("cell", TOKENS)
@pytest.mark.parametrize("text", [BASE, CONJ], ids=["mask", "conjugate"])
def test_entry_tokens(text, cell):
    """int, bool, NaN, +-Infinity, -0.0, 1e400 and 10**400 tokens, and cells
    that are no [re, im] pair, at the head of a run of a mask and of a
    repeated conjugation."""
    assert '"runs": [' in text
    _agree(_with_first_cell(text, cell))


def _whitespace_variants(text):
    first = text.index("], [")
    return {
        "indent": json.dumps(json.loads(text), indent=1),
        "compact": json.dumps(json.loads(text), separators=(",", ":")),
        "one-cell-compact": text[:first] + "],[" + text[first + 4:],
        "one-cell-newline": text[:first] + "],\n [" + text[first + 4:],
        "tab-after-key": text.replace('"entries": [[', '"entries":\t[[', 1),
        "space-in-list": text.replace('"entries": [[', '"entries": [ [', 1),
    }


@pytest.mark.parametrize("variant", sorted(_whitespace_variants(CONJ)))
def test_other_whitespace(variant):
    """Whitespace does not change what a file reads to."""
    for text in (BASE, CONJ):
        assert _agree(_whitespace_variants(text)[variant]) == _agree(text)


def test_malformed_lists():
    """A truncated list, a list without its closing brackets, and a ]] inside a list."""
    start, end = _first_cell(BASE)
    cases = [
        BASE[:start + 20],
        BASE[:len(BASE) // 2],
        BASE[:start] + "[1.0, 0.0]" + BASE[end:],  # a nested pair
        BASE[:start] + "1.0, 0.0]], [[0.0, 0.0" + BASE[end:],
        BASE.replace("]]", "]", 1),
        BASE.replace("]]", "] ]", 1),
        BASE.replace('"entries": [[', '"entries": [[[', 1),
        CONJ.replace("]]}", "]]]}", 1),
        '{"entries": [[1.0, 0.0]',
        '[{"entries": [[1.0, 0.0]]}]',
        '{"format": "mapexpr-v2", "root": {"entries": [[1.0, 0.0]]}}',
        '{"entries": [[1.0, 0.0]]} {"x": 1}',
    ]
    for text in cases:
        _agree(text)


def _schur(entries):
    return f'{{"kind": "schur", "mask": {{"dim": 1, "entries": {entries}}}}}'


def _doc(root):
    """A hand-written mapexpr-v2 text: a tree of nested node objects."""
    return f'{{"format": "{MAP_FORMAT_V2}", "root": {root}}}'


def _sum(children):
    return f'{{"kind": "sum", "children": [{", ".join(children)}]}}'


def test_pair_lists_under_other_keys():
    """A pair list under an unknown key, under "parties", after an
    escaped-quote key, inside a string, where an integer belongs (its error
    quotes the list), duplicate keys, and runs beside them."""
    lift = ('{"kind": "lift", "child": {"kind": "identity", "d": 2}, '
            '"parties": PARTIES, "dims": [2, 2]}')
    cases = [
        _doc(_schur('[[2.0, 0.0]], "foo": [[1.0, 0.0]]')),
        _doc(_schur('[[2.0, 0.0]]').replace('"kind"', '"foo": [[1.0, 0.0]], "kind"')),
        _doc(lift.replace("PARTIES", "[[1.0, 0.0]]")),
        _doc(lift.replace("PARTIES", "[[0, 1]]")),
        _doc(_schur('[[2.0, 0.0]], "x\\"entries": [[1.0, 0.0]]')),
        _doc(_schur('[[2.0, 0.0]], "x\\\\"entries": [[1.0, 0.0]]')),
        _doc(_schur('[[2.0, 0.0]], "note": "\\"entries\\": [[1.0, 0.0]]"')),
        _doc(_schur('[[2.0, 0.0]], "entries": [[3.0, 0.0]]')),
        _doc(_schur('[[2.0, 0.0]], "entries": 5')),
        _doc(_schur('5, "entries": [[3.0, 0.0]]')),
        _doc(_schur('[[2.0, 0.0]], "dim": 1.0')),
        _doc('{"kind": "transpose", "d": {"dim": 1, "entries": [[1.0, 0.0]]}}'),
        _doc(_schur('"\\u00000"')),
        _doc(_sum([_schur("[[1.0, 0.0]]"), _schur('"\\u00000"')])),
        _doc(_schur('[[2.0, 0.0]]')).replace('"root"', '"root": 1, "root"'),
        _doc(_schur('[[2.0, 0.0]], "runs": [1]')),
        _doc(_schur('[[2.0, 0.0]], "runs": [1], "runs": [2]')),
        _doc(_schur('[[2.0, 0.0]], "x\\"runs": [2]')),
        '{"format": "mpop-v2", "dims": [1], "vector": [[1.0, 0.0]], "matrix": [[1.0, 0.0]]}',
        '{"format": "mpop-v2", "dims": [2], "vector": [[1.0, 0.0]], "runs": [2], '
        '"matrix": [[1.0, 0.0]]}',
    ]
    for text in cases:
        _agree(text)
        _agree(text, STATE)


@pytest.mark.parametrize("cells,taken", [
    ("[[1.0, 0.0]]", True), ("[[1.0, 2.0], [1.0, 2.0]]", True), ("[[NaN, 0.0]]", True),
    ("[[1.0, -0.0], [1.0, -0.0]]", False), ("[[1, 0]]", False), ("[[true, 0.0]]", False)])
def test_errors_quote_pair_lists_as_parsed(cells, taken):
    """A pair list inside a value an error quotes (a number, a flag, a kind, a
    format) is quoted as `json.loads` parsed it.  `taken`: the list is the
    [re, im] pairs of the array it decodes to, as a writer gives them; an
    integer or boolean part, or a real list's -0.0 imaginary part, is not."""
    parsed = json.loads(cells)
    assert (json.dumps(serialize._pairs(unpairs(parsed))) == cells) == taken
    matrix = f'{{"dim": 1, "entries": {cells}}}'
    texts = [_doc(f'{{"kind": "transpose", "d": {matrix}}}'),
             _doc(f'{{"kind": "scale", "r": [{matrix}], "child": {{"kind": "identity", "d": 2}}}}'),
             _doc(f'{{"kind": "choi", "d": 2, "adjoint": {matrix}}}'),
             _doc(f'{{"kind": {matrix}}}'),
             f'{{"format": {matrix}, "root": {{"kind": "identity", "d": 2}}}}']
    for text in texts:
        outcome = _agree(text)
        assert outcome[0] == "error" and repr(parsed) in outcome[1]
        assert _agree(text, STATE)[0] == "error"


@pytest.mark.parametrize("first,second", [
    ("1.0", "1"), ("1", "true"), ("0.0", "-0.0"), ("0", "false"), ("3", "3.0")])
def test_sub_documents_equal_only_in_value(first, second):
    """Sub-documents whose fields are equal in Python but differ in JSON type
    or sign are shared apart: a scale factor, a dimension and a flag."""
    for node in ('{{"kind": "scale", "r": {}, "child": {{"kind": "identity", "d": 3}}}}',
                 '{{"kind": "identity", "d": {}}}',
                 '{{"kind": "choi", "d": 3, "adjoint": {}}}'):
        for pair in ((first, second), (second, first)):
            _agree(_doc(_sum([node.format(v) for v in pair])))


def test_stand_in_only_under_array_keys():
    """A "runs" member is read only beside the pair list of an array: one on
    a node or on the document is left alone, and the text reads as it does
    without it."""
    plain = _doc(_schur("[[2.0, 0.0]]"))
    for text in (plain.replace('"kind"', '"runs": [3], "kind"'),
                 plain.replace('"root"', '"runs": [3], "root"')):
        assert _agree(text) == _agree(plain) and _agree(plain)[0] == "ok"


def _vector_text(cells):
    """A state document whose "vector" is the pair list text `cells`."""
    return f'{{"format": "{STATE_FORMAT}", "dims": [{cells.count("[") - 1}], "vector": {cells}}}'


@pytest.mark.parametrize("values", [
    [0.5],  # a run of one cell, the whole list
    [0.5] * 7,  # one run, the whole list
    [0.5] * 3 + [0.25] + [0.5] * 3,  # a run of one cell between runs
    [1.0, 0.0] * 4,  # alternating cells, every run of one
    [1.0, 1.0 + 0.05j, 1.0 + 0.05j, 1.0],  # "[1.0, 0.0]" then "[1.0, 0.05]"
    [0.0, 0.0, -0.0, -0.0, -0.0, 0.0],  # adjacent 0.0 and -0.0 runs
    [0.5j, 0.5j, complex(0.0, -0.0), complex(0.0, -0.0)],  # an imaginary -0.0 run
], ids=["one-cell", "whole-list", "single-between", "alternating", "prefix", "signed-zeros",
        "imag-zero"])
def test_runs_decode_entry_by_entry(values):
    """A pair list read run by run gives every entry's bits, as the same list
    spelled out does."""
    arr = np.array(values)
    text = _written({"format": STATE_FORMAT, "dims": [len(arr)], "vector": arr})
    _agree(text, STATE)  # the vector is not normalised: both forms refuse it alike
    doc = json.loads(text)
    assert ("runs" in doc) == (len(doc["vector"]) < len(values))
    got = unpairs(doc["vector"], doc.get("runs"), len(values))
    want = unpairs(json.loads(json.dumps(serialize._pairs(arr))))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert want.tobytes() == unpairs(spelled_out(doc)["vector"]).tobytes()


@pytest.mark.parametrize("tail", [
    "],  [1.0, 0.0]]",  # two spaces
    "],[1.0, 0.0]]",  # no space
    "] , [1.0, 0.0]]",  # a space before the comma
    "],\n[1.0, 0.0]]",  # a newline
    "]; [1.0, 0.0]]",  # another separator
    "], x[1.0, 0.0]]",  # a gap
    "], [1.0, 0.0], ]",  # a trailing separator
    "], [1.0, [0.0]]]",  # a bracket inside a cell
])
def test_runs_off_the_separator_take_the_strict_route(tail):
    """Cells that repeat, separated otherwise than by ", ", read as
    `json.loads` reads them: a text it parses reads as its canonical
    `json.dumps` form, any other fails with json's error."""
    text = _vector_text("[" + "[1.0, 0.0], " * 6 + "[1.0, 0.0" + tail)
    outcome = _agree(text, STATE)
    try:
        canonical = json.dumps(json.loads(text))
    except ValueError:
        assert outcome[1].startswith("JSONDecodeError")
    else:
        assert outcome == _agree(canonical, STATE)


def test_list_without_repeats_left_to_json_loads():
    """In one document a mask that repeats one cell is written as that cell
    and its run, and a random unitary, whose cells do not repeat, as its full
    pair list without runs."""
    z = np.random.default_rng(1).standard_normal((2, 4, 4))
    u = np.linalg.qr(z[0] + 1j * z[1])[0]
    text = json.dumps(mapexpr_to_json(maps.Sum((maps.SchurWith(np.ones((4, 4))),
                                                maps.Conjugate(u)))))
    _agree(text)
    entries = {e["kind"]: e for e in json.loads(text)["nodes"]}
    schur, conj = entries["schur"], entries["conjugate"]
    assert schur["mask"] == {"dim": 4, "entries": [[1.0, 0.0]], "runs": [16]}
    assert set(conj["u"]) == {"dim", "entries"} and conj["u"]["entries"] == serialize._pairs(u)


@pytest.mark.parametrize("extra", [0, 1])
def test_repeats_count_against_the_node_limit(extra):
    """A repeated sub-document of 3 nodes, one shared node, counts all its
    nodes at each repeat: 1 + 3k nodes load up to `MAX_MAP_NODES` and one more
    is refused."""
    k = (MAX_MAP_NODES - 1) // 3
    pair = _sum([_schur("[[1.0, 0.0]]")] * 2)
    text = _doc(_sum([pair] * k + [_schur("[[1.0, 0.0]]")] * (MAX_MAP_NODES - 1 - 3 * k + extra)))
    outcome = _agree(text)
    if extra:
        assert outcome[0] == "error" and f"more than {MAX_MAP_NODES} nodes" in outcome[1]
    else:
        assert outcome[0] == "ok"
        m = mapexpr_from_json(json.loads(text))
        assert len(m.children) == k + MAX_MAP_NODES - 1 - 3 * k


def _chain(height):
    """A chain of `height` compose levels over a Schur node: height + 1 deep."""
    node = _schur("[[1.0, 0.0]]")
    for _ in range(height):
        node = f'{{"kind": "compose", "outer": {{"kind": "identity", "d": 1}}, "inner": {node}}}'
    return node


@pytest.mark.parametrize("extra", [0, 1])
def test_repeats_count_against_the_depth_limit(extra):
    """A sub-document first met near the root and again deeper counts its
    depth where it is met again."""
    shared = _chain(40)  # 41 levels
    wrapped = shared
    for _ in range(MAX_MAP_DEPTH - 42 + extra):
        wrapped = f'{{"kind": "compose", "outer": {{"kind": "identity", "d": 1}}, "inner": {wrapped}}}'
    outcome = _agree(_doc(_sum([shared, wrapped])))
    if extra:
        assert outcome[0] == "error" and "deeper" in outcome[1]
    else:
        assert outcome[0] == "ok"


# The entry lists of test_serialize's `test_entry_decoding_accepts_what_complex_accepts`.
ENTRY_LISTS = [
    [[1, 0], [0, 0]], [[0.5, -0.0], [0.25, 1e-300]], [[True, False], [0, 1]],
    [["1.5", 0], [0, 1]], [[1, "0"], [0, 1]], [[None, 0], [0, 1]], [[1], [0, 1, 2]],
    [[1, 0], [0, 1, 2]], [[1], [0]], ["ab", [0, 1]], [{"a": 1, "b": 2}, [0, 1]],
    [[[1], 0], [0, 1]], [[1, 0], 5], [[10 ** 400, 0], [0, 1]], "ab", 5, None,
]


@pytest.mark.parametrize("entries", ENTRY_LISTS, ids=range(len(ENTRY_LISTS)))
def test_state_entry_lists(entries):
    """The entry lists as a 2-vector and, twice over, as a 2 x 2 matrix, each
    also with a run of one per pair, which reads as no runs."""
    for key, cells in (("vector", entries),
                       ("matrix", entries * 2 if isinstance(entries, list) else entries)):
        doc = {"format": STATE_FORMAT, "dims": [2], key: cells}
        outcome = _agree(json.dumps(doc), STATE)
        if isinstance(cells, list):
            assert _agree(json.dumps({**doc, "runs": [1] * len(cells)}), STATE) == outcome


def test_state_and_witness_files(tmp_path):
    """State and witness files as `save_state` writes them, read by
    `load_state`, also in their v1 form; a random density matrix, whose
    entries do not repeat, is written without runs and every other file with
    them, the D = 256 diagonal one with 65 536 entries in 511 runs."""
    rng = np.random.default_rng(3)
    objs = [ghz(3, 3), w_state(4), density_op((2, 2, 2), rng),
            MpOperator(SiteDims((2, 2)), np.diag([0.5, -0.0, 0.25, 0.25])),
            map_to_witness(build_map("phi-tx", 4, 2), ghz(4, 2)),
            map_to_witness(build_map("mu-choi", 3, 3), ghz(3, 3)),
            # a distinct cell at every diagonal entry
            MpOperator(SiteDims((2,) * 8), np.diag(np.arange(1, 257) / 32896))]
    for i, obj in enumerate(objs):
        path = tmp_path / "s.json"
        save_state(str(path), obj)
        text = path.read_text(encoding="utf-8")
        _agree(text, STATE)
        assert ('"runs": [' in text) == (i != 2)
        assert i != 6 or len(json.loads(text)["runs"]) == 511
        assert _state_summary(serialize.load_state(str(path))) == _state_summary(obj)
        assert text == json.dumps(state_to_json(obj)) + "\n"
        path.write_text(v1_text(text), encoding="utf-8")
        assert _state_summary(serialize.load_state(str(path))) == _state_summary(obj)


def test_map_file_reindented_reads_through_the_cli(tmp_path, capsys):
    """`detect --map-file` gives the same report on a map file, on the same
    document re-indented and on its v2 and v1 forms."""
    path = tmp_path / "m.json"
    assert main(["detect", "--map", "mu-choi", "--n", "3", "--d", "3", "--state", "ghz",
                 "--export-map", str(path)]) == 0
    capsys.readouterr()
    text = path.read_text()
    (tmp_path / "i.json").write_text(json.dumps(json.loads(text), indent=1))
    (tmp_path / "v2.json").write_text(v2_text(text))
    (tmp_path / "v1.json").write_text(v1_text(text))
    reports = []
    for name in ("m.json", "i.json", "v2.json", "v1.json"):
        assert main(["detect", "--map-file", str(tmp_path / name), "--state", "ghz"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2] == reports[3]


# Edits that a text may suffer: each keeps the rest of the text as it is.
MUTATIONS = ["none", "indent", "truncate", "drop-char", "insert-char", "swap-token",
             "compact-cell", "dup-key"]
INSERTS = ["[", "]", "]]", ",", " ", "\n", '"', "\\", "0", "-", "e"]


def _mutate(data, text):
    how = data.draw(st.sampled_from(MUTATIONS))
    at = data.draw(st.integers(0, len(text)))
    if how == "indent":
        return json.dumps(json.loads(text), indent=data.draw(st.sampled_from([None, 0, 1])))
    if how == "truncate":
        return text[:at]
    if how == "drop-char":
        return text[:at] + text[at + 1:]
    if how == "insert-char":
        return text[:at] + data.draw(st.sampled_from(INSERTS)) + text[at:]
    if how == "swap-token":
        token = data.draw(st.sampled_from([t.split(",")[0] for t in TOKENS]))
        digits = [i for i, c in enumerate(text) if c.isdigit()]
        if digits:
            i = digits[at % len(digits)]
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in ".e-+"):
                j += 1
            return text[:i] + token + text[j:]
    if how == "compact-cell" and "], [" in text[at:]:
        i = text.index("], [", at)
        return text[:i] + "],[" + text[i + 4:]
    if how == "dup-key" and '"entries": ' in text[at:]:
        i = text.index('"entries": ', at)
        return text[:i] + '"entries": [[7.0, 0.0]], ' + text[i:]
    return text


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from([2, 3, 4]).flatmap(map_exprs),
                 st.sampled_from([4, 8, 9]).flatmap(lifted_map_exprs), x_projected_exprs(),
                 run_heavy_exprs()),
       st.data())
def test_bulk_read_property(expr, data):
    """A map document, as written or edited, reads as its runs spelled out."""
    text = json.dumps(mapexpr_to_json(expr))
    outcome = _agree(text)
    assert outcome[0] == "ok" and outcome[1][0] == text
    _agree(_mutate(data, text))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.booleans(), st.integers(0, 2 ** 32 - 1), st.data())
def test_bulk_state_read_property(k, matrix, seed, data):
    """A state or witness document, as written or edited, reads as its runs
    spelled out."""
    rng = np.random.default_rng(seed)
    pool = [0.0, -0.0, 1.0, 0.5, np.nan, np.inf, -np.inf, 5e-324] + rng.standard_normal(2).tolist()
    shape = (k, k) if matrix else (k,)
    with np.errstate(invalid="ignore"):  # 1j * inf
        arr = rng.choice(pool, shape) + (1j * rng.choice(pool, shape) if rng.random() < 0.5 else 0)
    text = _written({"format": STATE_FORMAT, "dims": [k], "matrix" if matrix else "vector": arr})
    _agree(text, STATE)
    _agree(_mutate(data, text), STATE)
