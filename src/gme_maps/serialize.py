"""JSON formats for states (mpop-v2), map expressions (mapexpr-v4) and CSV reports.

Complex scalars are encoded as [re, im] pairs, a real entry as [re, 0.0].  An
array is the row-major flat list of its runs of equal bit patterns, one pair
per run, and, when some run is longer than one, a "runs" member beside it
holding the run lengths.  Files are written with each array's text built in
bulk, byte for byte what `json.dumps` gives of the documents `state_to_json`
and `mapexpr_to_json` return, and each distinct array object turned into text
once per document.  Decoded arrays follow the dtype rule of
`operators.real_or_complex`.  Documents carry an explicit "format" field so
files stay self-describing.

A mapexpr-v4 document is a table of the map's distinct nodes, children
before parents and the root last, in which a child field holds the index of
an earlier entry.  The lifts onto every bipartition side are one
"side-lifts" entry (`maps.SideLifts`), its "children" one per side size, so
a catalog map is O(n) entries.  A mapexpr-v3 document is the same table
with those lifts spelled out as one "lift" entry per side, at the head of a
sum, which the sum makes one side-lifts node again when it is read.  A
mapexpr-v2 document nests each child's node object in its parent, so a
shared subtree is spelled out at every occurrence.

Files are opened by `reading` and read by `json.load`.  A v1 document
(mpop-v1, mapexpr-v1) spells every entry out and has no "runs", and the same
decoders read it.  An array read or written holds at most `MAX_RUN_ENTRIES`
entries, the size a document declares checked before any entry is copied,
and a "runs" list before it is expanded: one integer >= 1 per pair, summing
to that size.  Equal nodes decode to one shared node by value (`_share_key`).
`MAX_MAP_NODES` and `MAX_MAP_DEPTH` bound the expanded tree, the one map
evaluation walks, so a shared subtree counts once per occurrence, and a
side-lifts node counts as its lifts in the sum it leads: one lift node and
its child per side, counted without listing the sides.  Only a mapexpr-v4
document may hold a side-lifts node.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import gc
import io
import json
from fractions import Fraction
from itertools import chain
from typing import Any, Callable, Iterator, TextIO

import numpy as np

from .criteria import MAX_DIM
from .grades import side_counts
from .maps import (BreuerHall, Choi, Compose, Conjugate, DiagAll, Identity,
                   Lift, MapExpr, Reduction, Scale, SchurWith, SideLifts, Sum,
                   TraceIdentity, TraceOuter, Transpose, node_fields, nodes)
from .operators import MpOperator, PartySubset, SiteDims, real_or_complex
from .states import PureState

STATE_FORMAT, STATE_FORMAT_V1 = "mpop-v2", "mpop-v1"
MAP_FORMAT, MAP_FORMAT_V3 = "mapexpr-v4", "mapexpr-v3"
MAP_FORMAT_V2, MAP_FORMAT_V1 = "mapexpr-v2", "mapexpr-v1"
# The most entries a "runs" list may stand for: a MAX_DIM x MAX_DIM matrix.
MAX_RUN_ENTRIES = MAX_DIM ** 2


def _pairs(arr: np.ndarray) -> list[list[float]]:
    flat = np.asarray(arr).reshape(-1)  # float64 or complex128; a float's imag is 0.0
    return np.stack((flat.real, flat.imag), -1).tolist()


def _tokens(part: np.ndarray) -> list[str]:
    """The entries of a real array as their `json.dumps` tokens.  Each distinct
    bit pattern is formatted once, so -0.0 keeps its own token."""
    bits, at = np.unique(np.asarray(part, np.float64).view(np.uint64), return_inverse=True)
    values = bits.view(np.float64)
    tokens = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        tokens[i] = json.dumps(float(values[i]))  # NaN, Infinity, -Infinity
    return np.array(tokens, dtype=object)[at.reshape(-1)].tolist()


def _pairs_text(arr: np.ndarray) -> tuple[str, str]:
    """The text of an array's entries: the [re, im] pair list of its runs of
    equal bit patterns, one pair per run, and the text of a "runs" member
    with the run lengths when some run is longer than one, else ""."""
    flat = np.asarray(arr).reshape(-1)
    head = np.zeros(flat.size, dtype=bool)
    head[:1] = True
    for part in (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat.real,):
        bits = np.ascontiguousarray(part, np.float64).view(np.uint64)
        head[1:] |= bits[1:] != bits[:-1]
    starts = np.flatnonzero(head)
    ims = _tokens(flat.imag[starts]) if np.iscomplexobj(flat) else ["0.0"] * len(starts)
    text = "[" + ", ".join(map("[{}, {}]".format, _tokens(flat.real[starts]), ims)) + "]"
    if len(starts) == flat.size:
        return text, ""
    return text, ', "runs": ' + json.dumps(np.diff(starts, append=flat.size).tolist())


def _check_entries(size: int) -> None:
    if size > MAX_RUN_ENTRIES:
        raise ValueError(f"{size} entries exceed the supported maximum {MAX_RUN_ENTRIES}")


def unpairs(pairs: Any, runs: Any = None, size: int = 0) -> np.ndarray:
    """Decode [re, im] pairs of JSON numbers (booleans count, as in `complex`)
    of an array of `size` entries, checked first.  With `runs`, the i-th pair
    stands for runs[i] equal entries; the counts are checked before any entry
    is repeated."""
    _check_entries(size)
    pairs = list(pairs)
    if set(map(len, pairs)) - {2}:
        raise ValueError("every matrix entry must be an [re, im] pair")
    flat = list(chain.from_iterable(pairs))
    sum(flat)  # raises TypeError unless every part is a number
    values = real_or_complex(np.array(flat, dtype=float).view(complex))
    if runs is None:
        return values
    if not isinstance(runs, list):
        raise ValueError(f"runs must be a list, got {type(runs).__name__}")
    if set(map(type, runs)) - {int}:  # booleans are refused
        bad = next(k for k in runs if type(k) is not int)
        raise ValueError(f"run counts must be integers, got {bad!r}")
    if len(runs) != values.size:
        raise ValueError(f"{len(runs)} run counts for {values.size} pairs")
    if runs and min(runs) < 1:
        raise ValueError(f"run counts must be >= 1, got {min(runs)}")
    if sum(runs) != size:
        raise ValueError(f"run counts sum to {sum(runs)}, not {size}")
    return np.repeat(values, runs)


# Stands in for an array while json.dumps writes the rest of a document or
# report: a document holds no other string with a NUL in it.
_HOLE = "\0"


def _chunks(doc: Any) -> list[str]:
    """The text of `json.dumps(doc)` in pieces, each array in `doc`, the value
    of an object member, written by runs by `_pairs_text`; an array over
    `MAX_RUN_ENTRIES`, or with runs but not a member value, raises before any
    piece is returned."""
    arrays, texts = [], {}

    def hold(obj: Any) -> str:
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        _check_entries(obj.size)
        arrays.append(obj)
        return _HOLE

    pieces = json.dumps(doc, default=hold).split(json.dumps(_HOLE))
    out = [pieces[0]]
    for arr, before, tail in zip(arrays, pieces[:-1], pieces[1:], strict=True):
        if id(arr) not in texts:  # `arrays` keeps every array, so ids stay unique
            texts[id(arr)] = _pairs_text(arr)
        entries, runs = texts[id(arr)]
        if runs and not before.endswith('": '):
            raise ValueError("an array with runs must be the value of an object member")
        out += [entries, runs, tail]
    return out


def _plain(doc: Any) -> Any:
    """`doc` as plain JSON data, arrays as their runs' [re, im] pair lists and
    "runs" members: the parsed text `write_json` writes for it."""
    return json.loads("".join(_chunks(doc)))


def _state_doc(obj: MpOperator | PureState) -> dict:
    if isinstance(obj, PureState):
        return {"format": STATE_FORMAT, "dims": list(obj.dims.dims), "vector": obj.vec}
    return {"format": STATE_FORMAT, "dims": list(obj.dims.dims), "matrix": obj.mat}


def state_to_json(obj: MpOperator | PureState) -> dict:
    return _plain(_state_doc(obj))


def state_from_json(doc: Any) -> MpOperator | PureState:
    if not isinstance(doc, dict):
        raise ValueError(f"state document must be a JSON object, got {type(doc).__name__}")
    fmt = doc.get("format")
    if fmt not in (STATE_FORMAT, STATE_FORMAT_V1):
        raise ValueError(f"expected format {STATE_FORMAT!r} or {STATE_FORMAT_V1!r}, got {fmt!r}")
    if "dims" not in doc:
        raise ValueError(f"{fmt} document: missing field 'dims'")
    try:
        dims = SiteDims(_json_ints(doc["dims"]))
    except ValueError as exc:
        raise ValueError(f"{fmt} document: bad field 'dims': {exc}") from None
    try:
        D = dims.total
        if "vector" in doc:
            vec = unpairs(doc["vector"], doc.get("runs"), D)
            if vec.shape != (D,):
                raise ValueError("vector length does not match dims")
            return PureState(dims, vec)
        if "matrix" in doc:
            mat = unpairs(doc["matrix"], doc.get("runs"), D * D)
            if mat.size != D * D:
                raise ValueError("matrix size does not match dims")
            return MpOperator(dims, mat.reshape(D, D))
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed {fmt} document: {exc}") from None
    raise ValueError("state document needs a 'vector' or 'matrix' field")


@contextlib.contextmanager
def reading(path: str, what: str) -> Iterator[TextIO]:
    """The file at `path`, opened as UTF-8 and parsed and decoded in the block,
    which raises a RecursionError as "<what> is nested too deeply".  The cyclic
    garbage collector is paused meanwhile: every list the parse makes stays
    live until the document is freed whole, so a collection then frees nothing
    and only promotes the document, whose lists later full collections walk
    (~8 ms each after eta n = 8 files)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None
    finally:
        if enabled:
            gc.enable()


def load_state(path: str) -> MpOperator | PureState:
    with reading(path, "state file") as fh:
        return state_from_json(json.load(fh))


def write_json(path: str, doc: Any) -> None:
    """Write `json.dumps(doc)` and a newline, each array in `doc`, the value
    of an object member, written by runs in bulk; a document `_chunks` refuses
    is refused before the file is opened."""
    chunks = _chunks(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks + ["\n"])


def save_state(path: str, obj: MpOperator | PureState) -> None:
    write_json(path, _state_doc(obj))


def _mat_doc(arr: np.ndarray) -> dict:
    return {"dim": int(arr.shape[0]), "entries": arr}


def _mat_undoc(doc: dict) -> np.ndarray:
    d = _json_int(doc["dim"])
    entries = unpairs(doc["entries"], doc.get("runs"), d * d)
    if d < 0 or entries.size != d * d:
        raise ValueError(f"dim {d} does not match {entries.size} entries")
    return entries.reshape(d, d)


def _json_int(v: Any) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def _json_bool(v: Any) -> bool:
    if not isinstance(v, bool):
        raise ValueError(f"expected true or false, got {v!r}")
    return v


def _json_float(v: Any) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected a number, got {v!r}")
    return float(v)


def _json_ints(v: Any) -> tuple[int, ...]:
    if not isinstance(v, list):
        raise ValueError(f"expected a list of integers, got {v!r}")
    return tuple(_json_int(x) for x in v)


# mapexpr names each node kind; every other key is a constructor field of
# the node's class, with `dim` written as "d", encoded by its declared type.
_KINDS = {Identity: "identity", Transpose: "transpose", Reduction: "reduction",
         BreuerHall: "breuer-hall", Choi: "choi", Conjugate: "conjugate",
         DiagAll: "diag", TraceIdentity: "trace-identity", TraceOuter: "trace-outer",
         SchurWith: "schur", Lift: "lift", Sum: "sum", Scale: "scale",
         Compose: "compose", SideLifts: "side-lifts"}
_NODE_CLASSES = {kind: cls for cls, kind in _KINDS.items()}
# the kinds a mapexpr-v3, v2 or v1 document may hold
_OLD_NODE_CLASSES = {kind: cls for kind, cls in _NODE_CLASSES.items() if cls is not SideLifts}
_NODE_LIST = tuple[MapExpr, ...]
# (encode, decode) of each declared field type other than child nodes; decoding
# accepts only the JSON type the encoder writes
_CODECS = {
    int: (int, _json_int),
    bool: (bool, _json_bool),
    float: (float, _json_float),
    Fraction: (str, Fraction),
    np.ndarray: (_mat_doc, _mat_undoc),
    PartySubset: (lambda p: list(p.members), lambda v: PartySubset(_json_ints(v))),
    SiteDims: (lambda s: list(s.dims), lambda v: SiteDims(_json_ints(v))),
}
# Deeper than any catalog tree (at most 9 levels) by a wide margin.
MAX_MAP_DEPTH = 64
# More nodes than any catalog tree (eta at n = 10 has 4096) by a wide margin; a
# shared subtree counts once per occurrence, as evaluation walks it, and a
# side-lifts node as its lifts, one lift node and its child per side.
MAX_MAP_NODES = 1 << 15


def node_kind(m: MapExpr) -> str:
    """The mapexpr kind name of a node."""
    return _KINDS[type(m)]


def _key(name: str) -> str:
    return "d" if name == "dim" else name


def _check_size(depth: int, count: int) -> None:
    """Raise once a tree's depth passes `MAX_MAP_DEPTH` or its count of nodes
    `MAX_MAP_NODES`."""
    if depth > MAX_MAP_DEPTH:
        raise ValueError(f"map tree is deeper than {MAX_MAP_DEPTH} levels")
    if count > MAX_MAP_NODES:
        raise ValueError(f"map tree has more than {MAX_MAP_NODES} nodes")


def _tree_size(sizes: list[tuple[int, int]], kids: list[int], node: MapExpr
               ) -> tuple[int, int]:
    """(depth, count) of the expanded tree of `node`, whose children are the
    entries `kids` of a table whose entries have `sizes`, a child counted at
    each occurrence; checked against the bounds.  A side-lifts node counts as
    its lifts do in the sum it leads, the tree a mapexpr-v3 file spells out:
    child k under a lift node once per side of k parties (`side_counts`, no
    side listed), and no node of its own.  One plain loop: the writer and the
    reader run it once per entry."""
    depth, count = 0, 1
    for k in kids:
        below, size = sizes[k]
        if below > depth:
            depth = below
        count += size
    if isinstance(node, SideLifts):
        count = sum(m * (1 + sizes[k][1]) for m, k in zip(side_counts(node.dims.n), kids))
    _check_size(depth + 1, count)
    return depth + 1, count


def _share_key(value: Any) -> Any:
    """A hashable stand-in for a decoded field value.

    Nodes count by identity, because equal nodes already decode to one node;
    arrays by shape and bytes; floats by their bits, so 0.0 and -0.0 stay
    apart and re-encode as written.
    """
    if isinstance(value, MapExpr):
        return id(value)
    if isinstance(value, tuple):
        return tuple(map(_share_key, value))
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    return value


def _map_doc(m: MapExpr) -> dict:
    """The mapexpr-v4 document of a map: each distinct node (`maps.nodes`) once,
    children first, and nodes equal as the reader shares them (`_share_key`,
    a child by its entry) as one entry.  The expanded tree is checked against
    the bounds entry by entry."""
    entries, at, index, sizes = [], {}, {}, []
    for node in reversed(list(nodes(m))):
        kind = _KINDS.get(type(node))
        if kind is None:
            raise TypeError(f"cannot serialize map node {type(node).__name__}")
        entry, kids, key = {"kind": kind}, [], [type(node)]
        for name, tp, _ in node_fields(type(node)):
            value = getattr(node, name)
            if tp is MapExpr or tp == _NODE_LIST:
                value = [index[id(c)] for c in (value if tp == _NODE_LIST else (value,))]
                kids += value
                key.append(tuple(value))
                entry[_key(name)] = value if tp == _NODE_LIST else value[0]
            else:
                key.append(_share_key(value))
                entry[_key(name)] = _CODECS[tp][0](value)
        key = tuple(key)
        if key not in at:
            at[key] = len(entries)
            sizes.append(_tree_size(sizes, kids, node))
            entries.append(entry)
        index[id(node)] = at[key]
    return {"format": MAP_FORMAT, "nodes": entries}


def _node_from_json(doc: Any, shared: dict, child: Callable[[Any], MapExpr],
                    classes: dict[str, type] = _OLD_NODE_CLASSES) -> MapExpr:
    """Decode one node object of a kind in `classes`, the value of each child
    field resolved by `child`; equal nodes decode to the node kept in
    `shared`."""
    if not isinstance(doc, dict):
        raise ValueError(f"map node must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    cls = classes.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown map node kind {kind!r}")
    args = {}
    for name, tp, required in node_fields(cls):
        key = _key(name)
        if key not in doc:
            if required:
                raise ValueError(f"{kind} node: missing field {key!r}")
            continue
        value = doc[key]
        if tp is MapExpr:
            args[name] = child(value)
        elif tp == _NODE_LIST:
            if not isinstance(value, list):
                raise ValueError(f"{kind} node: field {key!r} must be a list")
            args[name] = tuple(map(child, value))
        else:
            try:
                args[name] = _CODECS[tp][1](value)
            except (TypeError, ValueError, KeyError, OverflowError, ZeroDivisionError) as exc:
                raise ValueError(f"{kind} node: bad field {key!r}: {exc}") from None
    key = (cls,) + tuple((name, _share_key(v)) for name, v in args.items())
    if key not in shared:
        shared[key] = cls(**args)
    return shared[key]


def _tree_from_json(doc: Any, shared: dict, count: list[int], depth: int = 1) -> MapExpr:
    """Decode a mapexpr-v2 or v1 node object and the sub-documents nested in
    it; each occurrence is counted in `count` and checked before it is decoded."""
    count[0] += 1
    _check_size(depth, count[0])
    return _node_from_json(doc, shared, lambda c: _tree_from_json(c, shared, count, depth + 1))


def _table_from_json(table: Any, fmt: str) -> MapExpr:
    """Decode the node table of a mapexpr-v4 or v3 document, each entry
    once, in order, and return its last entry.  A child is the index of an
    earlier entry, and the expanded tree of each entry is checked once it is
    built, which takes no more than its fields."""
    if not isinstance(table, list):
        raise ValueError(f"{fmt} document: 'nodes' must be a list, got {type(table).__name__}")
    if not table:
        raise ValueError(f"{fmt} document: 'nodes' is empty")
    classes = _NODE_CLASSES if fmt == MAP_FORMAT else _OLD_NODE_CLASSES
    _check_size(1, len(table))
    built, sizes, shared, kids = [], [], {}, []

    def child(i: Any) -> MapExpr:
        if type(i) is not int:  # booleans are refused
            raise ValueError(f"map node {len(built)}: a child must be an entry index, got {i!r}")
        if not 0 <= i < len(built):
            raise ValueError(f"map node {len(built)}: child {i} is not an earlier entry")
        kids.append(i)
        return built[i]

    for doc in table:
        kids.clear()
        built.append(_node_from_json(doc, shared, child, classes))
        sizes.append(_tree_size(sizes, kids, built[-1]))
    return built[-1]


def mapexpr_to_json(m: MapExpr) -> dict:
    return _plain(_map_doc(m))


def save_map(path: str, m: MapExpr) -> None:
    """Write the mapexpr-v4 file of a map: `json.dumps(mapexpr_to_json(m))`
    and a newline; a map past the bounds is refused before the file is opened."""
    write_json(path, _map_doc(m))


def mapexpr_from_json(doc: Any) -> MapExpr:
    """Decode a mapexpr-v4, v3, v2 or v1 document; equal nodes decode to one
    shared node, so a subtree the written map shared is shared again."""
    if not isinstance(doc, dict):
        raise ValueError(f"map document must be a JSON object, got {type(doc).__name__}")
    fmt = doc.get("format")
    if fmt in (MAP_FORMAT, MAP_FORMAT_V3):
        return _table_from_json(doc.get("nodes"), fmt)
    if fmt in (MAP_FORMAT_V2, MAP_FORMAT_V1):
        return _tree_from_json(doc.get("root"), {}, [0])
    raise ValueError(f"expected format {MAP_FORMAT!r}, {MAP_FORMAT_V3!r}, {MAP_FORMAT_V2!r} "
                     f"or {MAP_FORMAT_V1!r}, got {fmt!r}")


def jsonable(obj: Any) -> Any:
    """Recursively convert reports/dataclasses to JSON-serialisable values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return _pairs(obj)
        return [float(x) for x in obj.reshape(-1)]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def _report_array(arr: np.ndarray, before: str) -> str:
    """`jsonable(arr)` as `json.dumps(..., indent=2)` writes it after the text
    `before`, each distinct bit pattern formatted once by `_tokens`."""
    flat, line = arr.reshape(-1), before[before.rfind("\n") + 1:]
    item = "\n" + " " * (len(line) - len(line.lstrip(" "))) + "  "
    if np.iscomplexobj(flat):
        pair = f"[{item}  {{}},{item}  {{}}{item}]"
        cells = map(pair.format, _tokens(flat.real), _tokens(flat.imag))
    else:
        cells = _tokens(flat)
    return f"[{item}{(',' + item).join(cells)}{item[:-2]}]" if flat.size else "[]"


def dumps_report(obj: Any) -> str:
    """Deterministic JSON text for a report object, `json.dumps(jsonable(obj),
    sort_keys=True, indent=2)` and a newline: each float or complex array is
    written into a hole by `_report_array`, unless a string of the report
    holds the hole's escape."""
    arrays: list[np.ndarray] = []

    def hold(o: Any) -> Any:  # json.dumps' default: a hole, or `jsonable` one level deep
        if type(o) is np.ndarray and o.dtype.char in "dD":
            arrays.append(o)
            return _HOLE
        if dataclasses.is_dataclass(o) and not isinstance(o, type):
            return {f.name: getattr(o, f.name) for f in dataclasses.fields(o)}
        if (value := jsonable(o)) is o:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        return value

    text = json.dumps(obj, sort_keys=True, indent=2, default=hold)
    if arrays and text.count("\\u0000") != len(arrays):  # a string holds the escape
        text = json.dumps(jsonable(obj), sort_keys=True, indent=2)
    elif arrays:
        pieces = text.split(json.dumps(_HOLE))
        text = pieces[0] + "".join(_report_array(arr, before) + tail for arr, before, tail
                                   in zip(arrays, pieces, pieces[1:]))
    return text + "\n"


def scan_csv(rows) -> str:
    """CSV text with header param,min_eig,detected."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["param", "min_eig", "detected"])
    for r in rows:
        writer.writerow([repr(float(r.param)), repr(float(r.min_eig)),
                         "true" if r.detected else "false"])
    return buf.getvalue()
