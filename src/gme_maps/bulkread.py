"""Reading JSON files in bulk, with the strict rule for [re, im] entries.

A projected map file holds a D x D Schur mask and many repeats of a few
lifted children, and `json.loads` would make a Python list per entry.
`BulkDecoder` reads such a text as `json.loads` does, with one change: each
pair list that stands, as `json.dumps` writes it, as the value of "entries",
"vector" or "matrix" is found with `str.find` and parsed once per distinct
text, split into `re, im` cells, each distinct cell parsed once by
`json.loads` under the rules of `unpairs`, and the entries gathered by index
into a `Pairs` array.  A list whose head repeats few cells, such as a random
complex matrix, is left in the text for `json.loads`.  The rest of the text,
with a stand-in string for each such list, is read by `json.loads` once.

A text the bulk route does not take is read by `json.loads` as it stands: a
text without such a list (other whitespace included), a cell that is not one
[re, im] pair of numbers or that a float pair would not show as written, a
pair list under another key, or any exception.  The document is plain JSON
data apart from its `Pairs`, which decode as the list would and show as it
would in an error message, so a decoder gives the strict route's result or
error text from either document.
"""

from __future__ import annotations

import json
from itertools import chain, count
from typing import Any, Sequence

import numpy as np

from .operators import real_or_complex


class Pairs:
    """A pair list the bulk reader parsed, as its array; its repr is the
    list's, which `_parse_pairs` checks, so an error that quotes a document
    holding it reads as the strict route's error."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array

    def __repr__(self) -> str:
        return repr(np.stack((self.array.real, self.array.imag), -1).tolist())


def unpairs(pairs: Sequence[Sequence[float]] | Pairs) -> np.ndarray:
    """Decode [re, im] pairs of JSON numbers (booleans count, as in `complex`);
    a pair list the bulk reader already parsed gives its array."""
    if isinstance(pairs, Pairs):
        return pairs.array
    pairs = list(pairs)
    if set(map(len, pairs)) - {2}:
        raise ValueError("every matrix entry must be an [re, im] pair")
    flat = list(chain.from_iterable(pairs))
    sum(flat)  # raises TypeError unless every part is a number
    return real_or_complex(np.array(flat, dtype=float).view(complex))


# The keys whose pair lists the bulk reader parses itself.
_ARRAY_KEYS = frozenset(("entries", "vector", "matrix"))
# Followed by a number, stands in for a pair list while json.loads reads the
# rest of a text that has no "\u0000" escape.
_STAND_IN = "\0"
# Characters at the head of a pair list probed for repeated cells.
_PROBE = 1 << 12
# Characters of a pair list split into cells at a time: this bounds the list
# of cell strings, which at D = 1024 would hold a million of them (~60 MB).
_CHUNK = 1 << 16


class BulkDecoder:
    """Reads a JSON text in bulk: `json.load(fh, cls=BulkDecoder)`, which calls
    `BulkDecoder().decode(text)`; it takes none of `json.load`'s options."""

    def decode(self, s: str) -> Any:
        try:
            doc = _bulk_parse(s)
        except Exception:  # any failure hands the text to the strict route
            doc = None
        return json.loads(s) if doc is None else doc


def _pair_list_spans(text: str) -> list[tuple[int, int]]:
    """(start, end) of each `[[` ... `]]` that stands after `"entries": `,
    `"vector": ` or `"matrix": ` as `json.dumps` writes them and whose head
    repeats cells, in text order; the list ends at the first `]]`.

    A list whose head (`_PROBE` characters) repeats fewer than one cell in
    two after the first, such as a random complex matrix, is left to
    `json.loads`: splitting and indexing it would cost more than they save.
    """
    spans = []
    at = text.find('": [[')
    while at >= 0:
        start = at + 3
        if text[text.rfind('"', 0, at) + 1:at] in _ARRAY_KEYS:
            head = text[start + 2:start + 2 + _PROBE].split("]]", 1)[0].split("], [")
            if 2 * (len(set(head)) - 1) < len(head):  # a repeat per two cells
                end = text.index("]]", start) + 2
                spans.append((start, end))
                start = end
        at = text.find('": [[', start)
    return spans


def _parse_pairs(payload: str) -> Pairs:
    """The pair list whose cells, joined by "], [", are `payload`.

    The cells are split off `_CHUNK` characters at a time and each distinct
    cell is parsed once, by `json.loads` and `unpairs`; the entries are then
    gathered by index.  A cell whose float pair does not show as its parsed
    cell does (an integer or boolean part, or an imaginary -0.0 of a real
    list) is refused, so the result shows as the list does.
    """
    index, at, start = {}, [], 0
    while start <= len(payload):
        stop = payload.find("], [", start + _CHUNK)
        stop = len(payload) if stop < 0 else stop
        cells = payload[start:stop].split("], [")
        index.update(zip(set(cells).difference(index), count(len(index))))
        at.append(np.fromiter(map(index.__getitem__, cells), np.intp, len(cells)))
        start = stop + 4
    body = "], [".join(index)
    if body.count("[") != len(index) - 1 or body.count("]") != len(index) - 1:
        raise ValueError("a cell is not one [re, im] pair")
    parsed = json.loads(f"[[{body}]]")
    distinct = Pairs(unpairs(parsed))
    if repr(distinct) != repr(parsed):
        raise ValueError("a cell is not shown as its float pair")
    return Pairs(distinct.array[np.concatenate(at)])


def _bulk_parse(text: str) -> dict | None:
    """`json.loads(text)` with each pair list of an array key parsed by
    `_parse_pairs` once per distinct text; None when the bulk route does not
    take the text."""
    spans = _pair_list_spans(text)
    if not spans or '\\u0000' in text:  # none, or a string taken for a stand-in
        return None
    arrays, tokens, pieces, prev = {}, {}, [], 0  # stand-in: pair list; payload: token
    for start, end in spans:
        payload = text[start + 2:end - 2]
        if payload not in tokens:
            stand_in = f"{_STAND_IN}{len(arrays)}"
            arrays[stand_in] = _parse_pairs(payload)
            tokens[payload] = json.dumps(stand_in)
        pieces += text[prev:start], tokens[payload]
        prev = end
    pieces.append(text[prev:])
    del tokens

    def put_arrays(pairs: list[tuple[str, Any]]) -> dict:
        for i, (k, v) in enumerate(pairs):
            if v.__class__ is str and v[:1] == _STAND_IN:
                if k not in _ARRAY_KEYS:  # a key such as "x\"entries"
                    raise ValueError("pair list under another key")
                pairs[i] = k, arrays[v]
        return dict(pairs)

    doc = json.loads("".join(pieces), object_pairs_hook=put_arrays)
    return doc if type(doc) is dict else None
