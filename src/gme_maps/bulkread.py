"""Reading JSON files in bulk, with the strict rule for [re, im] entries.

A projected map file holds a D x D Schur mask and many repeats of a few
lifted children; `json.loads` would make a Python list per entry and the
decoder would decode every repeat.  `BulkDecoder` reads such a text in three
steps:

- each pair list that stands, as `json.dumps` writes it, as the value of
  "entries", "vector" or "matrix" is found with `str.find` and parsed once
  per distinct text: split into `re, im` cells, each distinct cell parsed
  once by `json.loads` under the rules of `unpairs`, the entries gathered by
  index (a list whose head repeats few cells, such as a random complex
  matrix, is left in the text for `json.loads`);
- the rest of the text, with a stand-in string for each such list, is read by
  `json.loads`, which interns equal sub-documents to one object, so a decoder
  that keeps what it decoded by identity decodes each distinct one once;
- anything else goes the strict route, `json.loads` of the text as it
  stands: a text without such a list (other whitespace included), a cell
  that is not one [re, im] pair of numbers, a pair list under another key,
  or any exception.

The result is a `Bulk` document, which keeps its text so that a decoder can
fall back to the strict route too.
"""

from __future__ import annotations

import json
from itertools import chain, count
from typing import Any, Sequence

import numpy as np

from .operators import real_or_complex


def unpairs(pairs: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    """Decode [re, im] pairs of JSON numbers (booleans count, as in `complex`);
    an array the bulk reader already decoded is returned as it is."""
    if isinstance(pairs, np.ndarray):
        return pairs
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
# The values a sub-document's intern key holds as they are, next to their
# type; it holds a float by its bits and any other value by identity (a list
# by its items' identities, so equal lists of small ints match).
_BY_VALUE = frozenset((str, int, bool, type(None)))


class Bulk(dict):
    """A document the bulk reader parsed, with the text it was read from."""

    __slots__ = ("text",)


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


def _parse_pairs(payload: str) -> np.ndarray:
    """The array of a pair list whose cells, joined by "], [", are `payload`.

    The cells are split off `_CHUNK` characters at a time and each distinct
    cell is parsed once, by `json.loads` and `unpairs`; the entries are then
    gathered by index.
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
    return unpairs(json.loads(f"[[{body}]]"))[np.concatenate(at)]


def _bulk_parse(text: str) -> Bulk | None:
    """The document of `text`, each pair list of an array key parsed by
    `_parse_pairs` once per distinct text and equal sub-documents interned, so
    they are one object; None when the bulk route does not take the text."""
    spans = _pair_list_spans(text)
    if not spans or '\\u0000' in text:  # none, or a string taken for a stand-in
        return None
    arrays, tokens, pieces, prev = {}, {}, [], 0  # stand-in: array; payload: token
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
    memo = {}

    def intern(pairs: list[tuple[str, Any]]) -> dict:
        key = tuple([(k, v.__class__, v if v.__class__ in _BY_VALUE else
                      v.hex() if v.__class__ is float else
                      tuple(map(id, v)) if v.__class__ is list else id(v)) for k, v in pairs])
        doc = memo.get(key)
        if doc is None:
            for i, (k, v) in enumerate(pairs):
                if v.__class__ is str and v[:1] == _STAND_IN:
                    if k not in _ARRAY_KEYS:  # a key such as "x\"entries"
                        raise ValueError("pair list under another key")
                    pairs[i] = k, arrays[v]
            doc = memo[key] = dict(pairs)
        return doc

    doc = json.loads("".join(pieces), object_pairs_hook=intern)
    if type(doc) is not dict:
        return None
    doc = Bulk(doc)
    doc.text = text
    return doc
