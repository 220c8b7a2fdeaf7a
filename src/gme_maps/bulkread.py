"""Reading JSON files in bulk, with the strict rule for [re, im] entries.

A projected map file holds a D x D Schur mask and many repeats of a few
lifted children, and `json.loads` would make a Python list per entry.
`BulkDecoder` reads such a text as `json.loads` does, except that each pair
list written as `json.dumps` writes it under "entries", "vector" or "matrix"
is, unless its head repeats few cells, read run by run into a `Pairs` array,
each distinct head probed and each distinct list read once.  The rest of the
text, with a stand-in string for each such list, is read by `json.loads` once.

Any other text, a cell that is not a float pair shown as written, a pair
list under another key, or any exception sends the text to `json.loads` as
it stands.  `Pairs` decode as the list would and show as it would in an
error message, so a decoder gives the strict route's result or error text
from either document.
"""

from __future__ import annotations

import json
import re
from itertools import chain, count, islice
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
# One run of a cell and its repeats, and the separator after it: a cell is
# the text of one bracket pair with no bracket inside.
_RUN = re.compile(r"(\[[^][]*\])(?:, \1)*(?:, |\Z)")
# Runs read at a time: this bounds the match objects held, which for a
# D = 1024 list of distinct cells would be a million.
_BATCH = 1 << 12


class BulkDecoder:
    """Reads a JSON text in bulk: `json.load(fh, cls=BulkDecoder)`, which calls
    `BulkDecoder().decode(text)`; it takes none of `json.load`'s options."""

    def decode(self, s: str) -> Any:
        try:
            doc = _bulk_parse(s)
        except Exception:  # any failure hands the text to the strict route
            doc = None
        return json.loads(s) if doc is None else doc


def _repeats(head: str) -> bool:
    """Whether `head`, the first `_PROBE` characters of a pair list's cells
    up to its end, repeats a cell per two; a list that does not, such as a
    random complex matrix, costs more to read by runs than `json.loads` takes."""
    cells = head.split("], [")
    return 2 * (len(set(cells)) - 1) < len(cells)


def _parse_pairs(text: str, pos: int, endpos: int) -> Pairs:
    """The pair list whose cells, joined by ", ", are `text[pos:endpos]`, which
    the runs `_RUN` finds must tile.  Each distinct cell is parsed once, by
    `json.loads` and `unpairs`; one whose float pair would show otherwise (an
    integer or boolean part, or a real list's imaginary -0.0) is refused."""
    index, at, counts, runs = {}, [], [], _RUN.finditer(text, pos, endpos)
    while batch := [(m[1], m.end() - m.start()) for m in islice(runs, _BATCH)]:
        cells, lengths = zip(*batch)
        index.update(zip(set(cells).difference(index), count(len(index))))
        at.append(np.fromiter(map(index.__getitem__, cells), np.intp, len(cells)))
        counts.append((np.array(lengths) + 2) // (np.fromiter(map(len, cells), np.intp) + 2))
        pos += sum(lengths)  # the runs neither overlap nor leave the span
    if pos != endpos:
        raise ValueError("the runs do not tile the list")
    body = ", ".join(index)
    del index  # a million cell strings at D = 1024 when no cell repeats
    parsed = json.loads(f"[{body}]")
    distinct = Pairs(unpairs(parsed))
    if repr(distinct) != repr(parsed):
        raise ValueError("a cell is not shown as its float pair")
    return Pairs(np.repeat(distinct.array[np.concatenate(at)], np.concatenate(counts)))


def _bulk_parse(text: str) -> dict | None:
    """`json.loads(text)` with each pair list of an array key that `_repeats`
    read by `_parse_pairs`; each distinct head is probed once and each distinct
    list read once.  None when the bulk route does not take the text."""
    arrays, probed, tokens, pieces, prev = {}, {}, {}, [], 0  # stand-in: Pairs; list: token
    at = text.find('": [[')
    while at >= 0:
        start = at + 3
        if text[text.rfind('"', 0, at) + 1:at] in _ARRAY_KEYS:
            head = text[start + 2:start + 2 + _PROBE].split("]]", 1)[0]
            if head not in probed:
                probed[head] = _repeats(head)
            if probed[head]:  # only then is the list's end looked for
                end = text.index("]]", start) + 2
                key = text[start:end]
                if key not in tokens:
                    stand_in = f"{_STAND_IN}{len(arrays)}"
                    arrays[stand_in] = _parse_pairs(text, start + 1, end - 1)
                    tokens[key] = json.dumps(stand_in)
                pieces += text[prev:start], tokens[key]
                prev = start = end
        at = text.find('": [[', start)
    if not arrays or '\\u0000' in text:  # none, or a string taken for a stand-in
        return None
    pieces.append(text[prev:])
    del probed, tokens

    def put_arrays(pairs: list[tuple[str, Any]]) -> dict:
        for i, (k, v) in enumerate(pairs):
            if v.__class__ is str and v[:1] == _STAND_IN:
                if k not in _ARRAY_KEYS:  # a key such as "x\"entries"
                    raise ValueError("pair list under another key")
                pairs[i] = k, arrays[v]
        return dict(pairs)

    doc = json.loads("".join(pieces), object_pairs_hook=put_arrays)
    return doc if type(doc) is dict else None
