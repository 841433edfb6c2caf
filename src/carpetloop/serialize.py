"""JSON and text formats for spaces, loops, words, and certificates.

All rationals serialize as "p/q" strings so round trips are exact.
Hashes are sha256 over a canonical JSON encoding (sorted keys, no
whitespace), so two descriptions of the same object hash equally.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from functools import lru_cache
from typing import Any, Iterable, Optional

from .errors import CarpetLoopError
from .grid import (
    Corridor,
    DefiningSequence,
    EXPLICIT,
    FULL_CARPET,
    GridSquare,
    PolyLoop,
    corridors,
)
from .freegroup import FreeWord
from .words import CrossingInterval, CyclicWord, Letter, crossing_relation


class FormatError(CarpetLoopError):
    """Input text or JSON does not parse."""


def frac_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise FormatError(f"bad rational {s!r}") from e


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Spaces


def space_to_json(seq: DefiningSequence) -> dict:
    return {
        "depth": seq.depth,
        "pattern": seq.pattern,
        "removed": [[q.level, q.k, q.m] for q in seq.holes_up_to(seq.depth)],
    }


def space_from_json(data: dict) -> DefiningSequence:
    try:
        depth = int(data["depth"])
        pattern = data["pattern"]
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad space object: {e}") from e
    if pattern == FULL_CARPET:
        seq = DefiningSequence.full_carpet(depth)
        if "removed" in data and data["removed"] != space_to_json(seq)["removed"]:
            raise FormatError("removed list disagrees with the full pattern")
        return seq
    if pattern != EXPLICIT:
        raise FormatError(f"unknown pattern {pattern!r}")
    try:
        removed = [(int(l), int(k), int(m)) for l, k, m in data.get("removed", [])]
    except (TypeError, ValueError) as e:
        raise FormatError(f"bad removed list: {e}") from e
    try:
        return DefiningSequence.explicit(depth, removed)
    except (ValueError, CarpetLoopError) as e:
        raise FormatError(str(e)) from e


@lru_cache(maxsize=None)
def space_hash(seq: DefiningSequence) -> str:
    return sha256_hex(canonical_json(space_to_json(seq)))


# ---------------------------------------------------------------------------
# Loops


def loop_to_json(loop: PolyLoop) -> dict:
    return {"vertices": [[frac_text(x), frac_text(y)] for x, y in loop.vertices]}


def loop_from_json(data: dict) -> PolyLoop:
    try:
        verts = [(parse_frac(x), parse_frac(y)) for x, y in data["vertices"]]
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad loop object: {e}") from e
    try:
        return PolyLoop(tuple(verts))
    except ValueError as e:
        raise FormatError(str(e)) from e


def loop_hash(loop: PolyLoop) -> str:
    return sha256_hex(canonical_json(loop_to_json(loop)))


# ---------------------------------------------------------------------------
# Corridor words

_LETTER_RE = re.compile(r"^([HV]):(\d+):(\d+):(-?\d+/\d+)([+-])$")


def word_to_text(word: CyclicWord) -> str:
    return word.text


def parse_word(text: str, seq: DefiningSequence, level: Optional[int] = None) -> CyclicWord:
    """Rebuild a word from letter tokens like "H:2:1:0/1+".

    Crossing positions are not part of the text, so letters get evenly
    spaced synthetic intervals; algebraic operations and realization do
    not depend on them.
    """
    tokens = text.split()
    letters = []
    n = max(1, len(tokens))
    by_id: dict[tuple, Corridor] = {}
    lv = level
    for j, tok in enumerate(tokens):
        m = _LETTER_RE.match(tok)
        if not m:
            raise FormatError(f"bad letter token {tok!r}")
        orient, li, stratum, ext, sgn = m.groups()
        li = int(li)
        if lv is None:
            lv = li
        if li != lv:
            raise FormatError(f"letter {tok!r} is not at level {lv}")
        if not by_id:
            by_id = {c.id: c for c in corridors(seq, lv)}
        ident = (orient, li, int(stratum), parse_frac(ext))
        corr = by_id.get(ident)
        if corr is None:
            raise FormatError(f"no corridor {tok[:-1]!r} in this space")
        sign = 1 if sgn == "+" else -1
        start = Fraction(j, n)
        interval = CrossingInterval(start, start + Fraction(1, 2 * n), corr, sign)
        letters.append(Letter(corr, sign, interval))
    if lv is None:
        if level is None:
            raise FormatError("empty word needs an explicit level")
        lv = level
    present = {l.generator for l in letters}
    relation = frozenset(
        pair for pair in crossing_relation(seq, lv) if pair <= present
    )
    return CyclicWord(lv, tuple(letters), relation)


# ---------------------------------------------------------------------------
# Free-group words

_GEN_RE = re.compile(r"^g\[(\d+),(\d+),(\d+)\](?:\^(-?\d+))?$")


def free_word_to_text(word: FreeWord) -> str:
    return word.text


def parse_free_word(text: str, seq: Optional[DefiningSequence] = None) -> FreeWord:
    letters: list[tuple[GridSquare, int]] = []
    for tok in text.split():
        m = _GEN_RE.match(tok)
        if not m:
            raise FormatError(f"bad generator token {tok!r}")
        lv, k, mm, e = m.groups()
        try:
            sq = GridSquare(int(lv), int(k), int(mm))
        except ValueError as err:
            raise FormatError(str(err)) from err
        exp = int(e) if e else 1
        if seq is not None and sq not in seq.removed:
            raise FormatError(f"{tok!r} is not a removed square of this space")
        if exp == 0:
            continue
        step = 1 if exp > 0 else -1
        letters.extend((sq, step) for _ in range(abs(exp)))
    return FreeWord(tuple(letters))


# ---------------------------------------------------------------------------
# Diagrams and schemes


def diagram_to_json(pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    return [list(p) for p in sorted(tuple(sorted(p)) for p in pairs)]


def scheme_to_json(words: Iterable[CyclicWord], diagrams) -> dict:
    return {
        "words": [w.text for w in words],
        "diagrams": [diagram_to_json(d.sorted_pairs) for d in diagrams],
    }
