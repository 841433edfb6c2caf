"""JSON and text formats for spaces, loops, words, and certificates.

All rationals serialize as "p/q" strings so round trips are exact.
Hashes are sha256 over a canonical JSON encoding (sorted keys, no
whitespace), so two descriptions of the same object hash equally.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any, Iterable

from .errors import CarpetLoopError
from .grid import DefiningSequence, EXPLICIT, FULL_CARPET, PolyLoop, per_space
from .words import CyclicWord


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
        try:
            seq = DefiningSequence.full_carpet(depth)
        except ValueError as e:
            raise FormatError(str(e)) from e
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


@per_space
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
# Diagrams and schemes


def diagram_to_json(pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    return [list(p) for p in sorted(tuple(sorted(p)) for p in pairs)]


def scheme_to_json(words: Iterable[CyclicWord], diagrams) -> dict:
    return {
        "words": [w.text for w in words],
        "diagrams": [diagram_to_json(d.sorted_pairs) for d in diagrams],
    }
