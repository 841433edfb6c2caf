"""Seeded inputs whose answers are known by construction.

Every case is a space JSON, a loop JSON and the verdict the decider must
give.  Loops come in three families:

- out-and-back: a walk between kept even-even cells at some level,
  followed by its exact reversal.  Contractible, so the verdict is a
  conclusive TrivialUpTo at the space's depth.
- zig-zag: an out-and-back word repeated k times.  Also contractible.
- ring: a square drawn half a depth-cell outside a chosen removed hole.
  Its coordinates have no ternary digit 1 past the hole's level, so it
  meets no deeper hole; it encloses nothing at shallower levels and
  exactly that hole at its own level, so the verdict is Nontrivial at
  the hole's level with a witness conjugate to that hole's generator.

Walk words are realized with the library's `realize_word`.  A draw that
cannot be routed, fails validation, or puts a vertex on a puncture ray
is redrawn from the same random stream, so the inputs depend only on
the seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

from carpetloop import (
    CrossingInterval,
    CyclicWord,
    DefiningSequence,
    Letter,
    Nontrivial,
    PolyLoop,
    TrivialUpTo,
    corridors,
    crossing_relation,
    eligible_squares,
    puncture_word,
    realize_word,
    validate_loop,
)
from carpetloop.errors import DegeneratePosition, Unroutable
from carpetloop.serialize import loop_to_json, space_from_json

MOVES = ((1, 0), (-1, 0), (0, 1), (0, -1))
MAX_DRAWS = 1000


@dataclass(frozen=True)
class Case:
    kind: str  # "out_and_back" | "zigzag" | "ring"
    space: dict
    loop: dict
    # ("trivial", depth) or ("nontrivial", level, "g[level,k,m]")
    expect: tuple


def full_carpet_json(depth: int) -> dict:
    return {"depth": depth, "pattern": "full_carpet"}


def explicit_space_json(depth: int, rng: random.Random, keep: float) -> dict:
    """Each level's eligible squares, each kept with probability `keep`."""
    grid = DefiningSequence.full_carpet(depth)
    removed = []
    for i in range(1, depth + 1):
        for sq in sorted(eligible_squares(grid, i), key=lambda q: q.key()):
            if rng.random() < keep:
                removed.append(list(sq.key()))
    return {"depth": depth, "pattern": "explicit", "removed": removed}


def _lane_table(seq: DefiningSequence, level: int) -> dict:
    table = {}
    for c in corridors(seq, level):
        e0, e1 = c.extent_units()
        for lane in range(e0, e1):
            table[(c.orientation, c.stratum, lane)] = c
    return table


def _move_ok(seq: DefiningSequence, level: int, cell, move) -> bool:
    n = 3**level
    a, b = cell[0] + 2 * move[0], cell[1] + 2 * move[1]
    return (
        0 <= a < n
        and 0 <= b < n
        and seq.cell_in_space(cell[0] + move[0], cell[1] + move[1], level)
        and seq.cell_in_space(a, b, level)
    )


def _crossing(table: dict, cell, move):
    """Corridor and sign of the strip crossed by a two-cell move."""
    a, b = cell
    if move[0]:
        stratum = (a + 2) // 2 if move[0] > 0 else a // 2
        return table[("V", stratum, b)], move[0]
    stratum = (b + 2) // 2 if move[1] > 0 else b // 2
    return table[("H", stratum, a)], move[1]


def _walk(seq, level, rng, moves):
    """A walk of exactly `moves` steps between kept even-even cells, or None."""
    half = (3**level + 1) // 2
    while True:
        cell = (2 * rng.randrange(half), 2 * rng.randrange(half))
        if seq.cell_in_space(cell[0], cell[1], level):
            break
    steps = []
    for _ in range(moves):
        opts = [mv for mv in MOVES if _move_ok(seq, level, cell, mv)]
        if not opts:
            return None
        mv = rng.choice(opts)
        steps.append((cell, mv))
        cell = (cell[0] + 2 * mv[0], cell[1] + 2 * mv[1])
    return steps


def _word(seq, level, pairs) -> CyclicWord:
    """A cyclic word over (corridor, sign) pairs with placeholder intervals."""
    n = len(pairs)
    letters = []
    for j, (corr, sign) in enumerate(pairs):
        start = Fraction(j, n)
        iv = CrossingInterval(start, start + Fraction(1, 2 * n), corr, sign)
        letters.append(Letter(corr, sign, iv))
    present = {l.generator for l in letters}
    rel = frozenset(p for p in crossing_relation(seq, level) if p <= present)
    return CyclicWord(level, tuple(letters), rel)


def _usable(seq: DefiningSequence, loop: PolyLoop) -> bool:
    if not validate_loop(loop, seq, seq.depth).ok:
        return False
    try:
        for i in range(1, seq.depth + 1):
            puncture_word(loop, seq, i)
    except DegeneratePosition:
        return False
    return True


def _draws():
    for _ in range(MAX_DRAWS):
        yield
    raise RuntimeError(f"no usable input in {MAX_DRAWS} draws")


def walk_case(space: dict, level: int, rng: random.Random, moves: int, repeat: int = 1) -> Case:
    """An out-and-back loop (repeat 1) or a zig-zag (repeat k > 1)."""
    seq = space_from_json(space)
    table = _lane_table(seq, level)
    for _ in _draws():
        steps = _walk(seq, level, rng, moves)
        if steps is None:
            continue
        there = [_crossing(table, c, mv) for c, mv in steps]
        back = [
            _crossing(table, (c[0] + 2 * mv[0], c[1] + 2 * mv[1]), (-mv[0], -mv[1]))
            for c, mv in reversed(steps)
        ]
        word = _word(seq, level, (there + back) * repeat)
        try:
            loop = realize_word(word, seq)
        except Unroutable:
            continue
        if _usable(seq, loop):
            kind = "out_and_back" if repeat == 1 else "zigzag"
            return Case(kind, space, loop_to_json(loop), ("trivial", seq.depth))


def ring_case(space: dict, level: int, rng: random.Random) -> Case:
    """A counter-clockwise square just outside a removed hole of the given level."""
    seq = space_from_json(space)
    holes = sorted(seq.holes_at_level(level), key=lambda q: q.key())
    eps = Fraction(1, 2 * 3**seq.depth)
    for _ in _draws():
        sq = rng.choice(holes)
        (x0, x1), (y0, y1) = sq.x_interval, sq.y_interval
        x0, x1, y0, y1 = x0 - eps, x1 + eps, y0 - eps, y1 + eps
        loop = PolyLoop(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))
        if _usable(seq, loop):
            witness = f"g[{sq.level},{sq.k},{sq.m}]"
            return Case("ring", space, loop_to_json(loop), ("nontrivial", level, witness))


def verdict_json(v) -> dict:
    """A library verdict in the CLI's JSON form, without the scheme."""
    if isinstance(v, Nontrivial):
        return {"verdict": "nontrivial", "level": v.level, "witness": v.witness.text}
    if isinstance(v, TrivialUpTo):
        return {"verdict": "trivial_up_to", "depth": v.depth, "conclusive": v.conclusive}
    return {"verdict": "inconclusive", "kind": v.kind, "reason": v.reason}


_GEN = re.compile(r"^(g\[\d+,\d+,\d+\])(?:\^(-?\d+))?$")


def cyclic_core(witness: str) -> list[tuple[str, int]]:
    """The cyclically reduced form of a witness word in the CLI's text format."""
    word: list[tuple[str, int]] = []
    for tok in witness.split():
        m = _GEN.match(tok)
        if m is None:
            raise ValueError(f"bad witness token {tok!r}")
        gen, exp = m.group(1), int(m.group(2) or 1)
        if word and word[-1][0] == gen:
            exp += word.pop()[1]
        if exp:
            word.append((gen, exp))
    while len(word) > 1 and word[0][0] == word[-1][0]:
        exp = word[0][1] + word[-1][1]
        word = word[1:-1] + ([(word[0][0], exp)] if exp else [])
    return word


def verdict_problem(expect: tuple, verdict: dict) -> str:
    """Why a verdict in the CLI's JSON form differs from the known answer, or ""."""
    if expect[0] == "trivial":
        if verdict.get("verdict") != "trivial_up_to":
            return f"expected trivial_up_to, got {verdict.get('verdict')}"
        if verdict.get("depth") != expect[1] or verdict.get("conclusive") is not True:
            return f"expected a conclusive verdict at depth {expect[1]}"
        return ""
    if verdict.get("verdict") != "nontrivial":
        return f"expected nontrivial, got {verdict.get('verdict')}"
    if verdict.get("level") != expect[1]:
        return f"expected level {expect[1]}, got {verdict.get('level')}"
    try:
        core = cyclic_core(verdict.get("witness", ""))
    except ValueError as e:
        return str(e)
    if core != [(expect[2], 1)]:
        return f"witness {verdict.get('witness')!r} is not conjugate to {expect[2]}"
    return ""
