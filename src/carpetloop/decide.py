"""Deciding whether a loop contracts in a finite-level grid complement.

The verdict is three-valued.  A nonempty reduced puncture word at some
level is a complete proof of nontriviality and is reported with the
smallest such level.  When every level kills the loop, the decider
additionally searches for a coherent family of cancellation diagrams,
one per level, each inducing the next shallower one; the result is
conclusive exactly when no removed square lies deeper than the levels
examined.  Anything that prevents an honest answer (invalid input,
search caps, degenerate ray positions) comes back as Inconclusive
rather than a guess.

Deciding, certifying, checking a certificate and the CLI's encode all
read the loop through level_words, which validates the loop before any
level and computes each level's words once.  Nothing here writes files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .errors import (
    CapExceeded,
    DegeneratePosition,
    NotFoundError,
    RefinementViolation,
)
from .freegroup import FreeWord, puncture_word
from .grid import DefiningSequence, PolyLoop, validate_loop
from .serialize import diagram_to_json, loop_hash, space_hash
from .traces import (
    CancellationDiagram,
    CoherentScheme,
    SearchCaps,
    coherent_scheme,
    trace_trivial,
)
from .words import CyclicWord, encode_word, refinement_map


@dataclass(frozen=True)
class Nontrivial:
    level: int
    witness: FreeWord


@dataclass(frozen=True)
class TrivialUpTo:
    depth: int
    words: tuple[CyclicWord, ...]  # the corridor word of each level, level 1 first
    scheme: CoherentScheme
    conclusive: bool


@dataclass(frozen=True)
class Inconclusive:
    reason: str
    kind: str  # "validation" | "caps" | "degeneracy" | "internal"


Verdict = Union[Nontrivial, TrivialUpTo, Inconclusive]


@dataclass(frozen=True)
class LevelWords:
    """The loop's corridor word and reduced puncture word at one level."""

    level: int
    word: CyclicWord
    free: FreeWord


def level_words(
    loop: PolyLoop, seq: DefiningSequence, N: int
) -> Iterator[Union[LevelWords, Inconclusive]]:
    """Validate the loop through seq.depth, then yield levels 1..N in order.

    Each level's corridor word and puncture word are computed once, and
    the piling verdict on the corridor word is checked against free
    reduction.  A failure is yielded as an Inconclusive of kind
    "validation", "degeneracy" or "internal" and ends the iteration.
    """
    seq.check_level(N)
    report = validate_loop(loop, seq, seq.depth)
    if not report.ok:
        yield Inconclusive(report.first.describe(), "validation")
        return
    for i in range(1, N + 1):
        try:
            free = puncture_word(loop, seq, i)
            word = encode_word(loop, seq, i)
        except DegeneratePosition as e:
            yield Inconclusive(str(e), "degeneracy")
            return
        # Independent cross-check: the piling verdict on the corridor
        # word must agree with reduction in the free group.
        piled = trace_trivial(word.trace)
        if piled != free.is_identity:
            yield Inconclusive(
                f"internal disagreement at level {i} (piling trivial={piled}, "
                f"free trivial={free.is_identity}); word {word.text!r}, "
                f"free word {free.text!r}",
                "internal",
            )
            return
        yield LevelWords(i, word, free)


def max_hole_level(seq: DefiningSequence) -> int:
    return max((s for s in range(1, seq.depth + 1) if seq.holes_at_level(s)), default=0)


def _decide_full(
    loop: PolyLoop,
    seq: DefiningSequence,
    N: Optional[int] = None,
    caps: SearchCaps = SearchCaps(),
) -> tuple[Verdict, list[LevelWords]]:
    N = seq.depth if N is None else N
    levels: list[LevelWords] = []
    for lv in level_words(loop, seq, N):
        if isinstance(lv, Inconclusive):
            return lv, levels
        levels.append(lv)
        if not lv.free.is_identity:
            return Nontrivial(lv.level, lv.free), levels

    words = [lv.word for lv in levels]
    try:
        refinements = [refinement_map(a, b) for a, b in zip(words, words[1:])]
    except RefinementViolation as e:
        return Inconclusive(f"refinement failed on a valid loop: {e}", "internal"), levels

    try:
        scheme = coherent_scheme(words, refinements, caps=caps)
    except CapExceeded as e:
        return Inconclusive(str(e), "caps"), levels
    except NotFoundError as e:
        return (
            Inconclusive(
                f"no coherent scheme though all levels vanish (level {e.level}); "
                "this contradicts the expected theory",
                "internal",
            ),
            levels,
        )
    conclusive = max_hole_level(seq) <= N
    return TrivialUpTo(N, tuple(words), scheme, conclusive), levels


def decide(
    loop: PolyLoop,
    seq: DefiningSequence,
    N: Optional[int] = None,
    caps: SearchCaps = SearchCaps(),
) -> Verdict:
    """Decide contractibility of the loop through level N (default: depth)."""
    verdict, _ = _decide_full(loop, seq, N, caps)
    return verdict


# ---------------------------------------------------------------------------
# Certificates


def _json_int(x) -> int:
    """A JSON integer as is; a float, a bool or anything else is a TypeError."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _json_flag(x) -> Optional[bool]:
    """A JSON bool or null as is; a number, a string or anything else is a TypeError."""
    if x is not None and type(x) is not bool:
        raise TypeError(f"expected true, false or null, got {x!r}")
    return x


@dataclass(frozen=True)
class Certificate:
    """Replayable evidence for a verdict, bound to its inputs by hash."""

    kind: str  # "nontrivial" | "trivial_up_to"
    level: int
    space_sha: str
    loop_sha: str
    words: tuple[str, ...]
    free_words: tuple[str, ...]
    witness: Optional[str]
    diagrams: tuple[tuple[tuple[int, int], ...], ...]
    conclusive: Optional[bool]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "level": self.level,
            "space_sha256": self.space_sha,
            "loop_sha256": self.loop_sha,
            "words": list(self.words),
            "free_words": list(self.free_words),
            "witness": self.witness,
            "diagrams": [diagram_to_json(d) for d in self.diagrams],
            "conclusive": self.conclusive,
        }

    @staticmethod
    def from_json(data: dict) -> "Certificate":
        return Certificate(
            kind=data["kind"],
            level=_json_int(data["level"]),
            space_sha=data["space_sha256"],
            loop_sha=data["loop_sha256"],
            words=tuple(data["words"]),
            free_words=tuple(data["free_words"]),
            witness=data.get("witness"),
            diagrams=tuple(
                tuple((_json_int(a), _json_int(b)) for a, b in d)
                for d in data.get("diagrams", [])
            ),
            conclusive=_json_flag(data.get("conclusive")),
        )


def make_certificate(
    loop: PolyLoop,
    seq: DefiningSequence,
    N: Optional[int] = None,
    caps: SearchCaps = SearchCaps(),
) -> tuple[Verdict, Optional[Certificate]]:
    verdict, levels = _decide_full(loop, seq, N, caps)
    if isinstance(verdict, Inconclusive):
        return verdict, None
    shared = dict(
        space_sha=space_hash(seq),
        loop_sha=loop_hash(loop),
        words=tuple(lv.word.text for lv in levels),
        free_words=tuple(lv.free.text for lv in levels),
    )
    if isinstance(verdict, Nontrivial):
        cert = Certificate(
            kind="nontrivial",
            level=verdict.level,
            witness=verdict.witness.text,
            diagrams=(),
            conclusive=None,
            **shared,
        )
    else:
        cert = Certificate(
            kind="trivial_up_to",
            level=verdict.depth,
            witness=None,
            diagrams=tuple(tuple(d.sorted_pairs) for d in verdict.scheme.diagrams),
            conclusive=verdict.conclusive,
            **shared,
        )
    return verdict, cert


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    reason: str = ""


def check_certificate(
    cert: Certificate, loop: PolyLoop, seq: DefiningSequence
) -> CheckReport:
    """Replay a certificate against its claimed inputs.

    Checks the hashes, then runs level_words to the stated level, which
    validates the loop, and compares the per-level words and the witness
    or the diagram chain.  Every defect in the certificate or its inputs
    comes back as a failed report; nothing is raised for it.
    """
    if space_hash(seq) != cert.space_sha:
        return CheckReport(False, "space hash mismatch")
    if loop_hash(loop) != cert.loop_sha:
        return CheckReport(False, "loop hash mismatch")
    if cert.kind not in ("nontrivial", "trivial_up_to"):
        return CheckReport(False, f"unknown kind {cert.kind!r}")
    if not (1 <= cert.level <= seq.depth):
        return CheckReport(False, "level out of range")
    if len(cert.words) != cert.level or len(cert.free_words) != cert.level:
        return CheckReport(False, "wrong number of per-level words")

    words = []
    for lv in level_words(loop, seq, cert.level):
        if isinstance(lv, Inconclusive):
            return CheckReport(False, f"{lv.kind} failure: {lv.reason}")
        i = lv.level
        if lv.word.text != cert.words[i - 1]:
            return CheckReport(False, f"level-{i} word mismatch")
        if lv.free.text != cert.free_words[i - 1]:
            return CheckReport(False, f"level-{i} free word mismatch")
        expect_identity = cert.kind == "trivial_up_to" or i < cert.level
        if lv.free.is_identity != expect_identity:
            return CheckReport(False, f"level-{i} triviality mismatch")
        words.append(lv.word)

    if cert.kind == "nontrivial":
        if cert.witness != cert.free_words[-1]:
            return CheckReport(False, "witness differs from the top-level word")
        return CheckReport(True)

    # Refinements are built up to the first pair that fails, which is
    # reported only if no level's diagram and no earlier pair fails.
    refinements = []
    unrefined = ""
    for i in range(1, len(words)):
        try:
            refinements.append(refinement_map(words[i - 1], words[i]))
        except RefinementViolation as e:
            unrefined = f"levels {i} and {i + 1} do not refine: {e}"
            break
    chain = CoherentScheme(
        tuple(w.trace for w in words),
        tuple(CancellationDiagram.of(*pairs) for pairs in cert.diagrams),
    )
    reason = chain.defect(refinements) or unrefined
    if reason:
        return CheckReport(False, reason)
    conclusive = max_hole_level(seq) <= cert.level
    if cert.conclusive is not None and cert.conclusive != conclusive:
        return CheckReport(False, "conclusiveness flag is wrong")
    return CheckReport(True)
