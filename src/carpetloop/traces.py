"""Triviality and cancellation structure for partially commutative words.

Letters cancel in inverse pairs, and letters of crossing corridors may
slide past each other; everything here is exact combinatorics on those
two rules.  Validity of a pairing is decided by greedy nested
elimination, which is order-independent: deleting one deletable pair
never makes another deletable pair undeletable.

Generators are any hashable, orderable values.  A corridor word reaches
these kernels only through its `CyclicWord.trace`, built once per word,
so this module imports nothing else of the package; a refinement
correspondence is read only for its `ends` and its coarse word's trace.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CapExceeded, MalformedDiagram, NoInducedDiagram, NotFoundError

Gen = object  # corridor id tuple or plain string; any hashable, orderable kind


@dataclass(frozen=True)
class TraceWord:
    """A cyclic word in signed generators with a commutation relation."""

    letters: tuple[tuple[Gen, int], ...]
    commutes: frozenset[frozenset]

    def __len__(self) -> int:
        return len(self.letters)

    @cached_property
    def _graph(self) -> tuple[dict[Gen, int], list[int], list[set[int]]]:
        """Generators interned once per word.

        Dense ids in order of first appearance, each letter's id, and
        each id's commuting neighbours among the generators present.
        """
        ids: dict[Gen, int] = {}
        gid = [ids.setdefault(g, len(ids)) for g, _ in self.letters]
        nbrs: list[set[int]] = [set() for _ in ids]
        for pair in self.commutes:
            if len(pair) == 2:
                a, b = (ids.get(g) for g in pair)
                if a is not None and b is not None:
                    nbrs[a].add(b)
                    nbrs[b].add(a)
        return ids, gid, nbrs

    def commute(self, a: Gen, b: Gen) -> bool:
        ids, _, nbrs = self._graph
        ia, ib = ids.get(a), ids.get(b)
        if ia is None or ib is None:
            return a != b and frozenset((a, b)) in self.commutes
        return ib in nbrs[ia]

    @staticmethod
    def from_strings(tokens: Sequence[str], commuting: Iterable[tuple[str, str]] = ()) -> "TraceWord":
        letters = []
        for tok in tokens:
            if tok.endswith("^-1"):
                letters.append((tok[:-3], -1))
            elif tok.endswith("-"):
                letters.append((tok[:-1], -1))
            elif tok.endswith("+"):
                letters.append((tok[:-1], 1))
            else:
                letters.append((tok, 1))
        return TraceWord(
            tuple(letters), frozenset(frozenset(p) for p in commuting)
        )

    @property
    def text(self) -> str:
        return " ".join(f"{g}{'+' if e > 0 else '-'}" for g, e in self.letters)


def trace_trivial(word: TraceWord) -> bool:
    """Does the word reduce to nothing under cancellation and sliding?

    Piling (Viennot's heaps of pieces): each letter either cancels the
    top live piece p of its generator's stack or is pushed as a new
    piece.  It cancels p exactly when p has the opposite sign and is
    exposed, i.e. every live piece pushed after p commutes with it:
    the number of live pieces pushed after p equals the number of those
    whose generators commute with p's.  A Fenwick tree over push order
    counts the first; each commuting generator's stack holds its live
    push positions in ascending order, so one bisect per neighbour
    counts the second.  A letter costs O((deg + 1) log n), where deg is
    its generator's number of commuting partners.  Triviality is
    conjugation-invariant, so testing one rotation suffices for the
    cyclic word.
    """
    _, gid, nbrs = word._graph
    n = len(gid)
    pushed: list[list[int]] = [[] for _ in nbrs]  # live push positions
    sign = [0] * (n + 1)  # the sign of the piece at each push position
    tree = [0] * (n + 1)  # Fenwick tree over push positions 1..n
    live = count = 0
    for g, (_, e) in zip(gid, word.letters):
        mine = pushed[g]
        if mine and sign[mine[-1]] == -e:
            p = mine[-1]
            after = live
            r = p
            while r:
                after -= tree[r]
                r &= r - 1
            if after == 0 or after == sum(
                len(pushed[h]) - bisect_right(pushed[h], p) for h in nbrs[g]
            ):
                mine.pop()
                live -= 1
                while p <= n:
                    tree[p] -= 1
                    p += p & -p
                continue
        count += 1
        mine.append(count)
        sign[count] = e
        live += 1
        r = count
        while r <= n:
            tree[r] += 1
            r += r & -r
    return live == 0


@dataclass(frozen=True)
class CancellationDiagram:
    """A perfect matching of word positions into cancelling pairs."""

    pairs: frozenset[tuple[int, int]]

    @staticmethod
    def of(*pairs: tuple[int, int]) -> "CancellationDiagram":
        return CancellationDiagram(
            frozenset(tuple(sorted(p)) for p in pairs)
        )

    @property
    def sorted_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.pairs))


def _check_matching(word: TraceWord, diagram: CancellationDiagram) -> None:
    seen: set[int] = set()
    n = len(word)
    for p, q in diagram.pairs:
        if not (0 <= p < q < n):
            raise MalformedDiagram(f"pair ({p},{q}) out of range for length {n}")
        if p in seen or q in seen:
            raise MalformedDiagram(f"position reused in pair ({p},{q})")
        seen.update((p, q))
        (gp, ep), (gq, eq) = word.letters[p], word.letters[q]
        if gp != gq or ep != -eq:
            raise MalformedDiagram(
                f"pair ({p},{q}) does not match inverse letters"
            )
    if len(seen) != n:
        raise MalformedDiagram(f"matching covers {len(seen)} of {n} positions")


def diagram_valid(word: TraceWord, diagram: CancellationDiagram) -> bool:
    """Greedy nested elimination; order of deletions does not matter.

    A pair can cancel now when one side of its chord, the live letters
    strictly inside it or those outside it, all commute with it.  As in
    trace_trivial, a Fenwick tree over positions counts the live letters
    inside, and each generator's live positions, kept in ascending
    order, are bisected for each commuting neighbour to count the
    commuting ones, so one check costs O((deg + 1) log n).
    """
    _check_matching(word, diagram)
    _, gid, nbrs = word._graph
    n = len(gid)
    at: list[list[int]] = [[] for _ in nbrs]  # live positions per generator
    for r, g in enumerate(gid):
        at[g].append(r)
    tree = [0] * (n + 1)  # Fenwick tree over positions 0..n-1, at 1..n
    for r in range(1, n + 1):
        tree[r] += 1
        if r + (r & -r) <= n:
            tree[r + (r & -r)] += tree[r]

    def before(r: int) -> int:
        """Live positions below r."""
        c = 0
        while r:
            c += tree[r]
            r &= r - 1
        return c

    live = n
    # Shortest chords first: nested pairs then go in one round.
    remaining = sorted(diagram.pairs, key=lambda pq: (pq[1] - pq[0], pq))
    while remaining:
        kept = []
        for p, q in remaining:
            g = gid[p]
            inside = before(q) - before(p + 1)
            near = inside_near = 0
            for h in nbrs[g]:
                mine = at[h]
                near += len(mine)
                inside_near += bisect_left(mine, q) - bisect_right(mine, p)
            if inside != inside_near and live - 2 - inside != near - inside_near:
                kept.append((p, q))
                continue
            mine = at[g]
            del mine[bisect_left(mine, q)]
            del mine[bisect_left(mine, p)]
            for r in (p + 1, q + 1):
                while r <= n:
                    tree[r] -= 1
                    r += r & -r
            live -= 2
        if len(kept) == len(remaining):
            return False
        remaining = kept
    return True


class Budget:
    """A shared work counter for the diagram searches."""

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def charge(self) -> None:
        self.spent += 1
        if self.spent > self.limit:
            raise CapExceeded(f"work budget {self.limit} exhausted")


def _crosses(a: tuple[int, int], b: tuple[int, int]) -> bool:
    (p, q), (r, s) = a, b
    return (p < r < q < s) or (r < p < s < q)


def _iter_matchings(
    word: TraceWord,
    preassigned: Iterable[tuple[int, int]],
    budget: Optional[Budget],
) -> Iterator[CancellationDiagram]:
    """All valid diagrams containing the preassigned pairs, lexicographically.

    Candidates are grown over the first free position with two sound
    prunes (non-commuting chords never cross; non-commuting generators
    must balance inside every chord); full validity is checked last.
    """
    n = len(word)
    _, gid, nbrs = word._graph
    sgn = [e for _, e in word.letters]
    base = [tuple(sorted(p)) for p in preassigned]
    used = set()
    for p, q in base:
        if p in used or q in used:
            raise MalformedDiagram(f"preassigned pairs reuse position {p},{q}")
        used.update((p, q))

    sums = [0] * len(nbrs)
    for g, e in zip(gid, sgn):
        sums[g] += e
    if any(sums):
        return

    def compatible(pairs: list[tuple[int, int]], cand: tuple[int, int]) -> bool:
        near = nbrs[gid[cand[0]]]
        for other in pairs:
            if gid[other[0]] not in near and _crosses(cand, other):
                return False
        p, q = cand
        balance: dict[int, int] = {}
        for r in range(p + 1, q):
            if r not in used_now and gid[r] not in near:
                balance[gid[r]] = balance.get(gid[r], 0) + sgn[r]
        return not any(balance.values())

    used_now = set(used)
    chosen: list[tuple[int, int]] = list(base)

    def node() -> Optional[int]:
        """Charge one search node; the first free position, if any."""
        if budget is not None:
            budget.charge()
        return next((r for r in range(n) if r not in used_now), None)

    # Depth-first with an explicit stack, one frame [p, q] per open
    # choice: position p is paired with q, or q == p before its first
    # partner.  Partners are tried in ascending order.
    stack: list[list[int]] = []
    p = node()
    while True:
        if p is None:
            d = CancellationDiagram(frozenset(chosen))
            if diagram_valid(word, d):
                yield d
        else:
            stack.append([p, p])
        # Move the deepest frame that has one to its next partner.
        while stack:
            frame = stack[-1]
            p, q = frame
            if q != p:
                chosen.pop()
                used_now.difference_update((p, q))
            g, e = gid[p], sgn[p]
            q = next(
                (
                    r
                    for r in range(q + 1, n)
                    if r not in used_now
                    and gid[r] == g
                    and sgn[r] == -e
                    and compatible(chosen, (p, r))
                ),
                None,
            )
            if q is not None:
                break
            stack.pop()
        else:
            return
        frame[1] = q
        used_now.update((p, q))
        chosen.append((p, q))
        p = node()


def enumerate_diagrams(
    word: TraceWord,
    cap: int = 100_000,
    preassigned: Iterable[tuple[int, int]] = (),
) -> tuple[CancellationDiagram, ...]:
    """All valid diagrams, deterministically ordered; CapExceeded past cap."""
    out: list[CancellationDiagram] = []
    for d in _iter_matchings(word, preassigned, None):
        out.append(d)
        if len(out) > cap:
            raise CapExceeded(
                f"more than {cap} valid diagrams", partial=tuple(out[:cap])
            )
    return tuple(out)


def first_diagram(word: TraceWord) -> Optional[CancellationDiagram]:
    """The first valid diagram in enumeration order, or None if there is none."""
    return next(_iter_matchings(word, (), None), None)


def _forced_pairs(d_fine: CancellationDiagram, corr) -> frozenset[tuple[int, int]]:
    """Coarse pairs forced by fine pairs joining two parents' end letters."""
    role: dict[int, tuple[int, str]] = {}
    for j, (f, l) in enumerate(corr.ends):
        role[f] = (j, "first")
        role[l] = (j, "last")
    forced = set()
    for p, q in d_fine.pairs:
        rp, rq = role.get(p), role.get(q)
        if rp is None or rq is None:
            continue
        if rp[0] == rq[0]:
            raise NoInducedDiagram(
                f"fine pair ({p},{q}) joins both ends of coarse letter {rp[0]}"
            )
        forced.add(tuple(sorted((rp[0], rq[0]))))
    conflicts: dict[int, set[int]] = {}
    for a, b in forced:
        conflicts.setdefault(a, set()).add(b)
        conflicts.setdefault(b, set()).add(a)
    for c, partners in conflicts.items():
        if len(partners) > 1:
            raise NoInducedDiagram(
                f"coarse letter {c} forced against {sorted(partners)}"
            )
    return frozenset(forced)


def induces(d_fine: CancellationDiagram, corr, d_coarse: CancellationDiagram) -> bool:
    """Does the fine diagram induce the valid coarse diagram d_coarse?

    Fine pairs whose two positions are end sub-letters of two different
    coarse letters force those coarse letters to pair; the diagrams
    induced across the refinement are the valid coarse diagrams that
    contain every forced pair.
    """
    try:
        return _forced_pairs(d_fine, corr) <= d_coarse.pairs
    except NoInducedDiagram:
        return False


@dataclass(frozen=True)
class SearchCaps:
    per_level: int = 100_000
    work: int = 2_000_000


@dataclass(frozen=True)
class CoherentScheme:
    """One cancellation diagram per level, each inducing the one below."""

    words: tuple[TraceWord, ...]
    diagrams: tuple[CancellationDiagram, ...]

    def defect(self, refinements: Sequence) -> str:
        """Why the chain fails, or '' if it holds.

        Every level's diagram must be valid for its word, then each
        refinement's fine diagram must induce the coarse one; the first
        failure is reported.
        """
        if len(self.diagrams) != len(self.words):
            return "wrong number of diagrams"
        for i, (w, d) in enumerate(zip(self.words, self.diagrams), start=1):
            try:
                if not diagram_valid(w, d):
                    return f"level-{i} diagram invalid"
            except MalformedDiagram as e:
                return f"level-{i} diagram malformed: {e}"
        for i, corr in enumerate(refinements, start=1):
            if not induces(self.diagrams[i], corr, self.diagrams[i - 1]):
                return f"level-{i + 1} diagram does not induce the level-{i} one"
        return ""

    def verify(self, refinements: Sequence) -> bool:
        return not self.defect(refinements)


def coherent_scheme(
    words: Sequence, refinements: Sequence, caps: SearchCaps = SearchCaps()
) -> CoherentScheme:
    """Find diagrams for every level that induce one another downward.

    The words are CyclicWords, level 1 first.  Depth-first from the
    deepest level with memoized dead ends; each level's candidates are
    the valid diagrams containing the pairs forced from above, tried
    lazily in enumeration order.  Raises NotFoundError with the deepest
    level that blocked every chain, which a nontrivial word always does,
    or CapExceeded when more than caps.per_level diagrams are tried at
    one level or the global work budget overflows.
    """
    ws = tuple(w.trace for w in words)
    if len(refinements) != len(ws) - 1:
        raise ValueError(
            f"{len(ws)} words need {len(ws) - 1} refinements, got {len(refinements)}"
        )
    n = len(ws)
    budget = Budget(caps.work)
    dead: set[tuple[int, CancellationDiagram]] = set()
    blocked = [n]

    def tried(level: int, cands: Iterator[CancellationDiagram]) -> Iterator[CancellationDiagram]:
        """The candidates, counted against caps.per_level."""
        for count, d in enumerate(cands, start=1):
            if count > caps.per_level:
                raise CapExceeded(f"more than {caps.per_level} diagrams at level {level}")
            yield d

    def chain(idx: int, d: CancellationDiagram) -> Optional[list[CancellationDiagram]]:
        if idx == 0:
            return [d]
        if (idx, d) in dead:
            return None
        corr = refinements[idx - 1]
        found = False
        try:
            forced = _forced_pairs(d, corr)
            for c in tried(idx, _iter_matchings(corr.coarse_word.trace, forced, budget)):
                found = True
                sub = chain(idx - 1, c)
                if sub is not None:
                    return sub + [d]
        except (NoInducedDiagram, MalformedDiagram):
            # Forced pairs that conflict or join non-inverse letters: no
            # coarse diagram contains them.
            pass
        if not found:
            blocked[0] = min(blocked[0], idx)
        dead.add((idx, d))
        return None

    for d_top in tried(n, _iter_matchings(ws[n - 1], (), budget)):
        result = chain(n - 1, d_top)
        if result is not None:
            return CoherentScheme(ws, tuple(result))
    raise NotFoundError(blocked[0], f"every chain blocked at level {blocked[0]}")
