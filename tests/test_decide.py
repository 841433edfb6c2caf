"""Verdicts and replayable certificates."""

import gc
import json
import os
import pathlib
import random
import sys
import tempfile
import weakref
from dataclasses import replace
from fractions import Fraction as F

import pytest

from carpetloop import (
    Certificate,
    DefiningSequence,
    Inconclusive,
    Nontrivial,
    PolyLoop,
    SearchCaps,
    TraceWord,
    TrivialUpTo,
    central_ring,
    check_certificate,
    decide,
    encode_word,
    make_certificate,
    puncture_word,
)
from carpetloop.freegroup import _puncture_table
from carpetloop.grid import _hole_index
from carpetloop.serialize import loop_from_json, loop_hash, space_hash
from carpetloop.words import crossing_relation

from conftest import out_and_back_word, random_explicit_space, realized_loop

DATA = pathlib.Path(__file__).parent / "data"

BAD_DIAGONAL = PolyLoop(((F(1, 5), F(1, 5)), (F(4, 5), F(1, 5)), (F(4, 5), F(4, 5))))
ON_RAY = PolyLoop(((F(3, 4), F(17, 36)), (F(5, 6), F(17, 36)), (F(3, 4), F(5, 12))))
# encircles the deepest-level hole at (2,1,1) and nothing coarser
DEEP_RING = PolyLoop(
    ((F(1, 18), F(1, 18)), (F(5, 18), F(1, 18)), (F(5, 18), F(5, 18)), (F(1, 18), F(5, 18)))
)


def trivial_loop(seq, level, rng, ray=True):
    levels = tuple(range(1, seq.depth + 1)) if ray else ()
    while True:
        loop = realized_loop(seq, out_and_back_word(seq, level, rng), ray_levels=levels)
        if loop is not None:
            return loop


class TestVerdicts:
    def test_central_ring_nontrivial(self, fc1, fc2):
        for seq in (fc1, fc2):
            v = decide(central_ring(seq), seq)
            assert isinstance(v, Nontrivial)
            assert v.level == 1
            assert v.witness.text == "g[1,1,1]"

    def test_reversed_ring_inverse_witness(self, fc1):
        v = decide(central_ring(fc1).reversed_loop(), fc1)
        assert isinstance(v, Nontrivial)
        assert v.witness.text == "g[1,1,1]^-1"

    def test_deep_hole_found_at_its_level(self, fc2):
        v = decide(DEEP_RING, fc2)
        assert isinstance(v, Nontrivial)
        assert v.level == 2
        assert v.witness.text == "g[2,1,1]"

    def test_out_and_back_trivial_and_conclusive(self, fc3):
        rng = random.Random(79)
        loop = trivial_loop(fc3, 3, rng)
        v = decide(loop, fc3)
        assert isinstance(v, TrivialUpTo)
        assert v.depth == 3 and v.conclusive
        assert len(v.scheme.diagrams) == 3

    def test_shallow_cut_is_not_conclusive(self, fc3):
        rng = random.Random(83)
        loop = trivial_loop(fc3, 2, rng)
        v = decide(loop, fc3, N=2)
        assert isinstance(v, TrivialUpTo)
        assert v.depth == 2 and not v.conclusive

    def test_validation_inconclusive(self, fc2):
        v = decide(BAD_DIAGONAL, fc2)
        assert isinstance(v, Inconclusive)
        assert v.kind == "validation"

    def test_ray_degeneracy_inconclusive(self, fc1):
        v = decide(ON_RAY, fc1)
        assert isinstance(v, Inconclusive)
        assert v.kind == "degeneracy"
        assert "ray" in v.reason

    def test_disagreement_is_internal_and_writes_nothing(self, fc1, tmp_path, monkeypatch):
        module = sys.modules["carpetloop.decide"]
        piling = module.trace_trivial
        monkeypatch.setattr(module, "trace_trivial", lambda w: not piling(w))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        v = decide(central_ring(fc1), fc1)
        assert isinstance(v, Inconclusive)
        assert v.kind == "internal"
        assert "level 1" in v.reason and "g[1,1,1]" in v.reason
        assert os.listdir(tmp_path) == []

    def test_tight_caps_inconclusive(self, fc2):
        rng = random.Random(89)
        loop = trivial_loop(fc2, 2, rng)
        v = decide(loop, fc2, caps=SearchCaps(work=1))
        assert isinstance(v, Inconclusive)
        assert v.kind == "caps"

    def test_long_level_words_decide(self):
        # conftest's out_and_back_word(fc5, 1, random.Random(0), max_len=2),
        # V:1:1:2/3- H:1:1:0/1- H:1:1:0/1+ V:1:1:2/3+, repeated 8 times and
        # realized (48 vertices).  A diagram search that recursed once per
        # pair would overflow the interpreter's stack on the 1,296 pairs of
        # its level-5 word.
        seq = DefiningSequence.full_carpet(5)
        loop = loop_from_json(json.loads((DATA / "out_and_back_x8_fc5.json").read_text()))
        v = decide(loop, seq)
        assert isinstance(v, TrivialUpTo) and v.conclusive
        assert [len(w) for w in v.words] == [32, 96, 288, 864, 2592]


class TestSpaceMemo:
    def test_space_is_freed(self):
        rng = random.Random(5)
        seq = random_explicit_space(3, rng)
        loop = trivial_loop(seq, 2, rng)
        ref = weakref.ref(seq)
        verdict = decide(loop, seq)
        _, cert = make_certificate(loop, seq)
        assert isinstance(verdict, TrivialUpTo) and cert is not None
        assert seq._derived
        del seq
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("kind", ["full", "explicit"])
    def test_equal_spaces_build_their_own(self, kind):
        rng = random.Random(11)
        a = DefiningSequence.full_carpet(3) if kind == "full" else random_explicit_space(3, rng)
        b = DefiningSequence(a.depth, a.pattern, frozenset(list(a.removed)))
        assert a == b and hash(a) == hash(b) and a is not b
        loop = trivial_loop(a, 3, rng)
        verdict_a = decide(loop, a)
        assert not b._derived
        verdict_b = decide(loop, b)
        assert verdict_a == verdict_b
        for i in range(1, 4):
            assert encode_word(loop, a, i) == encode_word(loop, b, i)
            assert puncture_word(loop, a, i) == puncture_word(loop, b, i)
            assert _puncture_table(a, i) == _puncture_table(b, i)
            assert crossing_relation(a, i) == crossing_relation(b, i)
        assert space_hash(a) == space_hash(b)
        assert set(a._derived) == set(b._derived)
        assert _hole_index(a) == _hole_index(b) and _hole_index(a) is not _hole_index(b)


class TestCertificates:
    def test_nontrivial_certificate_checks(self, fc2):
        loop = DEEP_RING
        verdict, cert = make_certificate(loop, fc2)
        assert isinstance(verdict, Nontrivial)
        assert cert.kind == "nontrivial" and cert.level == 2
        assert len(cert.words) == 2
        assert cert.free_words[0] == ""
        assert cert.witness == "g[2,1,1]"
        assert Certificate.from_json(cert.to_json()) == cert
        assert check_certificate(cert, loop, fc2).ok

    def test_trivial_certificate_checks(self, fc2):
        rng = random.Random(97)
        loop = trivial_loop(fc2, 2, rng)
        verdict, cert = make_certificate(loop, fc2)
        assert isinstance(verdict, TrivialUpTo)
        assert cert.kind == "trivial_up_to"
        assert cert.conclusive is True
        assert len(cert.diagrams) == 2
        assert Certificate.from_json(cert.to_json()) == cert
        assert check_certificate(cert, loop, fc2).ok

    def test_shallow_certificate_not_conclusive(self, fc2):
        rng = random.Random(101)
        loop = trivial_loop(fc2, 2, rng)
        _, cert = make_certificate(loop, fc2, N=1)
        assert cert.conclusive is False
        assert check_certificate(cert, loop, fc2).ok

    def test_each_level_encoded_once(self, fc3, monkeypatch):
        loop = trivial_loop(fc3, 3, random.Random(79))
        module = sys.modules["carpetloop.decide"]
        encode, levels = module.encode_word, []
        monkeypatch.setattr(
            module, "encode_word", lambda l, s, i: levels.append(i) or encode(l, s, i)
        )
        verdict, cert = make_certificate(loop, fc3)
        assert isinstance(verdict, TrivialUpTo)
        assert check_certificate(cert, loop, fc3).ok
        assert levels == [1, 2, 3, 1, 2, 3]

    def test_each_level_traced_once(self, fc3, monkeypatch):
        # The piling, the scheme search and its inductions all read each
        # level's one trace word, whose generator graph is built once.
        loop = trivial_loop(fc3, 3, random.Random(83))
        graph = TraceWord.__dict__["_graph"]
        build, built = graph.func, []
        monkeypatch.setattr(graph, "func", lambda w: built.append(w) or build(w))
        verdict, _ = make_certificate(loop, fc3)
        assert isinstance(verdict, TrivialUpTo)
        traces = [w.trace for w in verdict.words]
        assert len(traces) == 3 and any(len(t) for t in traces)
        for i, t in enumerate(traces):
            assert verdict.scheme.words[i] is t
        assert len(built) == 3 and all(b is t for b, t in zip(built, traces))

    def test_inconclusive_has_no_certificate(self, fc2):
        verdict, cert = make_certificate(BAD_DIAGONAL, fc2)
        assert isinstance(verdict, Inconclusive)
        assert cert is None

    def test_certificate_for_invalid_loop_rejected(self, fc2):
        # The vertex (1/6, 1/6) is the center of the removed square (2,1,1).
        loop = PolyLoop(((F(1, 6), F(1, 6)), (F(5, 6), F(1, 6)), (F(5, 6), F(5, 6)), (F(1, 6), F(5, 6))))
        assert decide(loop, fc2).kind == "validation"
        free = puncture_word(loop, fc2, 1)
        cert = Certificate(
            kind="nontrivial",
            level=1,
            space_sha=space_hash(fc2),
            loop_sha=loop_hash(loop),
            words=(encode_word(loop, fc2, 1).text,),
            free_words=(free.text,),
            witness=free.text,
            diagrams=(),
            conclusive=None,
        )
        rep = check_certificate(cert, loop, fc2)
        assert not rep.ok and "validation" in rep.reason

    def test_wrong_space_rejected(self, fc1, fc2):
        loop = central_ring(fc1)
        _, cert = make_certificate(loop, fc1)
        rep = check_certificate(cert, loop, fc2)
        assert not rep.ok and "space hash" in rep.reason

    def test_wrong_loop_rejected(self, fc1):
        loop = central_ring(fc1)
        _, cert = make_certificate(loop, fc1)
        rep = check_certificate(cert, loop.reversed_loop(), fc1)
        assert not rep.ok and "loop hash" in rep.reason

    def test_tampered_witness_rejected(self, fc1):
        loop = central_ring(fc1)
        _, cert = make_certificate(loop, fc1)
        rep = check_certificate(replace(cert, witness="g[1,1,1]^-1"), loop, fc1)
        assert not rep.ok and "witness" in rep.reason

    def test_tampered_kind_and_level_rejected(self, fc1):
        loop = central_ring(fc1)
        _, cert = make_certificate(loop, fc1)
        assert not check_certificate(replace(cert, kind="proof"), loop, fc1).ok
        assert not check_certificate(replace(cert, level=0), loop, fc1).ok

    def test_tampered_words_rejected(self, fc1):
        loop = central_ring(fc1)
        _, cert = make_certificate(loop, fc1)
        rep = check_certificate(replace(cert, words=("",)), loop, fc1)
        assert not rep.ok and "word mismatch" in rep.reason

    def test_tampered_diagram_rejected(self, fc2):
        rng = random.Random(103)
        loop = trivial_loop(fc2, 2, rng)
        _, cert = make_certificate(loop, fc2)
        pairs = cert.diagrams[-1]
        (a, b), (c, d) = pairs[0], pairs[1]
        bad = ((a, c), (b, d)) + pairs[2:]
        rep = check_certificate(
            replace(cert, diagrams=cert.diagrams[:-1] + (bad,)), loop, fc2
        )
        assert not rep.ok and "diagram" in rep.reason

    def test_flipped_conclusive_rejected(self, fc2):
        rng = random.Random(107)
        loop = trivial_loop(fc2, 2, rng)
        _, cert = make_certificate(loop, fc2)
        rep = check_certificate(replace(cert, conclusive=False), loop, fc2)
        assert not rep.ok and "conclusive" in rep.reason
