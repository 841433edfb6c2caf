"""End-to-end CLI runs: JSON contracts, exit codes, determinism."""

import io
import json
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from carpetloop import DefiningSequence, PolyLoop, central_ring
from carpetloop.cli import main
from carpetloop.serialize import loop_to_json, space_to_json

from conftest import out_and_back_word, realized_loop

CORNER_TRIANGLE = PolyLoop(((F(1, 27), F(1, 27)), (F(2, 27), F(1, 27)), (F(2, 27), F(2, 27))))
BAD_DIAGONAL = PolyLoop(((F(1, 5), F(1, 5)), (F(4, 5), F(1, 5)), (F(4, 5), F(4, 5))))
ON_RAY = PolyLoop(((F(3, 4), F(17, 36)), (F(5, 6), F(17, 36)), (F(3, 4), F(5, 12))))


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def files(tmp_path, fc2):
    return {
        "space": write_json(tmp_path / "space.json", space_to_json(fc2)),
        "ring": write_json(tmp_path / "ring.json", loop_to_json(central_ring(fc2))),
        "triangle": write_json(
            tmp_path / "tri.json", loop_to_json(CORNER_TRIANGLE)
        ),
        "dir": tmp_path,
    }


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def trivial_walk_loop(seq, level):
    for seed in range(100):
        word = out_and_back_word(seq, level, random.Random(seed))
        loop = realized_loop(seq, word, ray_levels=tuple(range(1, seq.depth + 1)))
        if loop is not None and len(word):
            return loop
    raise AssertionError("no realizable walk found")


class TestEncode:
    def test_all_levels(self, capsys, files):
        code, out = run(capsys, ["encode", "--space", files["space"], "--loop", files["ring"]])
        assert code == 0
        assert out["levels"] == 2
        assert set(out["words"]) == {"1", "2"}
        assert out["free_words"]["1"] == "g[1,1,1]"
        # at level 2 the ring picks up a conjugating finer generator
        assert "g[1,1,1]" in out["free_words"]["2"]
        assert out["words"]["1"].count(" ") == 3  # four letters around the ring

    def test_single_level(self, capsys, files):
        code, out = run(
            capsys,
            ["encode", "--space", files["space"], "--loop", files["ring"], "--level", "1"],
        )
        assert code == 0
        assert set(out["words"]) == {"1"}

    def test_invalid_loop(self, capsys, files, tmp_path):
        bad = write_json(tmp_path / "bad.json", loop_to_json(BAD_DIAGONAL))
        code, out = run(capsys, ["encode", "--space", files["space"], "--loop", bad])
        assert code == 2
        assert "error" in out

    @pytest.mark.parametrize("flag", ["--caps", "--cap-per-level", "--cap-work"])
    def test_search_caps_not_accepted(self, capsys, files, flag):
        with pytest.raises(SystemExit) as exc:
            main(["encode", "--space", files["space"], "--loop", files["ring"], flag, "5"])
        assert exc.value.code == 2


class TestDecide:
    def test_nontrivial_ring(self, capsys, files):
        code, out = run(capsys, ["decide", "--space", files["space"], "--loop", files["ring"]])
        assert code == 0
        assert out["verdict"] == "nontrivial"
        assert out["level"] == 1
        assert out["witness"] == "g[1,1,1]"

    def test_depth_alias(self, capsys, files):
        code, out = run(
            capsys,
            ["decide", "--space", files["space"], "--loop", files["ring"], "--depth", "1"],
        )
        assert code == 0 and out["level"] == 1

    def test_trivial_triangle(self, capsys, files):
        code, out = run(
            capsys, ["decide", "--space", files["space"], "--loop", files["triangle"]]
        )
        assert code == 0
        assert out["verdict"] == "trivial_up_to"
        assert out["depth"] == 2
        assert out["conclusive"] is True
        assert out["scheme"]["words"] == ["", ""]
        assert out["scheme"]["diagrams"] == [[], []]

    def test_caps_exhausted(self, capsys, files, fc2, tmp_path):
        loop = trivial_walk_loop(fc2, 2)
        path = write_json(tmp_path / "walk.json", loop_to_json(loop))
        code, out = run(
            capsys,
            ["decide", "--space", files["space"], "--loop", path, "--caps", "1"],
        )
        assert code == 3
        assert out["verdict"] == "inconclusive"
        assert out["kind"] == "caps"

    def test_ray_degeneracy(self, capsys, tmp_path, fc1):
        space = write_json(tmp_path / "s.json", space_to_json(fc1))
        loop = write_json(tmp_path / "l.json", loop_to_json(ON_RAY))
        code, out = run(capsys, ["decide", "--space", space, "--loop", loop])
        assert code == 3
        assert out["kind"] == "degeneracy"

    def test_missing_file(self, capsys, files):
        code, _ = run(
            capsys,
            ["decide", "--space", files["space"], "--loop", str(files["dir"] / "nope.json")],
        )
        assert code == 2

    def test_malformed_space(self, capsys, files, tmp_path):
        bad = tmp_path / "garbled.json"
        bad.write_text("{not json")
        code, _ = run(capsys, ["decide", "--space", str(bad), "--loop", files["ring"]])
        assert code == 2

    def test_full_carpet_below_depth_one(self, capsys, files, tmp_path):
        space = write_json(tmp_path / "s.json", {"depth": 0, "pattern": "full_carpet"})
        code, _ = run(capsys, ["decide", "--space", space, "--loop", files["ring"]])
        assert code == 2

    def test_space_from_stdin(self, capsys, files, fc2, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(space_to_json(fc2))))
        code, out = run(capsys, ["decide", "--space", "-", "--loop", files["ring"]])
        assert code == 0 and out["verdict"] == "nontrivial"


class TestCertifyCheck:
    def test_round_trip(self, capsys, files, tmp_path):
        code, out = run(capsys, ["certify", "--space", files["space"], "--loop", files["ring"]])
        assert code == 0
        assert out["verdict"] == "nontrivial"
        cert = write_json(tmp_path / "cert.json", out)  # wrapper form is accepted
        code, rep = run(
            capsys,
            ["check", "--space", files["space"], "--loop", files["ring"], "--cert", cert],
        )
        assert code == 0
        assert rep == {"ok": True, "reason": ""}

    def test_corner_tie_round_trip(self, capsys, tmp_path):
        seq = DefiningSequence.explicit(1, [])
        loop = PolyLoop(((F(5, 6), F(1, 6)), (F(1, 6), F(5, 6)), (F(5, 6), F(5, 6))))
        io = [
            "--space", write_json(tmp_path / "s.json", space_to_json(seq)),
            "--loop", write_json(tmp_path / "l.json", loop_to_json(loop)),
        ]
        code, out = run(capsys, ["certify", *io])
        assert code == 0 and out["verdict"] == "trivial_up_to"
        assert out["certificate"]["words"] == ["H:1:1:0/1+ V:1:1:0/1- V:1:1:0/1+ H:1:1:0/1-"]
        cert = write_json(tmp_path / "cert.json", out)
        code, rep = run(capsys, ["check", *io, "--cert", cert])
        assert code == 0 and rep == {"ok": True, "reason": ""}

    def test_scheme_words_are_certificate_words(self, capsys, fc2, tmp_path):
        loop = trivial_walk_loop(fc2, 2)
        io = [
            "--space", write_json(tmp_path / "s.json", space_to_json(fc2)),
            "--loop", write_json(tmp_path / "l.json", loop_to_json(loop)),
        ]
        code, certified = run(capsys, ["certify", *io])
        assert code == 0 and certified["verdict"] == "trivial_up_to"
        words = certified["certificate"]["words"]
        assert len(words) == 2 and words[-1]
        assert certified["scheme"]["words"] == words
        code, decided = run(capsys, ["decide", *io])
        assert code == 0 and decided["scheme"]["words"] == words

    def test_trivial_certificate_checks(self, capsys, files, tmp_path):
        code, out = run(
            capsys, ["certify", "--space", files["space"], "--loop", files["triangle"]]
        )
        assert code == 0 and out["verdict"] == "trivial_up_to"
        cert = write_json(tmp_path / "cert.json", out["certificate"])
        code, rep = run(
            capsys,
            [
                "check",
                "--space",
                files["space"],
                "--loop",
                files["triangle"],
                "--certificate",
                cert,
            ],
        )
        assert code == 0 and rep["ok"] is True

    def test_wrong_loop_rejected(self, capsys, files, tmp_path):
        _, out = run(capsys, ["certify", "--space", files["space"], "--loop", files["ring"]])
        cert = write_json(tmp_path / "cert.json", out["certificate"])
        code, rep = run(
            capsys,
            [
                "check",
                "--space",
                files["space"],
                "--loop",
                files["triangle"],
                "--cert",
                cert,
            ],
        )
        assert code == 2
        assert rep["ok"] is False
        assert "loop hash" in rep["reason"]

    def test_corrupt_certificate(self, capsys, files, tmp_path):
        cert = write_json(tmp_path / "cert.json", {"kind": "nontrivial"})
        code, _ = run(
            capsys,
            ["check", "--space", files["space"], "--loop", files["ring"], "--cert", cert],
        )
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [5, None, True, "no certificate here", ["certificate"], {"certificate": 5}],
        ids=["number", "null", "bool", "string", "list", "wrapped-number"],
    )
    def test_certificate_not_an_object(self, capsys, caplog, files, tmp_path, doc):
        cert = write_json(tmp_path / "cert.json", doc)
        code, out = run(
            capsys,
            ["check", "--space", files["space"], "--loop", files["ring"], "--cert", cert],
        )
        assert code == 2 and out == ""
        assert "bad certificate: not a JSON object" in caplog.text

    @pytest.mark.parametrize(
        "loop_key, tamper",
        [
            ("ring", lambda cert: dict(cert, level=1.7)),
            ("ring", lambda cert: dict(cert, level=True)),
            (
                "walk",
                lambda cert: dict(
                    cert,
                    diagrams=[[[a + 0.4, b + 0.3] for a, b in d] for d in cert["diagrams"]],
                ),
            ),
            ("walk", lambda cert: dict(cert, conclusive=1)),
            ("walk", lambda cert: dict(cert, conclusive=1.0)),
            ("walk", lambda cert: dict(cert, conclusive="true")),
        ],
        ids=[
            "fractional-level",
            "boolean-level",
            "fractional-positions",
            "integer-conclusive",
            "float-conclusive",
            "string-conclusive",
        ],
    )
    def test_non_integer_certificate_rejected(
        self, capsys, caplog, files, fc2, tmp_path, loop_key, tamper
    ):
        # Each number truncates to or equals the certified value, so
        # only the type check tells the tampered certificate from the
        # real one.
        if loop_key == "walk":
            files["walk"] = write_json(
                tmp_path / "walk.json", loop_to_json(trivial_walk_loop(fc2, 2))
            )
        io = ["--space", files["space"], "--loop", files[loop_key]]
        code, out = run(capsys, ["certify", *io])
        assert code == 0
        assert loop_key == "ring" or any(out["certificate"]["diagrams"])
        assert out["certificate"]["conclusive"] is (None if loop_key == "ring" else True)
        cert = write_json(tmp_path / "cert.json", tamper(out["certificate"]))
        code, out = run(capsys, ["check", *io, "--cert", cert])
        assert code == 2 and out == ""
        assert "bad certificate" in caplog.text

    def test_inconclusive_has_no_certificate(self, capsys, files, fc2, tmp_path):
        loop = trivial_walk_loop(fc2, 2)
        path = write_json(tmp_path / "walk.json", loop_to_json(loop))
        code, out = run(
            capsys,
            ["certify", "--space", files["space"], "--loop", path, "--caps", "1"],
        )
        assert code == 3
        assert "certificate" not in out


class TestRender:
    def test_space_to_file(self, capsys, files, tmp_path):
        out_path = tmp_path / "pic.svg"
        code, out = run(
            capsys,
            ["render", "--space", files["space"], "--out", str(out_path)],
        )
        assert code == 0
        assert out == {"written": str(out_path)}
        svg = out_path.read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_byte_determinism(self, capsys, files, tmp_path):
        args = [
            "render",
            "--space",
            files["space"],
            "--loop",
            files["ring"],
            "--corridors",
            "1",
        ]
        _, first = run(capsys, args)
        _, second = run(capsys, args)
        assert first == second

    def test_level_alias_draws_corridors(self, capsys, files):
        _, plain = run(capsys, ["render", "--space", files["space"]])
        _, with_corridors = run(
            capsys, ["render", "--space", files["space"], "--level", "1"]
        )
        assert len(with_corridors) > len(plain)

    def test_cellulation(self, capsys, files, fc2, tmp_path):
        loop = trivial_walk_loop(fc2, 2)
        path = write_json(tmp_path / "walk.json", loop_to_json(loop))
        code, svg = run(
            capsys,
            ["render", "--space", files["space"], "--loop", path, "--cellulation"],
        )
        assert code == 0
        assert svg.startswith("<svg")

    def test_cellulation_needs_loop(self, capsys, files):
        code, _ = run(
            capsys, ["render", "--space", files["space"], "--cellulation"]
        )
        assert code == 2


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["encode", "--level", "9"],
            ["decide", "--level", "9"],
            ["certify", "--level", "9"],
            ["render", "--corridors", "9"],
            ["render", "--cellulation", "--level", "7"],
        ],
    )
    def test_level_outside_space(self, capsys, caplog, files, argv):
        cmd, *rest = argv
        code, _ = run(
            capsys, [cmd, "--space", files["space"], "--loop", files["ring"], *rest]
        )
        assert code == 2
        assert "outside 1..2" in caplog.text

    def test_cellulation_validates_every_level(self, capsys, caplog, files, tmp_path):
        # The triangle lies inside the level-2 hole (2, 1, 1): a level-1
        # cellulation must still reject it, as encode and decide do.
        tri = PolyLoop(((F(1, 7), F(1, 7)), (F(5, 28), F(1, 7)), (F(1, 7), F(5, 28))))
        loop = write_json(tmp_path / "hole.json", loop_to_json(tri))
        for cmd in (["encode"], ["decide"], ["render", "--cellulation"]):
            code, _ = run(
                capsys, [*cmd, "--space", files["space"], "--loop", loop, "--level", "1"]
            )
            assert code == 2
        assert "(2, 1, 1)" in caplog.text


class TestOracle:
    KNOT = "d3+ d2+ l+ d2- l- d3- k+ d1+ l- d2+ l+ d2- d1- k-".split()

    def test_positional_tokens(self, capsys):
        code, out = run(capsys, ["oracle", *self.KNOT, "--commute", "l,d2"])
        assert code == 0 and out["trivial"] is True

    def test_relation_matters(self, capsys):
        code, out = run(capsys, ["oracle", *self.KNOT])
        assert code == 0 and out["trivial"] is False

    def test_word_form_with_diagrams(self, capsys):
        code, out = run(
            capsys,
            ["oracle", "trace", "--word", "a+ b+ a- b-", "--commute", "a,b", "--diagrams"],
        )
        assert code == 0
        assert out["trivial"] is True
        assert out["diagram_count"] == 1
        assert out["diagrams"] == [[[0, 2], [1, 3]]]

    def test_zero_cap_is_a_cap(self, capsys):
        code, _ = run(capsys, ["oracle", "a+", "a-", "--diagrams", "--cap-per-level", "0"])
        assert code == 3
        code, out = run(capsys, ["oracle", "a+", "a-", "--diagrams", "--cap-per-level", "1"])
        assert code == 0 and out["diagram_count"] == 1

    def test_caret_inverse_tokens(self, capsys):
        code, out = run(capsys, ["oracle", "a", "a^-1"])
        assert code == 0 and out["trivial"] is True

    def test_bad_commute_pair(self, capsys):
        code, _ = run(capsys, ["oracle", "a+", "a-", "--commute", "nonsense"])
        assert code == 2


class TestEntryPoints:
    def test_python_dash_m(self, files):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "carpetloop",
                "decide",
                "--space",
                files["space"],
                "--loop",
                files["ring"],
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "nontrivial"
