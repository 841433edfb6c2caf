"""Command-line interface.

Results go to stdout as JSON; diagnostics go to stderr.  Exit codes:
0 for a decided verdict or a valid certificate, 2 for bad input (a
level outside the space included) or a failed check, 3 when the answer
is inconclusive (caps, degeneracy).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import Optional

from .decide import (
    Inconclusive,
    Nontrivial,
    TrivialUpTo,
    check_certificate,
    Certificate,
    decide,
    level_words,
    make_certificate,
)
from .errors import CarpetLoopError, LevelOutOfRange
from .grid import DefiningSequence, PolyLoop, validate_loop
from .render import render_space
from .serialize import (
    FormatError,
    loop_from_json,
    scheme_to_json,
    space_from_json,
)
from .traces import SearchCaps, TraceWord, enumerate_diagrams, first_diagram, trace_trivial
from .words import encode_word

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise FormatError(f"cannot read {path}: {e}") from e


def _load_space(path: str) -> DefiningSequence:
    return space_from_json(_read_json(path))


def _load_loop(path: str) -> PolyLoop:
    return loop_from_json(_read_json(path))


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _caps(args) -> SearchCaps:
    shared = getattr(args, "caps", None)
    per = args.cap_per_level
    if per is None:
        per = shared if shared is not None else 100_000
    work = args.cap_work
    if work is None:
        work = shared if shared is not None else 2_000_000
    return SearchCaps(per_level=per, work=work)


def _verdict_json(v) -> dict:
    if isinstance(v, Nontrivial):
        return {
            "verdict": "nontrivial",
            "level": v.level,
            "witness": v.witness.text,
        }
    if isinstance(v, TrivialUpTo):
        return {
            "verdict": "trivial_up_to",
            "depth": v.depth,
            "conclusive": v.conclusive,
            "scheme": scheme_to_json(v.words, v.scheme.diagrams),
        }
    return {"verdict": "inconclusive", "kind": v.kind, "reason": v.reason}


def _verdict_exit(v) -> int:
    if isinstance(v, Inconclusive):
        return EXIT_INPUT if v.kind == "validation" else EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_encode(args) -> int:
    seq = _load_space(args.space)
    loop = _load_loop(args.loop)
    n = args.level if args.level is not None else seq.depth
    words = {}
    free = {}
    for lv in level_words(loop, seq, n):
        if isinstance(lv, Inconclusive):
            _emit({"error": lv.reason})
            return _verdict_exit(lv)
        words[str(lv.level)] = lv.word.text
        free[str(lv.level)] = lv.free.text
    _emit({"levels": n, "words": words, "free_words": free})
    return EXIT_OK


def cmd_decide(args) -> int:
    seq = _load_space(args.space)
    loop = _load_loop(args.loop)
    v = decide(loop, seq, N=args.level, caps=_caps(args))
    _emit(_verdict_json(v))
    return _verdict_exit(v)


def cmd_certify(args) -> int:
    seq = _load_space(args.space)
    loop = _load_loop(args.loop)
    v, cert = make_certificate(loop, seq, N=args.level, caps=_caps(args))
    out = _verdict_json(v)
    if cert is not None:
        out["certificate"] = cert.to_json()
    _emit(out)
    return _verdict_exit(v)


def cmd_check(args) -> int:
    seq = _load_space(args.space)
    loop = _load_loop(args.loop)
    data = _read_json(args.certificate)
    try:
        if isinstance(data, dict) and "certificate" in data:
            data = data["certificate"]
        if not isinstance(data, dict):
            raise TypeError("not a JSON object")
        cert = Certificate.from_json(data)
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad certificate: {e}") from e
    rep = check_certificate(cert, loop, seq)
    _emit({"ok": rep.ok, "reason": rep.reason})
    return EXIT_OK if rep.ok else EXIT_INPUT


def cmd_render(args) -> int:
    seq = _load_space(args.space)
    loop = _load_loop(args.loop) if args.loop else None
    if args.cellulation:
        if loop is None:
            raise FormatError("--cellulation needs a loop")
        svg = _render_cellulation(seq, loop, args.corridors, args.size)
    else:
        svg = render_space(
            seq, loop=loop, corridor_level=args.corridors, size=args.size
        )
    if args.out == "-":
        sys.stdout.write(svg)
    else:
        with open(args.out, "w") as f:
            f.write(svg)
        _emit({"written": args.out})
    return EXIT_OK


def _render_cellulation(seq, loop, level, size) -> str:
    from .homotopy import build_homotopy
    from .render import render_disk

    n = level if level is not None else seq.depth
    seq.check_level(n)
    report = validate_loop(loop, seq, seq.depth)
    if not report.ok:
        raise FormatError(report.first.describe())
    word = encode_word(loop, seq, n)
    diagram = first_diagram(word.trace)
    if diagram is None:
        raise CarpetLoopError(f"level-{n} word admits no cancellation diagram")
    h = build_homotopy(loop, seq, n, diagram, word=word)
    return render_disk(h, size=size)


def cmd_oracle(args) -> int:
    tokens = list(args.tokens)
    if tokens[:1] == ["trace"]:
        tokens = tokens[1:]
    if args.word:
        tokens.extend(args.word.split())
    commuting = []
    for group in args.commute or []:
        for pair in group.split(";"):
            a, _, b = pair.partition(",")
            if not a or not b:
                raise FormatError(f"bad commute pair {pair!r}")
            commuting.append((a.strip(), b.strip()))
    word = TraceWord.from_strings(tokens, commuting)
    out = {"trivial": trace_trivial(word)}
    if args.diagrams:
        cap = args.cap_per_level if args.cap_per_level is not None else 100_000
        ds = enumerate_diagrams(word, cap=cap)
        out["diagrams"] = [list(map(list, d.sorted_pairs)) for d in ds]
        out["diagram_count"] = len(ds)
    _emit(out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="carpetloop",
        description="Decide contractibility of polygonal loops in "
        "grid-carpet complements.",
    )
    p.add_argument("-v", "--verbose", action="count", default=0)
    sub = p.add_subparsers(dest="command", required=True)

    def add_io(sp, loop_required=True):
        sp.add_argument("--space", required=True, help="space JSON file or -")
        sp.add_argument(
            "--loop", required=loop_required, help="loop JSON file or -"
        )

    def add_level(sp):
        sp.add_argument(
            "--level", "--depth", type=int, default=None, dest="level"
        )

    def add_search(sp):
        add_level(sp)
        sp.add_argument(
            "--caps", type=int, default=None, help="shorthand for both caps"
        )
        sp.add_argument("--cap-per-level", type=int, default=None)
        sp.add_argument("--cap-work", type=int, default=None)

    sp = sub.add_parser("encode", help="corridor and puncture words per level")
    add_io(sp)
    add_level(sp)
    sp.set_defaults(fn=cmd_encode)

    sp = sub.add_parser("decide", help="three-valued contractibility verdict")
    add_io(sp)
    add_search(sp)
    sp.set_defaults(fn=cmd_decide)

    sp = sub.add_parser("certify", help="decide and emit a replayable certificate")
    add_io(sp)
    add_search(sp)
    sp.set_defaults(fn=cmd_certify)

    sp = sub.add_parser("check", help="replay a certificate against inputs")
    add_io(sp)
    sp.add_argument(
        "--certificate",
        "--cert",
        required=True,
        dest="certificate",
        help="certificate JSON file or -",
    )
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("render", help="SVG picture of a space and loop")
    add_io(sp, loop_required=False)
    sp.add_argument(
        "--corridors", "--level", type=int, default=None, dest="corridors",
        metavar="LEVEL",
    )
    sp.add_argument(
        "--cellulation",
        action="store_true",
        help="disk cellulation of the loop's word instead of the space",
    )
    sp.add_argument("--size", type=int, default=600)
    sp.add_argument("--out", default="-")
    sp.set_defaults(fn=cmd_render)

    sp = sub.add_parser("oracle", help="piling verdict for a generic word")
    sp.add_argument(
        "tokens", nargs="*", help='letters like "a b a^-1 b-"; a leading '
        '"trace" is allowed and ignored'
    )
    sp.add_argument("--word", default=None, help="letters as one string")
    sp.add_argument(
        "--commute", action="append", help='pairs "a,b" or "a,b;c,d"; repeatable'
    )
    sp.add_argument("--diagrams", action="store_true")
    sp.add_argument("--cap-per-level", type=int, default=None)
    sp.set_defaults(fn=cmd_oracle)

    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(stream=sys.stderr, level=level, format="%(message)s")
    try:
        return args.fn(args)
    except (FormatError, LevelOutOfRange) as e:
        log.error("%s", e)
        return EXIT_INPUT
    except CarpetLoopError as e:
        log.error("%s", e)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    raise SystemExit(main())
