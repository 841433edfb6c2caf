"""The three workloads: requests, their known answers, and what each times.

Every workload is a closed loop with one client: the next request starts
after the previous one ends.  A run measures until its requests have
been busy for the requested number of seconds; input generation between
requests is not timed.  Each request is checked against the answer its
input was built to have.  A timed run also starts SETUP_REPEATS set-up
processes, spread over its busy time, for `setup_s`.
"""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import time
import traceback
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction

import carpetloop as cl
import fill_pool
import gen
from carpetloop.serialize import loop_from_json, space_from_json

# Library calls in requests go through `cl.` so that, once tracing wraps
# the package namespace, the benchmark's own calls are spans too.
#
# Every workload times a fixed corpus of inputs, drawn once from a fixed
# seed, in passes whose order the run's seed draws; see _passes.
#
# Loop shapes: ("walk", level) is an out-and-back walk of 1-4 moves, the
# lengths of the AC6 acceptance test; ("zigzag", level) repeats such a
# walk's word; ("ring", level) circles a hole of that level.  The n-th
# loop of a corpus has 1 + n % 4 moves, so each length is equally common.
# batch-warm's corpus has every shape at every length.
BATCH_CYCLE = tuple((kind, level) for level in (2, 3, 4) for kind in ("walk", "zigzag", "ring"))
BATCH_CORPUS = 4 * len(BATCH_CYCLE)
ZIGZAG_REPEATS = (2, 3)
# Each walk shape on each kind of space.  Walks start at level 3 and
# zig-zags at level 4 and repeat twice, because `render --cellulation`
# enumerates the cancellation diagrams of the level-5 word: a level-2
# walk took 27 s on one draw in three, and a level-3 zig-zag had 2470
# diagrams and took 9 s, against about 1 s for any other request.
CLI_CORPUS = (
    ("full", ("walk", 3)), ("explicit", ("walk", 3)),
    ("full", ("ring", 2)), ("explicit", ("ring", 4)),
    ("full", ("walk", 4)), ("explicit", ("walk", 4)),
    ("full", ("zigzag", 4)), ("explicit", ("zigzag", 4)),
)
CLI_ZIGZAG_REPEATS = (2,)
# An explicit space keeps each eligible square with probability 1/2: a
# uniformly random subset.
EXPLICIT_KEEP = 0.5
FILL_PER_LENGTH = 8
FILL_DEPTH = 4
DEPTH = 5
# Set-up processes per timed run, spread over its busy time.
SETUP_REPEATS = 7
# A CLI request that has not exited by then is killed and counted failed.
CLI_TIMEOUT_S = 60
# Pool loops whose plus targets are counted again in a traced fill run.
PLUS_SAMPLE = 40
HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")


@dataclass
class Run:
    """What one run measured and every request it attempted."""

    times: dict = field(default_factory=dict)  # request kind -> [seconds]
    requests: list = field(default_factory=list)  # (request id, seconds, input key)
    setup: list = field(default_factory=list)  # seconds per set-up process
    pace: list = field(default_factory=list)  # seconds per pace() call
    attempted: int = 0
    failures: list = field(default_factory=list)
    wrong_verdict: bool = False

    def record(self, kind: str, dt: float) -> None:
        self.times.setdefault(kind, []).append(dt)

    def fail(self, case, request, reason: str, verdict: bool = False) -> None:
        """Record a failed request with its inputs, and the traceback when one is being handled."""
        self.failures.append({
            "request": request, "reason": reason, "space": case.space, "loop": case.loop,
            "traceback": traceback.format_exc() if sys.exc_info()[0] else None,
        })
        self.wrong_verdict |= verdict

    def reset(self) -> None:
        """Forget the warm-up request's timings; it stays attempted and checked."""
        self.times.clear()


def _case(n: int, spec, space: dict, rng: random.Random, repeats=ZIGZAG_REPEATS) -> gen.Case:
    """The n-th input of a stream: its shape from the cycle, its length from n."""
    kind, level = spec
    if kind == "ring":
        return gen.ring_case(space, level, rng)
    moves = 1 + n % 4
    repeat = rng.choice(repeats) if kind == "zigzag" else 1
    return gen.walk_case(space, level, rng, moves, repeat)


def pace() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    The work is of the kinds the library does (exact fractions, tuples,
    dicts, sorting) and calls nothing in carpetloop, so no change to the
    program moves it; only the machine does.  On a shared machine the
    speed of Python code drifts by 20-40% over minutes, and every time a
    run measures drifts with it.  The garbage collector is off while it
    runs, so the size of the caller's heap does not move it either.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        seen = {}
        for i in range(1, 2500):
            f = Fraction(i % 89 + 1, 3 ** (i % 6 + 1))
            acc += f * f
            seen[(i % 251, f.denominator)] = (acc.numerator % 1000, f)
        sorted(seen.items())
        return time.perf_counter() - t0
    finally:
        gc.enable()


def setup_once(space: dict, work: str) -> float:
    """Wall time of a fresh process that imports, builds the space and its corridors."""
    path = os.path.join(work, "setup-space.json")
    with open(path, "w") as f:
        json.dump(space, f)
    t0 = time.perf_counter()
    # Piped output makes the wait end at the child's exit; a bare timed
    # wait would poll in steps of up to 50 ms.
    subprocess.run(
        [sys.executable, WORKER, "setup", path],
        check=True, capture_output=True, cwd=work, timeout=CLI_TIMEOUT_S,
    )
    return time.perf_counter() - t0


def _passes(corpus: list, rng: random.Random):
    """(index, input) over the corpus, pass after pass, each in a new drawn order.

    Every run times the same inputs, so a run's figures differ from
    another's only by order and by the machine, and every input of the
    first pass is timed before any is timed twice.  With inputs drawn per
    run instead, request costs that range over a factor of 20 made
    request_s.p50 spread by 0.24-0.27 over five seeds (quartile distance
    over median) on every workload, beyond the 0.25 bound.
    """
    order = list(range(len(corpus)))
    while True:
        rng.shuffle(order)
        for k in order:
            yield k, corpus[k]


def _measure(run: Run, stream, request, seconds: float, setup, first_pass: int) -> None:
    """Run requests from the stream until they have been busy `seconds`.

    Go on at least until the first pass over the corpus, `first_pass`
    requests, is done, so that every input is timed.  `pace` runs before
    every request.  A set-up process runs before the first request and
    again each time another 1/SETUP_REPEATS of the busy time has passed,
    so the set-up and pace times sample the same stretch of the
    machine's time as the requests.
    """
    busy = 0.0
    while busy < seconds or len(run.requests) < first_pass:
        if len(run.setup) < SETUP_REPEATS and busy >= len(run.setup) * seconds / SETUP_REPEATS:
            run.setup.append(setup())
        run.pace.append(pace())
        key, item = next(stream)
        rid = len(run.requests)
        dt = request(run, item, rid)
        run.requests.append((rid, dt, key))
        busy += dt
    while len(run.setup) < SETUP_REPEATS:
        run.setup.append(setup())


def _traced(run: Run, stream, request, seconds: float, set_tracing, trace=None) -> dict:
    """Each request twice in a row, once traced and once not.

    Which of the two goes first follows the Thue-Morse sequence, so both
    see the same machine and the same warmth, and the order does not lock
    onto the period of a workload's cycle of shapes.  Returns the ids of
    the traced requests and the tracing overhead: traced busy time over
    untraced busy time, minus one.
    """
    busy = {False: 0.0, True: 0.0}
    traced = []
    n = 0
    while busy[False] + busy[True] < seconds:
        set_tracing(False)  # input generation is never traced
        key, item = next(stream)
        for on in (False, True) if bin(n).count("1") % 2 == 0 else (True, False):
            set_tracing(on)
            rid = len(run.requests)
            if trace is not None:
                trace.request = rid
            dt = request(run, item, rid)
            run.requests.append((rid, dt, key))
            busy[on] += dt
            if on:
                traced.append(rid)
        n += 1
    set_tracing(False)
    return {"traced": traced, "overhead": busy[True] / busy[False] - 1}


def _in_process(run, corpus, rng, request, seconds, trace, setup) -> dict:
    request(run, corpus[0], "warmup")  # fills the per-level caches
    run.reset()
    stream = _passes(corpus, rng)
    if trace is None:
        _measure(run, stream, request, seconds, setup, len(corpus))
        return {}

    def set_tracing(on: bool) -> None:
        if on:
            trace.install()
        else:
            trace.uninstall()

    return _traced(run, stream, request, seconds, set_tracing, trace)


# ---------------------------------------------------------------------------
# batch-warm: one process, one depth-5 full carpet, many loops


def batch_warm(run: Run, seed: int, seconds: float, work: str, trace=None) -> dict:
    rng = random.Random(f"batch-warm:{seed}")
    space = gen.full_carpet_json(DEPTH)
    seq = space_from_json(space)
    for i in range(1, DEPTH + 1):
        cl.corridors(seq, i)
    if trace is not None:
        trace.mark_built(seq, range(1, DEPTH + 1))
    made = random.Random("batch-warm corpus")
    corpus = [_case(n, BATCH_CYCLE[n % len(BATCH_CYCLE)], space, made) for n in range(BATCH_CORPUS)]

    def request(run: Run, case: gen.Case, rid) -> float:
        loop = loop_from_json(case.loop)
        run.attempted += 1
        t0 = time.perf_counter()
        try:
            verdict, cert = cl.make_certificate(loop, seq)
        except Exception as e:  # a raise is a failed request, not a crash
            run.fail(case, rid, f"make_certificate raised {type(e).__name__}: {e}", True)
            return time.perf_counter() - t0
        t1 = time.perf_counter()
        problem = gen.verdict_problem(case.expect, gen.verdict_json(verdict))
        if problem:
            run.fail(case, rid, problem, True)
            return t1 - t0
        try:
            rep = cl.check_certificate(cert, loop, seq)
        except Exception as e:
            run.fail(case, rid, f"check_certificate raised {type(e).__name__}: {e}")
            return time.perf_counter() - t0
        t2 = time.perf_counter()
        if not rep.ok:
            run.fail(case, rid, f"certificate rejected: {rep.reason}")
        run.record("certify_s", t1 - t0)
        run.record("check_s", t2 - t1)
        run.record(case.expect[0], t2 - t0)
        return t2 - t0

    return _in_process(run, corpus, rng, request, seconds, trace, lambda: setup_once(space, work))


# ---------------------------------------------------------------------------
# fill: depth-4 out-and-back loops through the disk-filling certification


def fill_parts(seq, loop):
    """Decide, then fill every level from the decided scheme over shared marks."""
    verdict = cl.decide(loop, seq)
    if not isinstance(verdict, cl.TrivialUpTo):
        return verdict, None
    words = [cl.encode_word(loop, seq, i) for i in range(1, FILL_DEPTH + 1)]
    marks = sorted({t for w in words for l in w.letters for t in (l.interval.start, l.interval.end % 1)})
    hs = [
        cl.build_homotopy(loop, seq, i, d, word=w, extra_params=marks)
        for i, (w, d) in enumerate(zip(words, verdict.scheme.diagrams), start=1)
    ]
    return verdict, hs


def needs_plus(hs) -> bool:
    """Whether a face of some level's filling goes towards a "plus" target."""
    return hs is not None and any("plus" in h.target_kinds for h in hs)


def fill(run: Run, seed: int, seconds: float, work: str, trace=None) -> dict:
    """A fixed corpus of loops from the recorded pool (fill_pool.py).

    The corpus takes only pool loops that had no plus target when the
    pool was recorded: those cost 15-75 s each at that commit, more than
    a whole run.  A traced run also counts plus targets afresh on a
    sample of the whole pool and fills one recorded plus-target loop.
    """
    rng = random.Random(f"fill:{seed}")
    pool = fill_pool.load()
    space = pool["space"]
    seq = space_from_json(space)
    for i in range(1, FILL_DEPTH + 1):
        cl.corridors(seq, i)
    if trace is not None:
        trace.mark_built(seq, range(1, FILL_DEPTH + 1))

    def case(entry) -> gen.Case:
        return gen.Case("out_and_back", space, entry["loop"], ("trivial", FILL_DEPTH))

    # The first loops of each length that had no plus target.
    corpus = [
        case(e)
        for m in (1, 2, 3, 4)
        for e in [e for e in pool["loops"] if not e["plus"] and e["moves"] == m][:FILL_PER_LENGTH]
    ]

    def request(run: Run, case: gen.Case, rid) -> float:
        loop = loop_from_json(case.loop)
        run.attempted += 1
        t0 = time.perf_counter()
        try:
            verdict, hs = fill_parts(seq, loop)
        except Exception as e:
            run.fail(case, rid, f"decide or fill raised {type(e).__name__}: {e}", True)
            return time.perf_counter() - t0
        problem = gen.verdict_problem(case.expect, gen.verdict_json(verdict))
        if problem:
            run.fail(case, rid, problem, True)
            return time.perf_counter() - t0
        try:
            reps = [cl.verify_containment(h) for h in hs]
            gaps = [cl.convergence_gap(a, b) for a, b in zip(hs, hs[1:])]
        except Exception as e:
            run.fail(case, rid, f"containment or gap raised {type(e).__name__}: {e}")
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        for rep in reps:
            if not rep.ok:
                run.fail(case, rid, f"level-{rep.level} containment found {len(rep.violations)} violations")
        for i, g in enumerate(gaps, start=1):
            if g.bound != Fraction(6, 3**i) or not g.holds:
                run.fail(case, rid, f"gap {g.level_pair}: holds={g.holds} bound={g.bound}")
        run.record("fill_s", dt)
        return dt

    extra = _in_process(run, corpus, rng, request, seconds, trace, lambda: setup_once(space, work))
    if trace is None:
        return extra
    # The share of loops that need a plus target, by the program under
    # test, over a sample of the whole pool; untraced, decide and fill only.
    found = 0
    sample = rng.sample(pool["loops"], PLUS_SAMPLE)
    for n, entry in enumerate(sample):
        c = case(entry)
        run.attempted += 1
        try:
            verdict, hs = fill_parts(seq, loop_from_json(c.loop))
        except Exception as e:
            run.fail(c, f"share-{n}", f"decide or fill raised {type(e).__name__}: {e}", True)
            continue
        problem = gen.verdict_problem(c.expect, gen.verdict_json(verdict))
        if problem:
            run.fail(c, f"share-{n}", problem, True)
        found += needs_plus(hs)
    extra.update(plus_base=len(sample), plus_found=found)
    # One recorded plus-target loop, traced, so the sampled path shows per
    # layer.  It is one of those with the fewest moves: two-move ones took
    # 15-30 s, longer ones up to 75 s, too close to a run's time limit.
    plus = [e for e in pool["loops"] if e["plus"]]
    fewest = min(e["moves"] for e in plus)
    entry = rng.choice([e for e in plus if e["moves"] == fewest])
    trace.install()
    trace.request = "plus"
    t0 = time.perf_counter()
    request(run, case(entry), "plus")
    extra["plus_loop_s"] = time.perf_counter() - t0
    trace.uninstall()
    return extra


# ---------------------------------------------------------------------------
# cli-cold: a fresh `python -m carpetloop` per request


def cli_cold(run: Run, seed: int, seconds: float, work: str, trace=None) -> dict:
    rng = random.Random(f"cli-cold:{seed}")
    full = gen.full_carpet_json(DEPTH)
    root = os.path.dirname(HERE)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    span_dumps = []
    traced_phase = False
    made = random.Random("cli-cold corpus")
    corpus = []
    for n, (where, spec) in enumerate(CLI_CORPUS):
        space = full if where == "full" else gen.explicit_space_json(DEPTH, made, EXPLICIT_KEEP)
        case = _case(n, spec, space, made, CLI_ZIGZAG_REPEATS)
        base = os.path.join(work, f"in{n}")
        paths = {k: f"{base}-{k}.json" for k in ("space", "loop", "cert", "svg")}
        for k in ("space", "loop"):
            with open(paths[k], "w") as f:
                json.dump(getattr(case, k), f)
        io = ["--space", paths["space"], "--loop", paths["loop"]]
        cmds = [("decide", io), ("certify", io), ("check", io + ["--cert", paths["cert"]])]
        if case.expect[0] == "trivial":
            cmds.append(("render", io + ["--cellulation", "--out", paths["svg"]]))
        corpus.append((case, cmds, paths))

    def commands():
        """One input's commands in order: check reads the certificate just made."""
        for k, (case, cmds, paths) in _passes(corpus, rng):
            for cmd, args in cmds:
                yield (k, cmd), (case, (cmd, args, paths))

    def request(run: Run, item, rid) -> float:
        case, (cmd, args, paths) = item
        argv = [cmd] + args
        made_file = {"certify": "cert", "render": "svg"}.get(cmd)
        if made_file and os.path.exists(paths[made_file]):
            os.remove(paths[made_file])  # so no check passes on an earlier pass's output
        if traced_phase:
            dump = os.path.join(work, f"spans-{rid}.json")
            argv_run = [sys.executable, WORKER, "cli", dump, *argv]
            env_run = dict(env, PERFBENCH_SPAWN_NS=str(time.monotonic_ns()))
        else:
            dump = None
            argv_run = [sys.executable, "-m", "carpetloop", *argv]
            env_run = env
        run.attempted += 1
        t0 = time.perf_counter()
        try:
            p = subprocess.run(
                argv_run, capture_output=True, text=True, env=env_run, cwd=work, timeout=CLI_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            dt = time.perf_counter() - t0
            run.fail(case, rid, f"{cmd}: no exit within {CLI_TIMEOUT_S} s", True)
            return dt
        dt = time.perf_counter() - t0
        run.record(f"cli_s.{cmd}", dt)
        run.record("cli_s", dt)
        if dump is not None and os.path.exists(dump):
            span_dumps.append((rid, dump))
        problem = _cli_problem(case, cmd, p, paths)
        if problem:
            run.fail(case, rid, f"{cmd}: {problem}", cmd in ("decide", "certify"))
        return dt

    def set_tracing(on: bool) -> None:
        nonlocal traced_phase
        traced_phase = on

    stream = commands()
    if trace is None:
        first_pass = sum(len(cmds) for _, cmds, _ in corpus)
        _measure(run, stream, request, seconds, lambda: setup_once(full, work), first_pass)
        return {}
    extra = _traced(run, stream, request, seconds, set_tracing)
    return dict(extra, dumps=span_dumps)


def _cli_problem(case: gen.Case, cmd: str, p, paths) -> str:
    if p.returncode != 0:
        return f"exit code {p.returncode}, expected 0; stderr: {p.stderr.strip()[-300:]}"
    try:
        out = json.loads(p.stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if cmd in ("decide", "certify"):
        problem = gen.verdict_problem(case.expect, out)
        if problem:
            return f"wrong verdict: {problem}"
        if cmd == "certify":
            if "certificate" not in out:
                return "no certificate in output"
            with open(paths["cert"], "w") as f:
                f.write(p.stdout)
        return ""
    if cmd == "check":
        return "" if out.get("ok") is True else f"certificate rejected: {out.get('reason')}"
    try:
        root = ET.parse(paths["svg"]).getroot()
    except (OSError, ET.ParseError) as e:
        return f"render output does not parse: {e}"
    return "" if root.tag.endswith("svg") else f"render root element is {root.tag}"
