"""The fixed pool of loops that the fill workload draws from.

    python3 perfbench/fill_pool.py [--draws 300]    # rewrites perfbench/fill_pool.json

Loops are depth-4 out-and-back loops drawn as the AC6 acceptance test
draws them: a walk of 1 to 4 moves (each length equally likely) between
kept even-even cells at level 4, then its exact reversal, realized with
`realize_word`.  The draws come from one fixed seed.  Each is recorded
with its loop JSON, its number of moves, and whether the program that
recorded the pool filled one of its faces towards a "plus" target.

Which loops are timed is then data, not a property of the program under
test: every version times the same loops, read from this file, and a
version that sends a recorded loop down a slower path is timed on it.
Regenerate the pool only in a change that redefines the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PATH = os.path.join(HERE, "fill_pool.json")
DEPTH = 4
SEED = "fill-pool"


def load() -> dict:
    with open(PATH) as f:
        return json.load(f)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--draws", type=int, default=300)
    args = p.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gen
    import workloads
    from carpetloop.serialize import loop_from_json, space_from_json

    space = gen.full_carpet_json(DEPTH)
    seq = space_from_json(space)
    rng = random.Random(SEED)
    loops = []
    for n in range(args.draws):
        moves = rng.randint(1, 4)
        case = gen.walk_case(space, DEPTH, rng, moves)
        _, hs = workloads.fill_parts(seq, loop_from_json(case.loop))
        plus = workloads.needs_plus(hs)
        loops.append({"moves": moves, "plus": plus, "loop": case.loop})
        print(n, moves, plus, flush=True)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    with open(PATH, "w") as f:
        f.write('{"seed": %s, "recorded_at": %s, "space": %s, "loops": [\n'
                % (json.dumps(SEED), json.dumps(commit), json.dumps(space)))
        f.write(",\n".join(json.dumps(e, separators=(",", ":")) for e in loops))
        f.write("\n]}\n")
    print(f"{len(loops)} loops, {sum(e['plus'] for e in loops)} with a plus target, in {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
