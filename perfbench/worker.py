"""A fresh carpetloop process, started by run.py.

    worker.py setup SPACE_JSON        import, build the space, build corridors per level
    worker.py cli SPANS_OUT ARGV...   trace carpetloop.cli.main(ARGV), write spans to SPANS_OUT

The traced CLI run records how long interpreter start and importing
carpetloop.cli took, counted from PERFBENCH_SPAWN_NS (a
time.monotonic_ns() reading taken by the parent just before it started
this process), and exits with the CLI's own exit code.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        from carpetloop import corridors
        from carpetloop.serialize import space_from_json

        with open(argv[1]) as f:
            seq = space_from_json(json.load(f))
        for i in range(1, seq.depth + 1):
            corridors(seq, i)
        return 0
    if mode == "cli":
        from carpetloop import cli

        startup_ns = time.monotonic_ns() - int(os.environ["PERFBENCH_SPAWN_NS"])
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.request = 0
        try:
            return cli.main(argv[2:])
        finally:
            tracer.counts[0]["cli.startup_ns"] += startup_ns
            tracer.dump(argv[1])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
