"""Spans around calls into carpetloop's modules, recorded from outside.

`install` replaces every public function of the layer modules with a
wrapper, in every carpetloop namespace that binds it (`uninstall` puts
the originals back), so a caller that
looks the name up at call time (`carpetloop.decide.encode_word` as well
as `carpetloop.words.encode_word`) goes through the wrapper.  Each call
becomes one span: name, start, end, parent span and request id.  Spans
stay in memory until `dump`.  Counters are read from public return
values only; nothing in the library changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

from carpetloop.errors import CapExceeded

LAYERS = ("grid", "freegroup", "words", "traces", "decide", "homotopy", "serialize", "render", "cli")

COUNTED = frozenset((
    "grid.corridors", "freegroup.puncture_word", "words.encode_word",
    "traces.coherent_scheme", "traces.enumerate_diagrams", "homotopy.build_homotopy",
    "homotopy.verify_containment", "homotopy.convergence_gap",
))


def _count(name, args, result, tracer):
    """Counters a span contributes, read from its arguments and return value."""
    c = {}
    if name == "grid.corridors":
        key = (id(args[0]), args[1])
        if key not in tracer.built:
            tracer.built.add(key)
            c["grid.corridors_n"] = len(result)
    elif name == "freegroup.puncture_word":
        c["freegroup.letters"] = len(result.letters)
    elif name == "words.encode_word":
        c["words.letters"] = len(result.letters)
    elif name == "traces.coherent_scheme":
        c["traces.diagrams"] = len(result.diagrams)
    elif name == "traces.enumerate_diagrams":
        c["traces.diagrams"] = len(result)
    elif name == "homotopy.build_homotopy":
        c["homotopy.faces"] = len(result.fills)
        c["homotopy.clamped_faces"] = sum(bool(getattr(f, "clamped", False)) for f in result.fills)
    elif name == "homotopy.verify_containment":
        c["homotopy.exact_faces"] = result.exact_faces
        c["homotopy.sampled_faces"] = getattr(result, "sampled_faces", 0)
        c["homotopy.samples"] = getattr(result, "samples", 0)
    elif name == "homotopy.convergence_gap":
        c["homotopy.gap_pairs_checked"] = result.pairs_checked
        c["homotopy.inexact_gaps"] = int(not getattr(result, "exact", True))
        c["homotopy.gap_samples"] = getattr(result, "samples", 0)
    return c


class Tracer:
    def __init__(self):
        # (span id, name, start ns, end ns, parent id, request id)
        self.spans: list[tuple] = []
        self.counts: dict = defaultdict(Counter)  # request id -> counter
        self.stack: list[int] = []
        self.request = None
        self.built: set = set()
        self.swaps: list = []  # (namespace, name, original, wrapper)

    def wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter_ns
        counted = name in COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except CapExceeded:
                tracer.counts[tracer.request]["traces.caps_hit"] += 1
                raise
            finally:
                t1 = clock()
                tracer.stack.pop()
                tracer.spans[sid] = (sid, name, t0, t1, parent, tracer.request)
            if counted:
                tracer.counts[tracer.request].update(_count(name, args, result, tracer))
            return result

        return traced

    def install(self):
        """Wrap the layer modules' public functions in every carpetloop namespace."""
        if not self.swaps:
            self.swaps = self._find_swaps()
        for target, attr, _, wrapped in self.swaps:
            setattr(target, attr, wrapped)

    def uninstall(self):
        """Put the original functions back."""
        for target, attr, original, _ in self.swaps:
            setattr(target, attr, original)

    def _find_swaps(self) -> list:
        for layer in LAYERS:
            importlib.import_module(f"carpetloop.{layer}")
        mods = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "carpetloop"}
        wrappers = {}
        for layer in LAYERS:
            mod = mods[f"carpetloop.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        swaps = []
        for mod in mods.values():
            for attr, obj in vars(mod).items():
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    swaps.append((mod, attr, obj, hit[1]))
        # The space constructors are static methods: the rest of "spaces".
        cls = mods["carpetloop.grid"].DefiningSequence
        for m in ("full_carpet", "explicit"):
            wrapped = staticmethod(self.wrap(f"grid.{m}", getattr(cls, m)))
            swaps.append((cls, m, cls.__dict__[m], wrapped))
        return swaps

    def mark_built(self, seq, levels) -> None:
        """Record corridor levels built before tracing started."""
        self.built.update((id(seq), i) for i in levels)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": {str(k): v for k, v in self.counts.items()}}, f)


def merge(spans: list, counts: dict, other: dict, request) -> None:
    """Append spans and counts dumped by another process under one request id."""
    base = len(spans)
    for sid, name, t0, t1, parent, _ in other["spans"]:
        spans.append((base + sid, name, t0, t1, parent + base if parent >= 0 else -1, request))
    for c in other["counts"].values():
        counts[request].update(c)


def _outermost_ns(spans: list, by_id: dict, group) -> int:
    """Total duration of the spans in a group that have no ancestor in it."""
    total = 0
    for _, name, t0, t1, parent, _ in spans:
        if group(name):
            while parent >= 0 and not group(by_id[parent][1]):
                parent = by_id[parent][4]
            if parent < 0:
                total += t1 - t0
    return total


def layer_metrics(spans: list, counts: dict, requests: int) -> dict:
    """Per-request means of layer self times, chosen inclusive times and counters."""
    by_id = {s[0]: s for s in spans}
    child = Counter()
    self_ns = Counter()
    calls = Counter()
    for _, _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    for sid, name, t0, t1, _, _ in spans:
        self_ns[name] += t1 - t0 - child[sid]
        calls[name] += 1
    layer_self = Counter()
    for name, ns in self_ns.items():
        layer_self[name.split(".")[0]] += ns
    total = Counter()
    for c in counts.values():
        total.update(c)

    n = max(requests, 1)
    out = {f"{layer}.self_s": layer_self[layer] / 1e9 / n for layer in LAYERS}
    for name in (
        "grid.corridors", "grid.validate_loop", "freegroup.puncture_word",
        "words.encode_word", "words.refinement_map", "traces.trace_trivial",
        "traces.coherent_scheme", "traces.enumerate_diagrams",
        "homotopy.build_homotopy", "homotopy.verify_containment",
        "homotopy.convergence_gap", "render.render_disk",
    ):
        out[f"{name}_s"] = _outermost_ns(spans, by_id, name.__eq__) / 1e9 / n
    for name in ("freegroup.puncture_word", "words.encode_word", "words.refinement_map"):
        out[f"{name}_calls"] = calls[name] / n
    for name in ("decide.make_certificate", "decide.check_certificate"):
        out[f"{name}.self_s"] = self_ns[name] / 1e9 / n
    serialize = lambda name: name.startswith("serialize.")
    out["serialize.load_hash_s"] = _outermost_ns(spans, by_id, serialize) / 1e9 / n
    for key in (
        "grid.corridors_n", "freegroup.letters", "words.letters", "traces.diagrams",
        "traces.caps_hit", "homotopy.faces", "homotopy.exact_faces",
        "homotopy.gap_pairs_checked",
    ):
        out[key] = total[key] / n
    out["trace.spans"] = len(spans) / n
    return out
