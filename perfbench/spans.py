"""Spans around the calls into each plumbtau module, recorded from outside.

``Tracer.install`` wraps every public function of the layer modules and
rebinds each name that a module imported with ``from .x import y``, so a
call made through ``tau``, ``obstruct`` or ``cli`` is seen as well.  Each
call gets a frame on a stack; on return its duration goes to the parent,
and its self time (duration minus children) to per-function and
per-module totals.  Calls of ordinary functions also leave a span
(name, start, end, parent, document) in memory; hot leaves are only
counted and timed.  ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "linalg", "plumbing", "tau", "surgery", "floer", "obstruct")

# Leaves called thousands of times per document: aggregated, no spans.
HOT = frozenset(
    {
        "linalg.pair",
        "linalg.det",
        "linalg.solve_exact",
        "linalg.in_image_of",
        "plumbing.is_characteristic",
        "plumbing.square",
        "plumbing.d_candidate",
        "tau.pairing",
        "obstruct.TauProfile.tau_at",
    }
)

# Result sizes worth counting: name -> function of the return value.
COUNTED = {
    "plumbing.short_char_vectors": len,
    "obstruct.metaboliser_candidates": len,
    "floer.parse_complex": lambda result: len(result[0].entries),
}


class Stat:
    __slots__ = ("calls", "self", "count")

    def __init__(self):
        self.calls = 0
        self.self = 0.0
        self.count = 0


class Tracer:
    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.module_self = dict.fromkeys(LAYERS, 0.0)
        self.spans: list[tuple] = []
        self.reads: set = set()  # classes read through TauProfile.tau_at
        self.doc = None
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    def reset(self):
        self.stats.clear()
        self.module_self = dict.fromkeys(LAYERS, 0.0)
        self.spans = []

    def _wrap(self, name: str, fn):
        tracer = self
        module = name.split(".", 1)[0]
        hot = name in HOT
        counter = COUNTED.get(name)
        reads = name == "obstruct.TauProfile.tau_at"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [0.0, tracer._next_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                stat = tracer.stats[name]
                stat.calls += 1
                stat.self += own
                tracer.module_self[module] += own
                if not hot:
                    tracer.spans.append(
                        (frame[1], parent[1] if parent else 0, name, start, end, tracer.doc)
                    )
            if counter is not None:
                tracer.stats[name].count += counter(result)
            if reads:
                tracer.reads.add(args[1].rep)
            return result

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod_name, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{mod_name}.{attr}", obj))
        profile = self.modules["obstruct"].TauProfile
        self._saved.append((profile, "tau_at", profile.tau_at))
        profile.tau_at = self._wrap("obstruct.TauProfile.tau_at", profile.tau_at)
        # rebind every module-level name, including `from .x import y` copies
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def top_level_seconds(self) -> float:
        return sum(end - start for _, parent, _, start, end, _ in self.spans if parent == 0)

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "parent": p, "name": n, "start": s, "end": e, "doc": d}
            for i, p, n, s, e, d in self.spans
        ]
