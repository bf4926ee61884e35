"""Spans around the public entry points of each qspex layer.

`Tracer.install` replaces each function in TRACED with a wrapper, in every
qspex module namespace that holds it, so calls between layers are caught as
well as calls from the benchmark.  Each call becomes one span (name, parent,
start, end) kept in memory.  Self time is the span's duration minus the time
its child spans cover, so it includes the untraced helpers a function calls
(q_radius's self time holds the whole eigensolve).  A few counts are
taken at the same boundaries: catalog augmentations tried, enumerated class
members, and climber steps.  `uninstall` restores the
original functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

import qspex

TRACED = {
    "graphs": ("canonical_graph", "from_graph6", "to_graph6"),
    "spectral": ("q_radius",),
    "matching": ("matching_number", "extremal_matching"),
    "family": ("predicted_extremal",),
    "transform": ("rotate", "kelmans_swap"),
    "search": ("connected_catalog", "enumerate_graphs", "max_radius_over", "hill_climb"),
    "verify": ("verify_theorem1", "verify_beta1", "check_lemma2", "check_lemma3", "emit_report"),
    "cli": ("main",),
}

# Reported groups of functions: metric stem -> span names summed into it.
GROUPS = {
    "graphs.graph6": ("graphs.from_graph6", "graphs.to_graph6"),
    "verify.verify": ("verify.verify_theorem1", "verify.verify_beta1"),
    "verify.check_lemma": ("verify.check_lemma2", "verify.check_lemma3"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start ns, end ns]
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span index, child ns, name]
        self._patched: list[tuple] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [qspex]
        wrappers = {}
        for layer, functions in TRACED.items():
            mod = importlib.import_module(f"qspex.{layer}")
            modules.append(mod)
            for attr in functions:
                fn = getattr(mod, attr)
                wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in self._patched:
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        clock = time.perf_counter_ns
        hook = {
            "graphs.canonical_graph": self._on_canonical,
            "search.enumerate_graphs": self._on_enumerate,
            "search.hill_climb": self._on_climb,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            frame = [idx, 0, name]
            span = [name, stack[-1][0] if stack else -1, 0, 0]
            spans.append(span)
            stack.append(frame)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span[3] = end
                stack.pop()
                dur = end - span[2]
                self_ns[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(result)
            return result

        return traced

    # -- counts at span boundaries ---------------------------------------

    def _on_canonical(self, result) -> None:
        if self._stack and self._stack[-1][2] == "search.connected_catalog":
            self.counts["search.catalog.canonical"] += 1

    def _on_enumerate(self, result) -> None:
        self.counts["search.enumerate_graphs.members"] += len(result)

    def _on_climb(self, result) -> None:
        self.counts["search.hill_climb.steps"] += len(result.steps)

    # -- output -------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Calls, self seconds and counts keyed by metric name."""
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        for stem, names in GROUPS.items():
            out[f"{stem}.self_s"] = sum(self.self_ns[n] for n in names) / 1e9
        out.update(self.counts)
        # The first catalog call canonicalizes the K2 seed of level 1, which
        # is not an augmentation.  The workload process starts with no catalog.
        out["search.catalog.tried"] = max(out.pop("search.catalog.canonical", 0) - 1, 0)
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path: str) -> None:
        t0 = self.spans[0][2] if self.spans else 0
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start - t0}\t{end - t0}\n")
