"""Span recorder for the traced run.

`Tracer.install()` replaces every public bellpoly function, in every
bellpoly module namespace that binds it, with a wrapper that records a span
(name, parent, start, end, counters); a few methods that carry per-layer work
are wrapped on their classes. `restore()` puts the originals back, so
untraced passes in the same process run the unwrapped code.

Spans are kept in memory. A layer's self time is a span's duration minus
the durations of its direct children. Only the main thread records spans;
the program's worker threads call private helpers only.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

METHODS = (("bellpoly.scenario", "DeterministicBox", ("reduced_vector", "correlator_vector")),
           ("bellpoly.cut", "CutInequality", ("evaluate_cut",)))


def _counters(name, args, result):
    """Work counts taken at the span boundary, keyed by qualified name."""
    if name == "bellpoly.values.classical_value":
        g = args[0]
        return {"alice_maps": g.d ** g.ma, "game": g}
    if name == "bellpoly.tightness.saturating_boxes":
        return {"boxes": args[0].scenario.box_count, "hits": len(result)}
    if name == "bellpoly.exactrank.affine_rank" and isinstance(args[0], (list, tuple)) and args[0]:
        return {"cells": len(args[0]) * len(args[0][0])}
    if name == "bellpoly.cut.enumerate_cuts":
        return {"cuts": len(result)}
    return None


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, start, end, counters]
        self._stack = []
        self._saved = []
        self._main = threading.main_thread().ident

    def _wrap(self, name, fn):
        spans, stack, main = self.spans, self._stack, self._main

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != main:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, time.perf_counter(), None, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            span[4] = _counters(name, args, result)
            return result
        return wrapper

    def install(self):
        wrappers = {}
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "bellpoly" or n.startswith("bellpoly."))]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or not obj.__module__.startswith("bellpoly"):
                    continue
                key = id(obj)
                if key not in wrappers:
                    wrappers[key] = self._wrap(f"{obj.__module__}.{obj.__name__}", obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[key])
        for modname, clsname, names in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            for attr in names:
                obj = cls.__dict__[attr]
                self._saved.append((cls, attr, obj))
                setattr(cls, attr, self._wrap(f"{modname}.{attr}", obj))

    def restore(self):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    def summary(self):
        """Per qualified name: calls, self seconds, summed counters, and the
        distinct games classical_value saw."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, parent, start, end, counters) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += (end - start) - child[i]
            for k, v in (counters or {}).items():
                if k == "game":
                    agg.setdefault("games", set()).add(v)
                else:
                    agg[k] = agg.get(k, 0) + v
        for agg in out.values():
            if "games" in agg:
                agg["games"] = len(agg["games"])
        return out
