"""Outside-in tracing: spans around the public functions of theta_forge.

The tracer rebinds each public function at every module that holds it
(the package re-exports names and its modules import them directly, so
patching only the defining module would miss calls) and restores the
originals on uninstall.  Spans are kept in memory as
(name, start, end, parent, op) and written out once the pass ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# layers whose public functions get a span, by module short name
LAYERS = ("lattice", "qseries", "modforms", "jacobi_like", "verify")
PACKAGE = "theta_forge"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1, op]
        self.counts = defaultdict(int)  # "<span name>.<counter>" -> total
        self.op = None
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def begin_op(self, op: str, name: str) -> int:
        """Open the outermost span of one operation; later spans carry its id."""
        self.op = op
        return self.begin(name)

    def end(self, idx: int):
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while {top} is open")
        self.spans[idx][2] = self.clock()

    def call(self, name, fn, args, kwargs, counter=None):
        idx = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end(idx)
        if counter is not None:
            for key, value in counter(args, kwargs, result).items():
                self.counts[f"{name}.{key}"] += value
        return result

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return traced

    # -- installing wrappers -------------------------------------------
    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, counters=None, methods=()):
        """Wrap every public function of the LAYERS modules wherever the
        package binds it; `methods` lists (class, attribute, span name)."""
        counters = counters or {}
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for short in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped = self.wrap(name, fn, counters.get(name))
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self.patch(holder, key, wrapped)
        for cls, attr, name in methods:
            fn = inspect.getattr_static(cls, attr)
            self.patch(cls, attr, self.wrap(name, fn, counters.get(name)))

    def uninstall(self):
        """Put every original back; returns the (owner, attribute,
        original) triples restored."""
        restored = []
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            restored.append((owner, attr, original))
        return restored

    # -- analysis --------------------------------------------------------
    def stats(self):
        """Per span name: calls, total_s and self_s."""
        return span_stats(self.spans)


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (name, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[idx]
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def span_stats(spans):
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        entry = stats[span[0]]
        entry["calls"] += 1
        entry["total_s"] += span[2] - span[1]
        entry["self_s"] += own
    return dict(stats)
