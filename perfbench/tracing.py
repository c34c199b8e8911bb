"""Spans around calls into the program, recorded from outside it.

``Tracer.install`` replaces a public function of a ``failsafe`` module with
a wrapper that records a span (name, start, end, parent) and restores the
original on ``uninstall``.  A function imported by name into other modules
is replaced in every loaded ``failsafe`` module that holds it, so calls made
from inside the package are seen too.  Self time (a span's duration less its
child spans) and call counts are aggregated as calls return; the first
``keep`` spans are also kept whole, to be written out when the run ends.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, keep: int = 20_000):
        self.keep = keep
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_times: dict[str, list[float]] = defaultdict(list)
        self._stack: list[list] = []     # [name, start, child time, span id]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _wrap(self, name: str, fn, label=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = name if label is None else f"{name}[{label(args)}]"
            parent = tracer._stack[-1][3] if tracer._stack else -1
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [span, time.perf_counter(), 0.0, sid]
            tracer._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - frame[1]
                if tracer._stack:
                    tracer._stack[-1][2] += dur
                tracer.calls[span] += 1
                tracer.total[span] += dur
                tracer.self_times[span].append(dur - frame[2])
                if len(tracer.spans) < tracer.keep:
                    tracer.spans.append((span, frame[1], end, parent))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, module_name: str, attr: str, name: str, label=None) -> bool:
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``); False if
        the program has no such attribute."""
        owner = sys.modules.get(module_name)
        if owner is None:
            return False
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        original = getattr(owner, path[-1], None)
        if original is None:
            return False
        wrapper = self._wrap(name, original, label)
        if len(path) > 1:
            self._patches.append((owner, path[-1], original))
            setattr(owner, path[-1], wrapper)
            return True
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "failsafe" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
        return True

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------
    def summary(self) -> dict[str, dict]:
        out = {}
        for span, n in sorted(self.calls.items()):
            st = sorted(self.self_times[span])
            out[span] = {"calls": n, "total_s": self.total[span],
                         "self_s": sum(st), "median_self_s": st[len(st) // 2]}
        return out
