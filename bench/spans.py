"""Spans around public nctoggles calls, recorded from outside the package.

``Recorder.patch`` rebinds a function (or method) in every loaded
``nctoggles`` module that holds it, so calls made inside the package are
timed too.  Each span name accumulates its total time, its self time (total
minus the time of spans opened inside it) and its call count; an optional
hook sees each call's arguments and result to keep counts.  ``restore``
puts the original functions back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


class Recorder:
    def __init__(self):
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        def span(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.total[name] += elapsed
                self.self_time[name] += elapsed - children[0]
                self.calls[name] += 1
            if hook is not None:
                hook(self.counts, args, result)
            return result

        span.__wrapped__ = fn
        return span

    def patch(self, owner, attr: str, name: str, hook=None, everywhere=True) -> None:
        """Time ``owner.attr``; with ``everywhere``, also each nctoggles
        module that imported the same function by name."""
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, hook)
        holders = [owner]
        if everywhere:
            holders += [
                module for key, module in list(sys.modules.items())
                if key.split(".")[0] == "nctoggles" and module is not owner
                and getattr(module, attr, None) is original
            ]
        for holder in holders:
            self._undo.append((holder, attr, original))
            setattr(holder, attr, wrapped)

    def restore(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)
