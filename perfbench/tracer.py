"""Outside-in tracing: spans around the package's functions, from outside.

Functions are wrapped at the names where the package looks them up (a
module attribute or a class attribute), so a call made through
`gravtwin.scenarios.partial_trace` and one made through
`gravtwin.reduction.partial_trace` are both seen.  `install` replaces the
names, `restore` puts the originals back.  Spans are kept in memory.

A span's exclusive time is its duration minus the durations of its direct
children.  A layer's self time is the sum of the exclusive times of its
spans.  Third-party wrappers (layer None, e.g. the FFT) take the layer of
their caller, so the transforms count towards `evolve` or `dyson`.
"""
from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        # span: [name, layer, parent index, start, end, work units, layer inherited]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._targets: list[tuple] = []
        self._originals: list[tuple] = []

    def add(self, owner, attr: str, name: str, layer: str | None, work=None) -> None:
        """Register owner.attr for wrapping; work(args, kwargs) counts units of work."""
        self._targets.append((owner, attr, name, layer, work))

    def install(self) -> None:
        for owner, attr, name, layer, work in self._targets:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, layer, work))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, layer, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            inherits = layer is None and parent >= 0
            span_layer = spans[parent][1] if inherits else layer
            span = [name, span_layer, parent, 0.0, 0.0, work(args, kwargs) if work else 0, inherits]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()

        return traced

    def totals(self) -> "Totals":
        return Totals(self.spans)


class Totals:
    """Aggregates over a list of spans."""

    def __init__(self, spans: list[list]) -> None:
        n = len(spans)
        child = [0.0] * n
        for _, _, parent, start, end, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.layer_self: dict[str, float] = defaultdict(float)
        self.own_self: dict[str, float] = defaultdict(float)  # by name, inheriting callees folded in
        self.inclusive: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self.calls_under: dict[tuple[str, str], int] = defaultdict(int)
        self.inclusive_under: dict[tuple[str, str], float] = defaultdict(float)
        owner = [""] * n
        for i, (name, layer, parent, start, end, work, inherits) in enumerate(spans):
            dur = end - start
            exclusive = dur - child[i]
            self.layer_self[layer] += exclusive
            self.inclusive[name] += dur
            self.calls[name] += 1
            self.work[name] += work
            owner[i] = owner[parent] if inherits else name
            self.own_self[owner[i]] += exclusive
            if parent >= 0:
                self.calls_under[(spans[parent][0], name)] += 1
                self.inclusive_under[(spans[parent][0], name)] += dur
