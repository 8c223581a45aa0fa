"""In-memory spans recorded by the benchmark around its calls into each layer.

A span is ``[name, start_ns, end_ns, parent, image]``. Spans are appended in
the order they open, so a parent always precedes its children. The benchmark
opens one span per layer per wavefront step, never one per symbol.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter_ns

SIDES = ("encode", "decode")
# Spans that are the benchmark's own glue; their self time is reported as
# ``bench.other``.
GLUE = frozenset({*SIDES, "bench.segment"})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.image = -1  # -1 marks per-run set-up
        self._open = -1

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open
        rec = [name, 0, 0, parent, self.image]
        self._open = len(self.spans)
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = perf_counter_ns()
            self._open = parent

    def self_times(self) -> dict[tuple[int, str], float]:
        """Seconds of self time keyed by (image, "<side>.<layer>")."""
        child = [0] * len(self.spans)
        side = [""] * len(self.spans)
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                side[idx] = side[parent]
            else:
                side[idx] = name
        out: dict[tuple[int, str], float] = defaultdict(float)
        for idx, (name, start, end, _, image) in enumerate(self.spans):
            layer = "bench.other" if name in GLUE else name
            out[image, f"{side[idx]}.{layer}"] += (end - start - child[idx]) * 1e-9
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, image in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "image": image}) + "\n")


class _NoTrace:
    """A tracer whose every span is a no-op."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NO_TRACE = _NoTrace()

