"""In-memory span recorder for the traced benchmark run.

Spans are opened only by the benchmark's own code, around its calls into
public functions, plus wrappers installed from outside on the dispatcher
attributes of `pentaplanar.kernels` (every production kernel call goes
through them).  Spans stay in memory and are written out once at the end.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

KERNELS = (
    "embedding_min_code",
    "cycle_counts",
    "c5_per_edge",
    "paths3_per_edge",
    "paths3_between",
)

clock = time.perf_counter


class Tracer:
    """Spans are lists [name, start, end, parent index, request id]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.request = 0
        self.active = True
        self._stack: list[int] = []
        # Forked pool workers inherit the wrappers; only the main process records.
        os.register_at_fork(after_in_child=self._deactivate)

    def _deactivate(self) -> None:
        self.active = False

    @contextmanager
    def span(self, name: str):
        rec = [name, clock(), 0.0, self._stack[-1] if self._stack else -1, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = clock()
            self._stack.pop()

    @contextmanager
    def kernels_wrapped(self, kernels):
        """Route every `kernels.<name>` call through a span while inside."""
        originals = {name: getattr(kernels, name) for name in KERNELS}
        for name, fn in originals.items():
            setattr(kernels, name, self._wrapped(f"kernels.{name}", fn))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(kernels, name, fn)

    def _wrapped(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args):
            if not self.active:
                return fn(*args)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, max seconds; per module
        (the name's first component): self seconds, i.e. span time not
        covered by child spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        by_name: dict[str, dict] = {}
        self_s: dict[str, float] = {}
        for (name, start, end, _, _), cov in zip(self.spans, covered):
            dur = end - start
            row = by_name.setdefault(name, {"calls": 0, "s": 0.0, "max_s": 0.0})
            row["calls"] += 1
            row["s"] += dur
            row["max_s"] = max(row["max_s"], dur)
            module = name.split(".", 1)[0]
            self_s[module] = self_s.get(module, 0.0) + dur - cov
        return {"by_name": by_name, "self_s": self_s}

    def dump(self, path) -> None:
        """Write the spans as JSON lines (one header line, then one per span)."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "spans": len(self.spans)}) + "\n")
            for name, start, end, parent, req in self.spans:
                fh.write(json.dumps([name, start, end, parent, req]) + "\n")
