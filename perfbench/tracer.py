"""In-memory span tracer for the benchmark's traced run.

The tracer replaces a library function by a wrapper at the module attribute
its caller looks it up through (``rturan.corpus.longest_rainbow_path`` for
the suite loop, ``rturan.longest_rainbow_path`` for the benchmark's own
queries), so nothing under ``src/`` changes. Every call records one span
(name, start, end, parent, op) in a list, and optional count hooks read work
counters off the call's result. Spans are written out only when the run ends.

Self time of a span is its duration minus the durations of its direct
children. Summed over all spans this telescopes to the total of the
top-level spans, so the traced wall time splits exactly into layer self
times plus the benchmark glue that runs outside any span.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []          # [name, start, end, parent, op]
        self.counts: dict = defaultdict(int)
        self.op = ""
        self._stack: list = []
        self._patches: list = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Trace calls of ``owner.attr`` as spans named ``name``.

        ``count(result)`` may return a dict of counter increments, recorded
        as ``name.key``.
        """
        fn = getattr(owner, attr)
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if count is not None:
                for key, inc in count(result).items():
                    counts[f"{name}.{key}"] += inc
            return result

        self._patch(owner, attr, fn, traced)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Trace a generator function: each resumption is one span, so time
        the consumer spends between items is not charged to the generator."""
        fn = getattr(owner, attr)
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            it = fn(*args, **kwargs)
            while True:
                idx = self._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(idx)
                counts[name + ".yielded"] += 1
                yield item

        self._patch(owner, attr, fn, traced)

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict:
        """Summed self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def top_level_s(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0)

    def write_csv(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start_s", "end_s", "parent", "op"])
            for name, start, end, parent, op in self.spans:
                out.writerow([name, f"{start - t0:.9f}", f"{end - t0:.9f}",
                              parent, op])
