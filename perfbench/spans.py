"""In-memory spans recorded around calls into the program's public functions.

A span is (name, start_ns, end_ns, parent index); the parent is the span that
was open when the call began, or -1.  Spans stay in memory and are written
out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from types import SimpleNamespace


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        self.spans[idx][1] = time.perf_counter_ns()
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(idx)

        return traced

    def durations(self, name: str) -> list[int]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def median_s(self, name: str) -> float:
        durations = self.durations(name)
        if not durations:
            raise KeyError(f"no span named {name!r}")
        return statistics.median(durations) * 1e-9

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}, fh)


def traced_api(api: SimpleNamespace, span_names: dict[str, str], tracer: Tracer) -> SimpleNamespace:
    """The same functions, each wrapped in a span named by ``span_names``."""
    return SimpleNamespace(
        **{attr: tracer.wrap(span_names[attr], fn) for attr, fn in vars(api).items()}
    )
