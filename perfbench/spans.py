"""In-memory spans around layer calls, written out when the run ends."""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from time import perf_counter


class Tracer:
    """Records (name, start, end, parent, iteration) for each span.

    Spans nest through a stack; `iteration` tags every span opened while it is
    set, so the spans of one pipeline iteration share an identifier.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.iteration = None

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, perf_counter(), None, parent, self.iteration]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = perf_counter()

    def self_times(self) -> list[tuple[str, float, object]]:
        """(name, duration minus direct children's durations, iteration) per span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(s[0], s[2] - s[1] - child[i], s[4]) for i, s in enumerate(self.spans)]

    def self_times_of(self, name: str, setup: bool = False) -> list[float]:
        """Per-call self times of `name` in pipeline iterations (integer ids),
        or with setup=True in set-up."""
        def wanted(it) -> bool:
            return it == "setup" if setup else isinstance(it, int)
        return [t for n, t, it in self.self_times() if n == name and wanted(it)]

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "iteration")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


class NullTracer:
    """Tracer with the same interface that records nothing."""

    iteration = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null
