"""In-memory spans for the benchmark's traced runs.

A span records a name, its start and end (``time.perf_counter`` seconds),
the span that was open when it started (its parent) and the outermost open
span (its root, which groups the spans of one operation).  Spans are only
recorded around calls made from the benchmark's own files: either directly
(``call``/``span``) or by temporarily replacing a module attribute with a
recording wrapper (``patched``, and ``recorded_calls`` for calls made on
several threads), so the program itself is never edited.

With ``enabled=False`` every method is a plain pass-through, which is how the
untraced runs that measure end-to-end metrics use the same code.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "root": index if parent is None else self.spans[parent]["root"],
        }
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def patched(self, owner, attr: str, name: str):
        """Record a span around every call of ``owner.attr`` inside the block."""
        if not self.enabled:
            yield
            return
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        setattr(owner, attr, traced)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    # -- reading spans back -------------------------------------------------

    def _select(self, name: str, root: str | None) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name
            and (root is None or self.spans[s["root"]]["name"] == root)
        ]

    def durations(self, name: str, root: str | None = None) -> list[float]:
        """Seconds of every span called ``name`` (under a root called ``root``)."""
        return [s["end"] - s["start"] for s in self._select(name, root)]

    def self_times(self, name: str) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = []
        for index, s in enumerate(self.spans):
            if s["name"] != name:
                continue
            children = sum(
                c["end"] - c["start"] for c in self.spans if c["parent"] == index
            )
            out.append(s["end"] - s["start"] - children)
        return out

    def totals_per_root(self, name: str, root: str) -> list[float]:
        """Per root span called ``root``: summed seconds of its ``name`` spans."""
        totals: dict[int, float] = {}
        for s in self._select(root, None):
            totals[s["root"]] = 0.0
        for s in self._select(name, root):
            totals[s["root"]] += s["end"] - s["start"]
        return list(totals.values())


@contextmanager
def recorded_calls(owner, attrs: tuple[str, ...]):
    """Record ``(attr, start, end)`` of every call of ``owner.<attr>`` in the block.

    Yields the list the records are appended to.  Unlike spans, these keep no
    parent or root, so the wrapped functions may run on several threads at
    once (``list.append`` is atomic).
    """
    calls: list[tuple[str, float, float]] = []
    originals = {attr: getattr(owner, attr) for attr in attrs}

    def wrapped(attr, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append((attr, start, time.perf_counter()))
        return timed

    for attr, fn in originals.items():
        setattr(owner, attr, wrapped(attr, fn))
    try:
        yield calls
    finally:
        for attr, fn in originals.items():
            setattr(owner, attr, fn)


def median_ms(values: list[float]) -> float:
    """Median of a list of seconds, in milliseconds."""
    if not values:
        raise ValueError("no spans recorded for this metric")
    return 1e3 * statistics.median(values)
