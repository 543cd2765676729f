"""Outside-in tracing for the end-to-end benchmark.

Nothing under ``src/`` knows about this module.  The benchmark wraps the
*public* functions of each layer at run time (``Tracer.wrap``), so a span is
the time the benchmark's own call into that function took.  Spans carry
name, start, end, parent, the op they belong to and the thread that ran
them; they live in memory and are written out only when the run ends.

A span's layer is the part of its name before the first dot
(``crypto.encrypt`` belongs to ``crypto``).  A layer's *self time* is its
spans' durations minus the part covered by their child spans, computed on
the driver thread only: peer threads of the socket workload run while the
driver waits inside ``transport.run_round``, so counting them too would
count the same wall time twice.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable, Optional

__all__ = ["Tracer"]

#: op id of spans recorded outside any benchmark op (set-up, checks)
NO_OP = -1


class Tracer:
    """Collects spans and counts from wrapped functions while enabled."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or None, op id, thread id]
        self.spans: list[list] = []
        #: counts recorded at the same boundaries as the spans, per op id
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.enabled = False
        #: the op in flight (the benchmark is a closed loop with one driver)
        self.current_op = NO_OP
        self.driver_thread = threading.get_ident()
        self._stack = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record one span around the block (a no-op while disabled)."""
        if not self.enabled:
            yield
            return
        stack = getattr(self._stack, "items", None)
        if stack is None:
            stack = self._stack.items = []
        record = [name, 0.0, 0.0, stack[-1] if stack else None,
                  self.current_op, threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        """Add *amount* to counter *name* of the op in flight."""
        if self.enabled:
            with self._lock:
                self.counts[self.current_op][name] += amount

    def wrap(self, owner: object, attribute: str, name: str,
             count: Optional[Callable[..., Iterable[tuple[str, float]]]] = None,
             ) -> None:
        """Replace ``owner.attribute`` by a version that records span *name*.

        *count*, when given, is called as ``count(result, *args, **kwargs)``
        after the wrapped call and yields ``(counter, amount)`` pairs.
        ``restore`` puts every original back.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        function = original.__func__ if isinstance(
            original, (staticmethod, classmethod)) else original

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            with self.span(name):
                result = function(*args, **kwargs)
            if count is not None:
                for counter, amount in count(result, *args, **kwargs):
                    self.count(counter, amount)
            return result

        replacement = traced
        if isinstance(original, staticmethod):
            replacement = staticmethod(traced)
        elif isinstance(original, classmethod):
            replacement = classmethod(traced)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        """Undo every ``wrap`` (latest first)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- reading -----------------------------------------------------------------

    def durations(self, ops: Optional[set[int]] = None,
                  driver_only: bool = False) -> dict[str, float]:
        """Total (inclusive) seconds per span name, optionally for some ops."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _, op, thread in self.spans:
            if ops is not None and op not in ops:
                continue
            if driver_only and thread != self.driver_thread:
                continue
            totals[name] += end - start
        return dict(totals)

    def calls(self, ops: Optional[set[int]] = None) -> Counter:
        """How many spans of each name were recorded."""
        return Counter(name for name, _, _, _, op, _ in self.spans
                       if ops is None or op in ops)

    def counted(self, ops: set[int]) -> Counter:
        """The sum of the counts recorded during *ops*."""
        total: Counter = Counter()
        for op in ops:
            total.update(self.counts.get(op, {}))
        return total

    def first_duration(self, name: str) -> float:
        """Duration of the first span called *name* (0.0 if there is none)."""
        for span_name, start, end, _, _, _ in self.spans:
            if span_name == name:
                return end - start
        return 0.0

    def layer_self_seconds(self, ops: set[int]) -> dict[str, float]:
        """Self time per layer over the driver-thread spans of *ops*."""
        covered: dict[int, float] = defaultdict(float)
        mine = []
        for index, (name, start, end, parent, op, thread) in enumerate(self.spans):
            if op not in ops or thread != self.driver_thread:
                continue
            mine.append((index, name, end - start))
            if parent is not None:
                covered[parent] += end - start
        layers: dict[str, float] = defaultdict(float)
        for index, name, duration in mine:
            layers[name.split(".", 1)[0]] += duration - covered[index]
        return dict(layers)

    def dump(self, path: str) -> None:
        """Write every span and count as one JSON document."""
        with open(path, "w") as handle:
            json.dump({
                "fields": ["name", "start", "end", "parent", "op", "thread"],
                "spans": self.spans,
                "counts": {str(op): dict(c) for op, c in self.counts.items()},
            }, handle)
            handle.write("\n")
