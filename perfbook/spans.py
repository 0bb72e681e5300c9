"""Span recording for the traced run, kept entirely in perfbook's files.

A span is ``[id, name, start_ns, end_ns, parent, op]``. Timestamps are
``time.monotonic_ns()``, which is system-wide on Linux, so spans written
by a server process line up with the client's without any wire field.
``parent`` is the enclosing span of the same thread; ``op`` is the client
operation the span belongs to (set on the client, joined afterwards for
server spans by :func:`join_handlers`).

Two ways of putting a span around a call, both outside ``src/``:

* composition -- :class:`TimedProxy` wraps a dependency the program takes
  through a constructor (transports, chunker, cipher profile, shard pool);
* :func:`wrap_method` -- an instance-attribute wrapper on an already
  built service object, for calls made between layers inside a server.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

Span = List  # [id, name, start_ns, end_ns, parent, op]
ID, NAME, START, END, PARENT, OP = range(6)


class Recorder:
    """In-memory span list; spans nest per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # The pipelined client runs its stages on threads of its own.
        # With one client thread there is one operation at a time, so a
        # stage thread without an operation of its own belongs to it.
        self._sole_op: Optional[Tuple[int, int]] = None

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        op = getattr(local, "op", None) or self._sole_op
        if stack:
            parent = stack[-1]
        else:
            parent = op[1] if op else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.monotonic_ns()
        try:
            yield span_id
        finally:
            end = time.monotonic_ns()
            stack.pop()
            self.spans.append(
                [span_id, name, start, end, parent, op[0] if op else None]
            )

    @contextmanager
    def operation(self, op_id: int, name: str, sole: bool) -> Iterator[None]:
        """The root span of one client operation on this thread."""
        span_id = next(self._ids)
        self._local.op = (op_id, span_id)
        self._local.stack = [span_id]
        if sole:
            self._sole_op = (op_id, span_id)
        start = time.monotonic_ns()
        try:
            yield
        finally:
            end = time.monotonic_ns()
            self._local.op = None
            self._local.stack = []
            if sole:
                self._sole_op = None
            self.spans.append([span_id, name, start, end, None, op_id])


class TimedProxy:
    """Forwards to ``target``; the methods in ``spans`` run under a span."""

    def __init__(
        self, target: object, recorder: Recorder, spans: Dict[str, str]
    ) -> None:
        self._target = target
        for method, span_name in spans.items():
            setattr(
                self,
                method,
                _timed(getattr(target, method), recorder, span_name),
            )

    def __getattr__(self, name: str):
        return getattr(self._target, name)


def _timed(fn, recorder: Recorder, span_name: str):
    def call(*args, **kwargs):
        with recorder.span(span_name):
            return fn(*args, **kwargs)

    return call


def wrap_method(
    obj: object, method: str, recorder: Recorder, span_name: str
) -> None:
    """Shadow ``obj.method`` with an instance attribute that records a span.

    Callers that look the method up on the instance (``service.handle_x``,
    ``self.index.get``) reach the wrapper; the class is untouched.
    """
    setattr(obj, method, _timed(getattr(obj, method), recorder, span_name))


def timed_iter(iterable: Iterable, recorder: Recorder, span_name: str):
    """Iterate ``iterable`` with every ``next()`` under a span.

    For the chunker, whose work happens lazily while the client consumes
    the generator.
    """
    iterator = iter(iterable)
    while True:
        with recorder.span(span_name):
            try:
                item = next(iterator)
            except StopIteration:
                return
        yield item


# -- analysis ------------------------------------------------------------------


def _union_ns(intervals: Sequence[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping intervals."""
    covered = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def self_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time per span name: duration minus what child spans cover.

    Children may overlap (pipeline stages run in parallel), so the
    covered part is the union of the child intervals clipped to the
    parent, not their sum.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END])
            )
    totals: Dict[str, float] = {}
    for span in spans:
        start, end = span[START], span[END]
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(span[ID], ())
            if e > start and s < end
        ]
        own = (end - start) - _union_ns(clipped)
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + own / 1e9
    return totals


def total_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed duration per span name."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span[NAME]] = (
            totals.get(span[NAME], 0.0) + (span[END] - span[START]) / 1e9
        )
    return totals


def counts(spans: Sequence[Span]) -> Dict[str, int]:
    """Number of spans per name."""
    totals: Dict[str, int] = {}
    for span in spans:
        totals[span[NAME]] = totals.get(span[NAME], 0) + 1
    return totals


def join_handlers(
    calls: Sequence[Span], handlers: Sequence[Span]
) -> Tuple[float, int]:
    """Pair each server handler span with the client call that contains it.

    Of the not yet paired calls that contain a handler in time, it
    belongs to the one that returns first: a call queued behind a server
    lock also contains the handler it waits for, but returns later.
    The handler takes that call's operation id.

    Returns ``(overhead_s, unmatched)``: the summed client-side time not
    spent inside the paired handlers -- framing, socket, scheduling --
    and the number of handlers no call contained.
    """
    pending = sorted(calls, key=lambda s: s[START])
    overhead_ns = sum(c[END] - c[START] for c in pending)
    unmatched = 0
    first = 0
    used = [False] * len(pending)
    for handler in sorted(handlers, key=lambda s: s[START]):
        while first < len(pending) and (
            used[first] or pending[first][END] < handler[START]
        ):
            first += 1
        match = None
        for index in range(first, len(pending)):
            call = pending[index]
            if call[START] > handler[START]:
                break
            if (
                not used[index]
                and call[END] >= handler[END]
                and (match is None or call[END] < pending[match][END])
            ):
                match = index
        if match is None:
            unmatched += 1
            continue
        used[match] = True
        handler[OP] = pending[match][OP]
        overhead_ns -= handler[END] - handler[START]
    return overhead_ns / 1e9, unmatched
