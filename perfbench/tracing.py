"""Timing spans recorded around the public entry points of each layer.

The benchmark never edits ``repro``: in a traced run it replaces chosen
functions, methods and properties with wrappers that record one span per
call.  A span is ``(span id, parent span id, operation id, name, start,
end)``; spans stay in memory until the run ends, when they are written
out and each layer's self time is derived from them.

Parenting follows the calling thread: a span opened inside another span
on the same thread is its child.  Work handed to another thread needs an
explicit parent: the serving workers adopt the parent registered for the
ticket's tenant.  Calls made outside any operation (set-up, oracle
checks) are not recorded.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (span id, operation id) of an open span.
Context = Tuple[int, int]
#: (span id, parent span id or 0, operation id, name, start, end).
Span = Tuple[int, int, int, str, float, float]

clock = time.monotonic


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # operations (root spans)
    # ------------------------------------------------------------------
    def new_id(self) -> int:
        return next(self._ids)

    def _stack(self) -> List[Context]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op_id: int) -> Context:
        """Open a root span for one operation on the calling thread."""
        context = (self.new_id(), op_id)
        self._stack().append(context)
        return context

    def end_op(self, context: Context, name: str, start: float) -> None:
        self._stack().pop()
        self.spans.append((context[0], 0, context[1], name, start, clock()))

    def record_root(
        self, context: Context, name: str, start: float, end: float
    ) -> None:
        """Record a root span whose interval was measured elsewhere."""
        self.spans.append((context[0], 0, context[1], name, start, end))

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        parent_of: Optional[Callable[..., Optional[Context]]] = None,
    ) -> Callable[..., Any]:
        """``function`` recording a span named ``name`` per call.

        ``parent_of(*args)`` supplies the parent for calls that arrive on
        a thread with no open span.
        """
        recorder = self
        spans = self.spans
        ids = self._ids

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = parent_of(*args) if parent_of is not None else None
            if parent is None:
                return function(*args, **kwargs)
            context = (next(ids), parent[1])
            stack.append(context)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((context[0], parent[0], parent[1], name, start, end))

        return traced

    def patch(
        self,
        owner: Any,
        attribute: str,
        name: str,
        wrapper: Optional[Callable[[Callable[..., Any]], Callable[..., Any]]] = None,
        **options: Any,
    ) -> None:
        """Replace ``owner.attribute`` (function, method or property) with
        its traced form; ``wrapper(original)`` may add work inside the span."""
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        function = original.fget if isinstance(original, property) else original
        if wrapper is not None:
            function = wrapper(function)
        traced = self.wrap(name, function, **options)
        setattr(owner, attribute, property(traced) if isinstance(original, property) else traced)
        self._undo.append((owner, attribute, original))

    def unpatch(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """One JSON list per span: id, parent, op, name, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


def self_times(spans: Iterable[Span]) -> Tuple[Dict[str, float], float, int]:
    """Each span name's self time, summed over all operations.

    Within one operation every instant belongs to the innermost open
    spans (those with no open child); when several are open at once, as
    during a parallel scatter, the instant is split evenly between them.
    Without overlap this is the span's duration minus the time its
    children cover, and in every case the self times of one operation
    add up to its root span's duration.

    Returns ``(seconds by name, summed root durations, operations)``.
    """
    by_op: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_op[span[2]].append(span)
    totals: Dict[str, float] = defaultdict(float)
    root_seconds = 0.0
    for group in by_op.values():
        parent_of = {span[0]: span[1] for span in group}
        name_of = {span[0]: span[3] for span in group}
        depth: Dict[int, int] = {}

        def depth_of(span_id: int) -> int:
            known = depth.get(span_id)
            if known is None:
                parent = parent_of.get(span_id, 0)
                known = 0 if parent not in parent_of else depth_of(parent) + 1
                depth[span_id] = known
            return known

        events = []
        for span_id, parent, _, _, start, end in group:
            level = depth_of(span_id)
            if parent not in parent_of:
                root_seconds += end - start
            # At equal times: ends before starts, inner ends first,
            # outer starts first.
            events.append((start, 1, level, span_id))
            events.append((end, 0, -level, span_id))
        events.sort()
        open_children: Dict[int, int] = defaultdict(int)
        active = set()
        leaves = set()
        previous = None
        for moment, is_start, _, span_id in events:
            if leaves and previous is not None and moment > previous:
                share = (moment - previous) / len(leaves)
                for leaf in leaves:
                    totals[name_of[leaf]] += share
            previous = moment
            parent = parent_of[span_id]
            if is_start:
                active.add(span_id)
                leaves.add(span_id)
                if parent in active:
                    open_children[parent] += 1
                    leaves.discard(parent)
            else:
                active.discard(span_id)
                leaves.discard(span_id)
                if parent in active:
                    open_children[parent] -= 1
                    if open_children[parent] == 0:
                        leaves.add(parent)
    return dict(totals), root_seconds, len(by_op)
