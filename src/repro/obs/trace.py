"""Zero-dependency tracing: per-query span trees with a strict no-op off path.

A :class:`Tracer` records one :class:`Span` tree per root operation (a
session ``query()`` call, usually): session → reformulate → optimize →
plan-cache lookup → execute → per-operator spans, each carrying attributes
(engine, rows in/out, cache hit/patch/miss, morsel/worker counts) and
point-in-time events.  The design constraints, in order:

1. **Instrumentation never changes answers or operator counts** — spans only
   observe; every call site guards on ``tracer is not None`` (or the ambient
   :func:`current_tracer`, which is one thread-local attribute read) so the
   disabled path stays within noise of uninstrumented code
   (the ``observability`` row of ``benchmarks/system/claims.py`` gates this).
2. **Thread propagation** — each thread keeps its own span stack; worker
   threads adopt the submitting thread's current span via :meth:`Tracer.attach`
   (:func:`repro.relational.parallel.run_tasks` wires this), so morsel-level
   events nest under the operator span that scheduled them.
3. **Bounded memory** — finished root spans land in a ``deque(maxlen=...)``;
   an unbounded serving loop cannot grow the trace without bound.

Exporters: :meth:`Tracer.export_jsonl` (one JSON object per span, with
parent links) and :meth:`Tracer.chrome_trace` (Chrome trace-event JSON,
loadable in ``chrome://tracing`` / Perfetto).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "Span",
    "Tracer",
    "activate",
    "current_tracer",
]


def _jsonable(value: Any) -> Any:
    """``value`` if JSON-serializable scalar, else its ``str()`` form."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return str(value)


class Span:
    """One timed node of a trace tree.

    ``attributes`` are set at creation (and may be refined while the span is
    open — the executor fills ``rows_out`` after the operator ran);
    ``events`` are point-in-time records (cache probes, kernel decisions)
    appended by :meth:`Tracer.event` while this span is innermost.
    """

    __slots__ = ("name", "attributes", "events", "children", "start", "duration")

    def __init__(self, name: str, attributes: dict[str, Any] | None = None):
        self.name = name
        self.attributes: dict[str, Any] = dict(attributes) if attributes else {}
        self.events: list[dict[str, Any]] = []
        self.children: list["Span"] = []
        self.start = 0.0
        self.duration = 0.0

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first (parents first)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """The first span named ``name`` in this subtree (depth-first)."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> dict[str, Any]:
        """A nested plain-dict rendering (tests, ad-hoc inspection)."""
        return {
            "name": self.name,
            "duration_ms": round(self.duration * 1e3, 6),
            "attributes": {k: _jsonable(v) for k, v in self.attributes.items()},
            "events": [
                {k: _jsonable(v) for k, v in event.items()} for event in self.events
            ],
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
            f"children={len(self.children)}, events={len(self.events)})"
        )


class Tracer:
    """Per-thread span stacks feeding a bounded deque of finished root spans.

    One tracer serves one :class:`~repro.session.Session`; concurrent
    ``query()`` calls each build their own root (the stacks are
    thread-local), and finished roots are retained newest-last up to
    ``max_roots``.
    """

    def __init__(self, max_roots: int = 256):
        #: perf_counter origin all span timestamps are relative to
        self.epoch = time.perf_counter()
        #: finished root spans, oldest evicted first (bounded memory)
        self.roots: deque[Span] = deque(maxlen=max_roots)
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Span | None:
        """This thread's innermost open span (``None`` outside any span)."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a child span of this thread's current span (or a new root)."""
        span = Span(name, attributes)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.duration = time.perf_counter() - span.start
            stack.pop()
            if parent is not None:
                # list.append is atomic under the GIL: worker threads adopt a
                # parent via attach() and append children concurrently.
                parent.children.append(span)
            else:
                self.roots.append(span)

    def event(self, name: str, **attributes: Any) -> None:
        """Record a point-in-time event on this thread's current span.

        A no-op outside any span — events can therefore be emitted
        unconditionally from library code that may run untraced.
        """
        span = self.current()
        if span is not None:
            record: dict[str, Any] = {"name": name, "at": time.perf_counter() - self.epoch}
            record.update(attributes)
            span.events.append(record)

    @contextmanager
    def attach(self, parent: Span | None) -> Iterator[None]:
        """Adopt ``parent`` as this thread's current span (worker threads).

        The pool layer captures the scheduling thread's :meth:`current` span
        and attaches it inside each worker task, so spans and events the
        task records nest under the operator that fanned it out.
        """
        if parent is None:
            yield
            return
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    # ------------------------------------------------------------------ #
    # exporters
    # ------------------------------------------------------------------ #
    def export_jsonl(self) -> str:
        """One JSON object per span (parent-linked), newline-delimited.

        Ids are densely assigned in depth-first order per export; ``parent``
        is ``None`` on roots.  Suitable for ``jq``-style offline analysis.
        """
        rendered: list[str] = []
        next_id = 0
        for root in list(self.roots):
            pending: list[tuple[Span, int | None]] = [(root, None)]
            while pending:
                span, parent_id = pending.pop()
                span_id = next_id
                next_id += 1
                record = {
                    "id": span_id,
                    "parent": parent_id,
                    "name": span.name,
                    "start_us": round((span.start - self.epoch) * 1e6, 3),
                    "dur_us": round(span.duration * 1e6, 3),
                    "attributes": {k: _jsonable(v) for k, v in span.attributes.items()},
                    "events": [
                        {k: _jsonable(v) for k, v in event.items()}
                        for event in span.events
                    ],
                }
                rendered.append(json.dumps(record, sort_keys=True))
                pending.extend((child, span_id) for child in reversed(span.children))
        return "\n".join(rendered) + ("\n" if rendered else "")

    def chrome_trace(self) -> str:
        """The trace as Chrome trace-event JSON text (Perfetto-loadable).

        Complete-duration (``"ph": "X"``) events, microsecond timestamps
        relative to the tracer epoch; span attributes land in ``args``.
        Write the string to a ``.json`` file and load it in
        ``chrome://tracing`` or https://ui.perfetto.dev.
        """
        events: list[dict[str, Any]] = []
        for tid, root in enumerate(list(self.roots), start=1):
            for span in root.walk():
                events.append(
                    {
                        "name": span.name,
                        "ph": "X",
                        "ts": round((span.start - self.epoch) * 1e6, 3),
                        "dur": round(span.duration * 1e6, 3),
                        "pid": 1,
                        "tid": tid,
                        "args": {
                            k: _jsonable(v) for k, v in span.attributes.items()
                        },
                    }
                )
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})

    def clear(self) -> None:
        """Drop every finished root span (open spans are unaffected)."""
        self.roots.clear()

    def __len__(self) -> int:
        return len(self.roots)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer(roots={len(self.roots)})"


# --------------------------------------------------------------------------- #
# ambient tracer
# --------------------------------------------------------------------------- #
# Deep layers (ExecutionStats.phase, the columnar/vector kernels) cannot be
# handed a tracer through every signature without churn; they read the
# *ambient* tracer instead — a thread-local the session sets around each
# serving call.  current_tracer() is one getattr with a default: the whole
# cost of disabled tracing at those call sites.
_ACTIVE = threading.local()


def current_tracer() -> Tracer | None:
    """The tracer active on this thread (``None`` when tracing is off)."""
    return getattr(_ACTIVE, "tracer", None)


@contextmanager
def activate(tracer: Tracer | None) -> Iterator[None]:
    """Make ``tracer`` the ambient tracer for this thread (restores on exit)."""
    previous = getattr(_ACTIVE, "tracer", None)
    _ACTIVE.tracer = tracer
    try:
        yield
    finally:
        _ACTIVE.tracer = previous
