"""Structured event tracing.

The runtime, substrates, and the Reefer application emit trace events; tests
and benchmark harnesses consume them to check guarantees (exactly-once
completion, happen-before) and to regenerate the paper's figures (workflow
diagrams, outage phase breakdowns).

The recorder is always on and bounded: it retains the newest ``capacity``
events in a ring and keeps exact per-kind counters for everything emitted.
A query that claims the whole history raises :class:`TraceTruncated` once
the ring has dropped an event, so no check can pass on a partial history.
``TraceRecorder(capacity=None)`` opts in to the full history.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["DEFAULT_TRACE_CAPACITY", "TraceEvent", "TraceRecorder", "TraceTruncated"]

#: Events a recorder retains by default: about twice what the largest
#: tier-1 scenario emits, so ordinary tests see their whole history.
DEFAULT_TRACE_CAPACITY = 8192


class TraceTruncated(RuntimeError):
    """A whole-history query on a recorder whose ring dropped events."""


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped, tagged event with free-form fields."""

    time: float
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


class TraceRecorder:
    """Bounded event ring with exact per-kind counters and query helpers.

    ``emit`` hands every event to the subscribers, counts it under its
    kind, and keeps it in a ring of the newest ``capacity`` events
    (``None`` keeps everything). Whole-history queries (:attr:`events`,
    iteration, :meth:`of_kind`, :meth:`where`, :meth:`first`, and
    :meth:`count` with field filters) raise :class:`TraceTruncated` once
    the ring has dropped an event; :meth:`window` returns what is retained,
    and ``count(kind)`` without filters always answers from the counters.
    With ``enabled`` false the recorder records, counts and forwards
    nothing.
    """

    def __init__(
        self,
        kernel: Any = None,
        enabled: bool = True,
        capacity: int | None = DEFAULT_TRACE_CAPACITY,
    ) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError(f"trace capacity must be >= 0, got {capacity}")
        self._kernel = kernel
        self.enabled = enabled
        self.capacity = capacity
        self._ring: deque[TraceEvent] = deque(maxlen=capacity)
        self._counts: dict[str, int] = {}
        #: Events emitted while enabled, retained or not.
        self.emitted = 0
        self._subscribers: list[Callable[[TraceEvent], None]] = []

    def emit(self, kind: str, **fields: Any) -> TraceEvent | None:
        if not self.enabled:
            return None
        time = self._kernel.now if self._kernel is not None else 0.0
        event = TraceEvent(time, kind, fields)
        self._ring.append(event)
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        self.emitted += 1
        for subscriber in self._subscribers:
            subscriber(event)
        return event

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        self._subscribers.append(callback)

    # ------------------------------------------------------------------
    # bounded views (always answerable)
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events emitted but no longer retained."""
        return self.emitted - len(self._ring)

    def window(self) -> list[TraceEvent]:
        """The retained events, oldest first (the newest ``capacity``)."""
        return list(self._ring)

    def stats(self) -> dict[str, Any]:
        """The ``trace`` family of ``app.stats()``: ring occupancy and the
        exact events emitted per kind."""
        return {
            "capacity": self.capacity,
            "emitted": self.emitted,
            "retained": len(self._ring),
            "dropped": self.dropped,
            "kinds": dict(sorted(self._counts.items())),
        }

    # ------------------------------------------------------------------
    # whole-history queries
    # ------------------------------------------------------------------
    def _history(self) -> deque[TraceEvent]:
        if self.dropped:
            raise TraceTruncated(
                f"trace dropped {self.dropped} of {self.emitted} events "
                f"(capacity {self.capacity}); build the recorder with "
                "capacity=None to keep the whole history"
            )
        return self._ring

    @property
    def events(self) -> list[TraceEvent]:
        return list(self._history())

    def of_kind(self, *kinds: str) -> list[TraceEvent]:
        wanted = set(kinds)
        return [event for event in self._history() if event.kind in wanted]

    def where(self, kind: str, **matches: Any) -> list[TraceEvent]:
        return [
            event
            for event in self._history()
            if event.kind == kind
            and all(event.get(key) == value for key, value in matches.items())
        ]

    def first(self, kind: str, **matches: Any) -> TraceEvent | None:
        for event in self._history():
            if event.kind == kind and all(
                event.get(key) == value for key, value in matches.items()
            ):
                return event
        return None

    def count(self, kind: str, **matches: Any) -> int:
        if not matches:
            return self._counts.get(kind, 0)
        return len(self.where(kind, **matches))

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._history())

    def __len__(self) -> int:
        """Events emitted, retained or not (equal to the retained count
        until the ring first drops an event)."""
        return self.emitted
