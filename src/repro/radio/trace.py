"""Structured execution tracing for debugging and experiments.

Tracing is strictly opt-in: the engine records nothing without a sink
or with a :class:`NullTrace` (``enabled`` is false), and feeds a
:class:`TraceRecorder` when the caller wants an event log.  Events capture awake actions and their
observations — enough to replay any collision resolution decision.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, List, Optional, Union

__all__ = ["TraceEvent", "TraceSink", "NullTrace", "TraceRecorder"]


@dataclass(frozen=True)
class TraceEvent:
    """One awake round of one node."""

    round: int
    node: int
    action: str  # "transmit" | "listen"
    payload: Any = None  # transmitted payload, if any
    observed: Optional[str] = None  # str(observation) for listens

    def to_json(self) -> str:
        return json.dumps(asdict(self))


class TraceSink:
    """Interface the engine drives; see :class:`TraceRecorder`."""

    enabled = False

    def record(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class NullTrace(TraceSink):
    """Discard all events (the default)."""

    enabled = False

    def record(self, event: TraceEvent) -> None:
        pass


class TraceRecorder(TraceSink):
    """Collect events in memory, optionally filtered and capped.

    Parameters
    ----------
    predicate:
        Only events for which ``predicate(event)`` is true are kept.
    max_events:
        Hard cap on retained events; recording silently stops at the cap
        (the ``truncated`` flag reports whether it was hit) so a runaway
        protocol cannot exhaust memory.
    """

    enabled = True

    def __init__(
        self,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
        max_events: int = 1_000_000,
    ):
        self._events: List[TraceEvent] = []
        self._predicate = predicate
        self._max_events = max_events
        self.truncated = False

    def record(self, event: TraceEvent) -> None:
        if len(self._events) >= self._max_events:
            self.truncated = True
            return
        if self._predicate is None or self._predicate(event):
            self._events.append(event)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        """All retained events, in execution order."""
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def for_node(self, node: int) -> List[TraceEvent]:
        """Events of one node."""
        return [event for event in self._events if event.node == node]

    def for_round(self, round_index: int) -> List[TraceEvent]:
        """Events of one round."""
        return [event for event in self._events if event.round == round_index]

    def transmissions(self) -> List[TraceEvent]:
        """All transmit events."""
        return [event for event in self._events if event.action == "transmit"]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """Serialize to JSON-lines (one event per line)."""
        return "\n".join(event.to_json() for event in self._events)

    def save_jsonl(self, path: Union[str, Path]) -> None:
        """Write JSON-lines to ``path``."""
        Path(path).write_text(self.to_jsonl() + ("\n" if self._events else ""))

    def to_csv(self) -> str:
        """Serialize to CSV with a header row."""
        lines = ["round,node,action,payload,observed"]
        for event in self._events:
            payload = "" if event.payload is None else str(event.payload)
            observed = "" if event.observed is None else event.observed
            lines.append(f"{event.round},{event.node},{event.action},{payload},{observed}")
        return "\n".join(lines) + "\n"
