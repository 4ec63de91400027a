"""Typed network events and the global event log.

Section III.D.2: "In LiveSec, we can master the network events by only
first few packets.  Because the log information is global, it is
convenient to manage the network by visualizing the network
environment, and locate the network problems by replaying the history
events."  Every controller subsystem appends here; the monitoring /
visualization layer subscribes and can reconstruct state at any past
time from the ordered log.

The log is *segmented* so it scales to paper-size deployments: events
live in fixed-size segments, each carrying its time bounds and
per-kind counts, so :meth:`EventLog.query` skips whole segments that
cannot contain a hit instead of scanning every event.  Old segments
can be *compacted* (``retention=``): high-churn sample kinds
(``ELEMENT_LOAD``, ``LINK_LOAD``) collapse to the last value per key
while discrete lifecycle events stay lossless.  The log also persists
as JSONL (:meth:`EventLog.save` / :meth:`EventLog.load` /
:meth:`EventLog.stream_to`), which is what ``python -m repro replay``
reconstructs past moments from.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)


class EventKind:
    """Event type names (string constants, so logs stay greppable)."""

    SWITCH_JOIN = "switch-join"
    SWITCH_LEAVE = "switch-leave"
    LINK_UP = "link-up"
    LINK_DOWN = "link-down"
    HOST_JOIN = "host-join"
    HOST_LEAVE = "host-leave"
    HOST_MOVE = "host-move"
    ELEMENT_ONLINE = "element-online"
    ELEMENT_OFFLINE = "element-offline"
    ELEMENT_LOAD = "element-load"
    ELEMENT_REJECTED = "element-rejected"
    FLOW_START = "flow-start"
    FLOW_END = "flow-end"
    FLOW_STEERED = "flow-steered"
    FLOW_BLOCKED = "flow-blocked"
    ATTACK_DETECTED = "attack-detected"
    PROTOCOL_IDENTIFIED = "protocol-identified"
    LINK_LOAD = "link-load"
    POLICY_CHANGED = "policy-changed"
    FLOW_FAILOVER = "flow-failover"
    SWITCH_RESYNC = "switch-resync"
    FAULT_INJECTED = "fault-injected"
    PATH_VIOLATION = "path-violation"
    SWITCH_QUARANTINED = "switch-quarantined"
    SHARD_HELLO = "shard-hello"
    SHARD_DOWN = "shard-down"
    SHARD_REHOME = "shard-rehome"
    SESSION_HANDOFF = "session-handoff"
    APP_LIFECYCLE = "app-lifecycle"


#: High-churn periodic samples: compaction may collapse them to the
#: last value per key.  Every other kind is a discrete lifecycle event
#: and is never dropped.
SAMPLE_KINDS: Dict[str, Callable[[Mapping[str, object]], object]] = {
    EventKind.ELEMENT_LOAD: lambda data: data.get("mac"),
    EventKind.LINK_LOAD: lambda data: (data.get("dpid"), data.get("port")),
}


@dataclass(frozen=True)
class NetworkEvent:
    """One immutable entry in the global event log.

    ``seq`` is the log-assigned global sequence number (append order);
    it is bookkeeping, not content: it does not participate in
    equality, rendering, or the persisted form.
    """

    time: float
    kind: str
    data: Dict[str, object] = field(default_factory=dict)
    seq: int = field(default=-1, compare=False)

    def __str__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in sorted(self.data.items()))
        return f"[{self.time:10.4f}] {self.kind:<22} {details}"

    def to_dict(self) -> Dict[str, object]:
        return {"time": self.time, "kind": self.kind, "data": dict(self.data)}

    def json_line(self) -> str:
        """The canonical one-line JSON form (persistence and digests).

        Canonical means sorted keys and no whitespace, so the digest of
        a stream is stable across a save/load round trip (tuples become
        lists either way).
        """
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"), default=_jsonify)


def _jsonify(value: object) -> object:
    if isinstance(value, (set, frozenset)):
        return sorted(value)  # pragma: no cover - defensive
    return str(value)


Subscriber = Callable[[NetworkEvent], None]

DEFAULT_SEGMENT_SIZE = 512


class _Segment:
    """One fixed-size slice of the log with its query-skip metadata."""

    __slots__ = ("events", "seq_first", "seq_last", "t_min", "t_max",
                 "counts", "compacted")

    def __init__(self) -> None:
        self.events: List[NetworkEvent] = []
        self.seq_first = -1
        self.seq_last = -1
        self.t_min = float("inf")
        self.t_max = float("-inf")
        self.counts: Dict[str, int] = {}
        self.compacted = False

    def append(self, event: NetworkEvent) -> None:
        if not self.events:
            self.seq_first = event.seq
        self.seq_last = event.seq
        self.events.append(event)
        self.t_min = min(self.t_min, event.time)
        self.t_max = max(self.t_max, event.time)
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1

    def compact(self) -> int:
        """Collapse sample kinds to last-value-per-key; return the
        number of events dropped.  Lifecycle events are untouched."""
        if self.compacted:
            return 0
        self.compacted = True
        last_for_key: Dict[Tuple[str, object], int] = {}
        for index, event in enumerate(self.events):
            key_fn = SAMPLE_KINDS.get(event.kind)
            if key_fn is not None:
                last_for_key[(event.kind, key_fn(event.data))] = index
        keep: List[NetworkEvent] = []
        for index, event in enumerate(self.events):
            key_fn = SAMPLE_KINDS.get(event.kind)
            if key_fn is None:
                keep.append(event)
            elif last_for_key[(event.kind, key_fn(event.data))] == index:
                keep.append(event)
        dropped = len(self.events) - len(keep)
        if dropped:
            self.events = keep
            self.counts = {}
            for event in keep:
                self.counts[event.kind] = self.counts.get(event.kind, 0) + 1
        return dropped


class EventLog:
    """An append-only, time-ordered, segmented event log.

    * ``segment_size`` — events per segment; a sealed segment's time
      bounds and per-kind counts let queries skip it wholesale.
    * ``retention`` — number of *sealed* segments kept raw.  ``None``
      (the default) keeps everything lossless; an integer N compacts
      segments older than the N newest sealed ones (sample kinds
      collapse to last-value-per-key, lifecycle kinds are kept).
    * subscribers see every event exactly once, in emit order, before
      ``emit`` returns — compaction never touches what subscribers
      already saw.
    """

    def __init__(
        self,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        retention: Optional[int] = None,
        metrics=None,
    ) -> None:
        if segment_size < 1:
            raise ValueError("segment_size must be >= 1")
        if retention is not None and retention < 0:
            raise ValueError("retention must be None or >= 0")
        self.segment_size = segment_size
        self.retention = retention
        self._segments: List[_Segment] = [_Segment()]
        self._subscribers: List[Subscriber] = []
        self._next_seq = 0
        self._size = 0
        self.compacted_events = 0
        self._stream: Optional[IO[str]] = None
        self._compacted_counter = None
        if metrics is not None:
            self.attach_metrics(metrics)

    # ------------------------------------------------------------------
    # Observability

    def attach_metrics(self, registry) -> None:
        """Register the log's gauges/counters on an obs registry."""
        registry.gauge(
            "eventlog.events", "Events currently retained in the log"
        ).set_function(lambda: float(self._size))
        registry.gauge(
            "eventlog.segments", "Segments (sealed + active) in the log"
        ).set_function(lambda: float(len(self._segments)))
        self._compacted_counter = registry.counter(
            "eventlog.compacted_total",
            "Sample events dropped by segment compaction",
        )

    # ------------------------------------------------------------------
    # Append path

    def emit(self, time: float, kind: str, **data: object) -> NetworkEvent:
        """Append an event and notify subscribers."""
        event = NetworkEvent(time=time, kind=kind, data=dict(data),
                             seq=self._next_seq)
        self._next_seq += 1
        self._append(event)
        if self._stream is not None:
            self._stream.write(event.json_line() + "\n")
        for subscriber in self._subscribers:
            subscriber(event)
        return event

    def _append(self, event: NetworkEvent) -> None:
        active = self._segments[-1]
        if len(active.events) >= self.segment_size:
            self._segments.append(_Segment())
            active = self._segments[-1]
            self._run_retention()
        active.append(event)
        self._size += 1

    def _run_retention(self) -> None:
        if self.retention is None:
            return
        sealed = len(self._segments) - 1
        for segment in self._segments[: max(0, sealed - self.retention)]:
            dropped = segment.compact()
            if dropped:
                self._size -= dropped
                self.compacted_events += dropped
                if self._compacted_counter is not None:
                    self._compacted_counter.inc(dropped)

    def subscribe(self, subscriber: Subscriber) -> None:
        self._subscribers.append(subscriber)

    # ------------------------------------------------------------------
    # Read path

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[NetworkEvent]:
        for segment in self._segments:
            yield from segment.events

    def all(self) -> List[NetworkEvent]:
        return list(self)

    def events_after(self, seq: int) -> Iterator[NetworkEvent]:
        """Events with sequence number strictly greater than ``seq``,
        in log order (the checkpoint-delta iterator)."""
        for segment in self._segments:
            if segment.seq_last <= seq:
                continue
            for event in segment.events:
                if event.seq > seq:
                    yield event

    def query(
        self,
        kind: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        where: Optional[Callable[[NetworkEvent], bool]] = None,
    ) -> List[NetworkEvent]:
        """Filter the log by kind and/or time window and/or predicate.

        Whole segments are skipped via their per-kind counts and time
        bounds; only surviving segments are scanned.  Both ``since``
        and ``until`` are inclusive.
        """
        result: List[NetworkEvent] = []
        for segment in self._segments:
            if not segment.events:
                continue
            if kind is not None and kind not in segment.counts:
                continue
            if since is not None and segment.t_max < since:
                continue
            if until is not None and segment.t_min > until:
                continue
            for event in segment.events:
                if kind is not None and event.kind != kind:
                    continue
                if since is not None and event.time < since:
                    continue
                if until is not None and event.time > until:
                    continue
                if where is not None and not where(event):
                    continue
                result.append(event)
        return result

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for segment in self._segments:
            for kind, count in segment.counts.items():
                counts[kind] = counts.get(kind, 0) + count
        return counts

    def tail(self, n: int = 10) -> List[NetworkEvent]:
        if n <= 0:
            return []
        result: List[NetworkEvent] = []
        for segment in reversed(self._segments):
            take = segment.events[-(n - len(result)):]
            result = take + result
            if len(result) >= n:
                break
        return result

    def segment_stats(self) -> List[Dict[str, object]]:
        """Per-segment introspection (the segmentation tests)."""
        return [
            {
                "events": len(segment.events),
                "t_min": segment.t_min,
                "t_max": segment.t_max,
                "kinds": len(segment.counts),
                "compacted": segment.compacted,
            }
            for segment in self._segments
            if segment.events
        ]

    def digest(self, exclude_kinds: Optional[Iterable[str]] = None) -> str:
        """sha256 over the canonical JSONL form of the retained events.

        Stable across a :meth:`save`/:meth:`load` round trip, which is
        what ``make replay-smoke`` asserts.

        ``exclude_kinds`` drops the named kinds before hashing.  The
        fluid fast-forward equivalence checks use it to compare the
        *control-plane* record (lifecycle events) while ignoring
        ``SAMPLE_KINDS`` load samples, whose instantaneous values lead
        or lag by whatever packets were in flight at the sample tick.
        """
        skip = frozenset(exclude_kinds) if exclude_kinds is not None else None
        hasher = hashlib.sha256()
        for event in self:
            if skip is not None and event.kind in skip:
                continue
            hasher.update(event.json_line().encode())
            hasher.update(b"\n")
        return hasher.hexdigest()

    def control_digest(self) -> str:
        """:meth:`digest` restricted to discrete lifecycle events (the
        high-churn :data:`SAMPLE_KINDS` are excluded)."""
        return self.digest(exclude_kinds=SAMPLE_KINDS)

    # ------------------------------------------------------------------
    # Persistence (JSONL)

    def save(self, path: str) -> int:
        """Write the retained events as JSON Lines; returns the count."""
        count = 0
        with open(path, "w") as handle:
            for event in self:
                handle.write(event.json_line() + "\n")
                count += 1
        return count

    @classmethod
    def load(cls, path: str, **kwargs) -> "EventLog":
        """Rebuild a log from a JSONL file written by :meth:`save` or
        :meth:`stream_to` (``kwargs`` forward to the constructor)."""
        log = cls(**kwargs)
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                event = NetworkEvent(
                    time=float(row["time"]), kind=str(row["kind"]),
                    data=dict(row.get("data", {})), seq=log._next_seq,
                )
                log._next_seq += 1
                log._append(event)
        return log

    def stream_to(self, path: str) -> Callable[[], None]:
        """Append every future event to ``path`` as JSONL, as emitted.

        Returns a closer; call it (or :meth:`close_stream`) to flush
        and detach.  Only one stream sink at a time.
        """
        if self._stream is not None:
            raise RuntimeError("a stream sink is already attached")
        self._stream = open(path, "a", buffering=1)
        return self.close_stream

    def close_stream(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None
