"""Discrete-event simulation kernel.

Everything in the reproduction -- link serialization, switch lookups,
controller round trips, service-element processing -- is driven by a
single :class:`Simulator` instance.  The kernel is intentionally small:
a time-ordered event heap with stable FIFO ordering for simultaneous
events, cancellable handles, and helpers for periodic processes.

Determinism matters for reproducibility, so ties are broken by an
insertion sequence number and no wall-clock time ever leaks in.

The heap holds 4-tuples ordered by the C tuple comparison; ``seq`` is
unique, so the comparison is always decided before it reaches the third
field.  There are two entry shapes on the one heap:

* ``(time, seq, callback, args)`` -- fire-and-forget, pushed by
  :meth:`Simulator.post` / :meth:`Simulator.post_at`.  Nothing can
  cancel it, so nothing but the tuple is allocated.
* ``(time, seq, handle, None)`` -- cancellable, pushed by
  :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` (and so by
  :meth:`Simulator.every`); ``args is None`` is what marks it.

The rule for callers: want to cancel -> ``schedule``, otherwise ->
``post``.  Both kinds draw ``seq`` from the same counter, so which one
a call site uses never changes the order events fire in.
"""

from __future__ import annotations

import itertools
import sys
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple


_NEVER = float("inf")


class EventHandle:
    """A cancellable reference to a scheduled event."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, callback: Callable, args: tuple,
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        # The simulator whose heap still holds this handle; cleared when
        # the event is popped (fired or reaped) so late cancels of dead
        # handles never skew the live-event accounting.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._note_cancelled()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<EventHandle t={self.time:.6f} {name} {state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    # Compact the heap when cancelled handles are the majority; below
    # this size the O(n) sweep costs more than it saves.
    COMPACT_MIN_QUEUE = 64

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Any, Optional[tuple]]] = []
        self._seq = itertools.count()
        #: Current simulated time in seconds.  A plain attribute (every
        #: hop reads it several times); only :meth:`run` writes it, and
        #: only ever forwards.
        self.now = 0.0
        self._running = False
        self._cancelled_queued = 0
        self.events_processed = 0
        self.heap_compactions = 0
        # Attached fluid fast-forward region (see repro.net.fluid); the
        # run loop only settles it on the way out.
        self.fluid = None
        self._next_ids: Dict[str, int] = {}

    def next_id(self, name: str, start: int) -> int:
        """The next value of this run's sequence ``name``, which begins
        at ``start``.  Flow ids and ephemeral ports are minted here, not
        from module-level counters: what a run numbers must not depend
        on what ran before it in the process."""
        value = self._next_ids.get(name, start)
        self._next_ids[name] = value + 1
        return value

    def schedule(self, delay: float, callback: Callable, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        # ``not >=`` rather than ``<`` so a NaN is rejected too: one
        # NaN key silently breaks the heap invariant for every event.
        if not delay >= 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        seq = next(self._seq)
        handle = EventHandle(time, seq, callback, args, self)
        heappush(self._queue, (time, seq, handle, None))
        return handle

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        seq = next(self._seq)
        handle = EventHandle(time, seq, callback, args, self)
        heappush(self._queue, (time, seq, handle, None))
        return handle

    # The four queueing methods repeat the check and the push: one event
    # per hop goes through each, and a shared helper would cost a call.

    def post(self, delay: float, callback: Callable, *args: Any) -> None:
        """:meth:`schedule` without the handle: ``callback(*args)`` runs
        ``delay`` seconds from now and nothing can cancel it."""
        if not delay >= 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heappush(
            self._queue, (self.now + delay, next(self._seq), callback, args)
        )

    def post_at(self, time: float, callback: Callable, *args: Any) -> None:
        """:meth:`schedule_at` without the handle."""
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        heappush(self._queue, (time, next(self._seq), callback, args))

    def attach_fluid(self, region) -> None:
        """Attach a fluid fast-forward region (one per simulator).

        The run loop never consults it: a suspended flow is a function
        of time that the readers of its clocks and counters ask, and
        its validity caps are ordinary events.  :meth:`run` only calls
        ``region.flush()`` when it returns.
        """
        if self.fluid is not None and self.fluid is not region:
            raise RuntimeError("a fluid region is already attached")
        self.fluid = region

    def settle_fluid(self) -> None:
        """Have the attached fluid region, if any, settle its suspended
        flows up to ``now`` (``FluidRegion.flush``: counters paid,
        clocks stored).  Every cold path that reports a port, link,
        table or delivery total from inside the event loop calls this
        first; :meth:`run` calls it on its way out."""
        if self.fluid is not None:
            self.fluid.flush()

    # ------------------------------------------------------------------
    # Cancelled-handle accounting

    def _note_cancelled(self) -> None:
        self._cancelled_queued += 1
        if (self._cancelled_queued * 2 > len(self._queue)
                and len(self._queue) >= self.COMPACT_MIN_QUEUE):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled handles and re-heapify.

        Without this, cancel/reschedule churn (TCP RTO timers, flow
        pacing) grows the heap without bound until the dead handles
        surface naturally.  The list is rewritten in place: a callback
        may cancel its way into a compaction while :meth:`run` holds
        the queue in a local.
        """
        queue = self._queue
        queue[:] = [
            item for item in queue
            if item[3] is not None or not item[2].cancelled
        ]
        heapify(queue)
        self._cancelled_queued = 0
        self.heap_compactions += 1

    def every(
        self,
        interval: float,
        callback: Callable,
        *args: Any,
        start: Optional[float] = None,
        jitter: float = 0.0,
    ) -> EventHandle:
        """Run ``callback(*args)`` periodically.

        The returned handle cancels the *next* occurrence (and thereby
        the whole series), and supports ``set_interval()`` to retune
        the period of a live series (the next occurrence is rescheduled
        to one new interval from now).  ``start`` defaults to one
        interval from now.  ``jitter`` adds a fixed phase offset,
        useful to avoid thundering herds of simultaneous periodic
        events.

        ``jitter`` only applies to the computed default start; passing
        it together with an explicit ``start`` raises ``ValueError``
        (it used to be silently ignored) -- fold the offset into
        ``start`` instead.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive (got {interval})")
        if start is not None and jitter != 0.0:
            raise ValueError(
                "jitter is ignored when an explicit start is given;"
                " fold the phase offset into start instead"
            )
        first = (self.now + interval + jitter) if start is None else start
        series = _PeriodicSeries(self, interval, callback, args)
        series.handle = self.schedule_at(first, series.fire)
        return _SeriesHandle(series)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events until the queue drains, ``until`` is reached,
        or ``max_events`` have fired.  The clock only moves forwards:
        an ``until`` in the past fires nothing and leaves ``now`` alone.

        An attached fluid region costs the loop nothing per event; it
        is settled before returning, so whatever runs outside the loop
        reads what the packets so far would have written.
        """
        if self._running:
            # The loop below holds the heap and its own counters in
            # locals; a nested loop would fire events behind its back.
            raise RuntimeError("Simulator.run() called from inside a callback")
        self._running = True
        # Normalised once so the per-event body compares plain numbers.
        bounded = until is not None
        if until is None:
            until = _NEVER
        processed = self.events_processed
        # An int, not _NEVER: ``int >= float`` misses CPython's int
        # fast path (27 ns against 10 ns, once per event).
        stop_at = sys.maxsize if max_events is None else processed + max_events
        queue = self._queue
        try:
            while queue:
                head = queue[0]
                args = head[3]
                if args is None and head[2].cancelled:
                    heappop(queue)
                    self._cancelled_queued -= 1
                    continue
                # After the reaping, so a queue holding only cancelled
                # handles drains (and reaches ``until``) exactly like
                # one that was compacted empty.
                if processed >= stop_at:
                    break
                time = head[0]
                if time > until:
                    if until > self.now:
                        self.now = until
                    break
                heappop(queue)
                self.now = time
                if args is None:
                    event = head[2]
                    event._sim = None
                    event.callback(*event.args)
                else:
                    head[2](*args)
                processed += 1
                self.events_processed = processed
            else:
                if bounded and until > self.now:
                    self.now = until
        finally:
            self._running = False
            self.settle_fluid()

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1): a
        live counter tracks cancellations instead of scanning)."""
        return len(self._queue) - self._cancelled_queued

    def attach_metrics(self, registry) -> None:
        """Publish kernel health through an obs registry (pull-mode
        gauges; the event loop itself is untouched)."""
        registry.gauge(
            "sim.now_s", "Current simulated time",
        ).set_function(lambda: self.now)
        registry.gauge(
            "sim.events_processed", "Events fired since construction",
        ).set_function(lambda: self.events_processed)
        registry.gauge(
            "sim.pending_events", "Live events still queued",
        ).set_function(self.pending)
        registry.gauge(
            "sim.heap_compactions",
            "Times the event heap was compacted of cancelled handles",
        ).set_function(lambda: self.heap_compactions)

    def __repr__(self) -> str:
        return f"<Simulator t={self.now:.6f} pending={self.pending()}>"


class _PeriodicSeries:
    """Book-keeping for :meth:`Simulator.every`."""

    def __init__(self, sim: Simulator, interval: float, callback: Callable, args: tuple):
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.args = args
        self.handle: Optional[EventHandle] = None
        self.cancelled = False

    def fire(self) -> None:
        if self.cancelled:
            return
        self.callback(*self.args)
        if not self.cancelled:
            self.handle = self.sim.schedule(self.interval, self.fire)


class _SeriesHandle(EventHandle):
    """What :meth:`Simulator.every` returns: ``cancel`` stops the whole
    periodic series and ``set_interval`` retunes a live series' period."""

    __slots__ = ("_series",)

    def __init__(self, series: _PeriodicSeries):
        first = series.handle
        assert first is not None
        super().__init__(first.time, first.seq, series.fire, ())
        self._series = series

    def cancel(self) -> None:  # noqa: D102 - see EventHandle
        series = self._series
        series.cancelled = True
        if series.handle is not None:
            series.handle.cancel()
        self.cancelled = True

    def set_interval(self, interval: float) -> None:
        """Change the series' period; the next occurrence moves to one
        new interval from now (fault injection uses this to stretch an
        element's report cadence mid-run)."""
        if interval <= 0:
            raise ValueError(f"interval must be positive (got {interval})")
        series = self._series
        series.interval = interval
        if series.cancelled:
            return
        if series.handle is not None:
            series.handle.cancel()
        series.handle = series.sim.schedule(interval, series.fire)
