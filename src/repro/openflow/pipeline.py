"""Reliable rule installation with per-datapath barrier batching.

The controller installs flow entries *reliably*: every FlowMod must be
acknowledged by the datapath before the controller considers it
placed, and unacknowledged installs are re-sent with exponential
backoff (the control channel may drop messages either way -- see the
chaos harness).  The acknowledgement vehicle is the OpenFlow barrier:
a BarrierReply confirms the datapath processed everything sent before
the matching BarrierRequest.

The naive shape -- one BarrierRequest chasing every single FlowMod --
doubles the control-channel message count of a session setup.  This
pipeline exploits the barrier's actual semantics instead: FlowMods
destined for the *same datapath within one simulation tick* are
coalesced under a single BarrierRequest.  FlowMods still go out
immediately (a buffered first packet is released by its FlowMod, so
deferring them would add setup latency); only the barrier is deferred
to a zero-delay flush event, which the simulator's FIFO tie-breaking
runs after every same-tick handler has enqueued its rules.  A session
setup that installs four entries across three datapaths thus costs
4 FlowMods + 3 Barriers instead of 4 + 4, and a switch resync pushing
N entries costs N + 1 instead of 2N.

Retry is per *batch*: a missing BarrierReply within the timeout
re-sends every FlowMod in the batch followed by a fresh barrier, with
the timeout doubled, up to the attempt cap.  Re-sending is idempotent
-- FlowMod ADD replaces an identical entry in place, and a retried
``buffer_id`` release pops nothing if the first copy already fired.

``batching=False`` degrades to the historical one-barrier-per-FlowMod
behavior (the flush happens synchronously per rule); the install
benchmark uses that as its baseline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.openflow import messages as ofmsg

DEFAULT_INSTALL_TIMEOUT_S = 0.05
DEFAULT_MAX_ATTEMPTS = 5


@dataclass(slots=True)
class _Batch:
    """FlowMods for one datapath awaiting one barrier acknowledgement."""

    dpid: int
    rules: List[object] = field(default_factory=list)
    buffer_ids: List[Optional[int]] = field(default_factory=list)
    attempt: int = 1
    timeout_s: float = DEFAULT_INSTALL_TIMEOUT_S
    timer: Optional[object] = None  # cancellable simulator handle


class InstallPipeline:
    """Batched, barrier-acked FlowMod installation for one controller.

    The pipeline borrows the controller's senders and switch table; it
    owns only the batching and retry state.  All methods are safe to
    call for datapaths that have meanwhile disconnected (the install
    is silently abandoned -- a reconnect resyncs from the session
    store, which stays authoritative).
    """

    def __init__(
        self,
        controller,
        timeout_s: float = DEFAULT_INSTALL_TIMEOUT_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        batching: bool = True,
        metrics=None,
    ):
        self._controller = controller
        self._sim = controller.sim
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.batching = batching
        # dpid -> batch still accumulating rules this tick.
        self._open: Dict[int, _Batch] = {}
        self._flush_handles: Dict[int, object] = {}
        # barrier xid -> batch in flight, awaiting its BarrierReply.
        self._pending: Dict[int, _Batch] = {}
        self._xids = itertools.count(1)
        self._setup_metrics(metrics)

    def _setup_metrics(self, registry) -> None:
        if registry is None:
            class _Null:
                value = 0

                def inc(self, amount: int = 1) -> None:
                    pass

                def observe(self, value: float) -> None:
                    pass

            null = _Null()
            self.flowmods_sent = null
            self.barriers_sent = null
            self.install_retries = null
            self.install_failures = null
            self.batch_size_hist = null
            return
        self.flowmods_sent = registry.counter(
            "controller.flowmods_sent",
            "FlowMod messages sent by the install pipeline",
        )
        self.barriers_sent = registry.counter(
            "controller.barriers_sent",
            "BarrierRequest messages sent by the install pipeline",
        )
        self.install_retries = registry.counter(
            "controller.install_retries",
            "Rule installs re-sent after a barrier-ack timeout",
        )
        self.install_failures = registry.counter(
            "controller.install_failures",
            "Rule installs abandoned after exhausting retries",
        )
        self.batch_size_hist = registry.histogram(
            "controller.install_batch_size",
            "FlowMods acknowledged per BarrierRequest",
        )
        registry.gauge(
            "controller.installs_pending",
            "Rule installs awaiting their barrier ack",
        ).set_function(self.pending_rules)

    # ------------------------------------------------------------------
    # Enqueue / flush

    def install(self, rule, buffer_id: Optional[int] = None) -> None:
        """Send ``rule``'s FlowMod now; arrange its barrier ack.

        With batching on, the barrier is shared with every other rule
        enqueued for the same datapath this tick.
        """
        if rule.dpid not in self._controller.switches:
            return
        self._send_flow_mod(rule, buffer_id)
        if not self.batching:
            batch = _Batch(dpid=rule.dpid, rules=[rule],
                           buffer_ids=[buffer_id],
                           timeout_s=self.timeout_s)
            self._dispatch_barrier(batch)
            return
        batch = self._open.get(rule.dpid)
        if batch is None:
            batch = _Batch(dpid=rule.dpid, timeout_s=self.timeout_s)
            self._open[rule.dpid] = batch
            self._flush_handles[rule.dpid] = self._sim.schedule(
                0.0, self._flush, rule.dpid
            )
        batch.rules.append(rule)
        batch.buffer_ids.append(buffer_id)

    def _flush(self, dpid: int) -> None:
        """End-of-tick: seal the datapath's open batch with a barrier."""
        self._flush_handles.pop(dpid, None)
        batch = self._open.pop(dpid, None)
        if batch is None or not batch.rules:
            return
        self._dispatch_barrier(batch)

    def _dispatch_barrier(self, batch: _Batch) -> None:
        handle = self._controller.switches.get(batch.dpid)
        if handle is None:
            return
        xid = next(self._xids)
        handle.channel.to_switch(ofmsg.BarrierRequest(xid=xid))
        self.barriers_sent.inc()
        self.batch_size_hist.observe(len(batch.rules))
        batch.timer = self._sim.schedule(
            batch.timeout_s, self._timed_out, xid
        )
        self._pending[xid] = batch

    def _send_flow_mod(self, rule, buffer_id: Optional[int]) -> None:
        self._controller.send_flow_mod(
            rule.dpid,
            command=ofmsg.FlowMod.ADD,
            match=rule.match,
            actions=rule.actions,
            priority=rule.priority,
            idle_timeout=rule.idle_timeout,
            hard_timeout=rule.hard_timeout,
            cookie=rule.cookie,
            send_flow_removed=rule.send_flow_removed,
            buffer_id=buffer_id,
        )
        self.flowmods_sent.inc()

    # ------------------------------------------------------------------
    # Acks, timeouts, aborts

    def on_barrier_reply(self, dpid: int, xid: int) -> None:
        """The datapath processed everything up to this barrier."""
        batch = self._pending.pop(xid, None)
        if batch is not None and batch.timer is not None:
            batch.timer.cancel()

    def _timed_out(self, xid: int) -> None:
        batch = self._pending.pop(xid, None)
        if batch is None:
            return
        if (
            batch.attempt >= self.max_attempts
            or batch.dpid not in self._controller.switches
        ):
            self.install_failures.inc(len(batch.rules))
            return
        self.install_retries.inc(len(batch.rules))
        batch.attempt += 1
        batch.timeout_s *= 2
        for rule, buffer_id in zip(batch.rules, batch.buffer_ids):
            self._send_flow_mod(rule, buffer_id)
        self._dispatch_barrier(batch)

    def abort_datapath(self, dpid: int) -> None:
        """Drop every open and in-flight batch for a dead datapath.

        Retrying against a disconnected channel is pointless; the
        reconnect path resyncs the full session state instead.
        """
        flush = self._flush_handles.pop(dpid, None)
        if flush is not None:
            flush.cancel()
        self._open.pop(dpid, None)
        stale = [
            xid for xid, batch in self._pending.items() if batch.dpid == dpid
        ]
        for xid in stale:
            batch = self._pending.pop(xid)
            if batch.timer is not None:
                batch.timer.cancel()

    # ------------------------------------------------------------------
    # Introspection

    def pending_rules(self) -> int:
        """Rules enqueued or sent but not yet barrier-acknowledged."""
        return (
            sum(len(b.rules) for b in self._open.values())
            + sum(len(b.rules) for b in self._pending.values())
        )

    def pending_batches(self) -> Tuple[int, int]:
        """(open, in-flight) batch counts, for tests and debugging."""
        return len(self._open), len(self._pending)
