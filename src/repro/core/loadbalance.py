"""Distributed load balancing over service elements (Section IV.B).

"According to pre-defined policies, LiveSec controller can do
load-balancing with different granularity" (flow-grain or user-grain),
and "for dynamic network states, LiveSec controller can utilize
different dispatching algorithms such as polling, hash, queuing or
minimum-load method."

All four dispatchers are implemented.  A :class:`LoadBalancer` wraps a
dispatcher with the two things only dispatch knows: the pending bias
(picks made since an element's last load report) and the user pins of
user granularity.  Which live session loads which element is the
session table's to say (``SessionTable.load_of``); the policy engine
puts both into the :class:`ElementLoad` rows the dispatchers rank, and
:func:`load_deviation` is the metric the paper evaluates in Section
V.B.2.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

from repro.core.policy import Granularity
from repro.net.packet import FlowNineTuple


@dataclass
class ElementLoad:
    """The dispatcher-visible state of one candidate element."""

    mac: str
    reported_pps: float  # from the element's last online message
    assigned_flows: int  # live sessions steered through it
    pending: int  # assignments made since the last load report


class Dispatcher:
    """Strategy interface: pick one element for a new flow/user."""

    name = "abstract"

    def pick(
        self,
        candidates: Sequence[ElementLoad],
        flow: FlowNineTuple,
        user: Optional[str],
    ) -> ElementLoad:
        raise NotImplementedError


class RoundRobinDispatcher(Dispatcher):
    """The paper's "polling" method: strict rotation.

    The rotation cursor is the MAC of the last pick, not a numeric
    index: an index taken modulo the *current* candidate count would
    reshuffle which element "next" lands on whenever one element goes
    offline, while the MAC cursor keeps rotating cleanly through the
    survivors (the next pick is the first candidate strictly after the
    cursor in MAC order, wrapping around).
    """

    name = "polling"

    def __init__(self) -> None:
        self._last_mac: Optional[str] = None

    def pick(self, candidates, flow, user):
        ordered = sorted(candidates, key=lambda c: c.mac)
        choice = ordered[0]
        if self._last_mac is not None:
            for candidate in ordered:
                if candidate.mac > self._last_mac:
                    choice = candidate
                    break
        self._last_mac = choice.mac
        return choice


class HashDispatcher(Dispatcher):
    """Stateless hashing of the flow identity (or user) onto elements.

    Deterministic: the same flow always lands on the same element,
    which keeps per-flow inspection state local with no table.
    """

    name = "hash"

    def pick(self, candidates, flow, user):
        key = user if user is not None else "|".join(str(f) for f in flow)
        digest = hashlib.sha256(key.encode()).digest()
        index = int.from_bytes(digest[:4], "big")
        ordered = sorted(candidates, key=lambda c: c.mac)
        return ordered[index % len(ordered)]


class LeastConnectionsDispatcher(Dispatcher):
    """The paper's "queuing" method: fewest live assigned flows."""

    name = "queuing"

    def pick(self, candidates, flow, user):
        return min(candidates, key=lambda c: (c.assigned_flows + c.pending, c.mac))


class MinLoadDispatcher(Dispatcher):
    """The paper's "minimum-load" method, used in the deployment.

    "The load is judged according to the number of received and
    processed packets" -- we rank by reported packets/s, biased by the
    assignments made since that report so that a burst of new flows
    does not pile onto the element whose (stale) report looked idle.

    The bias per pending assignment is *adaptive*: the highest observed
    per-flow packet rate among the candidates.  A fixed bias that
    underestimates real flows lets a recently loaded element keep
    looking cheapest until its next (lagging) report; estimating from
    live measurements keeps the effective-load predictor honest for
    any workload.
    """

    name = "minload"

    def __init__(self, pending_bias_pps: float = 200.0):
        self.pending_bias_pps = pending_bias_pps

    def pick(self, candidates, flow, user):
        per_flow_estimates = [
            c.reported_pps / c.assigned_flows
            for c in candidates
            if c.assigned_flows > 0 and c.reported_pps > 0
        ]
        bias = max([self.pending_bias_pps, *per_flow_estimates])

        def effective_load(c: ElementLoad) -> float:
            return c.reported_pps + c.pending * bias

        return min(candidates, key=lambda c: (effective_load(c), c.mac))


DISPATCHERS = {
    cls.name: cls
    for cls in (
        RoundRobinDispatcher,
        HashDispatcher,
        LeastConnectionsDispatcher,
        MinLoadDispatcher,
    )
}


def make_dispatcher(name: str) -> Dispatcher:
    """Instantiate a dispatcher by its paper name
    ('polling' | 'hash' | 'queuing' | 'minload')."""
    try:
        return DISPATCHERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown dispatcher {name!r}; choose from {sorted(DISPATCHERS)}"
        ) from None


class LoadBalancer:
    """A dispatcher plus its pending bias and user pins."""

    def __init__(self, dispatcher: Dispatcher, metrics=None):
        self.dispatcher = dispatcher
        self._user_assignment: Dict[str, str] = {}
        self._pending: Counter = Counter()  # element MAC -> picks
        self.assignments = 0
        self._assign_hist = None
        if metrics is not None:
            self.attach_metrics(metrics)

    def attach_metrics(self, registry) -> None:
        """Publish dispatch metrics through an obs registry: assign
        wall time (the dispatcher is on the first-packet hot path) and
        the assignment total."""
        self._assign_hist = registry.histogram(
            "balancer.assign_s",
            "Wall-clock time to pick an element for a new flow",
        )
        registry.gauge(
            "balancer.assignments", "Element assignments made so far"
        ).set_function(lambda: self.assignments)

    def pending(self, mac: str) -> int:
        """Picks of ``mac`` its load reports have not yet absorbed."""
        return self._pending[mac]

    def assign(
        self,
        candidates: Sequence[ElementLoad],
        flow: FlowNineTuple,
        user: Optional[str] = None,
        granularity: Granularity = Granularity.FLOW,
    ) -> str:
        """Choose an element MAC for a new flow.

        Under user granularity the user's previous element is reused
        while it remains a candidate.
        """
        if not candidates:
            raise ValueError("no candidate service elements")
        if self._assign_hist is None:
            return self._assign(candidates, flow, user, granularity)
        with self._assign_hist.time():
            return self._assign(candidates, flow, user, granularity)

    def _assign(
        self,
        candidates: Sequence[ElementLoad],
        flow: FlowNineTuple,
        user: Optional[str],
        granularity: Granularity,
    ) -> str:
        pin_user = user if granularity is Granularity.USER else None
        mac = self._user_assignment.get(pin_user)  # None: flow grain
        if mac not in {c.mac for c in candidates}:
            mac = self.dispatcher.pick(candidates, flow, pin_user).mac
        self._pending[mac] += 1
        if pin_user is not None:
            self._user_assignment[pin_user] = mac
        self.assignments += 1
        return mac

    def release(self, element_macs: Iterable[str]) -> None:
        """A session left these elements (ended, re-steered) or a
        partly resolved chain was abandoned: give back their pending
        bias.  A flow gone before its element's next load report would
        otherwise keep biasing the queuing/minimum-load dispatchers
        away from the element until enough reports halve it out."""
        for mac in element_macs:
            if self._pending[mac] > 0:
                self._pending[mac] -= 1

    def on_load_report(self, mac: str) -> None:
        """A fresh online message arrived: decay the pending bias.

        Halving (rather than clearing) matters: a report generated
        moments after an assignment does not yet reflect that flow's
        traffic, and treating it as authoritative makes the dispatcher
        pile new flows onto whichever element reported most recently.
        After two or three reports the flow shows up in the measured
        packet rate and the remaining bias is gone.
        """
        self._pending[mac] //= 2

    def forget_element(self, mac: str) -> None:
        """An element went offline: drop its pending bias and the users
        pinned to it (steering re-dispatches its sessions; the session
        table stops counting them as they move)."""
        self._pending.pop(mac, None)
        for user in [u for u, m in self._user_assignment.items() if m == mac]:
            del self._user_assignment[user]


def load_deviation(loads: Sequence[float]) -> float:
    """The paper's Section V.B.2 metric: max relative deviation from
    the mean load across elements ("no more than 5%").

    Returns 0 for fewer than two elements or an all-zero load vector.
    """
    if len(loads) < 2:
        return 0.0
    mean = sum(loads) / len(loads)
    if mean == 0:
        return 0.0
    return max(abs(load - mean) for load in loads) / mean
