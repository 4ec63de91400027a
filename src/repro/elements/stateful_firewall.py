"""Stateful distributed firewall element (SDFW-style).

A :class:`StatefulFirewallElement` is a :class:`FirewallElement` whose
admission decisions are backed by a replicated
:class:`~repro.core.conntrack.ConnTrackTable`:

* a packet of an ESTABLISHED connection is admitted without touching
  the ACL (``conntrack_hits`` vs ``acl_evaluations`` is how the chaos
  tests assert "zero mid-session re-evaluations"),
* the reply direction of an admitted connection is what *promotes* it
  to ESTABLISHED -- no mirrored ACL rule needed,
* every state transition is published to the element's replication
  group (peer firewalls of the same type) and reported to the
  controller over the in-band wire channel, so user-grain failover
  hands sessions to a replica that already holds their entries.

The element never blocks traffic itself (LiveSec principle: actions
are the controller's); a deny is reported exactly like the stateless
firewall's.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import messages as svcmsg
from repro.core.conntrack import (
    CLOSED,
    ConnTrackTable,
    ConnTrackUpdate,
    ESTABLISHED,
    five_tuple_of,
)
from repro.elements.firewall import FirewallElement
from repro.elements.base import Verdict
from repro.net.packet import Ethernet, FlowNineTuple, Tcp

CONNTRACK_SWEEP_INTERVAL_S = 1.0


class StatefulFirewallElement(FirewallElement):
    """An ACL firewall with replicated connection tracking."""

    service_type = "sfw"

    def __init__(self, sim, name, mac, ip, **kwargs):
        super().__init__(sim, name, mac, ip, **kwargs)
        self.conntrack = ConnTrackTable()
        self.replication_group = None  # set by the deployment
        self.conntrack_hits = 0
        self.acl_evaluations = 0
        self.updates_applied = 0
        self.entries_resynced = 0
        self._conntrack_sweep = sim.every(
            CONNTRACK_SWEEP_INTERVAL_S, self._sweep_conntrack,
            start=sim.now + CONNTRACK_SWEEP_INTERVAL_S,
        )

    # ------------------------------------------------------------------
    # Replication plumbing

    def join_replication_group(self, group) -> None:
        self.replication_group = group
        group.register(self)

    def apply_conntrack_update(self, update: ConnTrackUpdate) -> None:
        """A peer replica's transition, delivered by the group."""
        self.conntrack.apply_update(update, self.sim.now)
        self.updates_applied += 1

    def restart(self) -> None:
        """Reboot with a bulk conntrack re-sync: a rebooted VM comes
        back empty, so before serving it pulls the fleet's ESTABLISHED
        table from a live peer -- connections admitted before the
        crash stay on the fast path when failover lands them back
        here."""
        if not self.failed:
            return
        super().restart()
        self.conntrack = ConnTrackTable(
            idle_timeout_s=self.conntrack.idle_timeout_s
        )
        if self.replication_group is not None:
            self.entries_resynced = self.replication_group.resync(self)

    def _publish(self, update: Optional[ConnTrackUpdate]) -> None:
        if update is None:
            return
        if self.replication_group is not None:
            self.replication_group.publish(self, update)
        # Controller visibility: transitions beyond NEW are worth a
        # wire report (NEW would double the in-band chatter for flows
        # that may never complete a handshake).
        if update.state in (ESTABLISHED, CLOSED):
            self._send_conntrack_report(update)

    def _send_conntrack_report(self, update: ConnTrackUpdate) -> None:
        message = svcmsg.ConnTrackMessage(
            element_mac=self.mac,
            certificate=self.certificate or "UNPROVISIONED",
            state=update.state,
            conn=update.key,
        )
        self._send_service_frame(svcmsg.encode_conntrack(message))

    def _sweep_conntrack(self) -> None:
        if self.failed or self.hung:
            return
        self.conntrack.expire(self.sim.now)

    # ------------------------------------------------------------------
    # Inspection

    def inspect(self, frame: Ethernet, flow: FlowNineTuple) -> List[Verdict]:
        key = five_tuple_of(flow)
        now = self.sim.now
        entry = self.conntrack.lookup(key)
        if entry is not None and entry.state == ESTABLISHED:
            # Fast path: tracked connection, no ACL re-evaluation.
            self.conntrack_hits += 1
            _, update = self.conntrack.observe(key, now, origin=self.name)
            self._publish(update)
            self._maybe_close(frame, key, now)
            return []
        if entry is not None:
            # Tracked but not yet established (NEW from either side, or
            # replicated state): admitted without re-consulting the ACL
            # -- this packet may be the reply that establishes it.
            self.conntrack_hits += 1
            _, update = self.conntrack.observe(key, now, origin=self.name)
            self._publish(update)
            self._maybe_close(frame, key, now)
            return []
        # Genuinely new connection: one ACL evaluation decides it.
        self.acl_evaluations += 1
        verdicts = super().inspect(frame, flow)
        if not verdicts:
            _, update = self.conntrack.observe(key, now, origin=self.name)
            self._publish(update)
        return verdicts

    def _maybe_close(self, frame: Ethernet, key, now: float) -> None:
        segment = frame.transport()
        if isinstance(segment, Tcp) and (
            "F" in segment.flags or "R" in segment.flags
        ):
            self._publish(self.conntrack.close(key, now, origin=self.name))

    # ------------------------------------------------------------------
    # Introspection

    def stats(self) -> dict:
        data = super().stats()
        data.update({
            "conntrack_entries": len(self.conntrack),
            "conntrack_states": self.conntrack.states(),
            "conntrack_hits": self.conntrack_hits,
            "acl_evaluations": self.acl_evaluations,
            "updates_applied": self.updates_applied,
            "entries_resynced": self.entries_resynced,
        })
        return data
