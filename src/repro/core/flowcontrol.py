"""Aggregate flow control (Section IV.C).

"With this information, LiveSec controller can further master the
network traffic distribution and service-aware statistics, and provide
more interesting function, such as aggregate flow control."

:class:`AggregateFlowControl` gives that sentence a concrete
implementation: per-user (source MAC) aggregate rate quotas enforced
centrally.  The controller already owns every ingress flow entry, so
the enforcement loop is pure control plane:

1. every ``check_interval_s`` poll flow statistics from all switches,
2. aggregate byte deltas of ingress entries per source MAC,
3. when a user's aggregate rate exceeds its quota, install a
   high-priority source drop at the user's ingress switch for
   ``penalty_s`` seconds (a hard-timeout entry: the penalty lifts
   itself, no controller action needed).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.routing import source_block_rule
from repro.openflow.match import Match

DEFAULT_CHECK_INTERVAL_S = 1.0
DEFAULT_PENALTY_S = 5.0

USER_THROTTLED = "user-throttled"


class AggregateFlowControl:
    """Per-user aggregate rate quotas over the ingress flow entries."""

    def __init__(
        self,
        controller,
        default_quota_bps: Optional[float] = None,
        check_interval_s: float = DEFAULT_CHECK_INTERVAL_S,
        penalty_s: float = DEFAULT_PENALTY_S,
    ):
        if check_interval_s <= 0:
            raise ValueError(
                f"check interval must be positive (got {check_interval_s})"
            )
        self.controller = controller
        self.default_quota_bps = default_quota_bps
        self.check_interval_s = check_interval_s
        self.penalty_s = penalty_s
        self._quotas: Dict[str, float] = {}
        # (dpid, match-id) -> last byte count; per-poll-round state.
        self._last_bytes: Dict[Tuple[int, Match, int], int] = {}
        self._user_bytes_this_round: Dict[str, int] = {}
        self._penalized_until: Dict[str, float] = {}
        self.throttle_events = 0
        controller.subscribe_flow_stats(self._on_flow_stats)
        controller.sim.every(check_interval_s, self._poll)

    # ------------------------------------------------------------------
    # Configuration

    def set_quota(self, user_mac: str, bps: Optional[float]) -> None:
        """Set (or with None, clear) a user's aggregate quota."""
        if bps is None:
            self._quotas.pop(user_mac, None)
        else:
            if bps <= 0:
                raise ValueError(f"quota must be positive (got {bps})")
            self._quotas[user_mac] = bps

    def quota_for(self, user_mac: str) -> Optional[float]:
        return self._quotas.get(user_mac, self.default_quota_bps)

    # ------------------------------------------------------------------
    # Measurement loop

    def _poll(self) -> None:
        # Evaluate the *previous* round first: by now all replies from
        # the last poll have arrived (the control latency is far below
        # the check interval).
        self._evaluate_round()
        self._user_bytes_this_round = {}
        for dpid in list(self.controller.switches):
            self.controller.request_flow_stats(dpid)

    def _on_flow_stats(self, event) -> None:
        now_bucket = self._user_bytes_this_round
        for entry in event.entries:
            match = entry["match"]
            src = match.dl_src
            if src is None:
                continue
            # Only ingress entries (matching at a periphery in_port)
            # attribute bytes to the user; transit/egress entries would
            # double count.
            periphery = self.controller.app(
                "host-tracker"
            ).is_periphery_port(
                event.dpid, match.in_port
            ) if match.in_port is not None else False
            if not periphery:
                continue
            key = (event.dpid, match, entry["priority"])
            previous = self._last_bytes.get(key, 0)
            self._last_bytes[key] = entry["bytes"]
            delta = max(0, entry["bytes"] - previous)
            now_bucket[src] = now_bucket.get(src, 0) + delta

    def _evaluate_round(self) -> None:
        now = self.controller.sim.now
        for mac, delta_bytes in self._user_bytes_this_round.items():
            quota = self.quota_for(mac)
            if quota is None:
                continue
            if self._penalized_until.get(mac, 0.0) > now:
                continue
            rate_bps = delta_bytes * 8.0 / self.check_interval_s
            if rate_bps <= quota:
                continue
            self._penalize(mac, rate_bps, quota)

    def _penalize(self, mac: str, rate_bps: float, quota: float) -> None:
        record = self.controller.nib.host_by_mac(mac)
        if record is None or any(
            block.flow is None
            for block in self.controller.sessions.blocks_of(mac)
        ):
            # Unknown, or source-blocked for good: the penalty shares
            # that drop's match and priority and would replace it with
            # one that expires.
            return
        # Through the acked sender, but deliberately not into the
        # enforcement book: the entry lifts itself after ``penalty_s``,
        # and a book entry would need an expiry clock nothing else
        # needs.  A switch that forgets it forgets at most that much.
        penalty = source_block_rule(mac, record)._replace(
            hard_timeout=self.penalty_s
        )
        self.controller.apply_rule("add", penalty)
        now = self.controller.sim.now
        self._penalized_until[mac] = now + self.penalty_s
        self.throttle_events += 1
        self.controller.log.emit(
            now, USER_THROTTLED,
            user_mac=mac,
            rate_bps=rate_bps,
            quota_bps=quota,
            penalty_s=self.penalty_s,
        )

    def penalized_users(self) -> Dict[str, float]:
        """Users currently under penalty, with penalty expiry times."""
        now = self.controller.sim.now
        return {
            mac: until
            for mac, until in self._penalized_until.items()
            if until > now
        }
