"""Forwarding accountability: verify path proofs, quarantine liars.

SDNsec-style data-plane accountability for the steered sessions: the
ingress rule stamps a per-session :class:`~repro.openflow.pathproof.
PathDescriptor` onto the first frame action, every on-path switch
appends a keyed mark, and the egress switch reports the completed
chain back to the controller.  This app is the verifier:

* **egress proofs** (:class:`~repro.core.bus.PathProofIn`) are checked
  against the descriptor; the first divergent mark attributes the
  violation to a datapath,
* **stray tagged frames** (:class:`~repro.core.bus.TaggedPacketIn`)
  mean a frame left its expected path before the egress strip -- the
  last switch that stamped validly is the misrouter,
* a periodic **absence audit** catches tag-stripping switches that
  never let a proof complete: sessions whose proofs went silent vote
  for the datapaths they share, datapaths on still-healthy paths are
  exonerated, and what remains is accused of ``proof-silence``.

A violation immediately quarantines the datapath
(``controller.quarantined_dpids``): the policy engine stops placing
waypoints there and the steering app reroutes the sessions that
traverse it.  Detection latency is therefore the time-to-detect the
chaos harness measures.

The absence audit attributes by elimination, so its precision depends
on path diversity: with no healthy path sharing a suspect's links it
may over-approximate (documented in DESIGN.md's threat model).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.apps.base import App, AppContext
from repro.core.bus import (
    PathProofIn,
    PathViolation,
    SwitchQuarantined,
    TaggedPacketIn,
)
from repro.core.events import EventKind
from repro.openflow import pathproof

AUDIT_INTERVAL_S = 0.5
# A session whose egress proofs go silent for this long (while the
# session is still live) is considered stalled by the absence audit.
PROOF_SILENCE_THRESHOLD_S = 1.0


class AccountabilityApp(App):
    """Verifies forwarding proofs and quarantines misbehaving switches."""

    name = "accountability"

    def __init__(self, ctx: AppContext):
        super().__init__(ctx)
        self.listen(PathProofIn, self.on_path_proof)
        self.listen(TaggedPacketIn, self.on_tagged_packet)
        # session_id -> sim time of the last *valid* egress proof.
        self._last_proof_at: Dict[int, float] = {}
        self._proofs_valid = ctx.metrics.counter(
            "accountability.proofs", "Egress path proofs verified",
            result="valid",
        )
        self._proofs_invalid = ctx.metrics.counter(
            "accountability.proofs", "Egress path proofs verified",
            result="invalid",
        )
        self._violations = ctx.metrics.counter(
            "accountability.violations", "Path violations attributed",
        )

    def start(self) -> None:
        self.every(AUDIT_INTERVAL_S, self._audit)

    # ------------------------------------------------------------------
    # Evidence intake

    def on_path_proof(self, event: PathProofIn) -> None:
        report = event.message
        descriptor = report.descriptor
        verdict = pathproof.verify_proof(
            self.ctx.controller.secret, descriptor, report.marks
        )
        if verdict.valid:
            self._proofs_valid.inc()
            self._last_proof_at[descriptor.session_id] = self.ctx.sim.now
            return
        self._proofs_invalid.inc()
        self._raise_violation(
            verdict.offending_dpid, verdict.reason,
            session_id=descriptor.session_id, evidence="egress-proof",
        )

    def on_tagged_packet(self, event: TaggedPacketIn) -> None:
        """A frame still carrying its tag was punted off-path: the last
        switch whose mark verifies is the one that misrouted it."""
        descriptor = event.tag.descriptor
        expected = pathproof.expected_marks(
            self.ctx.controller.secret, descriptor
        )
        prefix = 0
        for got, want in zip(event.tag.marks, expected):
            if got != want:
                break
            prefix += 1
        if prefix >= 1:
            offender = descriptor.dpids[prefix - 1]
        else:
            # No valid mark at all: accuse the ingress, the only switch
            # that saw the frame for certain.
            offender = descriptor.dpids[0]
        self._raise_violation(
            offender, "off-path-frame",
            session_id=descriptor.session_id, evidence="stray-tag",
        )

    # ------------------------------------------------------------------
    # Absence audit (tag-strip detection)

    def _audit(self) -> None:
        now = self.ctx.sim.now
        quarantined = self.ctx.controller.quarantined_dpids
        stalled = []
        healthy_dpids = []
        live_ids = set()
        for session in self.ctx.sessions:
            if session.path_descriptor is None or session.blocked:
                continue
            live_ids.add(session.session_id)
            last = self._last_proof_at.get(session.session_id)
            # Grace for fresh sessions: silence is measured from the
            # last proof, or from creation if none arrived yet.
            base = last if last is not None else session.created_at
            if now - base > PROOF_SILENCE_THRESHOLD_S:
                stalled.append(session)
            elif last is not None:
                for dpid in session.dpids_on_path():
                    if dpid not in healthy_dpids:
                        healthy_dpids.append(dpid)
        # Bound the proof map to live sessions.
        for sid in list(self._last_proof_at):
            if sid not in live_ids:
                self._last_proof_at.pop(sid, None)
        if not stalled:
            return
        suspects: Optional[set] = None
        for session in stalled:
            dpids = set(session.dpids_on_path())
            suspects = dpids if suspects is None else suspects & dpids
        suspects -= set(healthy_dpids)
        suspects -= set(quarantined)
        for dpid in sorted(suspects):
            self._raise_violation(
                dpid, "proof-silence", session_id=None, evidence="audit"
            )

    # ------------------------------------------------------------------
    # Verdict

    def _raise_violation(
        self,
        dpid: int,
        reason: str,
        session_id: Optional[int],
        evidence: str,
    ) -> None:
        controller = self.ctx.controller
        if dpid in controller.quarantined_dpids:
            return  # already acted on; proofs keep streaming in
        self._violations.inc()
        self.ctx.log.emit(
            self.ctx.sim.now, EventKind.PATH_VIOLATION,
            dpid=dpid, reason=reason, evidence=evidence,
            session=-1 if session_id is None else session_id,
        )
        self.ctx.bus.publish(PathViolation(
            dpid=dpid, reason=reason, session_id=session_id,
            evidence=evidence,
        ))
        controller.quarantined_dpids[dpid] = reason
        self.ctx.log.emit(
            self.ctx.sim.now, EventKind.SWITCH_QUARANTINED,
            dpid=dpid, reason=reason,
        )
        self.ctx.bus.publish(SwitchQuarantined(dpid=dpid, reason=reason))
