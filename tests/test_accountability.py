"""Integration tests for forwarding accountability: path-proof
stamping on steered sessions, the accountability app's three evidence
channels (egress proofs, stray tagged frames, the absence audit), and
the quarantine -> re-steer reaction.
"""

import pytest

from repro.core.bus import TaggedPacketIn
from repro.core.deployment import build_livesec_network
from repro.core.events import EventKind
from repro.faults import run_compromised_switch_scenario
from repro.faults.scenarios import chaos_policy_table
from repro.net import packet as pkt
from repro.net.topologies import GATEWAY_IP
from repro.openflow import messages as ofmsg
from repro.openflow.pathproof import (
    PathDescriptor,
    PathTag,
    derive_switch_secret,
)
from repro.workloads import CbrUdpFlow


def build_accountable_net():
    return build_livesec_network(
        topology="linear",
        policies=chaos_policy_table("open"),
        elements=[("ids", 3)],
        num_as=3,
        hosts_per_as=1,
        element_timeout_s=1.5,
        dispatcher="polling",
        accountability=True,
    )


def tagged_frame(tag):
    frame = pkt.make_udp(
        "00:00:00:00:00:11", "00:00:00:00:00:22",
        "10.0.1.1", "10.0.3.1", 20000, 9000, payload=b"x",
    )
    frame.path_tag = tag
    return frame


class TestProofPlumbing:
    def test_sessions_get_descriptors_and_valid_proofs(self):
        # The compromise fires at t=5s on the absolute sim clock; with
        # a 2s warmup a 2.5s run ends before it: a clean run.
        report = run_compromised_switch_scenario(
            seed=0, variant="skip-waypoint", duration_s=2.5
        )
        assert report.path_violations == 0
        assert report.quarantined_dpids == []

    def test_accountability_off_by_default(self):
        net = build_livesec_network(
            topology="linear",
            policies=chaos_policy_table("open"),
            elements=[("ids", 1)],
            dispatcher="polling",
        )
        assert not net.controller.accountability_enabled
        assert "accountability" not in net.controller._apps


class TestEgressProofVerdicts:
    def test_truncated_proof_quarantines_offender(self):
        net = build_accountable_net()
        net.start()
        net.run(1.0)
        secret = net.controller.secret
        desc = PathDescriptor.for_path(secret, 999, (1, 2, 2, 3))
        tag = PathTag(descriptor=desc)
        for dpid in (1, 2, 3):  # waypoint stamped once: skip-waypoint
            tag = tag.stamped(derive_switch_secret(secret, dpid), dpid)
        net.controller.on_path_proof(ofmsg.PathProofReport(
            dpid=3, cookie=0, descriptor=desc, marks=tag.marks,
        ))
        assert net.controller.quarantined_dpids == {2: "mark-mismatch"}
        kinds = [event.kind for event in net.controller.log.all()]
        assert EventKind.PATH_VIOLATION in kinds
        assert EventKind.SWITCH_QUARANTINED in kinds

    def test_valid_proof_raises_nothing(self):
        net = build_accountable_net()
        net.start()
        net.run(1.0)
        secret = net.controller.secret
        desc = PathDescriptor.for_path(secret, 998, (1, 3))
        tag = PathTag(descriptor=desc)
        for dpid in desc.dpids:
            tag = tag.stamped(derive_switch_secret(secret, dpid), dpid)
        net.controller.on_path_proof(ofmsg.PathProofReport(
            dpid=3, cookie=0, descriptor=desc, marks=tag.marks,
        ))
        assert net.controller.quarantined_dpids == {}
        counters = net.controller.metrics.snapshot().counters()
        assert counters.get("accountability.proofs{result=valid}", 0) == 1


class TestStrayTagEvidence:
    def test_tagged_punt_convicts_last_valid_stamper(self):
        # A frame that punts while still carrying its tag left the
        # expected path: the last switch whose mark verifies is the
        # misrouter.
        net = build_accountable_net()
        net.start()
        net.run(1.0)
        secret = net.controller.secret
        desc = PathDescriptor.for_path(secret, 777, (1, 2, 2, 3))
        tag = PathTag(descriptor=desc)
        for dpid in (1, 2):  # honestly stamped up to the waypoint-in
            tag = tag.stamped(derive_switch_secret(secret, dpid), dpid)
        net.controller.on_packet_in(ofmsg.PacketIn(
            dpid=3, in_port=1, frame=tagged_frame(tag),
        ))
        assert net.controller.quarantined_dpids == {2: "off-path-frame"}

    @pytest.mark.parametrize("punted_at,booked", [
        (1, {2: "off-path-frame"}),
        (2, {}),
        (3, {2: "off-path-frame"}),
    ])
    def test_a_valid_prefix_convicts_unless_at_the_next_hop(
        self, punted_at, booked
    ):
        # Marks from dpids 1 and 2, all valid: the next hop is
        # descriptor.dpids[2] == 2.  There the frame was forwarded
        # correctly and met a table miss (the entry's FlowMod was lost
        # or is late); anywhere else dpid 2 misrouted it.
        net = build_accountable_net()
        net.start()
        net.run(1.0)
        secret = net.controller.secret
        desc = PathDescriptor.for_path(secret, 780, (1, 2, 2, 3))
        tag = PathTag(descriptor=desc)
        for dpid in (1, 2):
            tag = tag.stamped(derive_switch_secret(secret, dpid), dpid)
        net.controller.on_packet_in(ofmsg.PacketIn(
            dpid=punted_at, in_port=1, frame=tagged_frame(tag),
        ))
        assert net.controller.quarantined_dpids == booked

    def test_unmarked_stray_tag_accuses_ingress(self):
        net = build_accountable_net()
        net.start()
        net.run(1.0)
        secret = net.controller.secret
        desc = PathDescriptor.for_path(secret, 778, (1, 2, 2, 3))
        net.controller.on_packet_in(ofmsg.PacketIn(
            dpid=2, in_port=1, frame=tagged_frame(PathTag(descriptor=desc)),
        ))
        assert net.controller.quarantined_dpids == {1: "off-path-frame"}

    def test_tagged_frame_never_steered_as_first_packet(self):
        # The tagged punt must short-circuit before the steering app's
        # first-packet path: no new session may be minted for it.
        net = build_accountable_net()
        net.start()
        net.run(1.0)
        before = len(list(net.controller.sessions))
        secret = net.controller.secret
        desc = PathDescriptor.for_path(secret, 779, (1, 2, 2, 3))
        net.controller.on_packet_in(ofmsg.PacketIn(
            dpid=2, in_port=1, frame=tagged_frame(PathTag(descriptor=desc)),
        ))
        assert len(list(net.controller.sessions)) == before


class TestCompromisedSwitchScenario:
    @pytest.mark.parametrize("variant,expected_reason", [
        ("skip-waypoint", "mark-mismatch"),
        ("tag-strip", "proof-silence"),
    ])
    def test_detects_quarantines_and_resteers(self, variant,
                                              expected_reason):
        report = run_compromised_switch_scenario(
            seed=0, variant=variant, duration_s=9.0
        )
        assert report.injected.get("switch-compromise") == 1
        assert report.quarantined_dpids == [2]
        assert report.path_violations >= 1
        # Bounded detection: egress proofs convict within packets; the
        # absence audit within the silence threshold plus one sweep.
        assert 0.0 < report.time_to_detect_s["max"] <= 2.0
        # The quarantined switch's element lost its sessions to a
        # replica on an honest switch.
        assert report.recovered_sessions >= 1
        assert report.time_to_recover_s["max"] <= 2.5
        assert any(
            f"reason={expected_reason}" in line or expected_reason in line
            for line in report.event_lines
            if EventKind.PATH_VIOLATION in line
        )

    def test_quarantine_resteer_is_attributed(self):
        report = run_compromised_switch_scenario(
            seed=0, variant="skip-waypoint", duration_s=9.0
        )
        assert any(
            EventKind.FLOW_FAILOVER in line and "quarantine:" in line
            for line in report.event_lines
        )

    def test_same_seed_same_digest(self):
        first = run_compromised_switch_scenario(
            seed=5, variant="tag-strip", duration_s=9.0
        )
        second = run_compromised_switch_scenario(
            seed=5, variant="tag-strip", duration_s=9.0
        )
        assert first.event_lines == second.event_lines
        assert first.event_digest == second.event_digest


def build_accountable_shards():
    """``build_accountable_net`` on two shards: dpids 1-2 and 3."""
    return build_livesec_network(
        num_shards=2,
        topology="linear",
        policies=lambda: chaos_policy_table("open"),
        elements=[("ids", 3)],
        num_as=3,
        hosts_per_as=1,
        element_timeout_s=1.5,
        dispatcher="polling",
        accountability=True,
    )


def quarantined_by_shard(report):
    """Each shard's quarantined dpids, read off its own event log."""
    booked = {}
    for line in report.event_lines:
        shard, __, rest = line.partition(" ")
        if shard.startswith("shard"):
            booked.setdefault(shard, [])
            if EventKind.SWITCH_QUARANTINED in rest:
                booked[shard].append(int(rest.split("dpid=")[1].split()[0]))
    return booked


class TestPathProofsOnShards:
    @pytest.mark.parametrize("variant", [
        "skip-waypoint", "misroute", "tag-strip",
    ])
    def test_two_shards_convict_what_one_controller_does(self, variant):
        """On two shards (dpids 1-2 and 3) the proofs of shard 0's
        sessions egress at dpid 3, so the evidence crosses to shard 0,
        and its conviction reaches shard 1's book too."""
        one = run_compromised_switch_scenario(
            seed=0, variant=variant, duration_s=9.0
        )
        two = run_compromised_switch_scenario(
            seed=0, variant=variant, duration_s=9.0, shards=2
        )
        assert two.shards == 2
        assert quarantined_by_shard(two) == {"shard0": [2], "shard1": [2]}
        assert two.quarantined_dpids == one.quarantined_dpids == [2]
        assert two.path_violations == one.path_violations == 1
        assert two.recovered_sessions == one.recovered_sessions
        assert two.unrecovered_sessions == one.unrecovered_sessions

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_misroute_is_convicted_by_the_absence_audit(self, shards):
        """dpid 2's diverted frames die in the legacy core, so no stray
        tagged frame punts anywhere: the proof silence convicts it."""
        report = run_compromised_switch_scenario(
            seed=0, variant="misroute", duration_s=9.0, shards=shards
        )
        (line,) = [
            line for line in report.event_lines
            if EventKind.PATH_VIOLATION in line
        ]
        assert "dpid=2 evidence=audit reason=proof-silence" in line

    def test_three_shards_route_no_session_through_the_liar(self):
        """On three shards every switch is its own shard, and each shard
        dispatches to its own local IDS: no session's chain crosses the
        compromised dpid 2 (its hosts send nothing), so there is nothing
        to convict -- and no honest switch is."""
        for variant in ("skip-waypoint", "misroute", "tag-strip"):
            report = run_compromised_switch_scenario(
                seed=0, variant=variant, duration_s=9.0, shards=3
            )
            assert report.path_violations == 0
            assert report.quarantined_dpids == []

    def test_honest_shards_lose_no_first_tagged_frame(self):
        """No switch lies, so no tagged frame punts anywhere: the first
        frame of each cross-shard session waits for the remote entries
        instead of meeting a miss at the next hop (the parent lost it
        there, at dpid 3)."""
        net = build_accountable_shards()
        tagged = []
        for controller in net.controllers:
            controller.bus.subscribe(TaggedPacketIn, tagged.append)
        net.start()
        flows = [
            CbrUdpFlow(net.sim, host, GATEWAY_IP, rate_bps=2e6,
                       max_packets=20).start()
            for host in net.topology.user_hosts
        ]
        net.run(1.0)
        assert tagged == []
        assert net.coordinator.status()["remote_rule_ops"] > 0
        crossing = [
            session for session in net.controllers[0].sessions
            if any(net.owner(rule.dpid) is not net.controllers[0]
                   for rule in session.rules)
        ]
        assert crossing
        assert [flow.delivered_bytes(net.gateway) for flow in flows] == [
            20 * flow.packet_size for flow in flows
        ]

    def test_a_restarted_shard_books_what_it_missed(self):
        """A conviction fanned out while shard 1 was down reaches it
        when it restarts, one inter-shard hop later (the parent: shard 0
        books {2}, the restarted shard 1 books nothing)."""
        net = build_accountable_shards()
        convicting, restarted = net.controllers
        net.start()
        net.run(1.0)
        restarted.shard.fail()
        net.run(0.5)
        convicting.quarantine(2, "mark-mismatch")
        net.run(0.5)
        assert restarted.quarantined_dpids == {}
        restarted.shard.restart()
        net.run(3.0)
        assert restarted.quarantined_dpids == {2: "mark-mismatch"}
        assert convicting.quarantined_dpids == {2: "mark-mismatch"}

    def test_a_shard_failing_as_a_conviction_fans_out_books_it_later(self):
        """Shard 1 fails in the instant shard 0 convicts: the fan-out,
        one inter-shard hop behind, finds it dead and books nothing
        (delivered, it would log ``switch-quarantined`` while dead);
        the restart books it."""
        net = build_accountable_shards()
        convicting, restarted = net.controllers
        net.start()
        net.run(1.0)
        # An egress proof at dpid 2 shard 0 holds, one stamp short.
        secret = convicting.secret
        desc = PathDescriptor.for_path(secret, 999, (1, 2))
        tag = PathTag(descriptor=desc).stamped(
            derive_switch_secret(secret, 1), 1
        )
        convicting.on_path_proof(ofmsg.PathProofReport(
            dpid=2, cookie=0, descriptor=desc, marks=tag.marks,
        ))
        assert convicting.quarantined_dpids == {2: "chain-truncated"}
        restarted.shard.fail()
        lines = len(restarted.log)
        net.run(0.5)
        assert len(restarted.log) == lines
        assert restarted.quarantined_dpids == {}
        restarted.shard.restart()
        net.run(0.01)
        assert restarted.quarantined_dpids == {2: "chain-truncated"}
        booked = restarted.log.query(kind=EventKind.SWITCH_QUARANTINED)
        assert [e.data["dpid"] for e in booked] == [2]

    def test_a_conviction_fans_out_and_resteers_elsewhere(self):
        net = build_accountable_shards()
        net.start()
        for host in net.topology.user_hosts:
            CbrUdpFlow(
                net.sim, host, GATEWAY_IP, rate_bps=2e6, duration_s=3.0,
            ).start()
        net.run(1.0)
        convicting, other = net.controllers
        session = next(iter(other.sessions))
        dpid = other.nib.host_by_mac(session.element_macs[0]).dpid
        ingress = net.shard_map.owned_by(0)[0]
        # An egress proof shard 0 holds, one stamp short at ``dpid``.
        secret = convicting.secret
        desc = PathDescriptor.for_path(secret, 999, (ingress, dpid))
        tag = PathTag(descriptor=desc).stamped(
            derive_switch_secret(secret, ingress), ingress
        )
        convicting.on_path_proof(ofmsg.PathProofReport(
            dpid=dpid, cookie=0, descriptor=desc, marks=tag.marks,
        ))
        assert convicting.quarantined_dpids == {dpid: "chain-truncated"}
        assert other.quarantined_dpids == {}
        net.run(0.01)
        assert other.quarantined_dpids == {dpid: "chain-truncated"}
        failovers = [
            event for event in other.log.all()
            if event.kind == EventKind.FLOW_FAILOVER
        ]
        assert [event.data["session"] for event in failovers] == [
            session.session_id
        ]
        assert failovers[0].data["cause"] == "quarantine:chain-truncated"
        assert all(
            other.nib.host_by_mac(mac).dpid != dpid
            for mac in session.element_macs
        )
