"""Tests for aggregate flow control (the Section IV.C extension)."""

import random

import pytest

from repro.core.flowcontrol import USER_THROTTLED, AggregateFlowControl
from repro.openflow.channel import ChannelFaults
from repro.workloads import CbrUdpFlow
from tests.conftest import attach_rejected_element

GATEWAY_IP = "10.255.255.254"


class TestConfiguration:
    def test_quota_set_and_clear(self, small_net):
        control = AggregateFlowControl(small_net.controller)
        control.set_quota("m1", 1e6)
        assert control.quota_for("m1") == 1e6
        control.set_quota("m1", None)
        assert control.quota_for("m1") is None

    def test_default_quota_applies_to_unknown_users(self, small_net):
        control = AggregateFlowControl(small_net.controller,
                                       default_quota_bps=2e6)
        assert control.quota_for("anyone") == 2e6

    def test_invalid_parameters(self, small_net):
        with pytest.raises(ValueError):
            AggregateFlowControl(small_net.controller, check_interval_s=0)
        control = AggregateFlowControl(small_net.controller)
        with pytest.raises(ValueError):
            control.set_quota("m1", -5)


class TestEnforcement:
    def test_over_quota_user_throttled(self, small_net):
        host = small_net.host("h1_1")
        control = AggregateFlowControl(small_net.controller,
                                       check_interval_s=0.5,
                                       penalty_s=2.0)
        control.set_quota(host.mac, 2e6)
        flow = CbrUdpFlow(small_net.sim, host, GATEWAY_IP, rate_bps=20e6)
        flow.start()
        small_net.run(3.0)
        flow.stop()
        assert control.throttle_events >= 1
        events = small_net.controller.log.query(kind=USER_THROTTLED)
        assert events and events[0].data["user_mac"] == host.mac
        assert events[0].data["rate_bps"] > 2e6

    def test_penalty_actually_stops_traffic(self, small_net):
        host = small_net.host("h1_1")
        control = AggregateFlowControl(small_net.controller,
                                       check_interval_s=0.5,
                                       penalty_s=60.0)
        control.set_quota(host.mac, 1e6)
        flow = CbrUdpFlow(small_net.sim, host, GATEWAY_IP, rate_bps=20e6)
        flow.start()
        small_net.run(3.0)
        delivered_at_penalty = flow.delivered_bytes(small_net.gateway)
        small_net.run(2.0)
        flow.stop()
        leaked = flow.delivered_bytes(small_net.gateway) - delivered_at_penalty
        # A little in-flight slack, then silence.
        assert leaked < 20e6 * 0.2 / 8
        assert host.mac in control.penalized_users()

    def test_penalty_is_retried_over_a_lossy_channel(self, small_net):
        """The penalty goes through the acked sender.  Half of what the
        controller sends the switch is lost, and the seed is one where
        that takes the penalty FlowMod and its barrier: the install
        pipeline re-sends it, where the parent's single un-acked
        FlowMod left the user running free for ``penalty_s``.  (A
        barrier that outruns a lost FlowMod still acks it falsely --
        ROADMAP item 2's anti-entropy pass, not this test.)"""
        host = small_net.host("h1_1")
        switch = small_net.topology.attachments["h1_1"].switch
        control = AggregateFlowControl(small_net.controller,
                                       check_interval_s=0.5,
                                       penalty_s=60.0)
        control.set_quota(host.mac, 1e6)
        flow = CbrUdpFlow(small_net.sim, host, GATEWAY_IP, rate_bps=20e6)
        flow.start()
        small_net.run(0.2)  # the session is up before the channel degrades
        small_net.channels[switch.dpid].inject_faults(ChannelFaults(
            rng=random.Random(6), drop_rate=0.5, directions=("to_switch",),
        ))
        small_net.run(2.8)
        assert control.throttle_events == 1
        delivered_at_penalty = flow.delivered_bytes(small_net.gateway)
        small_net.run(2.0)
        flow.stop()
        assert flow.delivered_bytes(small_net.gateway) == delivered_at_penalty
        assert small_net.controller.install_pipeline.install_retries.value > 0
        penalty, = [e for e in switch.table if e.match.dl_src == host.mac
                    and e.is_drop]
        assert penalty.hard_timeout == 60.0

    def test_penalty_never_replaces_a_source_block(self, small_net):
        """A source-blocked sender's dropped bytes still count against
        its quota, and the penalty entry shares the block's match and
        priority: penalising it would swap the permanent drop for one
        that expires (the parent did -- five times in these 5 s -- and
        what stood between the sender and the network was the next
        penalty, not its block)."""
        switch = small_net.topology.as_switches[0]
        liar = attach_rejected_element(small_net, switch)
        liar.announce()
        control = AggregateFlowControl(small_net.controller,
                                       default_quota_bps=1e6,
                                       check_interval_s=0.5, penalty_s=1.0)
        flow = CbrUdpFlow(small_net.sim, liar, GATEWAY_IP, rate_bps=20e6)
        flow.start()
        small_net.run(5.0)
        flow.stop()
        assert control.throttle_events == 0
        assert flow.delivered_bytes(small_net.gateway) == 0
        block, = [e for e in switch.table if e.match.dl_src == liar.mac
                  and e.is_drop]
        assert block.hard_timeout == 0.0 and block.bytes > 0

    def test_penalty_expires_and_traffic_resumes(self, small_net):
        host = small_net.host("h1_1")
        control = AggregateFlowControl(small_net.controller,
                                       check_interval_s=0.5,
                                       penalty_s=1.5)
        control.set_quota(host.mac, 1e6)
        flow = CbrUdpFlow(small_net.sim, host, GATEWAY_IP, rate_bps=20e6)
        flow.start()
        small_net.run(10.0)
        flow.stop()
        # Duty cycle: throttled, released, re-throttled, ...
        assert control.throttle_events >= 2

    def test_under_quota_user_untouched(self, small_net):
        host = small_net.host("h1_1")
        control = AggregateFlowControl(small_net.controller,
                                       check_interval_s=0.5)
        control.set_quota(host.mac, 50e6)
        flow = CbrUdpFlow(small_net.sim, host, GATEWAY_IP, rate_bps=5e6,
                          duration_s=3.0)
        flow.start()
        small_net.run(4.0)
        assert control.throttle_events == 0
        assert flow.delivered_bytes(small_net.gateway) > 0

    def test_no_quota_means_no_enforcement(self, small_net):
        host = small_net.host("h1_1")
        control = AggregateFlowControl(small_net.controller,
                                       check_interval_s=0.5)
        flow = CbrUdpFlow(small_net.sim, host, GATEWAY_IP, rate_bps=50e6,
                          duration_s=3.0)
        flow.start()
        small_net.run(4.0)
        assert control.throttle_events == 0
