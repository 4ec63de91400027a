"""Unit tests for the OpenFlow switch datapath and secure channel."""

import pytest

from repro.net import packet as pkt
from repro.net.node import Node, connect
from repro.net.simulator import Simulator
from repro.openflow import messages as msg
from repro.openflow.actions import (
    CONTROLLER_PORT,
    FLOOD_PORT,
    Output,
    SetDlDst,
)
from repro.openflow.channel import SecureChannel
from repro.openflow.controller_base import ControllerBase
from repro.openflow.flowtable import FlowEntry
from repro.openflow.match import Match
from repro.openflow.switch import OpenFlowSwitch
from tests import oracles


class Sink(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, frame, in_port):
        self.received.append((frame, in_port))


class RecordingController(ControllerBase):
    def __init__(self, sim):
        super().__init__(sim, lldp_enabled=False)
        self.packet_ins = []
        self.flow_removed = []
        self.port_stats = []
        self.flow_stats = []
        self.joined = []
        self.left = []

    def on_packet_in(self, event):
        self.packet_ins.append(event)

    def on_flow_removed(self, event):
        self.flow_removed.append(event)

    def on_port_stats(self, event):
        self.port_stats.append(event)

    def on_flow_stats(self, event):
        self.flow_stats.append(event)

    def on_switch_join(self, handle):
        self.joined.append(handle.dpid)

    def on_switch_leave(self, handle):
        self.left.append(handle.dpid)


@pytest.fixture
def setup(sim):
    """One switch with a controller and two sinks on ports 1 and 2."""
    switch = OpenFlowSwitch(sim, "sw", dpid=7)
    ctrl = RecordingController(sim)
    a, b = Sink(sim, "a"), Sink(sim, "b")
    connect(sim, switch, a, port_a=1)
    connect(sim, switch, b, port_a=2)
    channel = SecureChannel(sim, switch, ctrl)
    channel.connect()
    sim.run(until=sim.now + 0.2)
    return switch, ctrl, a, b, channel


def data_frame():
    return pkt.make_udp("m1", "m2", "1.1.1.1", "2.2.2.2", 5, 6, size=200)


class TestHandshake:
    def test_join_delivers_features(self, sim, setup):
        switch, ctrl, *_ = setup
        assert ctrl.joined == [7]
        assert ctrl.switches[7].ports == (1, 2)

    def test_disconnect_notifies_leave(self, sim, setup):
        switch, ctrl, a, b, channel = setup
        channel.disconnect()
        sim.run(until=sim.now + 0.2)
        assert ctrl.left == [7]
        assert 7 not in ctrl.switches


class TestTableMiss:
    def test_miss_punts_with_buffer(self, sim, setup):
        switch, ctrl, a, b, _ = setup
        switch.receive(data_frame(), 1)
        sim.run(until=sim.now + 0.2)
        assert len(ctrl.packet_ins) == 1
        event = ctrl.packet_ins[0]
        assert event.dpid == 7 and event.in_port == 1
        assert event.buffer_id is not None
        assert event.reason == "no_match"

    def test_packet_out_releases_buffer(self, sim, setup):
        switch, ctrl, a, b, _ = setup
        switch.receive(data_frame(), 1)
        sim.run(until=sim.now + 0.2)
        event = ctrl.packet_ins[0]
        ctrl.send_packet_out(7, actions=(Output(2),), buffer_id=event.buffer_id)
        sim.run(until=sim.now + 0.2)
        assert len(b.received) == 1

    def test_stale_buffer_id_ignored(self, sim, setup):
        switch, ctrl, a, b, _ = setup
        ctrl.send_packet_out(7, actions=(Output(2),), buffer_id=424242)
        sim.run(until=sim.now + 0.2)
        assert b.received == []

    def test_miss_without_channel_drops(self, sim):
        switch = OpenFlowSwitch(sim, "lone", dpid=1)
        switch.receive(data_frame(), 1)
        sim.run(until=sim.now + 0.2)
        assert switch.packets_dropped == 1


class TestFlowModAndForwarding:
    def test_installed_rule_forwards(self, sim, setup):
        switch, ctrl, a, b, _ = setup
        ctrl.send_flow_mod(7, msg.FlowMod.ADD, Match(), actions=(Output(2),))
        sim.run(until=sim.now + 0.2)
        switch.receive(data_frame(), 1)
        sim.run(until=sim.now + 0.2)
        assert len(b.received) == 1
        assert ctrl.packet_ins == []

    def test_flow_mod_with_buffer_forwards_buffered(self, sim, setup):
        switch, ctrl, a, b, _ = setup
        switch.receive(data_frame(), 1)
        sim.run(until=sim.now + 0.2)
        event = ctrl.packet_ins[0]
        ctrl.send_flow_mod(
            7, msg.FlowMod.ADD, Match(), actions=(Output(2),),
            buffer_id=event.buffer_id,
        )
        sim.run(until=sim.now + 0.2)
        assert len(b.received) == 1

    def test_drop_rule_counts_drops(self, sim, setup):
        switch, ctrl, a, b, _ = setup
        ctrl.send_flow_mod(7, msg.FlowMod.ADD, Match(), actions=())
        sim.run(until=sim.now + 0.2)
        switch.receive(data_frame(), 1)
        sim.run(until=sim.now + 0.2)
        assert switch.packets_dropped == 1
        assert b.received == []

    def test_rewrite_then_output(self, sim, setup):
        switch, ctrl, a, b, _ = setup
        ctrl.send_flow_mod(
            7, msg.FlowMod.ADD, Match(),
            actions=(SetDlDst("m9"), Output(2)),
        )
        sim.run(until=sim.now + 0.2)
        switch.receive(data_frame(), 1)
        sim.run(until=sim.now + 0.2)
        assert b.received[0][0].dst == "m9"

    def test_flood_action_skips_in_port(self, sim, setup):
        switch, ctrl, a, b, _ = setup
        ctrl.send_flow_mod(7, msg.FlowMod.ADD, Match(),
                           actions=(Output(FLOOD_PORT),))
        sim.run(until=sim.now + 0.2)
        switch.receive(data_frame(), 1)
        sim.run(until=sim.now + 0.2)
        assert len(b.received) == 1 and a.received == []

    def test_output_to_controller_action(self, sim, setup):
        switch, ctrl, a, b, _ = setup
        ctrl.send_flow_mod(
            7, msg.FlowMod.ADD, Match(),
            actions=(Output(CONTROLLER_PORT), Output(2)),
        )
        sim.run(until=sim.now + 0.2)
        switch.receive(data_frame(), 1)
        sim.run(until=sim.now + 0.2)
        assert len(ctrl.packet_ins) == 1
        assert ctrl.packet_ins[0].reason == "action"
        assert len(b.received) == 1

    def test_multi_output_delivers_independent_copies(self, sim, setup):
        switch, ctrl, a, b, _ = setup
        ctrl.send_flow_mod(7, msg.FlowMod.ADD, Match(),
                           actions=(Output(1), Output(2)))
        sim.run(until=sim.now + 0.2)
        frame = data_frame()
        switch.receive(frame, 3)
        sim.run(until=sim.now + 0.2)
        assert len(a.received) == 1 and len(b.received) == 1
        assert a.received[0][0] is not b.received[0][0]

    def test_delete_then_miss(self, sim, setup):
        switch, ctrl, a, b, _ = setup
        ctrl.send_flow_mod(7, msg.FlowMod.ADD, Match(), actions=(Output(2),))
        sim.run(until=sim.now + 0.2)
        ctrl.send_flow_mod(7, msg.FlowMod.DELETE, Match())
        sim.run(until=sim.now + 0.2)
        switch.receive(data_frame(), 1)
        sim.run(until=sim.now + 0.2)
        assert len(ctrl.packet_ins) == 1  # back to punting


class TestFlowRemoved:
    def test_idle_expiry_notifies(self, sim, setup):
        switch, ctrl, a, b, _ = setup
        ctrl.send_flow_mod(
            7, msg.FlowMod.ADD, Match(), actions=(Output(2),),
            idle_timeout=1.0, send_flow_removed=True, cookie=99,
        )
        sim.run(until=5.0)
        assert len(ctrl.flow_removed) == 1
        removed = ctrl.flow_removed[0]
        assert removed.reason == "idle" and removed.cookie == 99

    def test_delete_notifies_when_flagged(self, sim, setup):
        switch, ctrl, a, b, _ = setup
        ctrl.send_flow_mod(
            7, msg.FlowMod.ADD, Match(), actions=(Output(2),),
            send_flow_removed=True,
        )
        sim.run(until=sim.now + 0.2)
        ctrl.send_flow_mod(7, msg.FlowMod.DELETE, Match())
        sim.run(until=sim.now + 0.2)
        assert ctrl.flow_removed[0].reason == "delete"

    def test_expiry_observed_by_lookup_notifies_before_sweep(self, sim, setup):
        """A frame arriving after an entry's deadline evicts it and
        emits FlowRemoved immediately -- not at the next sweep tick."""
        switch, ctrl, a, b, _ = setup
        ctrl.send_flow_mod(
            7, msg.FlowMod.ADD, Match(), actions=(Output(2),),
            idle_timeout=1.0, send_flow_removed=True, cookie=42,
        )
        # Installed ~t=0.2, so the idle deadline lands ~t=1.2: after the
        # switch's first sweep tick (~1.007) but before the next (~2.007).
        sim.run(until=1.5)
        assert ctrl.flow_removed == []
        switch.receive(data_frame(), 1)
        sim.run(until=1.7)  # still before the 2.007 sweep
        assert len(ctrl.flow_removed) == 1
        removed = ctrl.flow_removed[0]
        assert removed.reason == "idle" and removed.cookie == 42
        assert len(ctrl.packet_ins) == 1  # the observing frame missed

    def test_modify_as_add_keeps_flow_removed_flag(self, sim, setup):
        """A MODIFY that matches nothing installs the entry like an ADD
        would, send_flow_removed included: the controller must hear it
        expire."""
        switch, ctrl, a, b, _ = setup
        ctrl.send_flow_mod(
            7, msg.FlowMod.MODIFY, Match(), actions=(Output(2),),
            idle_timeout=1.0, send_flow_removed=True, cookie=41,
        )
        sim.run(until=sim.now + 0.2)
        assert len(switch.table) == 1
        sim.run(until=5.0)
        assert [r.cookie for r in ctrl.flow_removed] == [41]

    def test_no_notification_without_flag(self, sim, setup):
        switch, ctrl, a, b, _ = setup
        ctrl.send_flow_mod(7, msg.FlowMod.ADD, Match(), actions=(Output(2),),
                           idle_timeout=1.0)
        sim.run(until=5.0)
        assert ctrl.flow_removed == []


class TestStats:
    def test_port_stats_reply(self, sim, setup):
        switch, ctrl, a, b, _ = setup
        ctrl.send_flow_mod(7, msg.FlowMod.ADD, Match(), actions=(Output(2),))
        sim.run(until=sim.now + 0.2)
        switch.receive(data_frame(), 1)
        sim.run(until=sim.now + 0.2)
        ctrl.request_port_stats(7)
        sim.run(until=sim.now + 0.2)
        stats = ctrl.port_stats[0].stats
        assert stats[2]["tx_packets"] == 1
        assert stats[2]["tx_bytes"] == 200

    def test_flow_stats_reply(self, sim, setup):
        switch, ctrl, a, b, _ = setup
        ctrl.send_flow_mod(7, msg.FlowMod.ADD, Match(tp_dst=6),
                           actions=(Output(2),), cookie=5)
        sim.run(until=sim.now + 0.2)
        switch.receive(data_frame(), 1)
        sim.run(until=sim.now + 0.2)
        ctrl.request_flow_stats(7)
        sim.run(until=sim.now + 0.2)
        entries = ctrl.flow_stats[0].entries
        assert len(entries) == 1
        assert entries[0]["cookie"] == 5
        assert entries[0]["packets"] == 1


class TimedSink(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, frame, in_port):
        self.received.append((self.sim.now, frame))


class RecordingChannel:
    """Just enough of a SecureChannel to keep what the switch says."""

    connected = True

    def __init__(self):
        self.messages = []

    def to_controller(self, message):
        self.messages.append(message)


def bench(switch_class):
    """A switch on a fresh simulator: in-ports 1 and 2 forward to a
    timed sink on port 3 over a 1 Gb/s, 50 us link."""
    sim = Simulator()
    switch = switch_class(sim, "sw", dpid=7)
    switch.channel = RecordingChannel()
    sources = [TimedSink(sim, f"src{port}") for port in (1, 2)]
    for port, source in zip((1, 2), sources):
        connect(sim, switch, source, port_a=port)
    sink = TimedSink(sim, "sink")
    link = connect(sim, switch, sink, port_a=3)
    for port in (1, 2):
        switch.table.add(FlowEntry(match=Match(in_port=port),
                                   actions=(Output(3),)), sim.now)
    return sim, switch, sink, link


BOTH_DATAPATHS = pytest.mark.parametrize(
    "switch_class", [OpenFlowSwitch, oracles.PostedForwardingSwitch],
    ids=["run-ahead", "posted"],
)


class TestForwardingDelay:
    """The action stage runs at arrival with the clock at departure
    (``OpenFlowSwitch``); ``oracles.PostedForwardingSwitch`` is the
    same datapath with the delay as an event of its own."""

    @BOTH_DATAPATHS
    def test_frames_leave_one_output_in_arrival_order_after_the_delay(
            self, switch_class):
        sim, switch, sink, link = bench(switch_class)
        t0, delay = 0.01, switch.forwarding_delay_s
        first, middle, last = data_frame(), data_frame(), data_frame()
        sim.post_at(t0, switch.receive, first, 1)
        sim.post_at(t0 + 5e-6, switch.handle_of_message, msg.PacketOut(
            actions=(Output(3),), frame=middle, in_port=2))
        sim.post_at(t0 + 10e-6, switch.receive, last, 2)
        sim.run(until=0.1)
        tx = 200 * 8.0 / link.bandwidth_bps
        assert sink.received == [
            (arrival + delay + tx + link.delay_s, frame)
            for arrival, frame in ((t0, first), (t0 + 5e-6, middle),
                                   (t0 + 10e-6, last))
        ]

    @BOTH_DATAPATHS
    def test_a_link_failing_inside_the_delay(self, switch_class):
        """The one rule that changed: a link set down 10 us after a
        frame arrived.  Run ahead, the frame was already committed to
        the wire (a transmitted frame, lost at delivery); posted, it
        met the dead link when it left (a transmit drop)."""
        sim, switch, sink, link = bench(switch_class)
        sim.post_at(0.01, switch.receive, data_frame(), 1)
        sim.post_at(0.01 + 10e-6, link.set_up, False)
        sim.run(until=0.1)
        port = switch.ports[3]
        assert sink.received == []
        committed = switch_class is OpenFlowSwitch
        assert (port.tx_packets, port.tx_drops) == (
            (1, 0) if committed else (0, 1))
        assert switch.packets_forwarded == 1

    @BOTH_DATAPATHS
    def test_a_port_stats_poll_inside_the_delay(self, switch_class):
        """What the action stage writes is visible from arrival: a port
        poll 10 us after a frame arrived counts it sent when run ahead,
        and not yet when posted."""
        sim, switch, sink, link = bench(switch_class)
        sim.post_at(0.01, switch.receive, data_frame(), 1)
        sim.post_at(0.01 + 10e-6, switch.handle_of_message,
                    msg.PortStatsRequest())
        sim.run(until=0.1)
        [reply] = [m for m in switch.channel.messages
                   if isinstance(m, msg.PortStatsReply)]
        counted = 1 if switch_class is OpenFlowSwitch else 0
        assert reply.stats[3]["tx_packets"] == counted
        assert switch.ports[3].tx_packets == 1 and len(sink.received) == 1
