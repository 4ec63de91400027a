"""Unit tests for the OpenFlow switch datapath and secure channel."""

import pytest

from repro.net import packet as pkt
from repro.net.node import Node, connect
from repro.openflow import messages as msg
from repro.openflow.actions import (
    CONTROLLER_PORT,
    FLOOD_PORT,
    Output,
    SetDlDst,
)
from repro.openflow.channel import SecureChannel
from repro.openflow.controller_base import ControllerBase
from repro.openflow.match import Match
from repro.openflow.switch import OpenFlowSwitch


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
        assert a.received[0][0].packet_id != b.received[0][0].packet_id

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
