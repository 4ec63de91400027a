"""Unit tests for the fluid fast-forward kernel (repro.net.fluid).

The oracle-equivalence property suite (test_properties_fluid.py) does
the heavy lifting; these tests pin the kernel's mechanics one piece at
a time: eligibility walks and their refusal reasons, the headroom
check, materialization triggers, and the observability surface.
"""

import dataclasses
import random

import pytest

from repro import build_livesec_network
from repro.core.bus import FlowRemovedIn, FlowStatsIn, PortStatsIn
from repro.net import packet as pkt
from repro.net.ecmp import EcmpLegacySwitch
from repro.net.fluid import ClockShare, FluidRegion
from repro.net.host import Host
from repro.net.legacy import MAC_AGING_S, LegacySwitch
from repro.net.links import _Direction
from repro.net.node import connect
from repro.net.simulator import Simulator
from repro.net.wifi import AirMedium, WirelessLink
from repro.openflow import messages as msg
from repro.openflow.actions import Output, SetDlDst
from repro.openflow.flowtable import FlowEntry
from repro.openflow.match import Match
from repro.openflow.switch import OpenFlowSwitch
from repro.workloads.flows import CbrUdpFlow


def fluid_net(**kwargs):
    net = build_livesec_network(
        topology="linear", num_as=2, hosts_per_as=2, fluid=True, **kwargs
    )
    net.start()
    return net


def endpoints(net):
    return [h for h in net.topology.hosts if h is not net.topology.gateway]


def steady_flow(net, src, dst, rate_bps=2e6, **kwargs):
    return CbrUdpFlow(net.sim, src, dst.ip, rate_bps=rate_bps,
                      packet_size=1000, **kwargs).start()


class TestConstruction:
    def test_double_attach_rejected(self):
        sim = Simulator()
        FluidRegion(sim)
        with pytest.raises(RuntimeError):
            FluidRegion(sim)

    def test_deployment_wires_region_and_metrics(self):
        net = fluid_net()
        assert net.fluid is not None
        assert net.sim.fluid is net.fluid
        snap = net.controller.metrics.snapshot()
        assert snap.get("sim.fluid_suspended_flows") is not None
        assert snap.get("sim.fluid_time_saved_s") is not None


class TestSuspension:
    def test_steady_flow_is_suspended_and_synthesized(self):
        net = fluid_net()
        hosts = endpoints(net)
        flow = steady_flow(net, hosts[0], hosts[1])
        net.run(2.0)
        stats = net.fluid.stats()
        assert stats["suspended_flows"] == 1
        assert stats["packets_synthesized"] > 0
        assert stats["time_saved_s"] > 0.5
        assert flow.packets_sent > 100
        assert flow.delivered_bytes(hosts[1]) == flow.bytes_sent

    def test_stop_boundary_resumes_and_unregisters(self):
        net = fluid_net()
        hosts = endpoints(net)
        flow = steady_flow(net, hosts[0], hosts[1], duration_s=1.0)
        net.run(3.0)
        stats = net.fluid.stats()
        assert not flow.running
        assert stats["suspended_flows"] == 0
        assert stats["registered_flows"] == 0
        assert stats["resumes"] >= 1

    def test_oversubscribed_path_refused(self):
        # Both flows squeeze through one 100 Mbps access link; demand
        # exceeds the 0.95 headroom cap, so the region keeps
        # everything at packet fidelity.
        net = fluid_net()
        hosts = endpoints(net)
        steady_flow(net, hosts[0], hosts[1], rate_bps=60e6)
        steady_flow(net, hosts[0], hosts[1], rate_bps=60e6)
        net.run(1.0)
        stats = net.fluid.stats()
        # Depending on timing the walk sees the standing drop-tail
        # backlog ("queue-backlog") or the headroom check sees the
        # oversubscription ("congested"); either way, no suspension.
        refused = (stats["refusals"].get("congested", 0)
                   + stats["refusals"].get("queue-backlog", 0))
        assert refused >= 1
        assert stats["suspended_flows"] == 0
        assert stats["packets_synthesized"] == 0

    @staticmethod
    def uneven_demands(fluid):
        """Three flows out of one host at uneven rates, on gigabit
        access links: their summed demand is under a tenth of any
        capacity on their paths."""
        net = build_livesec_network(
            topology="linear", num_as=2, hosts_per_as=2, fluid=fluid,
            access_bandwidth_bps=1e9,
        )
        net.start()
        src, *dsts = endpoints(net)
        rates = (48496641.79219705, 33373258.928988237, 1828460.31324845)
        flows = [
            CbrUdpFlow(net.sim, src, dst.ip, rate_bps=rate,
                       packet_size=1500, duration_s=1.2).start()
            for dst, rate in zip(dsts, rates)
        ]
        net.run(1.0)
        if fluid:
            stats = net.fluid.stats()
            assert stats["suspended_flows"] == 3
            assert "congested" not in stats["refusals"]
        net.run(0.5)
        return [(flow.packets_sent, dst.rx_frames_by_flow[flow.flow_id])
                for flow, dst in zip(flows, dsts)]

    def test_uneven_demands_with_headroom_all_suspend(self):
        """Rates that rise by float steps to one another's must not
        read as a shortfall: every demand fits, so all three suspend
        and deliver what the packet kernel delivers."""
        assert (self.uneven_demands(fluid=True)
                == self.uneven_demands(fluid=False))


class TestWalkRefusals:
    def test_a_walk_crossing_one_direction_twice_is_refused(self):
        """A rewrite can send a frame back over a wire it has crossed:
        a settle would pay that direction (and the entry whose one
        output led there) twice while its share holds the flow once,
        so a stats reply's owed read would come up short."""
        sim = Simulator()
        region = FluidRegion(sim)
        sw = OpenFlowSwitch(sim, "sw", dpid=1)
        legacy = LegacySwitch(sim, "legacy", bridge_id=1, stp_enabled=False)
        h1, h2 = lab_hosts(sim, 2)
        connect(sim, sw, legacy, port_a=1, port_b=1)
        connect(sim, sw, legacy, port_a=2, port_b=2)
        connect(sim, sw, h1, port_a=3)
        connect(sim, legacy, h2, port_a=3)
        hairpin = pkt.mac_address(9)  # the legacy switch sends it back
        legacy.mac_table[hairpin] = (2, sim.now)
        legacy.mac_table[h2.mac] = (3, sim.now)
        sw.table.add(FlowEntry(match=Match(in_port=3),
                               actions=(SetDlDst(hairpin), Output(1))), sim.now)
        sw.table.add(FlowEntry(match=Match(in_port=2, dl_dst=hairpin),
                               actions=(SetDlDst(h2.mac), Output(1))), sim.now)
        flow = CbrUdpFlow(sim, h1, h2.ip, rate_bps=1e6, packet_size=1000)
        flow.running, flow._started_at, flow.packets_sent = True, sim.now, 1
        walk, reason = region._walk(flow)
        assert walk is None and reason == "revisit"

    def test_cold_flow_refused(self):
        net = fluid_net()
        hosts = endpoints(net)
        flow = CbrUdpFlow(net.sim, hosts[0], hosts[1].ip, rate_bps=2e6)
        flow.running = True
        flow._started_at = net.sim.now
        walk, reason = net.fluid._walk(flow)
        assert walk is None and reason == "cold"

    def test_stopped_flow_refused(self):
        net = fluid_net()
        hosts = endpoints(net)
        flow = CbrUdpFlow(net.sim, hosts[0], hosts[1].ip, rate_bps=2e6)
        walk, reason = net.fluid._walk(flow)
        assert walk is None and reason == "not-running"

    def test_custom_emitter_refused(self):
        class ScanFlow(CbrUdpFlow):
            def _emit(self):
                super()._emit()

        net = fluid_net()
        hosts = endpoints(net)
        flow = ScanFlow(net.sim, hosts[0], hosts[1].ip, rate_bps=2e6).start()
        net.run(1.0)
        walk, reason = net.fluid._walk(flow)
        assert walk is None and reason == "custom-emitter"
        assert net.fluid.stats()["suspended_flows"] == 0

    def test_sparse_flow_refused(self):
        # 10 packets/s against a 5 s idle timeout is fine; against a
        # 0.5 s timeout the oracle would race expiry, so refuse.
        net = build_livesec_network(
            topology="linear", num_as=2, hosts_per_as=2, fluid=True,
            idle_timeout_s=0.15,
        )
        net.start()
        hosts = endpoints(net)
        steady_flow(net, hosts[0], hosts[1], rate_bps=1e5)
        net.run(1.0)
        stats = net.fluid.stats()
        assert stats["suspended_flows"] == 0
        assert stats["refusals"].get("sparse-flow", 0) >= 1

    def test_link_down_refused(self):
        net = fluid_net()
        hosts = endpoints(net)
        flow = steady_flow(net, hosts[0], hosts[1])
        net.run(1.0)
        assert net.fluid.stats()["suspended_flows"] == 1
        hosts[0].ports[1].link.up = False  # bypass set_up's materialize
        walk, reason = net.fluid._walk(flow)
        assert walk is None and reason == "link-down"

    @pytest.mark.parametrize("probe_size, suspends", [(100, True),
                                                      (1500, False)])
    def test_a_frame_inside_a_switch_at_a_tick(self, probe_size, suspends):
        """A frame a switch holds at a governor tick is already in its
        egress queue (the action stage ran ahead).  It refuses the tick
        only if it is still serializing there when the flow's first
        analytic frame can start to: a 100 B frame is long gone by
        then, 1500 B at 10 Mb/s are not."""
        sim = Simulator()
        region = FluidRegion(sim)
        sw = OpenFlowSwitch(sim, "sw", dpid=1)
        h1, h2, h3 = hosts = lab_hosts(sim)
        for host in hosts:
            connect(sim, sw, host, bandwidth_bps=10e6)  # switch ports 1..3
        for in_port in (1, 3):
            sw.table.add(FlowEntry(match=Match(in_port=in_port),
                                   actions=(Output(2),)), sim.now)
        flow = CbrUdpFlow(sim, h1, h2.ip, rate_bps=1e6, packet_size=1000,
                          sport=40000, dport=9000).start(delay_s=0.1)
        tick = 0.1 + region.governor_interval_s
        # h3's frame reaches the switch 10 us before the tick.
        first_hop = probe_size * 8 / 10e6 + 50e-6
        sim.post_at(tick - 10e-6 - first_hop, h3.send_udp, h2.ip, 5555,
                    7777, b"", probe_size)
        seen = {}

        def after_tick():
            seen["queued"] = sw.ports[2].direction.pending_done[-1] > tick
            seen["suspended"] = flow in region._suspended

        sim.post_at(tick + 1e-6, after_tick)
        sim.run(until=0.2)
        assert seen["queued"]  # the frame was committed inside the switch
        assert seen["suspended"] is suspends
        assert ("queue-backlog" in region.refusals) is not suspends
        assert flow.delivered_bytes(h2) == flow.bytes_sent


class TestMaterialization:
    def run_suspended(self):
        net = fluid_net()
        hosts = endpoints(net)
        flow = steady_flow(net, hosts[0], hosts[1])
        net.run(1.0)
        assert net.fluid.stats()["suspended_flows"] == 1
        return net, hosts, flow

    def test_link_admin_change_materializes(self):
        net, hosts, _flow = self.run_suspended()
        hosts[0].ports[1].link.set_up(False)
        stats = net.fluid.stats()
        assert stats["suspended_flows"] == 0
        assert stats["materializations"].get("link-admin") == 1

    def test_new_flow_start_materializes(self):
        net, hosts, _flow = self.run_suspended()
        steady_flow(net, hosts[1], hosts[0])
        net.run(0.2)
        assert net.fluid.stats()["materializations"].get("flow-start", 0) >= 1

    def test_tcp_open_materializes_and_blocks_resuspension(self):
        net, hosts, _flow = self.run_suspended()
        conn = object()
        net.fluid.tcp_opened(conn)
        stats = net.fluid.stats()
        assert stats["suspended_flows"] == 0
        assert stats["materializations"].get("tcp-open") == 1
        net.run(0.5)
        stats = net.fluid.stats()
        assert stats["suspended_flows"] == 0
        assert stats["refusals"].get("tcp-active", 0) >= 1
        net.fluid.tcp_closed(conn)
        net.run(0.5)
        assert net.fluid.stats()["suspended_flows"] == 1

    @staticmethod
    def moved_destination(fluid):
        """One CBR flow between the two hosts of the first AS switch;
        at 1.0 s the destination is re-plugged into the other AS
        switch, and the flow's installed path now leads to an empty
        port."""
        net = build_livesec_network(
            topology="linear", num_as=2, hosts_per_as=2, fluid=fluid,
            idle_timeout_s=60.0,
        )
        net.start()
        src, dst = endpoints(net)[:2]
        flow = steady_flow(net, src, dst)
        net.run(1.0)
        if fluid:
            assert net.fluid.stats()["suspended_flows"] == 1
        topo = net.topology
        there = topo.attachments[dst.name].switch
        topo.move_host(dst.name, next(
            sw for sw in topo.as_switches if sw is not there
        ))
        net.run(2.0)
        return net, (flow.packets_sent, dst.rx_frames_by_flow[flow.flow_id])

    def test_rewiring_a_port_materializes(self):
        """A suspended flow must not keep delivering over a wire that
        was unplugged under it."""
        packet = self.moved_destination(fluid=False)[1]
        net, fluid = self.moved_destination(fluid=True)
        assert fluid == packet
        assert net.fluid.stats()["materializations"].get("rewire") == 1

    def test_counters_are_current_at_materialization(self):
        net, hosts, flow = self.run_suspended()
        before = flow.packets_sent
        seen = {}

        def probe():
            net.fluid.materialize_all("test")
            seen["t"] = net.sim.now
            seen["sent"] = flow.packets_sent
            # The raw total first: a resume settles what the flow owed.
            seen["raw"] = hosts[1].rx_bytes_by_flow[flow.flow_id]
            seen["delivered"] = flow.delivered_bytes(hosts[1])

        # Probe off the emission grid so "strictly before" is
        # unambiguous; the advance runs before the event fires.
        net.sim.schedule(0.5003, probe)
        net.run(0.6)
        grid = 0
        while flow.paced_at(grid) < seen["t"]:
            grid += 1
        assert seen["sent"] == grid > before
        assert seen["delivered"] == seen["sent"] * flow.packet_size
        assert seen["raw"] == seen["delivered"]


class TestSameInstantSettles:
    """The monitor asks every switch for its port stats at one instant:
    the first reply's settle pays every suspended flow, and the others
    find nothing owed and cost nothing."""

    def test_a_round_of_polls_costs_one_closed_form_per_flow(self):
        net = build_livesec_network(
            topology="linear", num_as=8, hosts_per_as=2, fluid=True,
            idle_timeout_s=60.0, stats_interval_s=None,
        )
        net.start()
        rng = random.Random(3)
        hosts = endpoints(net)
        for index in range(6):
            src, dst = rng.sample(hosts, 2)
            CbrUdpFlow(
                net.sim, src, dst.ip, rate_bps=0.4e6, packet_size=500,
                sport=30000 + index,
            ).start(delay_s=0.0 if index == 0 else
                    rng.randrange(10) * 0.01 + rng.uniform(0.002, 0.007))
        net.run(1.0)
        assert net.fluid.stats()["suspended_flows"] == 6
        costs = []

        def poll_every_switch():
            before = net.fluid.closed_forms
            for switch in net.topology.as_switches:
                switch.handle_of_message(msg.PortStatsRequest())
            costs.append(net.fluid.closed_forms - before)

        net.sim.post(0.0123, poll_every_switch)
        net.run(0.1)
        assert costs == [6]

    def test_a_suspension_at_the_instant_is_settled_again(self):
        """A flow suspended after a flush at the same instant is not
        covered by it: the next flush evaluates every flow."""
        net = fluid_net(idle_timeout_s=60.0, stats_interval_s=None)
        hosts = endpoints(net)
        steady_flow(net, hosts[0], hosts[1])
        net.run(1.0)
        region = net.fluid
        region.flush()
        before = region.closed_forms
        region.flush()
        assert region.closed_forms == before
        region._try_suspend()  # (nothing new: the memo stands)
        region.flush()
        assert region.closed_forms == before
        region.materialize_all("test")
        region._try_suspend()
        assert region.stats()["suspended_flows"] == 1
        assert region.closed_forms > before


def emitted_before(flow, t):
    """Closed-form count of ``flow``'s emissions strictly before ``t``
    off its ``paced_at`` grid (fix-up loops absorb float rounding)."""
    k = max(0, int((t - flow.paced_at(0)) / flow.interval_s))
    while flow.paced_at(k) < t:
        k += 1
    while k > 0 and flow.paced_at(k - 1) >= t:
        k -= 1
    return k


class TestDeferredCounters:
    """Counters are owed while a flow is suspended and paid by
    ``FluidRegion.flush()``; every reader inside the event loop must
    collect first.  Each probe instant reads *one* surface, so a reader
    that skips the flush cannot hide behind one that did not.

    Background chatter (LLDP rounds, STP hellos) also moves port and
    switch totals, so each surface is read where only the mix's own
    packets count -- host-facing ingress, exact-match entries, per-flow
    delivery -- as the reading when ``net.run`` last returned (always
    settled) plus the grid count since.
    """

    PROBES = 22

    def suspended_mix(self, durations=None):
        """Eight CBR flows, all suspended at 1.0 s; ``durations`` maps
        a flow's index to its ``duration_s`` (the rest never stop)."""
        durations = durations or {}
        net = build_livesec_network(
            topology="linear", num_as=2, hosts_per_as=4, fluid=True,
            idle_timeout_s=60.0, stats_interval_s=None,
        )
        net.start()
        rng = random.Random(7)
        hosts = endpoints(net)
        flows = []
        for index in range(8):
            src, dst = rng.sample(hosts, 2)
            flow = CbrUdpFlow(
                net.sim, src, dst.ip,
                rate_bps=rng.choice((0.4e6, 0.8e6, 1.6e6)),
                packet_size=rng.choice((250, 500, 1000)),
                sport=30000 + index, dport=9000 + index,
                duration_s=durations.get(index),
            )
            # Clear of the governor's 50 ms grid (flow 0 anchors it):
            # a frame on a wire at a tick refuses the whole mix.
            flow.start(delay_s=0.0 if index == 0 else
                       rng.randrange(10) * 0.01 + rng.uniform(0.002, 0.007))
            flows.append((flow, src, dst))
        net.run(1.0)
        assert net.fluid.stats()["suspended_flows"] == 8
        return net, rng, flows

    def test_every_in_loop_reader_sees_settled_counters(self):
        net, rng, flows = self.suspended_mix()
        sim, topo = net.sim, net.topology
        sent0 = {flow: flow.packets_sent for flow, _src, _dst in flows}

        def grown(t, keep):
            """(packets, bytes) the flows selected by ``keep`` emitted
            since the baseline, strictly before ``t``."""
            packets = total = 0
            for flow, src, dst in flows:
                if keep(flow, src, dst):
                    count = emitted_before(flow, t) - sent0[flow]
                    packets += count
                    total += count * flow.packet_size
            return packets, total

        def access(host):
            attachment = topo.attachments[host.name]
            return attachment.switch, attachment.switch_port

        def crosses(switch):
            return lambda _flow, src, dst: switch in (
                access(src)[0], access(dst)[0]
            )

        # Replies as the controller receives them, in request order
        # (no monitor polling: every reply answers a probe).
        inbox = {PortStatsIn: [], FlowStatsIn: [], FlowRemovedIn: []}
        for kind, box in inbox.items():
            net.controller.bus.subscribe(kind, box.append)
        awaited = {kind: [] for kind in inbox}
        forwarded_at_packet_level = {}
        for switch in topo.as_switches:
            forwarded_at_packet_level[switch] = 0
            # Every packet-level emission (LLDP PacketOuts are forwards
            # too) goes through a port's egress entry; the wiring does
            # not change in this test, so the wrapped entries stay.
            for number, transmit in list(switch.egress.items()):
                def counted(frame, switch=switch, transmit=transmit):
                    forwarded_at_packet_level[switch] += 1
                    return transmit(frame)

                switch.egress[number] = counted
        failures = []

        def check(name, t, got, expected):
            if got != expected:
                failures.append((name, t, got, expected))

        def forward_entries(switch, flow):
            return [e for e in switch.table if e.match.tp_src == flow.sport]

        # -- the surfaces: each returns nothing, records via check() --

        def port_stats(flow, src, dst):
            switch, port = access(src)
            base = dict(vars(switch.ports[port]))
            latency = net.channels[switch.dpid].latency_s

            def probe():
                at = sim.now + latency  # when the switch answers
                packets, total = grown(at, lambda _f, s, _d: s is src)
                awaited[PortStatsIn].append((at, port, {
                    "rx_packets": base["rx_packets"] + packets,
                    "rx_bytes": base["rx_bytes"] + total,
                }))
                net.controller.request_port_stats(switch.dpid, port)
            return probe

        def flow_stats(flow, src, dst):
            switch, _port = access(src)
            base = {e.match: (e.packets, e.bytes)
                    for e in forward_entries(switch, flow)}
            assert base
            latency = net.channels[switch.dpid].latency_s

            def probe():
                at = sim.now + latency
                packets, total = grown(at, lambda f, _s, _d: f is flow)
                awaited[FlowStatsIn].append((at, {
                    match: (had[0] + packets, had[1] + total)
                    for match, had in base.items()
                }))
                net.controller.request_flow_stats(switch.dpid)
            return probe

        def flow_removed(flow, src, dst):
            switch, _port = access(dst)
            entry = forward_entries(switch, flow)[0]
            base = (entry.packets, entry.bytes)

            def probe():
                packets, total = grown(sim.now, lambda f, _s, _d: f is flow)
                awaited[FlowRemovedIn].append(
                    (sim.now, (base[0] + packets, base[1] + total))
                )
                switch._send_flow_removed(entry, "idle")
            return probe

        def link_stats(flow, src, dst):
            port = src.ports[1]
            base = port.link.stats(port)

            def probe():
                t = sim.now
                packets, total = grown(t, lambda _f, s, _d: s is src)
                got = port.link.stats(port)
                check("Link.stats", t,
                      (got["tx_packets"], got["tx_bytes"], got["dropped"]),
                      (base["tx_packets"] + packets,
                       base["tx_bytes"] + total, 0))
                check("Link.stats busy_time", t, got["busy_time"],
                      pytest.approx(base["busy_time"] + total * 8.0
                                    / port.link.bandwidth_bps))
            return probe

        def utilization(flow, src, dst):
            port = src.ports[1]
            base = port.link.stats(port)["busy_time"]

            def probe():
                t = sim.now
                _packets, total = grown(t, lambda _f, s, _d: s is src)
                busy = base + total * 8.0 / port.link.bandwidth_bps
                check("Link.utilization", t, port.link.utilization(port, 0.0),
                      pytest.approx(busy / t))
            return probe

        def delivered(flow, src, dst):
            def probe():
                t = sim.now
                total = emitted_before(flow, t) * flow.packet_size
                check("delivered_bytes", t, flow.delivered_bytes(dst), total)
            return probe

        def goodput(flow, src, dst):
            def probe():
                t = sim.now
                total = emitted_before(flow, t) * flow.packet_size
                check("goodput_bps", t, flow.goodput_bps(dst),
                      pytest.approx(total * 8.0 / (t - flow.paced_at(0))))
            return probe

        def received_bits(flow, src, dst):
            def probe():
                t = sim.now
                count = emitted_before(flow, t)
                check("Host.received_bits", t,
                      dst.received_bits(flow.flow_id),
                      count * flow.packet_size * 8)
            return probe

        def received_bits_total(flow, src, dst):
            base = dst.received_bits()

            def probe():
                t = sim.now
                _packets, total = grown(t, lambda _f, _s, d: d is dst)
                check("Host.received_bits()", t, dst.received_bits(),
                      base + total * 8)
            return probe

        def region_stats(flow, src, dst):
            def probe():
                t = sim.now
                stats = net.fluid.stats()
                # stats() settles: the raw totals are current after it.
                check("FluidRegion.stats", t,
                      (dst.rx_frames_by_flow[flow.flow_id], flow.bytes_sent),
                      (emitted_before(flow, t),
                       emitted_before(flow, t) * flow.packet_size))
                # Every payment evaluated one closed form.
                assert 0 < stats["settles"] <= stats["closed_forms"]
            return probe

        def table_gauge(flow, src, dst):
            switch, _port = access(dst)
            base = switch.table.exact_hits

            def probe():
                t = sim.now
                packets, _total = grown(t, crosses(switch))
                gauge = net.metrics_snapshot().get(
                    "switch.lookup_exact_hits", dpid=switch.dpid
                )
                check("switch.lookup_exact_hits", t, gauge.value,
                      base + packets)
            return probe

        def switch_gauge(flow, src, dst):
            switch, _port = access(dst)
            base = switch.packets_forwarded - forwarded_at_packet_level[switch]
            gauge = net.controller.metrics.get(
                "switch.packets_forwarded", dpid=switch.dpid
            )

            def probe():
                t = sim.now
                packets, _total = grown(t, crosses(switch))
                check("switch.packets_forwarded", t, gauge.value,
                      base + forwarded_at_packet_level[switch] + packets)
            return probe

        surfaces = [
            port_stats, flow_stats, link_stats, utilization, delivered,
            goodput, received_bits, received_bits_total, region_stats,
            table_gauge, switch_gauge,
        ]
        window = 2.0
        for index in range(self.PROBES):
            surface = surfaces[index % len(surfaces)]
            flow, src, dst = flows[index % len(flows)]
            sim.schedule(rng.uniform(0.01, window), surface(flow, src, dst))
        # A FlowRemoved makes the controller tear the session down, so
        # it goes last.
        sim.schedule(window + 0.0137, flow_removed(*flows[3]))
        settles_before = net.fluid.stats()["settles"]
        net.run(window + 0.1)

        assert failures == []
        assert net.fluid.stats()["settles"] > settles_before
        for kind in (PortStatsIn, FlowStatsIn):
            assert len(inbox[kind]) == len(awaited[kind]) > 0
        for (at, port, expected), event in zip(
            awaited[PortStatsIn], inbox[PortStatsIn]
        ):
            got = event.message.stats[port]
            assert {key: got[key] for key in expected} == expected, at
        for (at, expected), event in zip(
            awaited[FlowStatsIn], inbox[FlowStatsIn]
        ):
            got = {e["match"]: (e["packets"], e["bytes"])
                   for e in event.message.entries if e["match"] in expected}
            assert got == expected, at
        # The probe's own FlowRemoved comes first; the teardown it sets
        # off deletes (and reports) the session's other entries.
        (at, expected), removed = (
            awaited[FlowRemovedIn][0], inbox[FlowRemovedIn][0].message
        )
        assert (removed.reason, removed.packets, removed.bytes) == (
            "idle", *expected
        ), at

    def test_run_returning_settles(self):
        # Outside the event loop nothing needs to flush: the plain
        # attributes are exact whenever ``run`` has returned.
        net, _rng, flows = self.suspended_mix()
        owed = net.fluid.settles
        net.run(0.7331)
        assert net.fluid.settles > owed
        for flow, src, dst in flows:
            count = emitted_before(flow, net.sim.now)
            assert flow.packets_sent == count
            assert flow.bytes_sent == count * flow.packet_size
            assert dst.rx_frames_by_flow[flow.flow_id] == count
        for host in endpoints(net):
            sent = sum(f.bytes_sent for f, src, _dst in flows if src is host)
            # Only ARP precedes the mix on a host's own uplink.
            assert 0 <= host.ports[1].tx_bytes - sent < 1000

    def test_group_port_loads_settles(self, sim):
        # A legacy-only path over an ECMP trunk: no controller, no STP,
        # so the members' loads are the flows' grid counts outright.
        region = FluidRegion(sim)
        s1 = EcmpLegacySwitch(sim, "s1", bridge_id=1)
        s2 = EcmpLegacySwitch(sim, "s2", bridge_id=2)
        connect(sim, s1, s2, port_a=1, port_b=1)
        connect(sim, s1, s2, port_a=2, port_b=2)
        s1.add_ecmp_group([1, 2])
        s2.add_ecmp_group([1, 2])
        h1 = Host(sim, "h1", pkt.mac_address(1), pkt.ip_address(1))
        h2 = Host(sim, "h2", pkt.mac_address(2), pkt.ip_address(2))
        connect(sim, s1, h1, port_a=3)
        connect(sim, s2, h2, port_a=3)
        h1.announce()
        h2.announce()
        sim.run(until=0.2)
        flows = [
            CbrUdpFlow(sim, h1, h2.ip, rate_bps=1e6, packet_size=500,
                       sport=40000 + index, dport=9000).start(
                           delay_s=0.0 if index == 0 else 0.003 + index * 0.01)
            for index in range(6)
        ]
        sim.run(until=1.0)
        assert region.stats()["suspended_flows"] == len(flows)
        member_of = {
            flow: s1.peek_forward(region._probe_frame(flow, h2.mac), 3)
            for flow in flows
        }
        assert set(member_of.values()) == {1, 2}
        arp_bytes = {
            port: load - sum(
                flow.bytes_sent for flow in flows if member_of[flow] == port
            )
            for port, load in s1.group_port_loads([1, 2]).items()
        }
        seen = []

        def probe():
            t = sim.now
            expected = {
                port: arp_bytes[port] + sum(
                    emitted_before(flow, t) * flow.packet_size
                    for flow in flows if member_of[flow] == port
                )
                for port in (1, 2)
            }
            seen.append((s1.group_port_loads([1, 2]), expected))

        for offset in (0.2113, 0.5171, 0.9007):
            sim.schedule(offset, probe)
        sim.run(until=2.0)
        assert len(seen) == 3
        for got, expected in seen:
            assert got == expected

    def test_stop_and_prune_settle_before_forgetting(self):
        """``stop()`` and a flow's own stop boundary (its cap event
        wakes it and its emit path stops it) both settle the flow and
        take it off the region at that instant, not at a later
        governor tick."""
        net, _rng, flows = self.suspended_mix(durations={1: 1.3})
        sim, region = net.sim, net.fluid
        (stopped, _s, stopped_dst), (finished, _s2, finished_dst) = flows[:2]
        ends_at = finished.paced_at(region._suspended[finished].limit)
        assert sim.now < ends_at
        seen = {}

        def raw(flow, dst):
            # No reader in between: the attributes themselves.
            return (flow.bytes_sent, dst.rx_frames_by_flow[flow.flow_id],
                    dst.rx_bytes_by_flow[flow.flow_id])

        def stop():
            stopped.stop()
            seen["stop"] = (sim.now, raw(stopped, stopped_dst))

        def after_finish():  # at the instant, after its cap event
            seen["finish"] = raw(finished, finished_dst)
            seen["registered"] = (stopped in region.flows,
                                  finished in region.flows)

        sim.schedule(0.2113, stop)
        sim.schedule_at(ends_at, after_finish)
        net.run(0.6)

        t, got = seen["stop"]
        count = emitted_before(stopped, t)
        assert stopped.packets_sent == count
        size = stopped.packet_size
        assert got == (count * size, count, count * size)
        assert seen["registered"] == (False, False)
        assert not finished.running
        count, size = finished.packets_sent, finished.packet_size
        assert count == emitted_before(finished, finished._stop_at)
        assert seen["finish"] == (count * size, count, count * size)


def lab_hosts(sim, count=3):
    """Hosts for a controller-less bench: ARP pre-resolved and never
    stale, so nothing but the test's own traffic is on the wires."""
    hosts = [
        Host(sim, f"h{n}", pkt.mac_address(n), pkt.ip_address(n),
             arp_timeout_s=1e6)
        for n in range(1, count + 1)
    ]
    for host in hosts:
        for peer in hosts:
            if peer is not host:
                host.arp_table[peer.ip] = (peer.mac, 0.0)
    return hosts


class TestClockReaders:
    """No clock is written while a flow is suspended; the sites that
    act on one ask the flows driving it.  That reader list is closed --
    ``Link.transmit``, ``AirMedium.reserve``, the idle branch of
    ``FlowEntry.expired``, the aged branch of the legacy MAC lookup --
    and each test here fails when its hook is dropped.  Every probe
    runs inside one ``sim.run``: returning from it settles, which
    stores the clocks.
    """

    PROBE_DPORT = 7777

    def probe_arrivals(self, fluid, wireless):
        """When a small frame for h4, sent while the h1 -> h2 flow's
        latest packet is still serializing, arrives -- on a 10 Mb/s
        wire from the flow's own sender, or over a 10 Mb/s radio from
        another station (h1 and h3 share the air).  Only the first hop
        is shared with the flow."""
        sim = Simulator()
        region = FluidRegion(sim) if fluid else None
        sw = LegacySwitch(sim, "sw", bridge_id=1, stp_enabled=False)
        h1, h2, h3, h4 = hosts = lab_hosts(sim, 4)
        if wireless:
            medium = AirMedium(10e6)
            for station in (h1, h3):
                WirelessLink(sim, sw.next_free_port(),
                             station.next_free_port(), medium)
        for host in hosts:
            if not host.ports:
                connect(sim, sw, host, bandwidth_bps=10e6)
            host.announce()
        sim.run(until=0.1)
        flow = CbrUdpFlow(sim, h1, h2.ip, rate_bps=1e6, packet_size=1000,
                          sport=40000, dport=9000).start()
        arrivals = []
        h4.on_app(pkt.IP_PROTO_UDP, self.PROBE_DPORT,
                  lambda _host, _frame: arrivals.append(sim.now))
        sender = h3 if wireless else h1

        def probe():
            if fluid:
                assert flow in region._suspended
            sender.send_udp(h4.ip, 5555, self.PROBE_DPORT, size=100)

        # 1000 B hold the first hop for 0.8 ms: 0.3 ms after an
        # emission the probe has to wait behind it.
        for index in (100, 150):
            sim.schedule_at(0.1 + index * flow.interval_s + 0.0003, probe)
        sim.run(until=2.0)
        if fluid:
            assert region.stats()["clock_reads"] > 0
        assert len(arrivals) == 2
        return arrivals

    @pytest.mark.parametrize("wireless", [False, True])
    def test_real_frame_waits_behind_an_analytic_one(self, wireless):
        # Exactly the oracle's departure, up to the association of the
        # float sums (the walk adds hop offsets, the oracle adds hop by
        # hop); a dropped hook is 0.5 ms off.
        assert self.probe_arrivals(True, wireless) == pytest.approx(
            self.probe_arrivals(False, wireless), abs=1e-9
        )

    def test_flow_through_one_radio_twice_is_indexed_by_its_later_pass(self):
        sim = Simulator()
        region = FluidRegion(sim)
        sw = LegacySwitch(sim, "sw", bridge_id=1, stp_enabled=False)
        h1, h2 = lab_hosts(sim, 2)
        medium = AirMedium(10e6)
        for station in (h1, h2):
            WirelessLink(sim, sw.next_free_port(), station.next_free_port(),
                         medium)
            station.announce()
        sim.run(until=0.1)
        flow = CbrUdpFlow(sim, h1, h2.ip, rate_bps=1e6, packet_size=1000,
                          sport=40000, dport=9000).start()
        sim.run(until=1.0)
        sf = region._suspended[flow]
        passes = [offset for clock, offset in sf.clocks if clock is medium]
        assert len(passes) == 2
        assert medium.fluid.members == {sf: max(passes)}
        flow.stop()
        assert medium.fluid is None
        assert flow.delivered_bytes(h2) == flow.bytes_sent > 0

    def test_idle_limited_entry_lives_on_analytic_hits(self):
        sim = Simulator()
        region = FluidRegion(sim)
        sw = OpenFlowSwitch(sim, "sw", dpid=1)
        h1, h2, _h3 = hosts = lab_hosts(sim)
        for host in hosts:
            connect(sim, sw, host, bandwidth_bps=10e6)  # switch ports 1..3
        flow = CbrUdpFlow(sim, h1, h2.ip, rate_bps=1e6, packet_size=1000,
                          sport=40000, dport=9000)
        frame = region._probe_frame(flow, h2.mac)
        entry = FlowEntry(match=Match.from_frame(frame, in_port=1),
                          actions=(Output(2),), idle_timeout=1.0)
        sw.table.add(entry, sim.now)
        flow.start()
        seen = {}

        def while_suspended():
            now = sim.now
            offset = dict(
                (id(e), o) for e, o in region._suspended[flow].entry_clocks
            )[id(entry)]
            # Nothing stored since suspension: on its own clock the
            # entry is two timeouts dead.
            assert entry.last_used_at + 2 * entry.idle_timeout < now
            assert entry.expired(now) is None
            assert sw.table.peek(frame, 1, now) is entry
            sw.table._evict_due(now)
            assert entry.resident
            assert sw.table.lookup(frame, 1, now) is entry
            seen["offset"] = offset

        def stop():
            flow.stop()
            seen["stopped"] = sim.now
            seen["last_hit"] = (
                flow.paced_at(flow.packets_sent - 1) + seen["offset"]
            )
            assert entry.last_used_at == seen["last_hit"]

        sim.schedule_at(3.0037, while_suspended)
        sim.schedule_at(4.2113, stop)
        sim.schedule_at(5.15, lambda: seen.update(alive=entry.resident))
        sim.run(until=7.0)

        assert flow.packets_sent == emitted_before(flow, seen["stopped"])
        dies_at = seen["last_hit"] + entry.idle_timeout
        assert 5.15 < dies_at < 5.3
        assert seen["alive"] and not entry.resident
        assert entry.expired(dies_at - 1e-9) is None
        assert entry.expired(dies_at) == "idle"

    @pytest.mark.parametrize("ecmp", [False, True])
    def test_suspended_flows_keep_their_macs_learned(self, ecmp):
        # Two opposite 10 packet/s flows and nothing else for 300 s:
        # every refresh of either MAC is analytic, and at packet level
        # neither ever ages out, so nothing may be flooded.
        sim = Simulator()
        region = FluidRegion(sim)
        h1, h2 = lab_hosts(sim, 2)
        if ecmp:
            s1 = EcmpLegacySwitch(sim, "s1", bridge_id=1)
            s2 = EcmpLegacySwitch(sim, "s2", bridge_id=2)
            connect(sim, s1, s2, port_a=1, port_b=1)
            connect(sim, s1, s2, port_a=2, port_b=2)
            s1.add_ecmp_group([1, 2])
            s2.add_ecmp_group([1, 2])
            switches = [s1, s2]
        else:
            s2 = s1 = LegacySwitch(sim, "s1", bridge_id=1, stp_enabled=False)
            switches = [s1]
        connect(sim, s1, h1, bandwidth_bps=10e6, port_a=3)
        connect(sim, s2, h2, bandwidth_bps=10e6, port_a=4)
        h1.announce()
        h2.announce()
        sim.run(until=0.2)
        there = CbrUdpFlow(sim, h1, h2.ip, rate_bps=80e3, packet_size=1000,
                           sport=40000, dport=9000).start()
        back = CbrUdpFlow(sim, h2, h1.ip, rate_bps=80e3, packet_size=1000,
                          sport=40001, dport=9001).start(delay_s=0.033)
        floods = []
        for switch in switches:
            def flooding(frame, in_port, switch=switch,
                         flood=switch._flood_forwarding):
                floods.append((sim.now, switch.name))
                flood(frame, in_port)
            switch._flood_forwarding = flooding
        toward_h1 = region._probe_frame(back, h1.mac)
        peeked = []

        def peek():
            # h1's stored refresh time has just aged out, and the one
            # flow refreshing it is still suspended.
            assert sim.now - s2.mac_table[h1.mac][1] > MAC_AGING_S
            assert there in region._suspended
            peeked.append(s2.peek_forward(toward_h1, 4))

        def arm():
            assert len(region._suspended) == 2
            learned_at = s2.mac_table[h1.mac][1]
            sim.schedule_at(learned_at + MAC_AGING_S + 1e-6, peek)

        sim.schedule_at(1.0, arm)
        sim.run(until=MAC_AGING_S + 2.0)

        assert floods == []
        assert peeked in ([[1], [2]] if ecmp else [[3]])  # a trunk member
        stats = region.stats()
        # Each flow was woken where the other's MAC could have aged,
        # sent one real frame toward it, and suspended again.
        assert stats["resumes"] == 2 and stats["suspended_flows"] == 2
        for flow, dst in ((there, h2), (back, h1)):
            assert flow.packets_sent == emitted_before(flow, sim.now)
            assert flow.delivered_bytes(dst) == flow.bytes_sent

    def test_a_settle_stores_what_the_eager_kernel_stored(self):
        net, _rng, flows = TestDeferredCounters().suspended_mix()
        sim, region = net.sim, net.fluid
        failures = []

        def probe():
            t = sim.now
            region.stats()  # settles
            wires, entries, macs = {}, {}, {}
            for flow, _src, _dst in flows:
                sf = region._suspended[flow]
                count = emitted_before(flow, t)
                if flow.packets_sent != count:
                    failures.append(("packets_sent", t, flow.sport))
                last_t = flow.paced_at(count - 1)
                for clock, offset in sf.clocks:
                    had = wires.get(id(clock), (clock, 0.0))[1]
                    wires[id(clock)] = (clock, max(had, last_t + offset))
                for entry, offset in sf.entry_clocks:
                    had = entries.get(id(entry), (entry, 0.0))[1]
                    entries[id(entry)] = (entry, max(had, last_t + offset))
                for sw, mac, port, offset in sf.walk.legacy_hits:
                    had = macs.get((sw, mac), (port, 0.0))[1]
                    macs[(sw, mac)] = (port, max(had, last_t + offset))
            # Background chatter shares the wires (never an entry or a
            # host's MAC): a wire clock is at least the analytic one,
            # and is exactly it on a host's own uplink.
            uplinks = {id(src.ports[1].direction)
                       for _flow, src, _dst in flows}
            for key, (clock, expected) in wires.items():
                if clock.next_free < expected or (
                        key in uplinks and clock.next_free != expected):
                    failures.append(("next_free", t, clock.next_free, expected))
            for entry, expected in entries.values():
                if entry.last_used_at != expected:
                    failures.append(("last_used_at", t, str(entry), expected))
            for (sw, mac), learned in macs.items():
                if sw.mac_table[mac] != learned:
                    failures.append(("mac_table", t, sw.name, mac, learned))
            return len(wires), len(entries), len(macs)

        sizes = []
        for at in (0.2113, 0.5171, 0.9007):
            sim.schedule(at, lambda: sizes.append(probe()))
        net.run(1.0)
        assert failures == []
        assert len(sizes) == 3 and all(min(size) > 0 for size in sizes)


class TestShareGuards:
    """The per-clock share rides on long-lived objects; it must stay
    table- and link-internal."""

    def test_direction_gains_exactly_one_slot(self):
        assert _Direction.__slots__ == (
            "to_port", "next_free", "pending_done", "tx_packets",
            "tx_bytes", "dropped", "busy_time", "fluid",
        )

    def test_share_is_invisible_to_compare_repr_and_replies(self):
        net, _rng, flows = TestDeferredCounters().suspended_mix()
        flow, src, _dst = flows[0]
        switch = net.topology.attachments[src.name].switch
        bound = [e for e in switch.table if e.fluid is not None]
        assert bound and all(isinstance(e.fluid, ClockShare) for e in bound)
        entry = bound[0]
        bare = dataclasses.replace(entry, fluid=None)
        assert bare == entry and repr(bare) == repr(entry)
        assert "fluid" not in repr(entry)
        replies = []
        net.controller.bus.subscribe(FlowStatsIn, replies.append)
        net.controller.request_flow_stats(switch.dpid)
        net.run(0.1)
        rows = replies[0].message.entries
        assert rows and all(
            set(row) == {"match", "priority", "cookie", "packets", "bytes",
                         "age_s"}
            for row in rows
        )
        # A raw table operation under a suspension is a bug...
        with pytest.raises(AssertionError):
            switch.table.modify(entry.match, entry.actions, net.sim.now)
        with pytest.raises(AssertionError):
            switch.table.delete(entry.match)
        # ...because a FlowMod materializes first: nothing it replaces,
        # rewrites or discards still carries a share.
        for command in (msg.FlowMod.MODIFY, msg.FlowMod.ADD,
                        msg.FlowMod.DELETE):
            assert net.fluid.stats()["suspended_flows"] == len(flows)
            switch.handle_of_message(msg.FlowMod(
                command=command, match=entry.match, actions=entry.actions,
                priority=entry.priority, idle_timeout=entry.idle_timeout,
            ))
            assert net.fluid.stats()["suspended_flows"] == 0
            assert all(e.fluid is None
                       for sw in net.topology.as_switches for e in sw.table)
            if command != msg.FlowMod.DELETE:
                net.run(0.2)  # the mix suspends again

    def test_hard_timeout_eviction_drops_the_share(self):
        # A hard timeout can pass under a suspended flow (it stops
        # short of it by itself); the evicted entry must not carry the
        # share into the removal report.
        sim = Simulator()
        region = FluidRegion(sim)
        sw = OpenFlowSwitch(sim, "sw", dpid=1)
        h1, h2 = hosts = lab_hosts(sim, 2)
        for host in hosts:
            connect(sim, sw, host, bandwidth_bps=10e6)
        flow = CbrUdpFlow(sim, h1, h2.ip, rate_bps=80e3, packet_size=1000,
                          sport=40000, dport=9000)
        frame = region._probe_frame(flow, h2.mac)
        entry = FlowEntry(match=Match.from_frame(frame, in_port=1),
                          actions=(Output(2),), hard_timeout=0.95)
        sw.table.add(entry, sim.now)
        flow.start()
        seen = []

        def evict():
            assert flow in region._suspended and entry.fluid is not None
            seen.extend(sw.table.expire(sim.now))

        # Emissions every 0.1 s: the ninth leaves at 0.9, the tenth
        # (at 1.0) is the flow's cap; in between the entry is dead.
        sim.schedule_at(0.97, evict)
        sim.run(until=0.99)
        assert [(r.entry, r.reason) for r in seen] == [(entry, "hard")]
        assert entry.fluid is None and flow.packets_sent == 10
        sim.run(until=1.5)  # the cap wakes the flow; releasing it is clean
        assert flow not in region._suspended
