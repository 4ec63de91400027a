"""Tests for the shard fabric: the deterministic partition map, the
sharded composition root, cross-shard steering over the typed rule
channel, session handoff on host roam, shard-crash re-homing, and the
combined determinism digest.
"""

import pytest

from repro.core.bus import DataPacketIn
from repro.core.deployment import build_livesec_network
from repro.core.events import EventKind
from repro.core.nib import NetworkInformationBase
from repro.core.policy import FlowSelector, Policy, PolicyAction, PolicyTable
from repro.core.sharding import (
    SHARD_LIVENESS_TIMEOUT_S,
    SYNC_INTERVAL_S,
    ShardMap,
    combined_digest,
)
from repro.faults import FaultInjector, FaultPlan
from repro.faults.scenarios import GATEWAY_IP
from repro.net.packet import Dhcp
from repro.workloads import CbrUdpFlow
from repro.workloads.tcpflows import TcpServer, TcpTransfer
from tests.test_nib import reference_digest


def ids_policies():
    """Per-shard policy factory: chain gateway-bound traffic via ids."""
    from repro.core.policy import (
        FailMode,
        FlowSelector,
        Policy,
        PolicyAction,
        PolicyTable,
    )

    table = PolicyTable()
    table.begin(source="test").add(Policy(
        name="ids-chain",
        selector=FlowSelector(dst_ip=GATEWAY_IP),
        action=PolicyAction.CHAIN,
        service_chain=("ids",),
        fail_mode=FailMode("open"),
    )).commit()
    return table


def two_shard_net(**kwargs):
    """2 shards over a 4-switch linear fabric: shard 0 owns dpids
    {1, 2}, shard 1 owns {3, 4} (and the gateway, on ovs4).  The same
    fabric takes any ``num_shards`` up to 4, one controller included."""
    defaults = dict(
        num_shards=2,
        topology="linear",
        policies=ids_policies,
        elements=[("ids", 2)],
        num_as=4,
        hosts_per_as=1,
        dispatcher="polling",
    )
    defaults.update(kwargs)
    return build_livesec_network(**defaults)


class TestShardMap:
    def test_contiguous_is_balanced(self):
        shard_map = ShardMap.contiguous(range(1, 11), 4)
        sizes = [len(shard_map.owned_by(s)) for s in range(4)]
        assert sizes == [3, 3, 2, 2]
        assert shard_map.owned_by(0) == [1, 2, 3]
        assert shard_map.assignments[10] == 3
        assert sorted(shard_map.assignments) == list(range(1, 11))

    def test_contiguous_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            ShardMap.contiguous([1, 2], 3)
        with pytest.raises(ValueError):
            ShardMap.contiguous([1, 2], 0)

    def test_per_pod_partition(self):
        shard_map = ShardMap.per_pod(4)
        assert shard_map.num_shards == 4
        for pod in range(4):
            assert shard_map.owned_by(pod) == [2 * pod + 1, 2 * pod + 2]
        with pytest.raises(ValueError):
            ShardMap.per_pod(3)

    def test_rehome_round_robins_over_survivors(self):
        shard_map = ShardMap.per_pod(4)
        moves = shard_map.rehome(1, [3, 0, 2])
        # dpid order, survivors sorted: 3 -> 0, 4 -> 2.
        assert moves == [(3, 0), (4, 2)]
        assert shard_map.owned_by(1) == []
        assert shard_map.assignments[3] == 0
        assert shard_map.assignments[4] == 2
        with pytest.raises(ValueError):
            shard_map.rehome(0, [])


class TestShardedDeployment:
    def test_partition_and_status(self):
        net = two_shard_net()
        net.start()
        net.run(1.5)
        assert net.owner(1).shard.shard_id == 0
        assert net.owner(4).shard.shard_id == 1
        status = net.coordinator.status()
        assert status["num_shards"] == 2
        assert status["down"] == []
        by_shard = {row["shard"]: row for row in status["shards"]}
        assert by_shard[0]["dpids"] == [1, 2]
        assert by_shard[1]["dpids"] == [3, 4]
        for row in status["shards"]:
            assert row["live"]
            assert row["nib_digest"]
        # The hello exchange ran for both shards.
        counters = net.metrics.snapshot().counters()
        assert counters["sharding.hellos"] >= 4

    def test_cross_shard_session_uses_remote_rules(self):
        net = two_shard_net()
        net.start()
        # h1_1 sits on dpid 1 (shard 0); the gateway on dpid 4
        # (shard 1): the session's far-side rules must travel the
        # typed inter-shard channel, not a shared flow table.
        src = net.topology.host_by_name("h1_1")
        CbrUdpFlow(net.sim, src, GATEWAY_IP, rate_bps=1e6,
                   duration_s=1.0).start()
        net.run(2.0)
        sessions = net.owner(1).sessions.sessions_of_user(src.mac)
        assert sessions and not any(s.blocked for s in sessions)
        counters = net.metrics.snapshot().counters()
        assert counters["sharding.remote_rule_ops"] > 0
        assert counters.get("sharding.remote_rule_drops", 0) == 0

    def test_federated_directory_spans_shards(self):
        # All ids elements on shard 0's switches: shard 1 must still
        # be able to steer through them via the federation.
        net = build_livesec_network(
            num_shards=2, topology="linear", policies=ids_policies,
            elements=[], num_as=4, hosts_per_as=1, dispatcher="polling",
        )
        net.add_element("ids", net.topology.as_switches[0])
        net.start()
        src = net.topology.host_by_name("h3_1")  # dpid 3, shard 1
        CbrUdpFlow(net.sim, src, GATEWAY_IP, rate_bps=1e6,
                   duration_s=1.0).start()
        net.run(2.0)
        assert net.coordinator.status()["federated_elements"] == 1
        sessions = net.owner(3).sessions.sessions_of_user(src.mac)
        assert sessions and not any(s.blocked for s in sessions)
        # The waypoint lives on shard 0, so its rule went remote.
        counters = net.metrics.snapshot().counters()
        assert counters["sharding.remote_rule_ops"] > 0


class TestHelloByVersion:
    """A hello carries ``nib.location_version``: the round reads no
    host row, and the digest is hashed for the reader who asks."""

    @staticmethod
    def plant(member, index, dpid):
        mac = f"02:fe:00:00:{index >> 8:02x}:{index & 0xFF:02x}"
        member.controller.adopt_host(
            mac, f"172.16.{index >> 8}.{index & 0xFF}", dpid, 2000 + index,
        )
        return member.controller.nib.host_by_mac(mac)

    @staticmethod
    def hello_lines(net, shard):
        return net.coordinator.log.query(
            kind=EventKind.SHARD_HELLO,
            where=lambda event: event.data["shard"] == shard,
        )

    def test_no_round_hashes_a_row_and_status_hashes_once(self, monkeypatch):
        net = two_shard_net(policies=None, elements=[])
        net.start()
        for index in range(10_000):
            member = net.members[index % 2]
            self.plant(member, index, dpid=1 + 2 * member.shard_id)
        asked = []
        digest = NetworkInformationBase.location_digest
        monkeypatch.setattr(
            NetworkInformationBase, "location_digest",
            lambda nib: asked.append(nib) or digest(nib),
        )
        logged = len(net.coordinator.log)
        for round_ in range(10):
            for member in net.members:
                self.plant(member, 10_000 + round_, dpid=2 + 2 * member.shard_id)
            net.run(SYNC_INTERVAL_S)
        assert len(net.coordinator.log) == logged + 20  # each join was told
        assert asked == []
        nibs = [member.controller.nib for member in net.members]
        first = [row["nib_digest"] for row in net.coordinator.status()["shards"]]
        assert asked == nibs
        assert first == [reference_digest(nib)[0] for nib in nibs]
        # Nothing moved since: the same strings, not equal ones.
        again = [row["nib_digest"] for row in net.coordinator.status()["shards"]]
        assert all(a is b for a, b in zip(first, again))

    def test_a_hello_is_logged_when_a_row_moved(self):
        net = two_shard_net(policies=None, elements=[])
        net.start()
        member = net.members[0]
        nib, sim = member.controller.nib, net.sim

        def lines_after_a_round():
            before = len(self.hello_lines(net, 0))
            net.run(SYNC_INTERVAL_S)
            return self.hello_lines(net, 0)[before:]

        first_round = min(e.time for e in net.coordinator.log)
        for shard in (0, 1):
            first = self.hello_lines(net, shard)[0]
            assert first.time == first_round
            assert sorted(first.data) == [
                "hosts", "nib_version", "sessions", "shard",
            ]
        assert lines_after_a_round() == []  # idle
        resident = nib.host_by_mac(net.host("h1_1").mac)
        nib.learn_host(resident.mac, resident.ip, resident.dpid,
                       resident.port, sim.now)
        assert nib.host_by_mac(resident.mac).last_seen == sim.now
        assert lines_after_a_round() == []  # a refresh moves no row
        hosts = len(nib.hosts)
        joined = self.plant(member, 1, dpid=1)
        line, = lines_after_a_round()
        assert line.data == dict(
            shard=0, nib_version=nib.location_version, hosts=hosts + 1,
            sessions=0,
        )
        nib.learn_host(joined.mac, None, 2, 77, sim.now)  # a move
        assert len(lines_after_a_round()) == 1
        nib.learn_host(joined.mac, None, 2, 77,
                       sim.now - nib.host_timeout_s - 1)
        assert nib.expire_hosts(sim.now)[0].mac == joined.mac
        line, = lines_after_a_round()
        assert line.data["hosts"] == hosts
        nib.remove_switch(2)
        line, = lines_after_a_round()
        assert line.data["hosts"] < hosts

    def test_a_restart_is_told_only_if_a_row_moved(self):
        net = two_shard_net(policies=None, elements=[])
        net.start()
        member = net.members[1]

        def lines_of_a_crash(while_down=lambda: None):
            before = len(self.hello_lines(net, 1))
            member.fail()
            while_down()
            member.restart()
            net.run(SYNC_INTERVAL_S)
            return self.hello_lines(net, 1)[before:]

        # The crash drops the shard's channels, and with them its hosts.
        assert len(lines_of_a_crash()) == 1
        assert lines_of_a_crash() == []  # nothing left to move
        assert len(lines_of_a_crash(lambda: self.plant(member, 1, 3))) == 1

    def test_status_hashes_the_rows_it_is_asked_about(self):
        net = two_shard_net(policies=None, elements=[])
        net.start()
        live, dead = net.members
        dead.fail()
        net.run(3.0)
        self.plant(live, 1, dpid=1)  # since the last round
        status = net.coordinator.status()
        assert status["down"] == [dead.shard_id]
        for member, row in zip(net.members, status["shards"]):
            assert row["live"] is (member is live)
            assert row["nib_digest"] == reference_digest(member.controller.nib)[0]


def chain_by_port():
    """Chain by destination *port* alone, so host -> host traffic is
    steered like gateway-bound traffic."""
    table = PolicyTable()
    table.begin(source="test").add(Policy(
        name="ids-by-port", selector=FlowSelector(tp_dst=9000),
        action=PolicyAction.CHAIN, service_chain=("ids",),
    )).commit()
    return table


def all_sessions(net):
    return [s for controller in net.controllers for s in controller.sessions]


class TestEastWest:
    """Any two hosts of the Access-Switching layer reach each other
    (III.C.3), whichever shards they sit on: a shard that does not know
    a host asks the fabric's location directory."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_tcp_to_the_gateway_completes_from_any_shard(self, shards):
        """The reply direction needs the *gateway's* shard to resolve
        the client (the parent: 5 unanswered ARP floods, 0 bytes)."""
        net = two_shard_net(num_shards=shards, policies=None, elements=[])
        net.start()
        server = TcpServer(net.gateway, port=8080)
        transfer = TcpTransfer(net.host("h1_1"), GATEWAY_IP, port=8080,
                               size_bytes=200_000).start()
        net.run(5.0)
        assert transfer.complete
        assert server.bytes_received == 200_000
        assert len(all_sessions(net)) == 1
        assert net.controllers[-1].directory.arp_floods == 0

    @pytest.mark.parametrize("chained", [False, True])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_two_users_on_different_shards_talk(self, shards, chained):
        """h1_1 (dpid 1) -> h4_1 (dpid 4): one session, in the book of
        the *source's* shard, its far-end entries applied by the
        receiver's shard -- and inspected like on one controller."""
        net = two_shard_net(
            num_shards=shards, policies=chain_by_port if chained else None,
            elements=[("ids", 1)] if chained else [],
        )
        net.start()
        sender, receiver = net.host("h1_1"), net.host("h4_1")
        flow = CbrUdpFlow(net.sim, sender, receiver.ip, rate_bps=1e6,
                          duration_s=3.0, dport=9000)
        flow.start()
        net.run(4.0)
        assert flow.delivered_bytes(receiver) == 375_000
        assert [len(c.sessions) for c in net.controllers] == (
            [1] + [0] * (shards - 1)
        )
        (session,) = all_sessions(net)
        assert session.is_steered == chained
        inspected = [e.processed_packets for e in net.elements]
        assert inspected == ([flow.packets_sent] if chained else [])
        if shards > 1:
            # Two entries at the receiver's switch, none anywhere else
            # foreign: the IDS sits on the sender's.
            assert net.coordinator.status()["remote_rule_ops"] == 2
            # Read, never copied: no NIB holds another shard's host.
            for member in net.members:
                assert all(
                    net.owner(row.dpid) is member.controller
                    for row in member.controller.nib.user_hosts()
                )

    def test_the_data_centre_example_on_the_per_pod_fabric(self):
        """Cross-pod TCP through an IDS chain on the 4-shard per-pod
        fat tree delivers what one controller delivers (the parent: 1
        of 4 connections, the intra-pod one)."""
        def policies():
            table = PolicyTable()
            table.begin().add(Policy(
                name="east-west-ids",
                selector=FlowSelector(src_ip_prefix="10.0.",
                                      dst_ip_prefix="10.0."),
                action=PolicyAction.CHAIN, service_chain=("ids",),
            )).commit()
            return table

        results = []
        for shards in (1, 4):
            common = dict(topology="fattree", k=4, hosts_per_edge=1,
                          access_bandwidth_bps=1e9)
            net = build_livesec_network(
                num_shards=shards, policies=policies, **common
            )
            net.add_element("ids", net.topology.as_switches[0])
            net.add_element("ids", net.topology.as_switches[5])
            net.start()
            server = TcpServer(net.host("h8_1"), port=9000)
            transfers = [
                TcpTransfer(net.host(f"h{index}_1"), net.host("h8_1").ip,
                            port=9000, size_bytes=300_000).start(0.1 * index)
                for index in (1, 3, 5, 7)
            ]
            net.run(5.0)
            assert all(t.complete for t in transfers)
            results.append((
                server.bytes_received, server.connections_seen,
                [e.processed_packets for e in net.elements],
            ))
        assert results[0][:2] == (1_200_000, 4)
        assert results[1] == results[0]

    @pytest.mark.parametrize("shards", [2, 4])
    def test_a_reply_never_punts_on_the_destination_shard(self, shards):
        """Cross-shard TCP, client shard -> server shard: each
        connection is one session in its client's book, and no reply
        segment punts on the server's shard -- the reverse entries are
        in before the server has anything to answer."""
        net = two_shard_net(num_shards=shards, policies=None, elements=[],
                            hosts_per_as=2)
        server_host = net.host("h4_1")
        server_side = net.owner(4)
        replies = []
        server_side.bus.subscribe(
            DataPacketIn,
            lambda event: replies.append(event.packet_in)
            if event.packet_in.frame.src == server_host.mac else None,
        )
        net.start()
        server = TcpServer(server_host, port=9000)
        clients = ("h1_1", "h1_2", "h2_1", "h2_2")
        transfers = [
            TcpTransfer(net.host(name), server_host.ip, port=9000,
                        size_bytes=50_000).start(0.1 * index)
            for index, name in enumerate(clients)
        ]
        net.run(3.0)
        assert all(t.complete for t in transfers)
        assert server.connections_seen == len(clients)
        starts = [len(controller.log.query(kind=EventKind.FLOW_START))
                  for controller in net.controllers]
        assert sum(starts) == len(clients)
        assert starts[net.controllers.index(server_side)] == 0
        assert replies == []


def burst_flows(net, packets, rate_bps):
    """Two flows per user host to the gateway, 3 ms apart, each of
    ``packets`` frames -- the ledger's session burst in miniature."""
    users = [h for h in net.topology.hosts if h is not net.gateway]
    flows = []
    for index in range(2 * len(users)):
        flow = CbrUdpFlow(net.sim, users[index % len(users)], GATEWAY_IP,
                          rate_bps=rate_bps, max_packets=packets,
                          sport=30000 + index, dport=9000)
        flows.append(flow.start(delay_s=0.003 * index))
    return flows


class TestFirstFrame:
    """A session's first frame rides its own path on every shard count:
    the ingress entry that releases it waits for the remote hops, so no
    frame reaches a foreign switch before its entry."""

    @pytest.mark.parametrize("packets,rate_bps", [(4, 1e6), (20, 50e6)])
    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_no_frame_outruns_its_remote_entries(self, shards, packets,
                                                 rate_bps):
        net = two_shard_net(num_shards=shards, num_as=8, hosts_per_as=2,
                            elements=[("ids", 8)])
        net.start()
        flows = burst_flows(net, packets, rate_bps)
        net.run(1.0)
        assert [flow.delivered_bytes(net.gateway) for flow in flows] == [
            packets * flow.packet_size for flow in flows
        ]
        assert sum(c.counters.get("transit_ignored", 0)
                   for c in net.controllers) == 0
        if shards > 1:
            assert net.coordinator.status()["remote_rule_ops"] > 0

    def test_a_later_frame_waits_for_the_ingress_entry(self):
        """A frame punted inside the window is released no earlier than
        the ingress entry goes out, so it cannot race the remote hops
        either."""
        net = two_shard_net(num_shards=2, policies=None, elements=[])
        net.start()
        steering = net.owner(1).app("steering")
        released = []
        release = steering._release_along_session
        steering._release_along_session = lambda packet_in, session: (
            released.append(net.sim.now), release(packet_in, session))
        flow = CbrUdpFlow(net.sim, net.host("h1_1"), GATEWAY_IP,
                          rate_bps=50e6, max_packets=3).start()
        net.run(0.5)
        (session,) = net.owner(1).sessions
        assert session.ready_at > session.created_at
        # Punted at t0, held once, released at ready_at.
        assert released[0] < session.ready_at == released[-1]
        assert flow.delivered_bytes(net.gateway) == 3 * flow.packet_size
        assert net.owner(1).counters.get("transit_ignored", 0) == 0


class TestLocationDirectory:
    @staticmethod
    def locate_from(member):
        """The one read path: a shard's host tracker."""
        return member.controller.app("host-tracker").locate

    def test_the_directory_forgets_who_left(self):
        """h4_1 expires on its owner: the other shard stops planning
        toward the port (an unknown destination floods, as on one
        controller), until the host is heard again."""
        net = two_shard_net(policies=None, elements=[], host_timeout_s=2.0)
        net.start()
        asker, owner = net.members
        locate = self.locate_from(asker)
        silent = net.host("h4_1")
        at = net.topology.attachments["h4_1"]
        for found in (locate(ip=silent.ip), locate(mac=silent.mac)):
            assert (found.mac, found.ip, found.dpid, found.port) == (
                silent.mac, silent.ip, at.switch.dpid, at.switch_port
            )
        net.run(8.0)  # past the timeout and an expiry sweep
        assert owner.controller.nib.host_by_mac(silent.mac) is None
        assert locate(mac=silent.mac) is None
        assert locate(ip=silent.ip) is None
        silent.announce()
        net.run(0.1)
        assert locate(ip=silent.ip).dpid == 4
        # Read, not copied -- and its own hosts a shard reads in its
        # NIB, not in the directory.
        assert asker.controller.nib.host_by_mac(silent.mac) is None
        assert net.coordinator.locate(owner, mac=silent.mac) is None

    def test_a_dead_shard_vouches_for_nobody(self):
        net = two_shard_net(policies=None, elements=[])
        net.start()
        asker, owner = net.members
        locate = self.locate_from(asker)
        assert locate(mac=net.gateway.mac) is not None
        owner.fail()
        assert locate(mac=net.gateway.mac) is None

    def test_two_shards_never_lease_the_same_address(self):
        """One pool and one book: every shard's proxy leases the
        fabric's next address."""
        net = two_shard_net(num_shards=4, policies=None, elements=[])
        offers = [
            controller.directory.handle_dhcp(
                Dhcp(opcode="discover", client_mac=f"client-{shard}-{n}")
            ).offered_ip
            for shard, controller in enumerate(net.controllers)
            for n in range(3)
        ]
        assert len(set(offers)) == len(offers)
        assert offers == [f"10.1.0.{n}" for n in range(1, 13)]


class TestOneDirectoryProxy:
    """The directory proxy answers from the fabric, as one controller
    answers from its one NIB (III.C.2): an unknown target is flooded to
    every shard's periphery, a host another shard streams to is kept
    alive by that stream, and a client has one lease."""

    @staticmethod
    def silent_host_reached(shards):
        """h3_1 has expired on its owner (2 s timeout, 8 s of silence);
        then h1_1 streams 2 s to it.  Returns (bytes delivered, floods,
        bytes delivered 1 s into the stream, proxy ARP replies), and
        checks that h3_1's row is back in its owner's NIB and no other."""
        net = two_shard_net(num_shards=shards, policies=None, elements=[],
                            host_timeout_s=2.0)
        net.start()
        net.run(8.0)
        target = net.host("h3_1")
        assert net.owner(3).nib.host_by_mac(target.mac) is None

        def proxy_counts():
            return (sum(c.directory.arp_floods for c in net.controllers),
                    sum(c.directory.arp_replies for c in net.controllers))

        floods, replies = proxy_counts()
        flow = CbrUdpFlow(net.sim, net.host("h1_1"), target.ip,
                          rate_bps=1e6, duration_s=2.0).start()
        net.run(1.0)
        first_second = flow.delivered_bytes(target)
        net.run(5.0)
        holders = [controller for controller in net.controllers
                   if controller.nib.host_by_mac(target.mac) is not None]
        assert holders == [net.owner(3)]
        after = proxy_counts()
        return (flow.delivered_bytes(target), after[0] - floods,
                first_second, after[1] - replies)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_a_silent_host_on_another_shard_is_reached_by_one_flood(
        self, shards
    ):
        """A flood of the asking shard's periphery only never reaches
        h3_1: 5 floods, 0 B.  h3_1's reply to the flood crosses the hop
        to h1_1's switch, so h1_1 resolves at once, as on one
        controller; dropped on h3_1's shard, it cost 1 s: 0 B one
        second in, and the retry's proxy reply."""
        assert self.silent_host_reached(shards) == (
            self.silent_host_reached(1)
        ) == (250_500, 1, 126_000, 0)

    @staticmethod
    def leaves_while_streamed_to(shards):
        """h1_1 streams 12 s to h3_1, which never speaks (3 s timeout).
        Returns (h3_1 in its owner's NIB, names of HOST_LEAVE hosts)."""
        net = two_shard_net(num_shards=shards, policies=None, elements=[],
                            host_timeout_s=3.0)
        net.start()
        target = net.host("h3_1")
        CbrUdpFlow(net.sim, net.host("h1_1"), target.ip, rate_bps=1e6,
                   duration_s=12.0).start()
        net.run(14.0)
        names = {host.mac: host.name for host in net.topology.hosts}
        leaves = {
            names[event.data["mac"]]
            for controller in net.controllers
            for event in controller.log.query(kind=EventKind.HOST_LEAVE)
        }
        held = net.owner(3).nib.host_by_mac(target.mac) is not None
        return held, leaves

    @pytest.mark.parametrize("shards", [2, 4])
    def test_a_host_another_shard_streams_to_stays_alive(self, shards):
        """The stream's session is in h1_1's book, on shard 0; h3_1's
        owner asks every live book (asking its own alone, it expired
        h3_1)."""
        held, leaves = self.leaves_while_streamed_to(shards)
        assert held and "h3_1" not in leaves
        assert (held, leaves) == self.leaves_while_streamed_to(1)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_a_client_keeps_one_lease_on_every_shard(self, shards):
        """A client that asks each shard in turn -- roaming, say -- is
        offered and acked one address (per-shard strides of the pool
        offered it 10.1.0.1, .2, ...)."""
        net = two_shard_net(num_shards=shards, policies=None, elements=[])
        replies = [
            controller.directory.handle_dhcp(
                Dhcp(opcode=opcode, client_mac="roamer")
            ).offered_ip
            for controller in net.controllers
            for opcode in ("discover", "request")
        ]
        assert replies == ["10.1.0.1"] * 2 * shards
        assert all(controller.directory.lease_of("roamer") == "10.1.0.1"
                   for controller in net.controllers)


class TestRoamHandoff:
    def test_cross_shard_move_preserves_session_identity(self):
        net = two_shard_net()
        net.start()
        roamer = net.topology.host_by_name("h1_1")
        CbrUdpFlow(net.sim, roamer, GATEWAY_IP, rate_bps=1e6,
                   duration_s=6.0).start()
        net.run(1.5)
        old_owner = net.owner(1)
        before = {
            s.session_id
            for s in old_owner.sessions.sessions_of_user(
                roamer.mac
            )
            if not s.blocked
        }
        assert before
        # Roam across the shard boundary: dpid 1 -> dpid 3.
        net.topology.move_host("h1_1", net.topology.as_switches[2])
        roamer.announce()
        net.run(2.5)
        new_owner = net.owner(3)
        assert new_owner.shard.shard_id != old_owner.shard.shard_id
        after = {
            s.session_id
            for s in new_owner.sessions.sessions_of_user(
                roamer.mac
            )
            if not s.blocked
        }
        # The handoff carried the session records: same ids, new home.
        assert before & after
        assert not new_owner.shard.pending_handoff
        counters = net.metrics.snapshot().counters()
        assert counters["sharding.handoff_sessions"] >= len(before & after)

    def test_a_handoff_into_a_member_that_fails_in_the_hop_is_not_booked(
        self
    ):
        """h1_1 roams onto dpid 3 and shard 1 fails 1.5 ms after its
        HOST_JOIN, while the collected handoff is on the hop: nothing
        is adopted, so nothing is logged or counted as handed off (the
        coordinator booked it before the failed-member guard: one
        ``SESSION_HANDOFF sessions=1``)."""
        net = two_shard_net()
        net.start()
        roamer = net.host("h1_1")
        CbrUdpFlow(net.sim, roamer, GATEWAY_IP, rate_bps=1e6,
                   duration_s=6.0).start()
        net.run(1.5)
        new_owner = net.coordinator.member(1)

        def fail_after_join(event):
            if event.kind == EventKind.HOST_JOIN and \
                    event.data.get("mac") == roamer.mac:
                net.sim.post(1.5e-3, new_owner.fail)

        new_owner.controller.log.subscribe(fail_after_join)
        net.topology.move_host("h1_1", net.topology.as_switches[2])
        roamer.announce()
        net.run(0.1)
        assert new_owner.failed
        assert net.coordinator.log.query(kind=EventKind.SESSION_HANDOFF) == []
        counters = net.metrics_snapshot().counters()
        assert counters["sharding.handoff_sessions"] == 0
        assert net.coordinator.status()["handoff_sessions"] == 0


class TestShardCrashRehome:
    def test_dead_shard_switches_rehome_to_survivors(self):
        net = two_shard_net()
        plan = FaultPlan(seed=1).shard_crash(4.0, 1)
        injector = FaultInjector(net, plan)
        injector.arm()
        net.start()
        src = net.topology.host_by_name("h1_1")
        CbrUdpFlow(net.sim, src, GATEWAY_IP, rate_bps=1e6,
                   duration_s=8.0).start()
        net.run(8.0)
        status = net.coordinator.status()
        assert status["down"] == [1]
        assert status["rehomed_switches"] == 2
        # The map tracked the moves: every ex-shard-1 dpid now answers
        # to shard 0, over a fresh secure channel.
        for dpid in (3, 4):
            assert net.owner(dpid).shard.shard_id == 0
            assert net.channels[dpid].controller is net.controllers[0]
        snapshot = net.metrics.snapshot()
        ttd = snapshot.get("recovery.shard_time_to_detect_s")
        ttr = snapshot.get("recovery.shard_time_to_recover_s")
        assert ttd is not None and ttd.count == 1
        assert ttr is not None and ttr.count == 1

    def test_a_restarted_shard_is_live_and_owns_rehomed_switches(self):
        """Shard 1 of three crashes and restarts empty; when shard 2
        dies later, shard 1 is one of the survivors its switches are
        re-homed onto."""
        net = two_shard_net(num_shards=3, num_as=6)
        plan = (FaultPlan(seed=1)
                .shard_crash(4.0, 1, restart_at_s=7.0)
                .shard_crash(9.0, 2))
        injector = FaultInjector(net, plan)
        injector.arm()
        net.start()
        CbrUdpFlow(net.sim, net.topology.host_by_name("h1_1"), GATEWAY_IP,
                   rate_bps=1e6, duration_s=12.0).start()
        member = net.coordinator.member(1)
        shard_map = net.coordinator.shard_map
        assert shard_map.owned_by(1) == [3, 4]

        net.run(7.0 - 1e-3 - net.sim.now)
        assert member.failed
        assert net.coordinator.status()["down"] == [1]
        assert shard_map.owned_by(1) == []
        net.run(2e-3)
        assert not member.failed
        assert net.coordinator.status()["down"] == []
        net.run(13.0 - net.sim.now)
        assert net.coordinator.status()["down"] == [2]
        assert shard_map.owned_by(1) == [5]
        assert net.channels[5].controller is member.controller

        marks = net.coordinator.log.query(kind=EventKind.FAULT_INJECTED)
        assert [(e.time, e.data) for e in marks] == [
            (4.0, {"fault": "shard-crash", "shard": 1}),
            (7.0, {"fault": "shard-restart", "shard": 1}),
            (9.0, {"fault": "shard-crash", "shard": 2}),
        ]
        assert injector.summary()["injected"] == {
            "shard-crash": 2, "shard-restart": 1,
        }
        snapshot = net.metrics.snapshot()
        for name in ("recovery.shard_time_to_detect_s",
                     "recovery.shard_time_to_recover_s"):
            assert snapshot.get(name).count == 2


class TestShardCrashIsAppCrash:
    """A shard crash is every app of the shard crashed, and a restart
    revives them over an empty book (DESIGN 8, "Failure semantics")."""

    def test_a_dead_shard_neither_logs_nor_sends(self):
        """Shard 1's own IDS stops reporting to it when it dies.  A
        dead shard whose apps kept running would expire that IDS, fail
        its two sessions over and send 14 remote deletes for the live
        shard to apply; this one is silent, and its flows ride the
        entries it left, past the SHARD_DOWN and the re-homing, as
        they do with no crash."""

        def outage(crash):
            net = two_shard_net(elements=[], element_timeout_s=1.5)
            net.add_element("ids", net.topology.as_switches[2])
            net.start()
            live, dead = net.members
            flows = [
                CbrUdpFlow(net.sim, net.host(name), GATEWAY_IP,
                           rate_bps=2e6, duration_s=9.0).start()
                for name in ("h3_1", "h4_1")
            ]
            net.run(2.0)
            assert [s.element_macs for s in dead.controller.sessions] == [
                (net.elements[0].mac,)
            ] * 2
            lines = len(dead.controller.log)
            ops = net.coordinator.status()["remote_rule_ops"]
            sent = []  # what the dead shard's own sender is asked to do
            dead.controller.apply_rule = (
                lambda *args, _apply=dead.controller.apply_rule, **kw:
                sent.append(args) or _apply(*args, **kw)
            )
            before = [flow.delivered_bytes(net.gateway) for flow in flows]
            if crash:
                dead.fail()
            net.run(5.0)
            if crash:
                assert net.coordinator.status()["down"] == [1]
                assert len(dead.controller.log) == lines
                assert net.coordinator.status()["remote_rule_ops"] == ops
                assert sent == []
                # No session formed anywhere else either.
                assert len(live.controller.sessions) == 0
            delivered = [flow.delivered_bytes(net.gateway) - b
                         for flow, b in zip(flows, before)]
            if crash:
                dead.restart()
                assert len(dead.controller.sessions) == 0
                assert all(app.state == "running"
                           for app in dead.controller.apps)
                # The IDS sits on ovs3, re-homed: its reports certify it
                # on shard 0 now, and the restart forgets it, unexpired.
                ids = net.elements[0].mac
                assert dead.controller.registry.get(ids) is None
                net.run(2.0)
                assert live.controller.registry.get(ids).online
                assert not dead.controller.log.query(
                    kind=EventKind.ELEMENT_OFFLINE)
            return delivered

        assert outage(crash=True) == outage(crash=False)

    def test_a_restart_after_a_missed_reload_changes_nothing(self):
        """2 shards, 4 HTTP users, shard 1 down from 1 s, ``intents.json``
        reloaded at 4 s, shard 1 back at 5.5 s.  Had the restart kept
        its book, it would re-decide those stale sessions: 16 remote
        ops, and h3_1 / h4_1 lose 3 000 / 1 500 B in the next second."""
        from pathlib import Path

        from repro.core.policy_compiler import CompiledPolicyTable
        from repro.workloads import HttpFlow

        intents = Path(__file__).parent.parent / "examples/policies/intents.json"

        def table():
            return PolicyTable.serving(CompiledPolicyTable([Policy(
                name="inspect-internet",
                selector=FlowSelector(dst_ip=GATEWAY_IP),
                action=PolicyAction.CHAIN, service_chain=("ids",),
            )]))

        def second_after(restart):
            net = build_livesec_network(
                topology="linear", policies=table, num_shards=2,
                num_as=4, hosts_per_as=1,
            )
            net.add_element("ids", net.topology.as_switches[0])
            net.start()
            users = [h for h in net.topology.hosts if h is not net.gateway]
            flows = [
                HttpFlow(net.sim, host, GATEWAY_IP, rate_bps=2e6,
                         packet_size=1500).start(delay_s=offset * 0.05)
                for offset, host in enumerate(users)
            ]
            member = net.members[1]
            net.run(1.0)
            member.fail()
            net.run(3.0)
            net.reload_policies(str(intents))
            net.run(1.5)
            ops = net.coordinator.status()["remote_rule_ops"]
            before = [flow.delivered_bytes(net.gateway) for flow in flows]
            if restart:
                member.restart()
                assert len(member.controller.sessions) == 0
                assert member.controller.sessions.blocks() == []
            net.run(1.0)
            return (
                [flow.delivered_bytes(net.gateway) - b
                 for flow, b in zip(flows, before)],
                net.coordinator.status()["remote_rule_ops"] - ops,
            )

        assert second_after(restart=True) == second_after(restart=False)

    def test_a_short_crash_reconnects_its_switches(self):
        """Back 0.5 s after the crash, before anyone declared it down:
        nobody re-homed dpids 3 and 4, so the restart reconnects them
        (left down, the channels would strand a new flow from h3_1:
        0 B delivered)."""
        def new_flow(crash):
            net = two_shard_net(policies=None, elements=[])
            net.start()
            member = net.members[1]
            net.run(1.0)
            if crash:
                member.fail()
                net.run(0.5)
                member.restart()
                net.run(0.5)
                assert net.coordinator.status()["down"] == []
                for dpid in (3, 4):
                    assert net.channels[dpid].connected
                    assert net.owner(dpid) is member.controller
                    assert dpid in member.controller.switches
            flow = CbrUdpFlow(net.sim, net.host("h3_1"), GATEWAY_IP,
                              rate_bps=2e6, duration_s=1.0).start()
            net.run(1.5)
            return flow.delivered_bytes(net.gateway)

        assert new_flow(crash=True) == new_flow(crash=False) > 0

    def test_the_watchdog_leaves_a_dead_shards_apps_alone(self):
        """An app plan arms shard 1's watchdog; an app crashed while
        the shard is down is revived by the restart, not by a watchdog
        tick on the dead shard (that tick would log ``crash-detected``
        and ``restarted`` for it at 3.5 s)."""
        net = two_shard_net()
        plan = (FaultPlan(seed=1)
                .app_crash(2.0, "monitor", shard=1)
                .shard_crash(3.0, 1, restart_at_s=4.0)
                .app_crash(3.2, "topology", shard=1))
        FaultInjector(net, plan).arm()
        net.start()
        net.run(4.5)
        log = net.members[1].controller.log
        lifecycle = [(e.time, e.data["app"], e.data["action"])
                     for e in log.query(kind=EventKind.APP_LIFECYCLE)]
        assert not [line for line in lifecycle if 3.0 <= line[0] < 4.0]
        names = [app.name for app in net.members[1].controller.apps]
        assert [line for line in lifecycle if line[0] == 4.0] == [
            (4.0, name, "restarted") for name in names
        ]

    def test_two_shards_apps_of_one_name_are_two_faults(self):
        """``monitor`` crashes on shard 0 at 2.1 s and on shard 1 at
        2.2 s; each shard's watchdog detects and revives its own on the
        2.5 s tick.  Two samples, 0.4 s and 0.3 s (keyed by name alone,
        the two were one fault, scored once, 0.3 s)."""
        net = two_shard_net()
        plan = (FaultPlan(seed=1)
                .app_crash(2.1, "monitor", shard=0)
                .app_crash(2.2, "monitor", shard=1))
        FaultInjector(net, plan).arm()
        net.start()
        net.run(3.0)
        snapshot = net.metrics_snapshot()
        for name in ("recovery.app_time_to_detect_s",
                     "recovery.app_time_to_recover_s"):
            assert sorted(snapshot.get(name).samples) == [
                pytest.approx(0.3), pytest.approx(0.4)
            ]

    def test_a_restart_forgets_where_the_rehomed_hosts_were(self):
        """Shard 1 (ovs3, ovs4) dies for 3 s while h3_1 streams to the
        gateway on the entries it left, is re-homed onto shard 0 and
        restarts.  Its dropped rows leave the directory too: shard 0
        locates h3_1 nowhere and forwards no report about its flow to
        shard 1 (rows left behind kept naming shard 1 for both) until
        h3_1 is heard, at ovs3, on shard 0."""
        net = two_shard_net(policies=None, elements=[])
        net.start()
        live, member = net.members
        roamer = net.host("h3_1")
        CbrUdpFlow(net.sim, roamer, GATEWAY_IP, rate_bps=1e6,
                   duration_s=6.0).start()
        net.run(1.0)
        (session,) = member.controller.sessions
        member.fail()
        net.run(3.0)
        assert net.coordinator.status()["down"] == [1]
        member.restart()
        net.run(1.0)
        locate = live.controller.app("host-tracker").locate
        assert live.controller.nib.host_by_mac(roamer.mac) is None
        assert locate(mac=roamer.mac) is None
        assert locate(ip=roamer.ip) is None
        report = type("Report", (), {"flow": session.flow})()
        assert not net.coordinator.forward_report(live, report)
        roamer.announce()
        net.run(0.1)
        assert locate(mac=roamer.mac).dpid == 3
        assert net.owner(3) is live.controller

    @pytest.mark.parametrize("restart_at", [3.7, 6.2])
    def test_a_planned_restart_is_scored_and_revives_an_empty_book(
        self, restart_at
    ):
        """``shard_crash(3.0, 1, restart_at_s=...)`` through the
        injector, back before (3.7 s) and after (6.2 s) SHARD_DOWN.
        Detection is the SHARD_DOWN, recovery the last re-homing, or
        the restart that came first; the restart's six ``restarted``
        lines close no app fault (the open ``monitor`` crash on shard 0
        is scored by shard 0's watchdog)."""
        net = two_shard_net()
        plan = (FaultPlan(seed=1)
                .shard_crash(3.0, 1, restart_at_s=restart_at)
                .app_crash(restart_at - 0.1, "monitor", shard=0))
        injector = FaultInjector(net, plan)
        injector.arm()
        net.start()
        member = net.members[1]
        for name in ("h3_1", "h4_1"):
            CbrUdpFlow(net.sim, net.host(name), GATEWAY_IP, rate_bps=1e6,
                       duration_s=8.0).start()
        net.run(restart_at - 1e-3 - net.sim.now)
        assert len(member.controller.sessions) == 2
        books = []  # read at the restart's instant, right after it
        net.sim.post_at(restart_at, lambda: books.append((
            len(member.controller.sessions),
            member.controller.sessions.blocks(),
        )))
        net.run(2.0)
        assert books == [(0, [])]
        snapshot = net.metrics_snapshot()
        ttd = snapshot.get("recovery.shard_time_to_detect_s")
        ttr = snapshot.get("recovery.shard_time_to_recover_s")
        if restart_at < 3.0 + SHARD_LIVENESS_TIMEOUT_S:
            assert ttd is None or ttd.count == 0
            assert list(ttr.samples) == [pytest.approx(restart_at - 3.0)]
        else:
            assert ttd.count == 1 and ttr.count == 1
            assert list(ttr.samples) == list(ttd.samples)
        # Shard 0's watchdog ticks on the half second, 0.4 s after the
        # crash it detects and revives.
        for name in ("recovery.app_time_to_detect_s",
                     "recovery.app_time_to_recover_s"):
            assert list(snapshot.get(name).samples) == [pytest.approx(0.4)]

    def test_a_dead_shards_hosts_resolve_in_one_arp(self):
        """DESIGN 8: once shard 1 (ovs3, ovs4 and the gateway) is
        declared down and its switches re-homed, the first ARP for the
        gateway or h3_1 floods shard 0's periphery -- which now holds
        ovs3 and ovs4 -- and both hosts join shard 0 on the reply; new
        flows to each deliver what they do with no crash."""

        def run(crash):
            net = two_shard_net(policies=None, elements=[])
            net.start()
            live = net.members[0]
            tracker = live.controller.app("host-tracker")
            floods = []
            flood = tracker.periphery_flood
            tracker.periphery_flood = lambda frame, exclude: (
                floods.append((net.sim.now, frame.payload.target_ip))
                or flood(frame, exclude)
            )
            net.run(1.0)
            if crash:
                net.members[1].fail()
            net.run(4.0)
            assert net.coordinator.status()["down"] == ([1] if crash else [])
            started = net.sim.now
            target = net.host("h3_1")
            flows = [
                CbrUdpFlow(net.sim, net.host("h1_1"), GATEWAY_IP,
                           rate_bps=2e6, duration_s=2.0).start(),
                CbrUdpFlow(net.sim, net.host("h2_1"), target.ip,
                           rate_bps=2e6, duration_s=2.0).start(),
            ]
            net.run(3.0)
            joins = [
                (e.time, e.data["ip"]) for e in live.controller.log.query(
                    kind=EventKind.HOST_JOIN) if e.time >= started
            ]
            delivered = [flows[0].delivered_bytes(net.gateway),
                         flows[1].delivered_bytes(target)]
            return floods, joins, delivered

        floods, joins, delivered = run(crash=True)
        wanted = sorted([GATEWAY_IP, "10.0.0.3"])  # the gateway, h3_1
        assert sorted(ip for __, ip in floods) == wanted
        first = min(at for at, __ in floods)
        assert sorted(ip for __, ip in joins) == wanted
        assert all(first < at < first + 2e-3 for at, __ in joins)
        assert delivered == run(crash=False)[2] == [501_000] * 2


class TestDeterminismDigest:
    def _digest_of_run(self):
        net = two_shard_net()
        plan = FaultPlan(seed=2).shard_crash(3.5, 0)
        FaultInjector(net, plan).arm()
        net.start()
        for name in ("h1_1", "h3_1"):
            CbrUdpFlow(net.sim, net.topology.host_by_name(name),
                       GATEWAY_IP, rate_bps=1e6, duration_s=4.0).start()
        net.run(6.0)
        return net.event_digest()

    def test_same_seed_runs_share_a_digest(self):
        assert self._digest_of_run() == self._digest_of_run()

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_every_shape_answers_digest_and_lines(self, shards):
        net = two_shard_net(num_shards=shards)
        net.start()
        CbrUdpFlow(net.sim, net.topology.host_by_name("h1_1"),
                   GATEWAY_IP, rate_bps=1e6, duration_s=1.0).start()
        net.run(2.0)
        logs = [controller.log for controller in net.controllers]
        assert len(logs) == shards
        if shards == 1:
            assert net.coordinator is None
            assert net.event_digest() == net.controller.log.digest()
            prefixes = [""]
        else:
            assert net.event_digest() == combined_digest(
                net.members, net.coordinator
            )
            prefixes = [f"shard{m.shard_id} " for m in net.members]
            prefixes.append("fabric ")
            logs.append(net.coordinator.log)
        # One line per logged event, shard order first, fabric last.
        assert net.event_lines() == [
            prefix + str(event)
            for prefix, log in zip(prefixes, logs) for event in log.all()
        ]
        assert len(net.event_lines()) == sum(len(log) for log in logs)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_every_shape_merges_every_registry(self, shards):
        net = two_shard_net(num_shards=shards)
        net.start()
        for name in ("h1_1", "h3_1"):
            CbrUdpFlow(net.sim, net.topology.host_by_name(name),
                       GATEWAY_IP, rate_bps=1e6, duration_s=1.0).start()
        net.run(2.0)
        registries = [controller.metrics for controller in net.controllers]
        if shards > 1:
            registries.append(net.coordinator.metrics)
            assert net.metrics is net.coordinator.metrics
        else:
            assert net.metrics is net.controller.metrics
        parts = [registry.snapshot() for registry in registries]
        merged = net.metrics_snapshot()
        # Counters add up over the registries...
        totals = {}
        for part in parts:
            for name, value in part.counters().items():
                totals[name] = totals.get(name, 0) + value
        assert merged.counters() == totals
        assert totals["controller.flows_installed"] == 2
        # ...and a histogram every shard keeps pools its samples.
        rules = merged.get("controller.flow_setup_rules")
        pooled = sorted(
            sample for part in parts
            for metric in part if metric.name == "controller.flow_setup_rules"
            for sample in metric.samples
        )
        assert list(rules.samples) == pooled and rules.count == 2

    def test_digest_folds_every_shard_in_order(self):
        net = two_shard_net()
        net.start()
        net.run(1.0)
        full = combined_digest(net.members, net.coordinator)
        assert full == net.event_digest()
        # Dropping the coordinator or a shard changes the digest.
        assert combined_digest(net.members) != full
        assert combined_digest(net.members[:1], net.coordinator) != full
