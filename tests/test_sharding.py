"""Tests for the shard fabric: the deterministic partition map, the
sharded composition root, cross-shard steering over the typed rule
channel, session handoff on host roam, shard-crash re-homing, and the
combined determinism digest.
"""

import pytest

from repro.core.deployment import build_livesec_network, build_sharded_network
from repro.core.events import EventKind
from repro.core.nib import NetworkInformationBase
from repro.core.policy import FlowSelector, Policy, PolicyAction, PolicyTable
from repro.core.sharding import SYNC_INTERVAL_S, ShardMap, combined_digest
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
    {1, 2}, shard 1 owns {3, 4} (and the gateway, on ovs4)."""
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
    return build_sharded_network(**defaults)


def net_of_shape(shards, **kwargs):
    """The 4-switch fabric of :func:`two_shard_net` on one controller
    or split over ``shards`` shards."""
    if shards > 1:
        return two_shard_net(num_shards=shards, **kwargs)
    shape = dict(
        topology="linear", policies=ids_policies, elements=[("ids", 2)],
        num_as=4, hosts_per_as=1, dispatcher="polling",
    )
    shape.update(kwargs)
    if shape["policies"] is not None:
        shape["policies"] = shape["policies"]()  # one table, not a factory
    return build_livesec_network(**shape)


class TestShardMap:
    def test_contiguous_is_balanced(self):
        shard_map = ShardMap.contiguous(range(1, 11), 4)
        sizes = [len(shard_map.owned_by(s)) for s in range(4)]
        assert sizes == [3, 3, 2, 2]
        assert shard_map.owned_by(0) == [1, 2, 3]
        assert shard_map.owner(10) == 3
        assert shard_map.dpids() == list(range(1, 11))

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
        assert shard_map.owner(3) == 0
        assert shard_map.owner(4) == 2
        with pytest.raises(ValueError):
            shard_map.rehome(0, [])


class TestShardedDeployment:
    def test_partition_and_status(self):
        net = two_shard_net()
        net.start()
        net.run(1.5)
        assert net.member_of(1).shard_id == 0
        assert net.member_of(4).shard_id == 1
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
        owner = net.member_of(1)
        sessions = owner.controller.sessions.sessions_of_user(src.mac)
        assert sessions and not any(s.blocked for s in sessions)
        counters = net.metrics.snapshot().counters()
        assert counters["sharding.remote_rule_ops"] > 0
        assert counters.get("sharding.remote_rule_drops", 0) == 0

    def test_federated_directory_spans_shards(self):
        # All ids elements on shard 0's switches: shard 1 must still
        # be able to steer through them via the federation.
        net = build_sharded_network(
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
        sessions = net.member_of(3).controller.sessions.sessions_of_user(
            src.mac
        )
        assert sessions and not any(s.blocked for s in sessions)
        # The waypoint lives on shard 0, so its rule went remote.
        counters = net.metrics.snapshot().counters()
        assert counters["sharding.remote_rule_ops"] > 0


class TestHelloByVersion:
    """A hello carries ``nib.location_version``: the round reads no
    host row, and the digest is hashed for the reader who asks."""

    @staticmethod
    def plant(member, index, dpid):
        return member.adopt_host(
            f"02:fe:00:00:{index >> 8:02x}:{index & 0xFF:02x}",
            f"172.16.{index >> 8}.{index & 0xFF}", dpid, 2000 + index,
        )

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
        assert resident.last_seen == sim.now
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
        net = net_of_shape(shards, policies=None, elements=[])
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
        net = net_of_shape(
            shards, policies=chain_by_port if chained else None,
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
                    net.member_of(row.dpid) is member
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
            if shards == 1:
                net = build_livesec_network(policies=policies(), **common)
            else:
                net = build_sharded_network(
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
        """One pool, strided like the session ids (the parent offers
        two clients on two shards 10.1.0.1 each)."""
        net = two_shard_net(num_shards=4, policies=None, elements=[])
        offers = [
            controller.directory.handle_dhcp(
                Dhcp(opcode="discover", client_mac=f"client-{shard}-{n}")
            ).offered_ip
            for shard, controller in enumerate(net.controllers)
            for n in range(3)
        ]
        assert len(set(offers)) == len(offers)
        assert offers[:3] == ["10.1.0.1", "10.1.0.5", "10.1.0.9"]


class TestRoamHandoff:
    def test_cross_shard_move_preserves_session_identity(self):
        net = two_shard_net()
        net.start()
        roamer = net.topology.host_by_name("h1_1")
        CbrUdpFlow(net.sim, roamer, GATEWAY_IP, rate_bps=1e6,
                   duration_s=6.0).start()
        net.run(1.5)
        old_owner = net.member_of(1)
        before = {
            s.session_id
            for s in old_owner.controller.sessions.sessions_of_user(
                roamer.mac
            )
            if not s.blocked
        }
        assert before
        # Roam across the shard boundary: dpid 1 -> dpid 3.
        net.topology.move_host("h1_1", net.topology.as_switches[2])
        roamer.announce()
        net.run(2.5)
        new_owner = net.member_of(3)
        assert new_owner.shard_id != old_owner.shard_id
        after = {
            s.session_id
            for s in new_owner.controller.sessions.sessions_of_user(
                roamer.mac
            )
            if not s.blocked
        }
        # The handoff carried the session records: same ids, new home.
        assert before & after
        assert not new_owner.pending_handoff
        counters = net.metrics.snapshot().counters()
        assert counters["sharding.handoff_sessions"] >= len(before & after)


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
            assert net.member_of(dpid).shard_id == 0
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
        net = net_of_shape(shards)
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
        net = net_of_shape(shards)
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
