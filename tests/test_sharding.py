"""Tests for the shard fabric: the deterministic partition map, the
sharded composition root, cross-shard steering over the typed rule
channel, session handoff on host roam, shard-crash re-homing, and the
combined determinism digest.
"""

import pytest

from repro.core.deployment import build_livesec_network, build_sharded_network
from repro.core.sharding import ShardMap, combined_digest
from repro.faults import FaultInjector, FaultPlan
from repro.faults.scenarios import GATEWAY_IP
from repro.workloads import CbrUdpFlow


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
    return build_livesec_network(
        topology="linear", policies=ids_policies(), elements=[("ids", 2)],
        num_as=4, hosts_per_as=1, dispatcher="polling", **kwargs
    )


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
