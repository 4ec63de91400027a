"""Tests for the policy compiler, conflict detector and the
transactional PolicyTable API (ISSUE 6)."""

import pytest

from repro.core.policy import (
    CompiledPolicyTable,
    FlowSelector,
    Policy,
    PolicyAction,
    PolicyTable,
    ip_to_int,
    parse_cidr,
)
from repro.core.policy_compiler import (
    PolicyConflictError,
    PolicyIntent,
    compile_intents,
    intent_from_dict,
    normalize_intent,
)
from repro.net.packet import FlowNineTuple


def flow(src="10.0.0.1", dst="10.0.0.2", proto=6, sport=1234, dport=80):
    return FlowNineTuple(None, "aa:aa", "bb:bb", 0x0800,
                         src, dst, proto, sport, dport)


def intent(name, action=PolicyAction.ALLOW, **kwargs):
    return PolicyIntent(name=name, action=action, **kwargs)


class TestIpHelpers:
    def test_ip_to_int(self):
        assert ip_to_int("0.0.0.0") == 0
        assert ip_to_int("10.0.0.1") == (10 << 24) + 1
        assert ip_to_int("255.255.255.255") == 0xFFFFFFFF

    @pytest.mark.parametrize("bad", ["10.0.0", "10.0.0.256", "a.b.c.d",
                                     "10.0.0.1.2", ""])
    def test_ip_to_int_rejects(self, bad):
        with pytest.raises(ValueError):
            ip_to_int(bad)

    def test_parse_cidr(self):
        assert parse_cidr("10.1.0.0/16") == (ip_to_int("10.1.0.0"), 16)
        assert parse_cidr("0.0.0.0/0") == (0, 0)

    @pytest.mark.parametrize("bad", ["10.1.0.0", "10.1.0.0/33",
                                     "10.1.0.1/16", "10.1.0.0/x"])
    def test_parse_cidr_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_cidr(bad)

    def test_cidr_contains(self):
        def contains(cidr, ip):
            return FlowSelector(src_cidr=cidr).matches(flow(src=ip))

        assert contains("10.1.0.0/16", "10.1.255.255")
        assert not contains("10.1.0.0/16", "10.2.0.0")
        assert not contains("10.1.0.0/16", None)
        assert not contains("10.1.0.0/16", "gateway")
        assert contains("0.0.0.0/0", "192.168.1.1")


class TestIntents:
    def test_zone_folds_into_selector(self):
        policy = normalize_intent(intent(
            "z", action=PolicyAction.DROP, src_zone="10.4.0.0/16"))
        assert policy.selector.src_cidr == "10.4.0.0/16"
        assert policy.selector.matches(flow(src="10.4.9.9"))
        assert not policy.selector.matches(flow(src="10.5.0.1"))

    def test_zone_and_cidr_both_set_rejected(self):
        with pytest.raises(ValueError, match="both"):
            normalize_intent(intent(
                "z", src_zone="10.4.0.0/16",
                selector=FlowSelector(src_cidr="10.5.0.0/16")))

    def test_bad_zone_rejected_at_definition(self):
        with pytest.raises(ValueError):
            intent("z", src_zone="10.4.0.1/16")  # host bits set

    def test_intent_from_dict_strict(self):
        with pytest.raises(ValueError, match="unknown intent field"):
            intent_from_dict({"name": "x", "action": "allow",
                              "zone": "10.0.0.0/8"})
        with pytest.raises(ValueError, match="unknown selector field"):
            intent_from_dict({"name": "x", "action": "allow",
                              "selector": {"dst_planet": "mars"}})
        with pytest.raises(ValueError, match="unknown action"):
            intent_from_dict({"name": "x", "action": "quarantine"})
        with pytest.raises(ValueError, match="name"):
            intent_from_dict({"action": "allow"})

    def test_duplicate_intent_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            compile_intents([intent("a"), intent("a")])


class TestConflictTriads:
    """The shadow/contradiction/redundancy taxonomy."""

    def test_shadowed_higher_priority_covers_different_effect(self):
        result = compile_intents([
            intent("broad-drop", PolicyAction.DROP,
                   src_zone="10.9.0.0/16", priority=300),
            intent("narrow-allow", PolicyAction.ALLOW,
                   src_zone="10.9.4.0/24", priority=200),
        ])
        assert not result.ok
        (finding,) = result.findings
        assert finding.kind == "shadowed"
        assert finding.severity == "error"
        # Both policies named, winner first, overlap described.
        assert finding.policies == ("broad-drop", "narrow-allow")
        assert "10.9.4.0/24" in finding.overlap

    def test_contradictory_partial_overlap_equal_priority(self):
        result = compile_intents([
            intent("allow-web", PolicyAction.ALLOW, dst_zone="10.2.0.0/16",
                   selector=FlowSelector(nw_proto=6, tp_dst=80)),
            intent("block-web", PolicyAction.DROP, src_zone="10.2.128.0/17",
                   selector=FlowSelector(nw_proto=6, tp_dst=80)),
        ])
        assert not result.ok
        (finding,) = result.findings
        assert finding.kind == "contradictory"
        assert set(finding.policies) == {"allow-web", "block-web"}
        assert "10.2.128.0/17" in finding.overlap

    def test_redundant_same_effect_is_warning_only(self):
        result = compile_intents([
            intent("wide", PolicyAction.DROP, src_zone="10.9.0.0/16",
                   priority=300),
            intent("dup", PolicyAction.DROP, src_zone="10.9.4.0/24",
                   priority=200),
        ])
        assert result.ok  # warnings don't reject
        (finding,) = result.findings
        assert finding.kind == "redundant"
        assert finding.severity == "warning"

    def test_narrow_exception_over_broad_rule_is_legitimate(self):
        # Higher-priority narrow ALLOW over a broad lower-priority DROP:
        # the standard exception idiom, not a conflict.
        result = compile_intents([
            intent("exception", PolicyAction.ALLOW,
                   src_zone="10.9.4.0/24", priority=300),
            intent("broad-drop", PolicyAction.DROP,
                   src_zone="10.9.0.0/16", priority=200),
        ])
        assert result.ok
        assert result.findings == []

    def test_disjoint_policies_never_flagged(self):
        result = compile_intents([
            intent("a", PolicyAction.DROP, src_zone="10.1.0.0/16"),
            intent("b", PolicyAction.ALLOW, src_zone="10.2.0.0/16"),
        ])
        assert result.findings == []

    def test_chain_vs_allow_contradiction(self):
        result = compile_intents([
            intent("inspect", PolicyAction.CHAIN, dst_zone="10.3.0.0/16",
                   service_chain=("ids",)),
            intent("fast-path", PolicyAction.ALLOW, src_zone="10.4.0.0/16"),
        ])
        assert not result.ok
        assert result.errors[0].kind == "contradictory"

    def test_unsatisfiable_selector_warns(self):
        result = compile_intents([
            intent("never", PolicyAction.DROP, selector=FlowSelector(
                src_ip="10.5.0.1", src_cidr="10.6.0.0/16")),
        ])
        assert result.ok
        (finding,) = result.findings
        assert finding.kind == "unsatisfiable"

    def test_unknown_service_type_is_error(self):
        result = compile_intents(
            [intent("inspect", PolicyAction.CHAIN, service_chain=("warp",),
                    dst_zone="10.3.0.0/16")],
            service_types={"ids", "l7"},
        )
        assert not result.ok
        assert result.errors[0].kind == "unknown-service"
        assert "warp" in result.errors[0].detail

    def test_report_names_both_policies_and_overlap(self):
        result = compile_intents([
            intent("allow-web", PolicyAction.ALLOW, dst_zone="10.2.0.0/16"),
            intent("block-web", PolicyAction.DROP, dst_zone="10.2.0.0/16"),
        ])
        report = result.report()
        assert "allow-web" in report and "block-web" in report
        assert "REJECTED" in report
        document = result.to_dict()
        assert document["ok"] is False
        assert document["findings"][0]["policies"] == [
            "allow-web", "block-web"]


class TestCompiledTable:
    def test_match_semantics(self):
        result = compile_intents([
            intent("first", PolicyAction.DROP, src_zone="10.1.0.0/16",
                   priority=200),
            intent("second", PolicyAction.ALLOW, priority=100),
        ])
        table = result.table
        hit, scanned = table.match(flow(src="10.1.0.5"))
        assert hit.name == "first" and scanned == 1
        hit, scanned = table.match(flow(src="10.2.0.5"))
        assert hit.name == "second" and scanned == 2
        assert [p.name for p in table] == ["first", "second"]

    def test_compiled_default_cannot_chain(self):
        with pytest.raises(ValueError):
            CompiledPolicyTable([], default_action=PolicyAction.CHAIN)


class TestTransactions:
    def pol(self, name, priority=100, action=PolicyAction.ALLOW, **sel):
        return Policy(name=name, selector=FlowSelector(**sel),
                      action=action, priority=priority)

    def test_commit_is_one_version_bump(self):
        table = PolicyTable()
        txn = table.begin()
        txn.add(self.pol("a"))
        txn.add(self.pol("b"))
        txn.remove("a")
        commit = txn.commit()
        assert table.version == 1
        assert commit.version == 1
        assert commit.added == ("b",)
        assert commit.removed == ()
        assert [p.name for p in table] == ["b"]

    def test_staged_changes_invisible_until_commit(self):
        table = PolicyTable()
        txn = table.begin()
        txn.add(self.pol("a"))
        assert len(table) == 0 and table.version == 0
        txn.commit()
        assert len(table) == 1 and table.version == 1

    def test_abort_discards(self):
        table = PolicyTable()
        txn = table.begin()
        txn.add(self.pol("a"))
        txn.abort()
        assert len(table) == 0 and table.version == 0
        with pytest.raises(RuntimeError):
            txn.commit()

    def test_verified_commit_rejects_and_leaves_table_untouched(self):
        table = PolicyTable()
        table.begin().add(self.pol("keep", dst_ip="1.2.3.4")).commit()
        version = table.version
        txn = table.begin()
        txn.add(self.pol("allow-all", action=PolicyAction.ALLOW))
        txn.add(self.pol("drop-all", action=PolicyAction.DROP))
        with pytest.raises(PolicyConflictError) as exc:
            txn.commit(verify=True)
        assert "allow-all" in str(exc.value)
        # The live table never saw the staged rows.
        assert [p.name for p in table] == ["keep"]
        assert table.version == version

    def test_replace_all_computes_added_removed(self):
        table = PolicyTable()
        table.begin().add(self.pol("a")).add(self.pol("b")).commit()
        txn = table.begin(source="reload")
        txn.replace_all([self.pol("b"), self.pol("c")])
        commit = txn.commit()
        assert commit.added == ("c",)
        assert commit.removed == ("a",)
        assert commit.source == "reload"
        assert table.version == 2

    def test_commit_callbacks_fire_once_per_commit(self):
        table = PolicyTable()
        commits = []
        unsubscribe = table.on_commit(commits.append)
        table.begin().add(self.pol("a")).commit()
        assert len(commits) == 1 and commits[0].version == 1
        unsubscribe()
        table.begin().add(self.pol("b")).commit()
        assert len(commits) == 1

    def test_compat_shims_route_through_transactions(self):
        table = PolicyTable()
        commits = []
        table.on_commit(commits.append)
        table.add(self.pol("a"))
        assert table.version == 1 and len(commits) == 1
        with pytest.raises(ValueError):
            table.add(self.pol("a"))
        assert table.remove("missing") is None
        assert table.version == 1  # no-op removal: no bump, no commit
        assert len(commits) == 1
        removed = table.remove("a")
        assert removed.name == "a"
        assert table.version == 2 and len(commits) == 2

    def test_apply_compiled_resets_hits_and_preserves_order(self):
        result = compile_intents([
            intent("hi", PolicyAction.DROP, priority=200,
                   src_zone="10.1.0.0/16"),
            intent("lo", PolicyAction.ALLOW, priority=100),
        ])
        table = PolicyTable()
        commit = table.apply_compiled(result.table)
        assert commit.version == 1
        assert [p.name for p in table] == ["hi", "lo"]

    def test_a_table_serves_the_artifact_rows(self):
        result = compile_intents([
            intent("hi", PolicyAction.DROP, priority=200,
                   src_zone="10.1.0.0/16"),
            intent("lo", PolicyAction.ALLOW, priority=100),
        ], default_action=PolicyAction.DROP)
        table = PolicyTable()
        table.apply_compiled(result.table)
        assert all(live is row for live, row in zip(table, result.table))
        assert table.default_action is PolicyAction.DROP
        # A commit serves the very rows it was handed, too.
        row = Policy(name="extra", selector=FlowSelector(),
                     action=PolicyAction.ALLOW, priority=1)
        table.add(row)
        assert list(table)[-1] is row

    def test_one_artifact_serves_two_tables_alike(self):
        result = compile_intents([
            intent("hi", PolicyAction.DROP, priority=200,
                   src_zone="10.1.0.0/16"),
            intent("web", PolicyAction.ALLOW, priority=150,
                   selector=FlowSelector(tp_dst=80)),
            intent("lo", PolicyAction.ALLOW, priority=100),
        ])
        first, second = PolicyTable(), PolicyTable()
        first.apply_compiled(result.table)
        second.apply_compiled(result.table)
        for probe in (flow(src="10.1.2.3"), flow(dport=80),
                      flow(dport=22), flow(src="10.1.2.3", dport=80)):
            hit = first.match(probe)
            assert hit == second.match(probe) == result.table.match(probe)
            assert hit[0] is second.match(probe)[0]

    def test_default_action_changes_only_by_commit(self):
        table = PolicyTable()
        commits = []
        table.on_commit(commits.append)
        with pytest.raises(AttributeError):
            table.default_action = PolicyAction.DROP
        assert table.default_action is PolicyAction.ALLOW
        commit = table.begin().set_default_action(PolicyAction.DROP).commit()
        assert table.default_action is PolicyAction.DROP
        assert commit.default_action is PolicyAction.DROP
        assert table.version == 1 and commits == [commit]

    def test_validate_reports_without_committing(self):
        table = PolicyTable()
        txn = table.begin()
        txn.add(self.pol("allow-all", action=PolicyAction.ALLOW))
        txn.add(self.pol("drop-all", action=PolicyAction.DROP))
        findings = txn.validate()
        assert any(f.severity == "error" for f in findings)
        assert table.version == 0
        txn.commit()  # unverified commit still allowed (legacy semantics)
        assert table.version == 1


class TestHotReload:
    """The acceptance scenario: a live deployment hot-swaps policy
    atomically, on every shard, and re-decides exactly the established
    sessions whose policy it changes; a conflicting document is
    rejected while the committed table keeps serving."""

    GATEWAY_IP = "10.255.255.254"

    def build_net(self):
        from repro import build_livesec_network

        table = PolicyTable()
        table.begin(source="test").add(Policy(
            name="inspect-internet",
            selector=FlowSelector(dst_ip=self.GATEWAY_IP),
            action=PolicyAction.CHAIN,
            service_chain=("ids",),
        )).commit()
        net = build_livesec_network(
            topology="linear", policies=table, num_as=2, hosts_per_as=2,
        )
        net.add_element("ids", net.topology.as_switches[0])
        net.start()
        return net

    def start_traffic(self, net):
        from repro.workloads import HttpFlow

        hosts = [
            h for h in net.topology.hosts if h is not net.topology.gateway
        ]
        return [
            HttpFlow(net.sim, host, self.GATEWAY_IP, rate_bps=2e6,
                     packet_size=1500).start(delay_s=offset * 0.05)
            for offset, host in enumerate(hosts)
        ]

    def test_clean_reload_swaps_atomically(self):
        from repro.core.bus import PolicyReloaded
        from repro.core.events import EventKind

        net = self.build_net()
        controller = net.controller
        reload_events = []
        controller.bus.subscribe(
            PolicyReloaded, reload_events.append, app="test")
        flows = self.start_traffic(net)
        net.run(1.0)
        sessions_before = len(controller.sessions)
        assert sessions_before > 0
        version_before = controller.policies.version
        gateway_rx_before = net.gateway.rx_bytes

        (commit,) = net.reload_policies({
            "schema_version": 2,
            "default_action": "allow",
            "intents": [
                {"name": "inspect-internet", "action": "chain",
                 "service_chain": ["ids"], "priority": 200,
                 "selector": {"dst_ip": self.GATEWAY_IP}},
                {"name": "quarantine-lab", "action": "drop",
                 "src_zone": "10.66.0.0/16", "priority": 150},
            ],
        })

        # Exactly one version bump and one PolicyReloaded event.
        assert controller.policies.version == version_before + 1
        assert len(reload_events) == 1
        assert reload_events[0].commit is commit
        assert commit.added == ("quarantine-lab",)
        # Established sessions survived the swap.
        assert len(controller.sessions) == sessions_before
        net.run(1.0)
        assert net.gateway.rx_bytes > gateway_rx_before  # traffic flows on
        assert len(controller.log.query(
            kind=EventKind.POLICY_CHANGED)) == 1
        for flow in flows:
            flow.stop()

    # -- a commit re-decides the live sessions it changes ---------------

    def build_fabric(self, num_shards):
        """Four users, one per switch of a 4-switch line, at any shard
        count: their HTTP to the gateway rides the IDS on ovs1."""
        from repro import build_livesec_network

        def table():
            return PolicyTable.serving(CompiledPolicyTable([Policy(
                name="inspect-internet",
                selector=FlowSelector(dst_ip=self.GATEWAY_IP),
                action=PolicyAction.CHAIN, service_chain=("ids",),
            )]))

        net = build_livesec_network(
            topology="linear", policies=table, num_shards=num_shards,
            num_as=4, hosts_per_as=1,
        )
        net.add_element("ids", net.topology.as_switches[0])
        net.start()
        return net

    @staticmethod
    def live_sessions(net):
        return [s for c in net.controllers for s in c.sessions]

    @staticmethod
    def document(*intents, default="allow"):
        return {"schema_version": 2, "default_action": default,
                "intents": list(intents)}

    def inspect_row(self, **changes):
        row = {"name": "inspect-internet", "action": "chain",
               "service_chain": ["ids"],
               "selector": {"dst_ip": self.GATEWAY_IP}}
        row.update(changes)
        return row

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_a_drop_commit_blocks_the_live_session_it_names(
        self, num_shards
    ):
        from repro.core.events import EventKind

        net = self.build_fabric(num_shards)
        flows = self.start_traffic(net)
        net.run(1.0)
        victim = net.host("h1_1")
        others = {
            s.session_id: s.rules for s in self.live_sessions(net)
            if s.src_mac != victim.mac
        }
        assert len(others) == 3

        commits = net.reload_policies(self.document(
            self.inspect_row(),
            {"name": "cut-h1_1", "action": "drop", "priority": 300,
             "selector": {"src_ip": victim.ip}},
        ))
        assert len(commits) == num_shards
        net.run(0.01)  # one control round trip, and the frames in flight
        delivered = [flow.delivered_bytes(net.gateway) for flow in flows]
        net.run(1.0)
        after = [flow.delivered_bytes(net.gateway) for flow in flows]
        assert after[0] == delivered[0]
        assert all(b > a for a, b in zip(delivered[1:], after[1:]))

        (cut,) = [s for s in self.live_sessions(net)
                  if s.src_mac == victim.mac]
        assert cut.blocked and cut.policy.name == "cut-h1_1"
        lines = [e for c in net.controllers for e in c.log.all()
                 if e.kind in (EventKind.FLOW_BLOCKED,
                               EventKind.FLOW_FAILOVER)]
        assert [(e.kind, e.data.get("policy"), e.data.get("cause"),
                 e.data.get("outcome")) for e in lines] == [
            (EventKind.FLOW_BLOCKED, "cut-h1_1", None, None),
            (EventKind.FLOW_FAILOVER, None, "policy:v1", "fail-closed"),
        ]
        assert "dead_element" not in lines[1].data
        # Every other session kept the very rules it had.
        assert {s.session_id: s.rules for s in self.live_sessions(net)
                if s.src_mac != victim.mac} == others
        assert all(
            s.rules is others[s.session_id]
            for s in self.live_sessions(net) if s.session_id in others
        )
        for flow in flows:
            flow.stop()

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_a_chain_commit_puts_live_sessions_on_the_fresh_chain(
        self, num_shards
    ):
        """``intents.json`` chains ``l7, ids`` and no l7 element is
        deployed: the policy fails open, for the live sessions as for
        a new one."""
        from pathlib import Path

        from repro.workloads import HttpFlow

        net = self.build_fabric(num_shards)
        flows = self.start_traffic(net)
        net.run(1.0)
        live = self.live_sessions(net)
        assert len(live) == 4 and all(s.element_macs for s in live)

        path = Path(__file__).parent.parent / "examples/policies/intents.json"
        net.reload_policies(str(path))
        fresh_flow = HttpFlow(net.sim, net.host("h2_1"), self.GATEWAY_IP,
                              rate_bps=2e6, packet_size=1500).start()
        net.run(0.5)
        (fresh,) = [s for s in self.live_sessions(net) if s not in live]
        assert fresh.policy.service_chain == ("l7", "ids")
        assert all(s.policy is fresh.policy for s in live)
        assert all(s.element_macs == fresh.element_macs == () for s in live)
        for flow in flows + [fresh_flow]:
            flow.stop()

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_a_commit_of_the_same_effect_only_repoints(self, num_shards):
        """A rename, a priority bump and an unrelated row each leave
        every session's entries alone: no re-decide line, no FlowMod,
        the same ``rules`` list."""
        from repro.core.events import EventKind

        net = self.build_fabric(num_shards)
        flows = self.start_traffic(net)
        net.run(1.0)
        sent = []
        for controller in net.controllers:
            controller.apply_rule = (
                lambda *args, _apply=controller.apply_rule, **kw:
                sent.append(args) or _apply(*args, **kw)
            )
        if net.coordinator is not None:
            remote_rule = net.coordinator.remote_rule
            net.coordinator.remote_rule = (
                lambda *args: sent.append(args) or remote_rule(*args)
            )
        rules = {s.session_id: s.rules for s in self.live_sessions(net)}
        assert len(rules) == 4
        renamed = self.inspect_row(name="inspect-gateway")
        bumped = dict(renamed, priority=250)
        telnet = {"name": "no-telnet", "action": "drop", "priority": 300,
                  "selector": {"nw_proto": 6, "tp_dst": 23}}
        for rows in [(renamed,), (bumped,), (bumped, telnet)]:
            net.reload_policies(self.document(*rows))
            assert sent == []
            for session in self.live_sessions(net):
                assert session.rules is rules[session.session_id]
                assert session.policy.name == "inspect-gateway"
        net.run(0.5)
        assert not [
            e for c in net.controllers for e in c.log.all()
            if e.kind in (EventKind.FLOW_FAILOVER, EventKind.FLOW_BLOCKED)
        ]
        for flow in flows:
            flow.stop()

    def test_a_restarted_shard_serves_the_reload_it_missed(self):
        net = self.build_fabric(2)
        live, restarted = net.members
        restarted.fail()
        net.run(0.5)
        commits = net.reload_policies(self.document(
            self.inspect_row(priority=250), default="drop"))
        assert len(commits) == 1  # the live shard only
        served = live.controller.policies
        assert restarted.controller.policies.default_action is not (
            served.default_action)
        restarted.restart()
        net.run(0.01)
        table = restarted.controller.policies
        assert list(table) == list(served)
        assert table.default_action is served.default_action

    def test_rejected_reload_leaves_table_serving(self):
        net = self.build_net()
        controller = net.controller
        flows = self.start_traffic(net)
        net.run(1.0)
        version_before = controller.policies.version
        names_before = [p.name for p in controller.policies]
        gateway_rx_before = net.gateway.rx_bytes

        with pytest.raises(PolicyConflictError) as exc:
            net.reload_policies({
                "schema_version": 2,
                "intents": [
                    {"name": "allow-web", "action": "allow",
                     "dst_zone": "10.2.0.0/16",
                     "selector": {"nw_proto": 6, "tp_dst": 80}},
                    {"name": "block-web", "action": "drop",
                     "src_zone": "10.2.128.0/17",
                     "selector": {"nw_proto": 6, "tp_dst": 80}},
                ],
            })
        # The structured report names both policies and the overlap.
        (finding,) = exc.value.findings
        assert set(finding.policies) == {"allow-web", "block-web"}
        assert "10.2.128.0/17" in finding.overlap
        # Nothing changed; the committed table keeps serving.
        assert controller.policies.version == version_before
        assert [p.name for p in controller.policies] == names_before
        net.run(1.0)
        assert net.gateway.rx_bytes > gateway_rx_before
        for flow in flows:
            flow.stop()

    def test_reload_rejects_unknown_service_chain(self):
        net = self.build_net()
        with pytest.raises(PolicyConflictError) as exc:
            net.reload_policies({
                "schema_version": 2,
                "intents": [
                    {"name": "inspect", "action": "chain",
                     "service_chain": ["warp-scrubber"],
                     "selector": {"dst_ip": self.GATEWAY_IP}},
                ],
            })
        assert exc.value.findings[0].kind == "unknown-service"

    @pytest.mark.parametrize("default", ["chain", "alow"])
    def test_bad_default_action_is_a_format_error(self, default):
        # A parsed document goes through the same reader as a file: a
        # 'chain' or misspelt default is a PolicyFormatError (it used
        # to escape check_policies as a bare ValueError).
        from repro.core.policy_io import PolicyFormatError

        net = self.build_net()
        document = {"schema_version": 2, "default_action": default,
                    "intents": [{"name": "x", "action": "allow"}]}
        version_before = net.controller.policies.version
        with pytest.raises(PolicyFormatError):
            net.controller.check_policies(document)
        with pytest.raises(PolicyFormatError):
            net.reload_policies(document)
        assert net.controller.policies.version == version_before

    def test_deployment_builds_from_policy_file(self, tmp_path):
        import json

        from repro import build_livesec_network

        path = str(tmp_path / "intents.json")
        with open(path, "w") as handle:
            json.dump({
                "schema_version": 2,
                "intents": [
                    {"name": "no-gw", "action": "drop",
                     "selector": {"dst_ip": self.GATEWAY_IP}},
                ],
            }, handle)
        net = build_livesec_network(
            topology="linear", policy_file=path, num_as=2, hosts_per_as=1,
        )
        assert [p.name for p in net.controller.policies] == ["no-gw"]
        with pytest.raises(ValueError, match="not both"):
            build_livesec_network(
                topology="linear", policy_file=path,
                policies=PolicyTable(),
            )

    def test_deployment_rejects_conflicting_policy_file(self, tmp_path):
        import json

        from repro import build_livesec_network
        from repro.core.policy_io import PolicyFormatError

        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            json.dump({
                "schema_version": 2,
                "intents": [
                    {"name": "allow-all", "action": "allow"},
                    {"name": "drop-all", "action": "drop"},
                ],
            }, handle)
        with pytest.raises(PolicyFormatError):
            build_livesec_network(topology="linear", policy_file=path)


class TestMetrics:
    def test_attach_metrics_exports_version_and_deprecation(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        table = PolicyTable()
        table.attach_metrics(registry)
        table.add(Policy(name="a", selector=FlowSelector(),
                         action=PolicyAction.ALLOW))
        assert registry.get("policy.version").snapshot().value == 1.0
        assert registry.get("policy.rows").snapshot().value == 1.0
        # add/remove are plain one-row transactions: nothing counts
        # them as deprecated any more.
        assert registry.get("policy.deprecated_api_calls", op="add") is None
