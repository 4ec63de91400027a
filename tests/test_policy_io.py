"""Tests for policy-table persistence."""

import json

import pytest

from repro.core.policy import (
    FlowSelector,
    Granularity,
    Policy,
    PolicyAction,
    PolicyTable,
)
from repro.core.policy_io import (
    PolicyFormatError,
    load_policies,
    save_policies,
    table_from_dict,
    table_to_dict,
)


@pytest.fixture
def table():
    table = PolicyTable(default_action=PolicyAction.DROP)
    table.add(Policy(
        name="inspect-internet",
        selector=FlowSelector(dst_ip="10.255.255.254"),
        action=PolicyAction.CHAIN,
        service_chain=("l7", "ids"),
        granularity=Granularity.USER,
        inspect_reply=False,
        priority=200,
    ))
    table.add(Policy(
        name="east-west-allow",
        selector=FlowSelector(src_ip_prefix="10.0.", dst_ip_prefix="10.0.",
                              nw_proto=6),
        action=PolicyAction.ALLOW,
        priority=50,
    ))
    return table


class TestRoundtrip:
    def test_dict_roundtrip_preserves_everything(self, table):
        restored = table_from_dict(table_to_dict(table))
        assert restored.default_action is PolicyAction.DROP
        assert len(restored) == len(table)
        original = {p.name: p for p in table}
        for policy in restored:
            src = original[policy.name]
            assert policy.selector == src.selector
            assert policy.action == src.action
            assert policy.service_chain == src.service_chain
            assert policy.granularity == src.granularity
            assert policy.inspect_reply == src.inspect_reply
            assert policy.priority == src.priority

    def test_file_roundtrip(self, table, tmp_path):
        path = str(tmp_path / "policies.json")
        save_policies(table, path)
        restored = load_policies(path)
        assert [p.name for p in restored] == [p.name for p in table]
        # The file itself is reviewable JSON (v2 intent schema).
        with open(path) as handle:
            document = json.load(handle)
        assert document["schema_version"] == 2
        assert document["intents"][0]["selector"] == {
            "dst_ip": "10.255.255.254"
        }

    def test_lookup_equivalence(self, table):
        from repro.net.packet import FlowNineTuple

        restored = table_from_dict(table_to_dict(table))
        flow = FlowNineTuple(None, "a", "b", 0x0800, "10.0.0.1",
                             "10.255.255.254", 6, 1, 80)
        assert table.match(flow)[0].name == restored.match(flow)[0].name


class TestSchemaVersions:
    def test_v1_documents_still_load(self):
        table = table_from_dict({
            "default_action": "drop",
            "policies": [
                {"name": "x", "action": "allow",
                 "selector": {"dst_ip": "10.0.0.1"}},
            ],
        })
        assert table.default_action is PolicyAction.DROP
        assert table.get("x").selector.dst_ip == "10.0.0.1"

    def test_v2_intents_load_with_zones(self):
        table = table_from_dict({
            "schema_version": 2,
            "intents": [
                {"name": "quarantine", "action": "drop",
                 "src_zone": "10.66.0.0/16", "priority": 150},
            ],
        })
        policy = table.get("quarantine")
        assert policy.selector.src_cidr == "10.66.0.0/16"
        assert policy.priority == 150

    def test_v1_to_v2_round_trip(self, table):
        # A v1-era table emits v2 and loads back identically.
        document = table_to_dict(table)
        assert document["schema_version"] == 2
        restored = table_from_dict(document)
        assert [p.name for p in restored] == [p.name for p in table]
        # And the emitted v2 round-trips through itself.
        again = table_from_dict(table_to_dict(restored))
        assert [(p.name, p.selector) for p in again] == \
            [(p.name, p.selector) for p in restored]

    def test_unknown_schema_version_rejected(self):
        with pytest.raises(PolicyFormatError, match="schema_version"):
            table_from_dict({"schema_version": 3, "intents": []})

    def test_unknown_document_field_rejected_v1(self):
        with pytest.raises(PolicyFormatError, match="unknown document"):
            table_from_dict({"policies": [], "polices": []})

    def test_unknown_document_field_rejected_v2(self):
        with pytest.raises(PolicyFormatError, match="unknown document"):
            table_from_dict({"schema_version": 2, "intents": [],
                             "extras": 1})

    def test_unknown_entry_field_rejected_v1(self):
        with pytest.raises(PolicyFormatError, match="priority_"):
            table_from_dict({"policies": [
                {"name": "x", "action": "allow", "priority_": 5},
            ]})

    def test_unknown_intent_field_rejected_v2(self):
        with pytest.raises(PolicyFormatError, match="unknown intent"):
            table_from_dict({"schema_version": 2, "intents": [
                {"name": "x", "action": "allow", "zone": "10.0.0.0/8"},
            ]})

    def test_verify_rejects_conflicting_document(self):
        document = {
            "schema_version": 2,
            "intents": [
                {"name": "allow-all", "action": "allow"},
                {"name": "drop-all", "action": "drop"},
            ],
        }
        # Unverified load keeps legacy permissiveness...
        table = table_from_dict(document)
        assert len(table) == 2
        # ...verified load refuses, naming both policies.
        with pytest.raises(PolicyFormatError) as exc:
            table_from_dict(document, verify=True)
        assert "allow-all" in str(exc.value)
        assert "drop-all" in str(exc.value)

    def test_loaded_table_starts_at_version_zero(self):
        table = table_from_dict({
            "schema_version": 2,
            "intents": [{"name": "x", "action": "allow"}],
        })
        assert table.version == 0


class TestValidation:
    def test_not_an_object(self):
        with pytest.raises(PolicyFormatError):
            table_from_dict([])

    def test_chain_default_rejected(self):
        with pytest.raises(PolicyFormatError):
            table_from_dict({"default_action": "chain", "policies": []})

    def test_unknown_action_rejected(self):
        with pytest.raises(PolicyFormatError):
            table_from_dict({"policies": [
                {"name": "x", "action": "quarantine"}
            ]})

    def test_unknown_selector_field_rejected(self):
        with pytest.raises(PolicyFormatError):
            table_from_dict({"policies": [
                {"name": "x", "action": "allow",
                 "selector": {"dst_planet": "mars"}}
            ]})

    def test_chain_without_elements_rejected(self):
        with pytest.raises(PolicyFormatError):
            table_from_dict({"policies": [
                {"name": "x", "action": "chain"}
            ]})

    def test_nameless_policy_rejected(self):
        with pytest.raises(PolicyFormatError):
            table_from_dict({"policies": [{"action": "allow"}]})

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(PolicyFormatError):
            load_policies(str(path))

    def test_empty_document_gives_default_table(self):
        table = table_from_dict({})
        assert len(table) == 0
        assert table.default_action is PolicyAction.ALLOW


class TestLiveUse:
    def test_loaded_policies_drive_the_controller(self, tmp_path):
        from repro import build_livesec_network
        from repro.workloads import CbrUdpFlow

        path = str(tmp_path / "policies.json")
        with open(path, "w") as handle:
            json.dump({
                "policies": [{
                    "name": "no-internet",
                    "action": "drop",
                    "selector": {"dst_ip": "10.255.255.254"},
                }],
            }, handle)
        net = build_livesec_network(
            topology="linear", policies=load_policies(path),
            num_as=2, hosts_per_as=1,
        )
        net.start()
        flow = CbrUdpFlow(net.sim, net.host("h1_1"), "10.255.255.254",
                          rate_bps=2e6, duration_s=1.0)
        flow.start()
        net.run(2.0)
        assert flow.delivered_bytes(net.gateway) == 0
