"""Soak test: a long simulated campus day over a full deployment.

This exercises everything at once -- churn, mixed traffic, repeated
attacks of all kinds, steering, load balancing, monitoring -- and
asserts the system-level invariants that must hold after any amount of
activity.
"""

import pytest

from repro import Policy, PolicyTable, build_livesec_network
from repro.core.events import EventKind
from repro.core.policy import FlowSelector, PolicyAction
from repro.workloads.scenarios import CampusDayScenario

GATEWAY_IP = "10.255.255.254"


@pytest.fixture(scope="module")
def soak():
    """One 90-simulated-second campus day, shared by the assertions."""
    policies = PolicyTable()
    policies.add(Policy(
        name="full-inspection",
        selector=FlowSelector(dst_ip=GATEWAY_IP),
        action=PolicyAction.CHAIN,
        service_chain=("l7", "ids", "virus"),
    ))
    net = build_livesec_network(
        topology="star", policies=policies,
        elements=[("ids", 2), ("l7", 2), ("virus", 1)],
        num_as=4, hosts_per_as=2,
        host_timeout_s=10.0,
    )
    net.start()
    scenario = CampusDayScenario(net, GATEWAY_IP, seed=11,
                                 attack_interval_s=10.0)
    report = scenario.run(90.0)
    return net, scenario, report


class TestSoak:
    def test_scenario_generated_real_activity(self, soak):
        net, scenario, report = soak
        assert report.joins >= 10
        assert report.leaves >= 5
        assert report.attacks_launched >= 5

    def test_attacks_detected_and_blocked(self, soak):
        net, scenario, report = soak
        detected = net.controller.log.query(kind=EventKind.ATTACK_DETECTED)
        blocked = net.controller.log.query(kind=EventKind.FLOW_BLOCKED)
        assert detected, "a day of attacks must produce detections"
        assert blocked

    def test_all_element_types_saw_traffic(self, soak):
        net, scenario, report = soak
        by_type = {}
        for element in net.elements:
            by_type.setdefault(element.service_type, 0)
            by_type[element.service_type] += element.processed_packets
        assert by_type["ids"] > 0
        assert by_type["l7"] > 0
        assert by_type["virus"] > 0

    def test_applications_identified(self, soak):
        net, scenario, report = soak
        identified = net.controller.log.query(
            kind=EventKind.PROTOCOL_IDENTIFIED)
        apps = {e.data["application"] for e in identified}
        assert "http" in apps or "bittorrent" in apps or "ssh" in apps

    def test_no_session_leaks(self, soak):
        """After everything quiesces, every session must drain."""
        net, scenario, report = soak
        net.run(20.0)  # idle timeouts + expiry sweep
        assert len(net.controller.sessions) == 0
        # ... and with the sessions, the load they put on elements:
        # the table is the only place it is kept.
        registry = net.controller.registry
        assert len(registry.elements) == 5
        assert all(
            net.controller.sessions.load_of(mac) == 0
            for mac in registry.elements
        )

    def test_nib_consistency_after_churn(self, soak):
        net, scenario, report = soak
        nib = net.controller.nib
        assert nib.is_full_mesh()
        # Every host record points at a real switch.
        for record in nib.records():
            assert record.dpid in nib.switches

    def test_event_log_replay_matches_live(self, soak):
        net, scenario, report = soak
        live = net.monitoring.snapshot()
        replayed = net.monitoring.replay(until=net.sim.now)
        assert sorted(replayed.switches) == sorted(live.switches)
        assert {m for m, u in replayed.users.items() if u.online} == \
            {m for m, u in live.users.items() if u.online}

    def test_elements_stayed_online(self, soak):
        net, scenario, report = soak
        assert net.controller.registry.summary()["online"] == 5
