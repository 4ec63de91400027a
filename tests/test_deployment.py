"""Unit tests for the deployment facade."""

import pytest

from repro import build_livesec_network
from repro.net.simulator import Simulator


class TestBuild:
    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            build_livesec_network(topology="torus")

    def test_unknown_element_type_rejected(self):
        net = build_livesec_network(topology="linear", num_as=2,
                                    hosts_per_as=1)
        with pytest.raises(ValueError):
            net.add_element("quantum-ids", net.topology.as_switches[0])

    def test_elements_distributed_round_robin(self):
        net = build_livesec_network(
            topology="linear", num_as=3, hosts_per_as=1,
            elements=[("ids", 3)],
        )
        dpids = set()
        for element in net.elements:
            port = element.port(1)
            dpids.add(port.peer().node.dpid)
        assert len(dpids) == 3

    def test_elements_provisioned_with_valid_certs(self):
        net = build_livesec_network(
            topology="linear", num_as=2, hosts_per_as=1,
            elements=[("ids", 1)],
        )
        element = net.elements[0]
        assert net.controller.registry.verify_certificate(
            element.mac, element.certificate)

    def test_external_simulator_accepted(self):
        sim = Simulator()
        net = build_livesec_network(sim=sim, topology="linear", num_as=2,
                                    hosts_per_as=1)
        assert net.sim is sim

    def test_invalid_on_no_element(self):
        with pytest.raises(ValueError):
            build_livesec_network(topology="linear", on_no_element="retry")


class TestLifecycle:
    def test_start_twice_rejected(self, small_net):
        with pytest.raises(RuntimeError):
            small_net.start()

    def test_start_converges_discovery(self, small_net):
        assert small_net.controller.nib.is_full_mesh()
        assert small_net.started

    def test_run_advances_clock(self, small_net):
        before = small_net.sim.now
        small_net.run(1.5)
        assert small_net.sim.now == pytest.approx(before + 1.5)

    def test_gateway_property(self, small_net):
        assert small_net.gateway.ip == "10.255.255.254"

    def test_gateway_missing_raises(self):
        net = build_livesec_network(topology="linear", num_as=2,
                                    hosts_per_as=1, with_gateway=False)
        with pytest.raises(RuntimeError):
            net.gateway

    def test_elements_of_type(self):
        net = build_livesec_network(
            topology="linear", num_as=2, hosts_per_as=1,
            elements=[("ids", 2), ("l7", 1)],
        )
        assert len(net.elements_of_type("ids")) == 2
        assert len(net.elements_of_type("l7")) == 1
        assert net.elements_of_type("virus") == []


class TestRuntimeAdditions:
    def test_add_user_at_runtime(self, small_net):
        host = small_net.add_user("late", small_net.topology.as_switches[0])
        host.announce()
        small_net.run(1.0)
        assert small_net.controller.nib.host_by_mac(host.mac) is not None

    def test_add_element_at_runtime_joins_registry(self, small_net):
        element = small_net.add_element(
            "ids", small_net.topology.as_switches[0])
        small_net.run(2.0)
        assert small_net.controller.registry.is_element(element.mac)
        assert small_net.controller.registry.online_elements("ids")

    def test_port_capacities_registered_for_monitoring(self, small_net):
        capacities = small_net.controller.app("monitor")._port_capacity
        for switch in small_net.topology.as_switches:
            for number, port in switch.ports.items():
                if port.link is not None:
                    assert (switch.dpid, number) in capacities
