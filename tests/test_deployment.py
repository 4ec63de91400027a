"""Unit tests for the deployment facade."""

from pathlib import Path

import pytest

from repro import build_livesec_network
from repro.core.policy import PolicyTable
from repro.net.simulator import Simulator

ROOT = Path(__file__).resolve().parents[1]


class TestBuild:
    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            build_livesec_network(topology="torus")

    @pytest.mark.parametrize(
        "element_type", ["quantum-ids", "firewall", "sfw", "content", "ddos"]
    )
    def test_unknown_element_type_rejected(self, element_type):
        net = build_livesec_network(topology="linear", num_as=2,
                                    hosts_per_as=1)
        with pytest.raises(ValueError) as error:
            net.add_element(element_type, net.topology.as_switches[0])
        assert str(error.value).endswith(
            "choose from ['ids', 'l7', 'virus']"
        )

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


class TestOneDeployment:
    """One class and one builder for every shard count."""

    def test_one_controller_builds_no_fabric(self):
        net = build_livesec_network(
            topology="linear", num_as=2, hosts_per_as=1,
            policies=PolicyTable, elements=[("ids", 1)],
        )
        assert net.coordinator is None and net.shard_map is None
        assert net.members == []
        assert net.controllers == [net.controller]
        assert net.controller.shard is None
        assert net.monitoring is not None
        assert net.owner(1) is net.controller
        assert net.metrics is net.controller.metrics

    def test_a_fabric_answers_owner_by_shard(self):
        net = build_livesec_network(
            topology="linear", num_as=4, hosts_per_as=1, num_shards=2,
        )
        assert [m.controller for m in net.members] == net.controllers
        assert net.monitoring is None
        assert [net.owner(dpid).shard.shard_id for dpid in (1, 2, 3, 4)] == [
            0, 0, 1, 1,
        ]
        with pytest.raises(KeyError):
            net.owner(99)

    def test_bad_shard_counts_and_shared_tables_are_rejected(self):
        with pytest.raises(ValueError, match="at least one shard"):
            build_livesec_network(num_shards=0)
        with pytest.raises(ValueError, match="factory callable"):
            build_livesec_network(num_shards=2, policies=PolicyTable())

    def test_path_proofs_on_shards_raise_a_named_error(self):
        """A proof report lands on the egress switch's owner, which need
        not hold the session: on three shards the compromised-switch
        scenario convicted honest switches for proof silence."""
        with pytest.raises(ValueError, match="accountability needs one"
                           " controller.*convicted for proof silence"):
            build_livesec_network(num_shards=2, accountability=True)
        net = build_livesec_network(num_shards=1, accountability=True)
        assert net.controller.app("accountability") is not None

    @pytest.mark.parametrize("shards", [1, 2])
    def test_fluid_attaches_at_every_shard_count(self, shards):
        net = build_livesec_network(
            topology="linear", num_as=4, hosts_per_as=1, num_shards=shards,
            fluid=True,
        )
        assert net.sim.fluid is net.fluid
        names = {metric.name for metric in net.metrics.snapshot()}
        assert "sim.fluid_fastforwards" in names

    def test_the_names_kept_for_the_ledger_have_no_other_caller(self):
        """Two aliases survive for ``perf/workloads.py`` only; nothing
        else in the tree may call them."""
        needles = ("build_sharded" + "_network", ".member" + "_of(")
        allowed = {
            ("src/repro/core/deployment.py",
             "build_sharded" + "_network = build_livesec_network"),
        }
        found = []
        for top in ("src", "tests", "examples", "benchmarks", "scripts"):
            for path in sorted((ROOT / top).rglob("*")):
                if not path.is_file() or "__pycache__" in path.parts:
                    continue
                try:
                    text = path.read_text()
                except UnicodeDecodeError:
                    continue
                relative = path.relative_to(ROOT).as_posix()
                for number, line in enumerate(text.splitlines(), 1):
                    if (relative, line.strip()) in allowed:
                        continue
                    if any(needle in line for needle in needles):
                        found.append(f"{relative}:{number}: {line.strip()}")
        assert found == []
