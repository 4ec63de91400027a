"""Shared fixtures for the LiveSec reproduction test suite."""

from __future__ import annotations

import pytest

from repro import Policy, PolicyTable, build_livesec_network
from repro.core import messages as svcmsg
from repro.core.policy import FlowSelector, PolicyAction
from repro.net import packet as pkt
from repro.net.host import Host
from repro.net.node import connect
from repro.net.simulator import Simulator

GATEWAY_IP = "10.255.255.254"
REJECTED_MAC = "00:00:00:00:88:88"


def attach_rejected_element(net, switch, at_s=None):
    """Wire an uncertified 'element' to ``switch`` and have it send the
    controller a garbage service message, now or at ``at_s``: the
    service directory rejects it and asks for its source to be blocked.
    Returns the host."""
    liar = Host(net.sim, "liar", REJECTED_MAC, "10.8.8.8")
    connect(net.sim, switch, liar, bandwidth_bps=1e9, delay_s=5e-6)
    frame = pkt.make_udp(
        liar.mac, svcmsg.CONTROLLER_MAC, liar.ip, svcmsg.CONTROLLER_IP,
        svcmsg.SERVICE_MESSAGE_PORT, svcmsg.SERVICE_MESSAGE_PORT,
        payload=b"LIVESEC1|x|GARBAGE",
    )
    net.sim.post_at(net.sim.now if at_s is None else at_s, liar.send, frame, 1)
    return liar


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def ids_policy_table():
    """Internet-bound traffic chained through one IDS element."""
    table = PolicyTable()
    table.add(
        Policy(
            name="inspect-internet",
            selector=FlowSelector(dst_ip=GATEWAY_IP),
            action=PolicyAction.CHAIN,
            service_chain=("ids",),
        )
    )
    return table


@pytest.fixture
def small_net():
    """A started 2-switch LiveSec network with no policies."""
    net = build_livesec_network(topology="linear", num_as=2, hosts_per_as=1)
    net.start()
    return net


@pytest.fixture
def steering_net(ids_policy_table):
    """A started 3-switch network with 2 IDS elements and the IDS policy."""
    net = build_livesec_network(
        topology="linear",
        policies=ids_policy_table,
        elements=[("ids", 2)],
        num_as=3,
        hosts_per_as=2,
    )
    net.start()
    return net
