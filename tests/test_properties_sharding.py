"""Property test for the shard fabric (satellite of the sharding PR):
over hundreds of randomized user/flow cases, a sharded deployment must
produce *exactly* the session outcomes of the single-controller oracle
-- same per-flow admission class (chained / dropped / default-allowed),
same policy attribution, same delivered bytes, one session per
connection over all the shards' books -- because sharding is a
control-plane partition, never a semantic change.  Every case draws its
destination from {the gateway, a host on the sender's shard, a host on
the other shard}, and a tenth are TCP connections a server answers, so
the reply direction crosses the fabric too.
"""

import random

from repro.core.deployment import build_livesec_network, build_sharded_network
from repro.core.events import EventKind
from repro.core.policy import (
    FailMode,
    FlowSelector,
    Policy,
    PolicyAction,
    PolicyTable,
)
from repro.workloads import CbrUdpFlow
from repro.workloads.tcpflows import TcpServer, TcpTransfer

NUM_CASES = 500
NUM_AS = 4
HOSTS_PER_AS = 2
NUM_SHARDS = 2
CHAIN_DPORT = 9000
DROP_DPORT = 9999
UNMATCHED_DPORT = 7777
DPORTS = (CHAIN_DPORT, DROP_DPORT, UNMATCHED_DPORT)
DESTINATIONS = ("gateway", "same-shard", "other-shard")
TCP_SHARE = 0.1
TCP_BYTES = 6_000
TCP_ANSWER_BYTES = 2_000
LAUNCH_WINDOW_S = 3.0
SETTLE_S = 2.0


def oracle_policies():
    """Three outcome classes, selected by destination *port* alone so
    each meets every kind of destination: chained via ids, dropped,
    and (any other port) the default-allow path."""
    table = PolicyTable()
    table.begin(source="property-test").add(Policy(
        name="chain-ids",
        selector=FlowSelector(tp_dst=CHAIN_DPORT),
        action=PolicyAction.CHAIN,
        service_chain=("ids",),
        fail_mode=FailMode("open"),
    )).add(Policy(
        name="drop-badport",
        selector=FlowSelector(tp_dst=DROP_DPORT),
        action=PolicyAction.DROP,
    )).commit()
    return table


def shard_of(host_name: str) -> int:
    """The contiguous 2-shard split of the linear fabric: h<i>_<j> sits
    on dpid i, and dpids {1, 2} are shard 0's."""
    switch = int(host_name[1:].split("_")[0])
    return (switch - 1) * NUM_SHARDS // NUM_AS


def make_cases(seed: int):
    """The randomized workload: (host, destination, kind, sport, dport,
    start_s) tuples, identical for both deployments by construction.
    ``sport`` is None for TCP: the stack numbers its own, per
    simulator, in connect order -- the same in both."""
    rng = random.Random(seed)
    host_names = [
        f"h{i + 1}_{j + 1}"
        for i in range(NUM_AS)
        for j in range(HOSTS_PER_AS)
    ]
    cases = []
    for index in range(NUM_CASES):
        host = rng.choice(host_names)
        where = rng.choice(DESTINATIONS)
        if where == "gateway":
            destination = "gateway"
        else:
            same = where == "same-shard"
            destination = rng.choice([
                name for name in host_names
                if name != host and (shard_of(name) == shard_of(host)) == same
            ])
        tcp = rng.random() < TCP_SHARE
        cases.append((
            host, destination, "tcp" if tcp else "udp",
            None if tcp else 20000 + index,  # unique five-tuples
            rng.choice(DPORTS),
            rng.uniform(0.0, LAUNCH_WINDOW_S),
        ))
    return cases


def run_cases(net, cases):
    """Launch every case; returns, keyed by (src_ip, sport, dst_ip,
    dport): the outcome class of every session in any book (a list --
    one per session the connection got), what each flow delivered, and
    the FLOW_BLOCKED event count.

    A DROP policy never mints a session (the flow dies at its ingress
    drop rule), so its outcome class is the *absence* of a session --
    the blocked-event count is what proves the drop actually ran.
    """
    net.start()
    for host in net.topology.hosts:
        for dport in DPORTS:
            TcpServer(host, port=dport, response_bytes=TCP_ANSWER_BYTES)
    launched = []
    for host_name, dst_name, kind, sport, dport, start_s in cases:
        host = net.topology.host_by_name(host_name)
        dst = net.topology.host_by_name(dst_name)
        if kind == "tcp":
            flow = TcpTransfer(host, dst.ip, port=dport, size_bytes=TCP_BYTES)
        else:
            flow = CbrUdpFlow(
                net.sim, host, dst.ip, rate_bps=1e6,
                sport=sport, dport=dport, max_packets=3,
            )
        flow.start(start_s)
        launched.append((host, dst, flow))
    net.run(LAUNCH_WINDOW_S + SETTLE_S)

    delivered = {}
    for (_, _, kind, sport, dport, _), (host, dst, flow) in zip(
        cases, launched
    ):
        if kind == "tcp":
            conn = flow.connection
            key = (host.ip, conn.local_port, dst.ip, dport)
            delivered[key] = (conn.bytes_acked, conn.bytes_received)
        else:
            key = (host.ip, sport, dst.ip, dport)
            delivered[key] = flow.delivered_bytes(dst)
    assert len(delivered) == len(cases)

    outcomes = {key: [] for key in delivered}
    blocked_events = 0
    for controller in net.controllers:
        for session in controller.sessions:
            flow = session.flow
            key = (flow.nw_src, flow.tp_src, flow.nw_dst, flow.tp_dst)
            if key not in outcomes:
                # Formed from the reply side: still that connection's.
                key = (flow.nw_dst, flow.tp_dst, flow.nw_src, flow.tp_src)
            outcomes[key].append((
                "chained" if session.element_macs else "allowed",
                session.policy_name,
            ))
        blocked_events += len(controller.log.query(kind=EventKind.FLOW_BLOCKED))
    created = sum(c.sessions.created for c in net.controllers)
    return outcomes, delivered, blocked_events, created


def test_sharded_outcomes_match_single_controller_oracle():
    cases = make_cases(seed=7)
    shape = dict(
        topology="linear", elements=[("ids", 2)], num_as=NUM_AS,
        hosts_per_as=HOSTS_PER_AS, dispatcher="polling",
    )

    oracle = build_livesec_network(policies=oracle_policies(), **shape)
    expected, expected_bytes, expected_blocks, expected_created = run_cases(
        oracle, cases
    )
    sharded = build_sharded_network(
        num_shards=NUM_SHARDS, policies=oracle_policies, **shape
    )
    actual, actual_bytes, actual_blocks, actual_created = run_cases(
        sharded, cases
    )

    # Same address plan and port numbering, so keys compare directly.
    assert sorted(expected) == sorted(actual)

    # Case for case: a dropped flow has no session in *either* world;
    # every other connection has exactly one, summed over all books --
    # the source's shard's, never a second formed by its replies.
    drop_cases = 0
    for key, sessions in expected.items():
        if key[3] == DROP_DPORT:
            drop_cases += 1
            assert sessions == [] == actual[key], key
        else:
            assert len(sessions) == 1 == len(actual[key]), key
    assert expected_created == actual_created == len(cases) - drop_cases

    # The property: identical outcome classes, identical deliveries.
    assert actual == expected
    assert actual_bytes == expected_bytes

    # The drops really happened, once per dropped case, in both.
    assert expected_blocks == drop_cases
    assert actual_blocks == drop_cases

    # And the workload genuinely exercised every class, to every kind
    # of destination, over both transports, with bytes arriving.
    classes = {  # ``expected`` is in case order
        (sessions[0][0], dst == "gateway" or shard_of(dst) == shard_of(src))
        for (src, dst, *_), sessions in zip(cases, expected.values())
        if sessions
    }
    assert classes == {
        (outcome, near) for outcome in ("chained", "allowed")
        for near in (True, False)
    }
    assert {dst == "gateway" for _, dst, *_ in cases} == {True, False}
    assert drop_cases > 0
    tcp = [v for v in expected_bytes.values() if isinstance(v, tuple)]
    assert len(tcp) > NUM_CASES * TCP_SHARE / 2
    answered = [  # the FIN is acked like a byte
        v for v in tcp if v == (TCP_BYTES + 1, TCP_ANSWER_BYTES)
    ]
    dropped_tcp = [v for v in tcp if v == (0, 0)]
    assert answered and len(answered) + len(dropped_tcp) == len(tcp)
    udp = [v for v in expected_bytes.values() if not isinstance(v, tuple)]
    assert sum(1 for v in udp if v > 0) == len(udp) - (
        drop_cases - len(dropped_tcp)
    )
