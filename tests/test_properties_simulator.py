"""Differential property tests for the per-hop fast path.

Two equivalences, each against a deliberately naive reference:

* the event kernel (tuple heap, tombstones, in-place compaction)
  against a sorted-list kernel, over seeded random interleavings of
  ``schedule`` / ``schedule_at`` / ``post`` / ``post_at`` / ``cancel`` /
  ``every`` / ``set_interval`` / ``run(until=, max_events=)``;
* the switch's compiled action-plan loop against the
  interpreted, isinstance-dispatching datapath it replaced, over random
  action tuples, tagged and untagged frames and every ``compromised``
  variant;
* the run-ahead action stage against the posted forwarding-delay event
  (``oracles.PostedForwardingSwitch``), over seeded deployments.
"""

import random

import pytest

from repro import build_livesec_network
from repro.net import packet as pkt
from repro.net.host import Host
from repro.net.topologies import GATEWAY_IP
from repro.net.node import Node, connect
from repro.net.simulator import Simulator
from repro.openflow import messages as msg
from repro.openflow.actions import (
    CONTROLLER_PORT,
    FLOOD_PORT,
    Output,
    PopPathTag,
    PushPathTag,
    SetDlDst,
    SetDlSrc,
    compile_actions,
)
from repro.openflow.flowtable import FlowEntry
from repro.openflow.match import Match
from repro.openflow.pathproof import PathDescriptor, PathTag
from repro.openflow.switch import COMPROMISE_VARIANTS, OpenFlowSwitch
from repro.workloads.flows import CbrUdpFlow, HttpFlow, SshFlow
from repro.workloads.scenarios import gateway_ids_policies
from tests import oracles

# ----------------------------------------------------------------------
# Event kernel vs. a sorted-list reference


class _RefEvent:
    def __init__(self, time, seq, callback, args):
        self.time, self.seq = time, seq
        self.callback, self.args = callback, args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _RefSeries:
    def __init__(self, kernel, interval, callback, args, first):
        self.kernel, self.interval = kernel, interval
        self.callback, self.args = callback, args
        self.cancelled = False
        self.next = kernel.schedule_at(first, self._fire)

    def _fire(self):
        self.callback(*self.args)
        if not self.cancelled:
            self.next = self.kernel.schedule(self.interval, self._fire)

    def cancel(self):
        self.cancelled = True
        self.next.cancel()

    def set_interval(self, interval):
        if interval <= 0:
            raise ValueError(interval)
        self.interval = interval
        if not self.cancelled:
            self.next.cancel()
            self.next = self.kernel.schedule(interval, self._fire)


class ReferenceKernel:
    """The simulator's contract, written the slow obvious way: a flat
    list, re-sorted by ``(time, seq)`` before every pop."""

    def __init__(self):
        self.now = 0.0
        self.events = []
        self.seq = 0
        self.events_processed = 0

    def schedule_at(self, time, callback, *args):
        if not time >= self.now:
            raise ValueError(time)
        event = _RefEvent(time, self.seq, callback, args)
        self.seq += 1
        self.events.append(event)
        return event

    def schedule(self, delay, callback, *args):
        if not delay >= 0:
            raise ValueError(delay)
        return self.schedule_at(self.now + delay, callback, *args)

    # Fire-and-forget is the same event with the handle withheld.

    def post_at(self, time, callback, *args):
        self.schedule_at(time, callback, *args)

    def post(self, delay, callback, *args):
        self.schedule(delay, callback, *args)

    def every(self, interval, callback, *args, start=None):
        if interval <= 0:
            raise ValueError(interval)
        first = self.now + interval if start is None else start
        return _RefSeries(self, interval, callback, args, first)

    def pending(self):
        return sum(1 for event in self.events if not event.cancelled)

    def run(self, until=None, max_events=None):
        fired = 0
        while True:
            live = sorted(
                (event for event in self.events if not event.cancelled),
                key=lambda event: (event.time, event.seq),
            )
            if not live:
                if until is not None and until > self.now:
                    self.now = until
                return
            if max_events is not None and fired >= max_events:
                return
            head = live[0]
            if until is not None and head.time > until:
                if until > self.now:
                    self.now = until
                return
            self.events.remove(head)
            self.now = head.time
            head.callback(*head.args)
            fired += 1
            self.events_processed += 1


# Delays come from a coarse grid so that ties -- the FIFO rule -- are
# the common case, not the exception.
GRID = (0.0, 0.25, 0.25, 0.5, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0)

QUEUEING_METHODS = ("schedule", "schedule_at", "post", "post_at")
# Relative to ``now`` for the ``*_at`` forms: NaN and the past.
BAD_TIMES = (float("nan"), -0.5, -1e-9)


def _random_script(rng):
    """A list of top-level operations; handles are named by the index
    they get in the driver's handle list, so one script drives both
    kernels."""
    script = []
    for _ in range(rng.randint(15, 45)):
        roll = rng.random()
        if roll < 0.20:
            script.append(("schedule", rng.choice(GRID), _behaviour(rng)))
        elif roll < 0.34:
            script.append(("post", rng.choice(GRID), _behaviour(rng)))
        elif roll < 0.40:
            script.append(("schedule_at", rng.choice(GRID), _behaviour(rng)))
        elif roll < 0.46:
            script.append(("post_at", rng.choice(GRID), _behaviour(rng)))
        elif roll < 0.60:
            script.append(("cancel", rng.randrange(1 << 16)))
        elif roll < 0.68:
            start = rng.choice((None, None, rng.choice(GRID)))
            script.append(("every", rng.choice(GRID[1:]), start))
        elif roll < 0.74:
            script.append(("set_interval", rng.randrange(1 << 16),
                           rng.choice(GRID[1:])))
        elif roll < 0.80:
            # Cancel churn: enough dead handles in a big enough heap to
            # force a compaction (COMPACT_MIN_QUEUE is 64).
            script.append(("churn", rng.randint(70, 140),
                           rng.uniform(0.55, 0.95)))
        elif roll < 0.83:
            script.append(("reject", rng.choice(QUEUEING_METHODS),
                           rng.choice(BAD_TIMES)))
        else:
            until = rng.choice((None, rng.choice(GRID), rng.choice(GRID),
                                -1.0))
            max_events = rng.choice((None, None, 0, 1, 3, 10))
            if until is None and max_events is None:
                # A live periodic series never drains the queue.
                max_events = 25
            script.append(("run", until, max_events))
    script.append(("run", 12.0, None))
    return script


def _behaviour(rng):
    """What a fired callback does besides logging itself."""
    roll = rng.random()
    if roll < 0.55:
        return None
    if roll < 0.75:
        return ("spawn", rng.choice(GRID), rng.choice(QUEUEING_METHODS))
    if roll < 0.9:
        return ("cancel", rng.randrange(1 << 16))
    return ("churn", rng.randint(70, 140), rng.uniform(0.55, 0.95))


class _Driver:
    """Applies a script to one kernel and records what it observes."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.handles = []
        self.series = []
        self.trace = []
        self.labels = 0

    def _callback(self, behaviour):
        label = self.labels
        self.labels += 1

        def fire():
            self.trace.append((label, self.kernel.now))
            if behaviour is not None:
                self._act(behaviour)

        return fire

    def _act(self, behaviour):
        kind = behaviour[0]
        if kind == "spawn":
            self._queue(behaviour[2], behaviour[1], None)
        elif kind == "cancel" and self.handles:
            self.handles[behaviour[1] % len(self.handles)].cancel()
        elif kind == "churn":
            self._churn(behaviour[1], behaviour[2])

    def _queue(self, method, delay, behaviour):
        """Queue one logged event through the named kernel method; a
        handle, when the method returns one, joins the handle list."""
        kernel = self.kernel
        when = kernel.now + delay if method.endswith("_at") else delay
        handle = getattr(kernel, method)(when, self._callback(behaviour))
        assert (handle is None) == method.startswith("post")
        if handle is not None:
            self.handles.append(handle)
        return handle

    def _churn(self, count, dead_share):
        # ``count`` handles of which ``dead_share`` die, as the script
        # asks, plus a handle-less entry every twentieth -- few enough
        # that the dead still outnumber half the batch -- so the
        # compaction this forces sweeps a heap holding both shapes.
        fresh = []
        for i in range(count):
            delay = GRID[i % len(GRID)] + 4.0
            if i % 20 == 0:
                self._queue("post", delay, None)
            fresh.append(self._queue("schedule", delay, None))
        for handle in fresh[: int(count * dead_share)]:
            handle.cancel()

    def _reject(self, method, bad):
        kernel = self.kernel
        before = self.observed()
        when = kernel.now + bad if method.endswith("_at") else bad
        with pytest.raises(ValueError):
            getattr(kernel, method)(when, lambda: None)
        assert self.observed() == before

    def apply(self, op):
        kind = op[0]
        kernel = self.kernel
        if kind in QUEUEING_METHODS:
            self._queue(kind, op[1], op[2])
        elif kind == "reject":
            self._reject(op[1], op[2])
        elif kind == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
        elif kind == "every":
            start = None if op[2] is None else kernel.now + op[2]
            self.series.append(
                kernel.every(op[1], self._callback(None), start=start))
        elif kind == "set_interval":
            if self.series:
                self.series[op[1] % len(self.series)].set_interval(op[2])
        elif kind == "churn":
            self._churn(op[1], op[2])
        elif kind == "run":
            until = op[1]
            if until is not None:
                # -1.0 asks for a deadline already in the past.
                until = kernel.now + until
            kernel.run(until=until, max_events=op[2])

    def finish(self):
        """Stop every series and drain what is left."""
        for series in self.series:
            series.cancel()
        self.kernel.run()

    def observed(self):
        return (len(self.trace), self.kernel.now, self.kernel.pending(),
                self.kernel.events_processed)


KERNEL_CASES = 520


class TestKernelAgainstSortedListReference:
    @pytest.mark.parametrize("block", range(KERNEL_CASES // 40))
    def test_random_interleavings_fire_identically(self, block):
        compactions = 0
        for seed in range(block * 40, block * 40 + 40):
            script = _random_script(random.Random(seed))
            real, ref = _Driver(Simulator()), _Driver(ReferenceKernel())
            for step, op in enumerate(script):
                real.apply(op)
                ref.apply(op)
                assert real.observed() == ref.observed(), (seed, step, op)
            real.finish()
            ref.finish()
            assert real.trace == ref.trace, seed
            assert real.observed() == ref.observed(), seed
            assert real.kernel.pending() == 0
            compactions += real.kernel.heap_compactions
        # Compaction-safety is only tested if compactions happen.
        assert compactions > 0

    def test_compaction_inside_a_callback_keeps_the_run_loop_sound(self):
        """A callback that cancels its way into a compaction while
        run() is mid-loop: every survivor still fires, in order."""
        sim = Simulator()
        fired = []
        doomed = [sim.schedule(2.0 + i * 1e-3, fired.append, ("dead", i))
                  for i in range(200)]
        for i in range(50):
            sim.schedule(3.0 + i * 1e-3, fired.append, ("live", i))

        def massacre():
            for handle in doomed:
                handle.cancel()
            sim.schedule(0.5, fired.append, ("spawned", 0))

        sim.schedule(1.0, massacre)
        sim.run()
        assert sim.heap_compactions >= 1
        assert fired == [("spawned", 0)] + [("live", i) for i in range(50)]
        assert sim.pending() == 0 and sim.events_processed == 52

    def test_ties_fire_in_insertion_order_across_a_compaction(self):
        sim = Simulator()
        fired = []
        handles = [sim.schedule(1.0, fired.append, i) for i in range(300)]
        for handle in handles[::2] + handles[1:120:2]:
            handle.cancel()
        assert sim.heap_compactions >= 1
        sim.run()
        assert fired == list(range(121, 300, 2))


# ----------------------------------------------------------------------
# Compiled action plans vs. the interpreted datapath


class _Sink(Node):
    def __init__(self, sim, name, mac=None):
        super().__init__(sim, name)
        self.received = []
        if mac is not None:
            # Hosts and service elements carry a MAC; that is how the
            # skip-waypoint misbehavior recognises an element port.
            self.mac = mac

    def receive(self, frame, in_port):
        self.received.append(frame)


class _Channel:
    """Just enough of a SecureChannel to record what the switch says."""

    connected = True

    def __init__(self):
        self.messages = []

    def to_controller(self, message):
        self.messages.append(message)


def _interpreted_apply(switch, frame, in_port, actions):
    """The per-frame action loop as it was before plans were compiled:
    re-derive the hand-over index, dispatch on isinstance."""
    if switch.compromised == "tag-strip" and frame.path_tag is not None:
        frame.path_tag = None
        switch.tags_stripped += 1
    outputs = 0
    stamped = False
    last_emit = -1
    for index, action in enumerate(actions):
        if isinstance(action, Output):
            last_emit = index
    if last_emit >= 0 and any(
        not isinstance(action, Output) for action in actions[last_emit + 1:]
    ):
        last_emit = -1
    for index, action in enumerate(actions):
        if isinstance(action, Output):
            if frame.path_tag is not None and not stamped:
                frame.path_tag = frame.path_tag.stamped(
                    switch.path_secret, switch.dpid)
                switch.path_marks_stamped += 1
                stamped = True
            emit = frame if index == last_emit else frame.clone()
            if action.port == CONTROLLER_PORT:
                switch._punt_to_controller(emit, in_port, reason="action")
            elif action.port == FLOOD_PORT:
                outputs += switch.flood(emit, in_port)
            else:
                out_port = action.port
                if (
                    switch.compromised == "misroute"
                    and frame.path_tag is not None
                    and switch.compromised_port is not None
                    and switch.compromised_port != out_port
                    and switch.compromised_port in switch.ports
                ):
                    out_port = switch.compromised_port
                    switch.frames_misrouted += 1
                if switch.send(emit, out_port):
                    outputs += 1
        elif isinstance(action, PopPathTag):
            if frame.path_tag is not None and not stamped:
                frame.path_tag = frame.path_tag.stamped(
                    switch.path_secret, switch.dpid)
                switch.path_marks_stamped += 1
                stamped = True
            tag = frame.path_tag
            frame.path_tag = None
            if tag is not None:
                switch.path_proofs_sent += 1
                switch._reply(msg.PathProofReport(
                    dpid=switch.dpid,
                    cookie=tag.descriptor.session_id,
                    descriptor=tag.descriptor,
                    marks=tag.marks,
                ))
        else:
            action.apply(frame)
    switch.packets_forwarded += outputs


def _interpreted_receive(switch, frame, in_port):
    """``OpenFlowSwitch.receive`` as it was: actions, not plans."""
    entry = switch.table.lookup(frame, in_port, switch.sim.now)
    if entry is None:
        switch._punt_to_controller(frame, in_port, reason="no_match")
        return
    if entry.is_drop:
        switch.packets_dropped += 1
        return
    actions = entry.actions
    if switch.compromised == "skip-waypoint" and frame.path_tag is not None:
        element_port = None
        for action in actions:
            if isinstance(action, Output) and action.port > 0:
                port = switch.ports.get(action.port)
                peer = port.peer() if port is not None else None
                if peer is not None and getattr(peer.node, "mac", None):
                    element_port = action.port
                break
        if element_port is not None:
            onward = switch.table.lookup(frame, element_port, switch.sim.now)
            if not (onward is None or onward.is_drop
                    or onward.actions == actions):
                switch.waypoints_skipped += 1
                actions = onward.actions
    switch.sim.schedule(
        switch.forwarding_delay_s, _interpreted_apply,
        switch, frame, in_port, actions,
    )


WIRED_PORTS = (1, 2, 3, 4)
ELEMENT_PORTS = (1, 2)  # their peers carry a MAC
DESCRIPTOR = PathDescriptor.for_path("secret", 17, (9, 9, 4))
OTHER_DESCRIPTOR = PathDescriptor.for_path("secret", 23, (9,))


def _random_actions(rng):
    actions = []
    for _ in range(rng.choice((0, 1, 1, 1, 2, 2, 3, 4, 5))):
        roll = rng.random()
        if roll < 0.45:
            # 5 has no port behind it: send() refuses, nothing counted.
            actions.append(Output(rng.choice(WIRED_PORTS + (5,))))
        elif roll < 0.53:
            actions.append(Output(FLOOD_PORT))
        elif roll < 0.61:
            actions.append(Output(CONTROLLER_PORT))
        elif roll < 0.71:
            actions.append(SetDlDst(f"rewritten-dst-{rng.randrange(3)}"))
        elif roll < 0.79:
            actions.append(SetDlSrc(f"rewritten-src-{rng.randrange(3)}"))
        elif roll < 0.89:
            actions.append(PushPathTag(OTHER_DESCRIPTOR))
        else:
            actions.append(PopPathTag())
    return tuple(actions)


def _random_case(rng):
    variant = rng.choice((None, None) + COMPROMISE_VARIANTS)
    return {
        "rules": {port: _random_actions(rng) for port in WIRED_PORTS},
        "variant": variant,
        # None, an unwired port and a wired one all occur.
        "misroute_port": rng.choice((None, 7) + WIRED_PORTS),
        # Every misbehavior acts on tagged frames only.
        "tagged": rng.random() < (0.6 if variant is None else 0.9),
        "marks": rng.choice(((), (111,), (111, 222))),
        "in_port": rng.choice(WIRED_PORTS + (6,)),  # 6: table miss
        "packet_out": variant != "skip-waypoint" and rng.random() < 0.2,
        "packet_out_actions": _random_actions(rng),
    }


def _run_case(case, interpreted):
    sim = Simulator()
    switch = OpenFlowSwitch(sim, "sw", dpid=9)
    switch.channel = channel = _Channel()
    sinks = {}
    for port in WIRED_PORTS:
        mac = f"element-{port}" if port in ELEMENT_PORTS else None
        sinks[port] = _Sink(sim, f"sink{port}", mac=mac)
        connect(sim, switch, sinks[port], port_a=port)
    for port, actions in case["rules"].items():
        switch.table.add(
            FlowEntry(match=Match(in_port=port), actions=actions), sim.now)
    if case["variant"] is not None:
        switch.compromise(case["variant"], port=case["misroute_port"])

    frame = pkt.make_udp("m1", "m2", "1.1.1.1", "2.2.2.2", 5, 6, size=200)
    if case["tagged"]:
        frame.path_tag = PathTag(descriptor=DESCRIPTOR, marks=case["marks"])
    in_port = case["in_port"]
    if case["packet_out"]:
        actions = case["packet_out_actions"]
        if interpreted:
            sim.schedule(switch.forwarding_delay_s, _interpreted_apply,
                         switch, frame, in_port, actions)
        else:
            switch.handle_of_message(
                msg.PacketOut(actions=actions, frame=frame, in_port=in_port))
    elif interpreted:
        _interpreted_receive(switch, frame, in_port)
    else:
        switch.receive(frame, in_port)
    sim.run(until=1.0)

    def seen(emitted):
        # ``emitted is frame`` tells a hand-over from a clone, so the
        # clone count is part of the comparison.
        return (emitted.src, emitted.dst, emitted.path_tag, emitted.size,
                emitted is frame)

    said = []
    for message in channel.messages:
        if isinstance(message, msg.PacketIn):
            said.append(("packet-in", message.in_port, message.reason,
                         seen(message.frame)))
        else:
            said.append(message)
    return {
        "delivered": {port: [seen(f) for f in sink.received]
                      for port, sink in sinks.items()},
        "said": said,
        "counters": {
            name: getattr(switch, name) for name in (
                "packets_forwarded", "packets_dropped", "packet_ins",
                "path_marks_stamped", "path_proofs_sent",
                "waypoints_skipped", "frames_misrouted", "tags_stripped",
            )
        },
        "table": (switch.table.lookups, switch.table.matched,
                  [(e.packets, e.bytes) for e in switch.table]),
        "ports": {number: (port.tx_packets, port.tx_bytes)
                  for number, port in sorted(switch.ports.items())},
        "frame_after": seen(frame),
    }


PLAN_CASES = 1000


class TestCompiledPlanAgainstInterpretedActions:
    def test_random_action_tuples_behave_identically(self):
        exercised = set()
        for seed in range(PLAN_CASES):
            case = _random_case(random.Random(seed))
            compiled = _run_case(case, interpreted=False)
            oracle = _run_case(case, interpreted=True)
            assert compiled == oracle, (seed, case)
            for name, value in compiled["counters"].items():
                if value:
                    exercised.add(name)
            if any(isinstance(m, msg.PathProofReport)
                   for m in compiled["said"]):
                exercised.add("proof-report")
        # The equivalence only counts where the special paths ran.
        assert exercised >= {
            "packets_forwarded", "packets_dropped", "packet_ins",
            "path_marks_stamped", "path_proofs_sent", "waypoints_skipped",
            "frames_misrouted", "tags_stripped", "proof-report",
        }

    def test_plan_hands_over_only_a_trailing_output(self):
        def hand_overs(*actions):
            return [step[2] for step in compile_actions(actions)]

        assert hand_overs(Output(1)) == [True]
        assert hand_overs(Output(1), Output(2)) == [False, True]
        assert hand_overs(SetDlDst("m"), Output(1)) == [False, True]
        # A rewrite (or pop) after the last output would mutate a frame
        # already in flight: every emission clones.
        assert hand_overs(Output(1), SetDlDst("m")) == [False, False]
        assert hand_overs(Output(1), PopPathTag()) == [False, False]
        assert hand_overs() == []


# ----------------------------------------------------------------------
# Run-ahead action stage vs. the posted forwarding-delay event

RUN_AHEAD_CASES = 24
MIXES = (
    (CbrUdpFlow,),
    (HttpFlow, SshFlow),
    (CbrUdpFlow, HttpFlow, SshFlow),
)
CHAINS = ((), ("ids",), ("l7", "ids"))


def _deployment_case(rng):
    chain = rng.choice(CHAINS)
    return {
        "topology": rng.choice(("linear", "fit")),
        "mix": rng.choice(MIXES),
        "chain": chain,
        # Path proofs only ride chained sessions.
        "accountability": bool(chain) and rng.random() < 0.5,
        "fluid": rng.random() < 0.5,
        "flows": rng.randrange(4, 10),
        "seed": rng.randrange(1 << 30),
    }


def _run_deployment(case, posted):
    kwargs = (
        {"num_as": 3, "hosts_per_as": 2} if case["topology"] == "linear"
        else {"num_ovs": 2, "num_aps": 2, "wired_users": 4,
              "wireless_users": 3}
    )
    chain = case["chain"]
    net = build_livesec_network(
        case["topology"],
        policies=gateway_ids_policies(chain=chain) if chain else None,
        elements=[(kind, 1) for kind in chain],
        accountability=case["accountability"],
        fluid=case["fluid"],
        # No port polls: one landing inside a gap counts the frame in
        # the switch as sent (pinned in test_of_switch.py).
        stats_interval_s=None,
        **kwargs,
    )
    if posted:
        oracles.post_forwarding_delays(net)
    # Every frame a host is handed, at the instant it is handed over.
    deliveries = []
    receive = Host.receive

    def recording(host, frame, in_port):
        deliveries.append(
            (host.name, host.sim.now, frame.flow_id, frame.size))
        receive(host, frame, in_port)

    Host.receive = recording
    try:
        _drive_deployment(net, case)
    finally:
        Host.receive = receive
    nodes = (net.topology.legacy + net.topology.all_openflow_switches()
             + net.topology.hosts + list(net.elements))
    return {
        "deliveries": deliveries,
        "rx_bytes_by_flow": {h.name: dict(h.rx_bytes_by_flow)
                             for h in net.topology.hosts},
        "ports": {
            (node.name, number): (port.tx_packets, port.tx_bytes,
                                  port.rx_packets, port.rx_bytes,
                                  port.tx_drops)
            for node in nodes for number, port in node.ports.items()
        },
        "digest": net.controller.log.digest(),
    }


def _drive_deployment(net, case):
    net.start()
    rng = random.Random(case["seed"])
    hosts = net.topology.user_hosts
    for _ in range(case["flows"]):
        src = rng.choice(hosts)
        if rng.random() < 0.5:
            dst_ip = GATEWAY_IP
        else:
            dst_ip = rng.choice([h for h in hosts if h is not src]).ip
        rng.choice(case["mix"])(
            net.sim, src, dst_ip,
            rate_bps=rng.choice((64e3, 400e3, 2e6)),
            packet_size=rng.choice((128, 512, 1500)),
            duration_s=rng.uniform(0.3, 1.5),
        ).start(rng.uniform(0.0, 0.4))
    net.run(2.5)


class TestRunAheadAgainstPostedForwarding:
    """``OpenFlowSwitch._forward`` runs the action stage at arrival with
    the clock reading departure; ``oracles.PostedForwardingSwitch``
    posts it as an event.  With no fault and no port poll landing inside
    a 25 us gap the two must be the same network: every frame a host
    is handed (host, instant, flow id, size), per-flow byte count, port
    counter and the controller's event-log digest."""

    def test_seeded_deployments_are_frame_for_frame_identical(self):
        seen = set()
        for seed in range(RUN_AHEAD_CASES):
            case = _deployment_case(random.Random(seed))
            ahead = _run_deployment(case, posted=False)
            assert ahead == _run_deployment(case, posted=True), (seed, case)
            assert any(flow_id is not None
                       for _, _, flow_id, _ in ahead["deliveries"]), case
            seen.add((case["topology"], case["chain"],
                      case["accountability"], case["fluid"]))
        # The comparison only counts where each dimension varied.
        assert {c[0] for c in seen} == {"linear", "fit"}
        assert {c[1] for c in seen} == set(CHAINS)
        assert {c[2] for c in seen} == {True, False}
        assert {c[3] for c in seen} == {True, False}
