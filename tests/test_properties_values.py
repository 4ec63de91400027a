"""Value semantics of the control plane's per-session NamedTuples.

``Match`` and ``RuleSpec`` were frozen dataclasses.  Sets and dicts
keyed by them (the flow table's ``(match, priority)`` index, the keep
set of steering's reconcile) and every printed form reach the event
log and journal digests, so the NamedTuples must keep what the
dataclasses had: the hash of the field tuple in field order, field-wise
replacement, the printed forms, and no equality across value types.
The oracles are frozen dataclasses with the same names and fields.
"""

import dataclasses
import random

from repro.core.routing import RuleSpec
from repro.net.packet import FlowNineTuple
from repro.openflow.actions import Output, SetDlDst, SetDlSrc
from repro.openflow.match import Match

FrozenMatch = dataclasses.make_dataclass(
    "Match", [(name, object, None) for name in Match._fields], frozen=True,
)
FrozenRuleSpec = dataclasses.make_dataclass(
    "RuleSpec",
    [
        (name, object) if name not in RuleSpec._field_defaults
        else (name, object, RuleSpec._field_defaults[name])
        for name in RuleSpec._fields
    ],
    frozen=True,
)

MACS = ("02:00:00:00:00:01", "02:00:00:00:00:02", "01:80:c2:00:00:00")
IPS = ("10.0.0.1", "10.0.0.2", "192.168.1.9")
POOLS = {
    "in_port": (1, 2, 3, 65534),
    "dl_src": MACS,
    "dl_dst": MACS,
    "dl_type": (0x0800, 0x0806),
    "dl_vlan": (7, 100),
    "dl_vlan_pcp": (0, 5),
    "nw_src": IPS,
    "nw_dst": IPS,
    "nw_proto": (1, 6, 17),
    "nw_tos": (0, 4),
    "tp_src": (53, 1000, 40000),
    "tp_dst": (22, 80, 443),
}

SEEDS = range(8)
VALUES_PER_SEED = 250


def random_match(rng):
    return Match(**{
        name: rng.choice(pool)
        for name, pool in POOLS.items()
        if rng.random() < 0.6
    })


def random_actions(rng):
    pool = (Output(1), Output(2), SetDlDst(MACS[0]), SetDlSrc(MACS[1]))
    return tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))


def random_rule(rng):
    return RuleSpec(
        dpid=rng.randint(1, 4),
        match=random_match(rng),
        actions=random_actions(rng),
        priority=rng.choice((1, 100, 200, 210)),
        idle_timeout=rng.choice((0.0, 5.0)),
        hard_timeout=rng.choice((0.0, 1.0)),
        cookie=rng.randint(0, 3),
        send_flow_removed=rng.random() < 0.3,
    )


def random_nine(rng):
    return FlowNineTuple(
        vlan=rng.choice((None, 7)),
        dl_src=rng.choice(MACS),
        dl_dst=rng.choice(MACS),
        dl_type=0x0800,
        nw_src=rng.choice(IPS),
        nw_dst=rng.choice(IPS),
        nw_proto=rng.choice((6, 17)),
        tp_src=rng.choice(POOLS["tp_src"]),
        tp_dst=rng.choice(POOLS["tp_dst"]),
    )


def values(seed):
    rng = random.Random(seed)
    for _ in range(VALUES_PER_SEED):
        yield random_match(rng)
        yield random_rule(rng)


def frozen(value):
    """The frozen dataclass the value used to be."""
    oracle = FrozenMatch if isinstance(value, Match) else FrozenRuleSpec
    return oracle(*value)


def test_hash_is_the_frozen_dataclass_hash():
    for seed in SEEDS:
        for value in values(seed):
            fields = tuple(getattr(value, name) for name in value._fields)
            assert hash(value) == hash(fields) == hash(frozen(value))


def test_replace_agrees_with_fieldwise_construction():
    for seed in SEEDS:
        rng = random.Random(seed)
        for value in values(seed):
            kind = type(value)
            name = rng.choice(kind._fields)
            donor = random_match(rng) if kind is Match else random_rule(rng)
            new = getattr(donor, name)
            replaced = value._replace(**{name: new})
            built = kind(**{**value._asdict(), name: new})
            assert type(replaced) is kind
            assert replaced == built
            assert hash(replaced) == hash(built)
            for other in kind._fields:
                expected = new if other == name else getattr(value, other)
                assert getattr(replaced, other) == expected


def test_printed_forms_match_the_dataclass_forms():
    """Pinned from the frozen dataclasses, plus the oracle's ``repr``
    over generated values."""
    nine = FlowNineTuple(7, MACS[0], MACS[1], 0x0800, "10.0.0.1",
                         "10.0.0.2", 6, 40000, 80)
    exact = Match.from_nine_tuple(nine, in_port=3)
    assert str(Match()) == "Match(any)"
    assert repr(Match()) == (
        "Match(in_port=None, dl_src=None, dl_dst=None, dl_type=None,"
        " dl_vlan=None, dl_vlan_pcp=None, nw_src=None, nw_dst=None,"
        " nw_proto=None, nw_tos=None, tp_src=None, tp_dst=None)"
    )
    partial = Match(in_port=1, dl_src=MACS[0], tp_dst=80)
    assert str(partial) == \
        "Match(in_port=1, dl_src=02:00:00:00:00:01, tp_dst=80)"
    assert str(exact) == (
        "Match(in_port=3, dl_src=02:00:00:00:00:01,"
        " dl_dst=02:00:00:00:00:02, dl_type=2048, dl_vlan=7,"
        " nw_src=10.0.0.1, nw_dst=10.0.0.2, nw_proto=6, tp_src=40000,"
        " tp_dst=80)"
    )
    exact_repr = (
        "Match(in_port=3, dl_src='02:00:00:00:00:01',"
        " dl_dst='02:00:00:00:00:02', dl_type=2048, dl_vlan=7,"
        " dl_vlan_pcp=None, nw_src='10.0.0.1', nw_dst='10.0.0.2',"
        " nw_proto=6, nw_tos=None, tp_src=40000, tp_dst=80)"
    )
    assert repr(exact) == exact_repr
    rule = RuleSpec(dpid=5, match=exact,
                    actions=(SetDlDst("02:00:00:00:00:09"), Output(2)),
                    cookie=17, send_flow_removed=True)
    rule_repr = (
        f"RuleSpec(dpid=5, match={exact_repr},"
        " actions=(SetDlDst(mac='02:00:00:00:00:09'), Output(port=2)),"
        " priority=100, idle_timeout=5.0, hard_timeout=0.0, cookie=17,"
        " send_flow_removed=True)"
    )
    assert repr(rule) == str(rule) == rule_repr
    for seed in SEEDS:
        for value in values(seed):
            assert repr(value) == repr(frozen(value))
            if isinstance(value, RuleSpec):
                assert str(value) == repr(value)


def test_no_value_type_equals_another():
    """Tuple equality ignores the type, so the three NamedTuples of the
    control plane must differ in length: a Match, a RuleSpec and a
    FlowNineTuple built from the same items never compare equal."""
    lengths = {len(kind._fields) for kind in (Match, RuleSpec, FlowNineTuple)}
    assert len(lengths) == 3
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(VALUES_PER_SEED):
            nine = random_nine(rng)
            match = Match.from_nine_tuple(nine, in_port=rng.randint(1, 3))
            rule = random_rule(rng)
            # Each type rebuilt from another's leading items.
            kin = (
                Match(*nine),
                Match(*rule),
                RuleSpec(*match[:8]),
                RuleSpec(*nine[:8]),
                FlowNineTuple(*match[:9]),
                FlowNineTuple(*rule, None),
            )
            pool = (nine, match, rule) + kin
            for a in pool:
                for b in pool:
                    if type(a) is not type(b):
                        assert a != b and not a == b
            assert len({nine, match, rule}) == 3


def test_reconcile_keys_dedupe_as_with_dataclasses():
    """``SteeringApp._reconcile``'s ``(dpid, match, priority)`` keep set
    holds, finds and iterates exactly what it did with the frozen
    dataclass match, including for equal matches built apart."""
    for seed in SEEDS:
        rng = random.Random(seed)
        rules = [random_rule(rng) for _ in range(60)]
        # Equal keys from fresh objects: rebuilt matches, other actions.
        rules += [
            rule._replace(match=Match(*rule.match),
                          actions=random_actions(rng))
            for rule in rng.sample(rules, 20)
        ]
        rng.shuffle(rules)
        keep = {(r.dpid, r.match, r.priority) for r in rules}
        oracle = {(r.dpid, frozen(r.match), r.priority) for r in rules}
        assert [(d, tuple(m), p) for d, m, p in keep] == [
            (d, tuple(getattr(m, name) for name in Match._fields), p)
            for d, m, p in oracle
        ]
        for probe in rules + [random_rule(rng) for _ in range(60)]:
            key = (probe.dpid, Match(*probe.match), probe.priority)
            old_key = (probe.dpid, frozen(probe.match), probe.priority)
            assert (key in keep) == (old_key in oracle)
