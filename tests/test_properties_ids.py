"""The IDS needle screen against the unscreened rule loop.

``IntrusionDetectionElement.inspect`` searches the payload once for
every clause needle and evaluates only the rules without a content
clause when nothing is found; ``oracles.ids_inspect_unscreened`` runs
every rule on every payload.  Seeded ``random`` (not hypothesis) so the
case count is fixed: generated rule sets with multi-clause rules,
offset / depth windows with needles placed just inside and just outside
them, mixed-case payloads for ``nocase`` clauses, flag-only rules and
an empty-content rule, plus the shipped ``DEFAULT_IDS_RULES``.
"""

import random

from repro.elements import IntrusionDetectionElement
from repro.elements.signatures import DEFAULT_IDS_RULES, ContentMatch, IdsRule
from repro.net import packet as pkt
from repro.net.packet import IP_PROTO_TCP, IP_PROTO_UDP, extract_nine_tuple
from repro.net.simulator import Simulator
from tests import oracles

ALPHABET = b"abcAB.-/"
CASES = 300
FRAMES_PER_CASE = 40


def element(rules):
    return IntrusionDetectionElement(
        Simulator(), "ids", pkt.mac_address(9), pkt.ip_address(9),
        rules=rules)


def _needle(rng, low=1):
    return bytes(rng.choice(ALPHABET) for _ in range(rng.randint(low, 4)))


def _clause(rng):
    return ContentMatch(
        _needle(rng), nocase=rng.random() < 0.4,
        offset=rng.choice((0, 0, 1, 3, 6)),
        depth=rng.choice((None, None, 2, 5, 9)),
    )


def _rule(rng, index):
    kind = rng.random()
    constraints = {
        "nw_proto": rng.choice((None, None, IP_PROTO_TCP, IP_PROTO_UDP)),
        "tp_dst": rng.choice((None, None, 80, 22)),
        "tcp_flags": rng.choice((None, None, None, "S", "")),
    }
    name = f"RULE {index}|{kind:.2f}"
    if kind < 0.15:  # flag-only: no content clause at all
        constraints["tcp_flags"] = rng.choice(("S", ""))
        return IdsRule(name=name, **constraints)
    if kind < 0.25:  # no constraint whatsoever: never fires
        return IdsRule(name=name, nw_proto=constraints["nw_proto"])
    shorthand = _needle(rng) if kind < 0.6 else None
    return IdsRule(
        name=name, content=shorthand, nocase=rng.random() < 0.4,
        contents=tuple(_clause(rng) for _ in range(rng.randint(
            0 if shorthand is not None else 1, 3))),
        **constraints,
    )


def _rules(rng):
    rules = [_rule(rng, index) for index in range(rng.randint(1, 8))]
    if rng.random() < 0.1:
        rules.insert(rng.randrange(len(rules) + 1),
                     IdsRule(name="EMPTY content", content=b""))
    return rules


def _recase(rng, data):
    return bytes(
        byte ^ 0x20 if chr(byte).isalpha() and rng.random() < 0.5 else byte
        for byte in data)


def _noise(rng, length):
    return bytes(rng.choice(ALPHABET) for _ in range(length))


def _payload(rng, rules):
    """Noise, or a clause's needle at the edge of its window."""
    clauses = [clause for rule in rules for clause in rule.clauses]
    if not clauses or rng.random() < 0.3:
        return _recase(rng, _noise(rng, rng.randint(0, 14)))
    clause = rng.choice(clauses)
    needle = clause.content
    if clause.nocase:
        needle = _recase(rng, needle)
    start = clause.offset
    if clause.depth is not None:
        # Last start inside the window, and one past it.
        start += max(0, clause.depth - len(needle)) + rng.choice((0, 1))
    start = max(0, start + rng.choice((-1, 0, 0)))
    payload = _noise(rng, start) + needle + _noise(rng, rng.randint(0, 4))
    if rng.random() < 0.3:  # a second clause anywhere
        payload += rng.choice(clauses).content
    return payload


def _frame(rng, payload):
    sport = rng.choice((1000, 1001))  # repeat flows: alerts deduplicate
    dport = rng.choice((80, 22, 9000))
    if rng.random() < 0.7:
        return pkt.make_tcp("m1", "m2", "10.0.0.1", "10.0.0.9", sport, dport,
                            payload=payload, flags=rng.choice(("S", "", "A")))
    return pkt.make_udp("m1", "m2", "10.0.0.1", "10.0.0.9", sport, dport,
                        payload=payload)


def _verdicts(verdicts):
    return [(v.kind, v.detail) for v in verdicts]


def _run(rules, frames):
    screened, reference = element(rules), element(rules)
    for frame in frames:
        flow = extract_nine_tuple(frame)
        got = screened.inspect(frame, flow)
        want = oracles.ids_inspect_unscreened(reference, frame, flow)
        assert _verdicts(got) == _verdicts(want), (rules, frame)
    assert screened._alerted == reference._alerted
    assert screened.alerts == reference.alerts
    return screened


def _screen_passes(ids, payload):
    return any(screen.search(payload) for screen in ids._screens)


class TestNeedleScreen:
    def test_generated_rule_sets_match_the_unscreened_loop(self):
        skipped = passed = alerted = 0
        for seed in range(CASES):
            rng = random.Random(seed)
            rules = _rules(rng)
            frames = [_frame(rng, _payload(rng, rules))
                      for _ in range(FRAMES_PER_CASE)]
            ids = _run(rules, frames)
            alerted += ids.alerts
            for frame in frames:
                if _screen_passes(ids, frame.app_payload()):
                    passed += 1
                else:
                    skipped += 1
        # The equivalence only counts where both branches ran and fired.
        assert skipped > 1000 and passed > 1000 and alerted > 1000

    def test_default_rules_match_the_unscreened_loop(self):
        needles = [clause.content for rule in DEFAULT_IDS_RULES
                   for clause in rule.clauses]
        benign = [b"", b"GET /index.html HTTP/1.1\r\n", b"piece-data" * 4,
                  b"SSH-2.0-OpenSSH_5.8p1", b"CBRDATA17"]
        rng = random.Random(7)
        frames = []
        for _ in range(400):
            payload = rng.choice(benign)
            if rng.random() < 0.4:
                cut = rng.randint(0, len(payload))
                payload = payload[:cut] + rng.choice(needles) + payload[cut:]
            frames.append(_frame(rng, payload))
        frames.append(pkt.make_tcp("m1", "m2", "10.0.0.1", "10.0.0.9", 5,
                                   31337, flags="S"))
        ids = _run(DEFAULT_IDS_RULES, frames)
        assert ids.alerts > len(DEFAULT_IDS_RULES)

    def test_a_benign_payload_evaluates_only_the_bodiless_rules(
            self, monkeypatch):
        ids = element(DEFAULT_IDS_RULES)
        assert ids._bodiless == tuple(
            rule for rule in DEFAULT_IDS_RULES if not rule.clauses)
        evaluated = []
        matches = IdsRule.matches

        def counting(rule, *args, **kwargs):
            evaluated.append(rule)
            return matches(rule, *args, **kwargs)

        monkeypatch.setattr(IdsRule, "matches", counting)
        frame = pkt.make_tcp("m1", "m2", "10.0.0.1", "10.0.0.9", 1000, 80,
                             payload=b"HTTP/1.1 200 OK payload segment 3")
        assert ids.inspect(frame, extract_nine_tuple(frame)) == []
        assert evaluated == list(ids._bodiless) and len(evaluated) == 1
        evaluated.clear()
        attack = pkt.make_tcp("m1", "m2", "10.0.0.1", "10.0.0.9", 1000, 80,
                              payload=b"GET /malware/dropper.exe HTTP/1.1")
        assert len(ids.inspect(attack, extract_nine_tuple(attack))) == 1
        assert evaluated == list(DEFAULT_IDS_RULES)

    def test_an_empty_needle_always_passes_the_screen(self):
        ids = element((IdsRule(name="EMPTY", content=b""),
                       IdsRule(name="NOP", content=b"\x90\x90")))
        assert _screen_passes(ids, b"")
        frame = pkt.make_udp("m1", "m2", "10.0.0.1", "10.0.0.9", 1, 2)
        assert [v.detail["attack"] for v in ids.inspect(
            frame, extract_nine_tuple(frame))] == ["EMPTY"]
