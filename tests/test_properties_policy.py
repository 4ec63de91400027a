"""Property tests: the compiled policy table is observably identical
to the live table, and the index both are read through is observably
identical to the scans in ``tests/oracles.py`` (same pattern as
``test_properties_flowtable``)."""

import glob
import os
import random

from repro.core.policy import (
    CompiledPolicyTable,
    FlowSelector,
    Policy,
    PolicyAction,
    PolicyTable,
    _octet_prefix_match,
    ip_to_int,
    parse_cidr,
)
from repro.core import policy_compiler
from repro.core.policy_compiler import (
    PolicyIntent,
    compile_intents,
    normalize_intent,
    verify_rows,
)
from repro.core.policy_io import load_intents
from repro.net.packet import FlowNineTuple

from tests import oracles


class TestCompiledLiveEquivalence:
    """``CompiledPolicyTable.match`` must agree with
    ``PolicyTable.match`` -- winner *and* rows-scanned -- for every
    flow, over randomized intent sets mixing CIDRs, octet prefixes,
    exact IPs, ports and priorities.

    Seeded ``random`` (not hypothesis) so the run is deterministic and
    the case count is guaranteed: >= 500 table/flow combinations.
    """

    ZONES = ("10.0.0.0/16", "10.1.0.0/16", "10.1.128.0/17",
             "10.2.4.0/24", "0.0.0.0/0")
    # Whole octets, then the ones no address block stands for.
    PREFIXES = ("10.0.", "10.1", "10.2.4", "10", "", "10.3x", "10.300", "1")
    IPS = ("10.0.0.1", "10.1.0.2", "10.1.200.3", "10.2.4.9",
           "10.10.0.1", "192.168.1.1", "10.255.255.254")
    # Exact addresses that are not IPv4: opaque to the interval algebra.
    OPAQUE = ("gateway", "fe80::1", "10.1.0.2.3")
    PORTS = (80, 443, 22, 8080)
    PROTOS = (6, 17)
    MACS = ("aa:aa", "bb:bb", "cc:cc")
    VLANS = (10, 20)

    def _random_side(self, rng, side, kwargs):
        roll = rng.random()
        if roll < 0.3:
            kwargs[f"{side}_cidr"] = rng.choice(self.ZONES)
        elif roll < 0.5:
            kwargs[f"{side}_ip_prefix"] = rng.choice(self.PREFIXES)
        elif roll < 0.6:
            kwargs[f"{side}_ip"] = rng.choice(self.IPS)
        elif roll < 0.65:
            kwargs[f"{side}_ip"] = rng.choice(self.OPAQUE)
        if rng.random() < 0.1:  # a second constraint on the same side
            kwargs[f"{side}_ip_prefix"] = rng.choice(self.PREFIXES)

    def _random_selector(self, rng):
        kwargs = {}
        if rng.random() < 0.08:
            return FlowSelector()  # matches everything
        self._random_side(rng, "src", kwargs)
        self._random_side(rng, "dst", kwargs)
        if rng.random() < 0.4:
            kwargs["nw_proto"] = rng.choice(self.PROTOS)
        if rng.random() < 0.3:
            kwargs["tp_dst"] = rng.choice(self.PORTS)
        if rng.random() < 0.15:
            kwargs["vlan"] = rng.choice(self.VLANS)
        if rng.random() < 0.1:
            kwargs["src_mac"] = rng.choice(self.MACS)
        return FlowSelector(**kwargs)

    def _random_intent(self, rng, index):
        action = rng.choice(
            (PolicyAction.ALLOW, PolicyAction.DROP, PolicyAction.CHAIN)
        )
        return PolicyIntent(
            name=f"intent-{index}",
            action=action,
            selector=self._random_selector(rng),
            service_chain=("ids",) if action is PolicyAction.CHAIN else (),
            priority=rng.choice((50, 100, 100, 100, 200)),  # ties abound
        )

    def _random_flow(self, rng):
        return FlowNineTuple(
            vlan=rng.choice((None, None) + self.VLANS),
            dl_src=rng.choice(self.MACS), dl_dst="bb:bb", dl_type=0x0800,
            nw_src=rng.choice(self.IPS),
            nw_dst=rng.choice(self.IPS),
            nw_proto=rng.choice(self.PROTOS),
            tp_src=rng.randint(1024, 65535),
            tp_dst=rng.choice(self.PORTS),
        )

    def test_compiled_match_equivalent_to_live_table(self):
        cases = 0
        for seed in range(40):
            rng = random.Random(seed)
            intents = [
                self._random_intent(rng, index)
                for index in range(rng.randint(1, 12))
            ]
            default = rng.choice((PolicyAction.ALLOW, PolicyAction.DROP))
            # The artifact (conflicts allowed: equivalence must hold for
            # messy tables too, not just verified ones)...
            compiled = compile_intents(
                intents, default_action=default
            ).table
            # ...and the live oracle, built through single-row commits
            # in intent order (incremental stable sorts == one final
            # stable sort, so the scan order must come out identical).
            live = PolicyTable(default_action=default)
            for intent in intents:
                live.begin().add(normalize_intent(intent)).commit()
            assert [p.name for p in compiled] == [p.name for p in live]
            assert compiled.default_action is live.default_action
            for _ in range(15):
                probe = self._random_flow(rng)
                hit_c, scanned_c = compiled.match(probe)
                hit_l, scanned_l = live.match(probe)
                assert (hit_c is None) == (hit_l is None), (seed, probe)
                if hit_c is not None:
                    assert hit_c.name == hit_l.name, (seed, probe)
                assert scanned_c == scanned_l, (seed, probe)
                cases += 1
        assert cases >= 500, f"only {cases} randomized lookups exercised"

    def test_apply_compiled_preserves_match_behavior(self):
        """Swapping an artifact into a live table keeps every lookup
        identical to querying the artifact directly."""
        cases = 0
        for seed in range(10):
            rng = random.Random(1000 + seed)
            intents = [
                self._random_intent(rng, index)
                for index in range(rng.randint(1, 8))
            ]
            compiled = compile_intents(intents).table
            live = PolicyTable()
            live.apply_compiled(compiled)
            for _ in range(10):
                probe = self._random_flow(rng)
                hit_c, scanned_c = compiled.match(probe)
                hit_l, scanned_l = live.match(probe)
                assert scanned_c == scanned_l
                assert (hit_c.name if hit_c else None) == \
                    (hit_l.name if hit_l else None)
                cases += 1
        assert cases >= 100


def reference_cidr_contains(cidr, ip):
    """``cidr_contains`` as it stood when every table row re-parsed
    the flow's address."""
    if ip is None:
        return False
    network, length = parse_cidr(cidr)
    try:
        value = ip_to_int(ip)
    except ValueError:
        return False
    mask = ((1 << length) - 1) << (32 - length) if length else 0
    return (value & mask) == network


def reference_matches(selector, flow):
    """``FlowSelector.matches`` before the parse-once change: the
    oracle for the selector semantics."""
    checks = (
        (selector.src_mac, flow.dl_src),
        (selector.dst_mac, flow.dl_dst),
        (selector.src_ip, flow.nw_src),
        (selector.dst_ip, flow.nw_dst),
        (selector.nw_proto, flow.nw_proto),
        (selector.tp_src, flow.tp_src),
        (selector.tp_dst, flow.tp_dst),
        (selector.vlan, flow.vlan),
    )
    for want, got in checks:
        if want is not None and want != got:
            return False
    if selector.src_ip_prefix is not None:
        if flow.nw_src is None or not _octet_prefix_match(
            selector.src_ip_prefix, flow.nw_src
        ):
            return False
    if selector.dst_ip_prefix is not None:
        if flow.nw_dst is None or not _octet_prefix_match(
            selector.dst_ip_prefix, flow.nw_dst
        ):
            return False
    if selector.src_cidr is not None:
        if not reference_cidr_contains(selector.src_cidr, flow.nw_src):
            return False
    if selector.dst_cidr is not None:
        if not reference_cidr_contains(selector.dst_cidr, flow.nw_dst):
            return False
    return True


def reference_table_match(table, flow):
    for scanned, policy in enumerate(table, start=1):
        if reference_matches(policy.selector, flow):
            return policy, scanned
    return None, len(table)


class TestParseOnceMatcher:
    """``PolicyTable.match`` parses the flow's addresses once and each
    row compares integers; winner and rows-scanned must equal the
    row-by-row string semantics, including for addresses that are not
    IPv4 at all (they fall inside no CIDR, ``0.0.0.0/0`` included)."""

    ODD_ADDRESSES = (None, "", "10.0.0", "300.1.1.1", "10.1.0.2.3",
                     "::1", "fe80::1", "2001:db8::10.1.0.2", "gateway")
    generator = TestCompiledLiveEquivalence()

    def _random_flow(self, rng):
        flow = self.generator._random_flow(rng)
        if rng.random() < 0.4:
            flow = flow._replace(nw_src=rng.choice(self.ODD_ADDRESSES))
        if rng.random() < 0.4:
            flow = flow._replace(nw_dst=rng.choice(self.ODD_ADDRESSES))
        return flow

    def test_match_equals_per_row_reference(self):
        cases = odd = 0
        for seed in range(60):
            rng = random.Random(5000 + seed)
            table = PolicyTable()
            txn = table.begin()
            for index in range(rng.randint(1, 12)):
                txn.add(Policy(
                    name=f"row-{index}",
                    selector=self.generator._random_selector(rng),
                    action=rng.choice((PolicyAction.ALLOW, PolicyAction.DROP)),
                    priority=rng.choice((50, 100, 100, 200)),
                ))
            txn.commit()
            for _ in range(20):
                probe = self._random_flow(rng)
                want, want_scanned = reference_table_match(table, probe)
                got, got_scanned = table.match(probe)
                assert got is want, (seed, probe)
                assert got_scanned == want_scanned, (seed, probe)
                for policy in table:
                    # The single-selector entry point parses for itself.
                    assert policy.selector.matches(probe) == \
                        reference_matches(policy.selector, probe), (seed, probe)
                odd += (probe.nw_src in self.ODD_ADDRESSES
                        or probe.nw_dst in self.ODD_ADDRESSES)
                cases += 1
        assert cases >= 1000 and odd >= 300, (cases, odd)

    def test_non_ipv4_matches_no_cidr_but_other_rows_still_win(self):
        table = PolicyTable()
        txn = table.begin()
        txn.add(Policy("everything", FlowSelector(src_cidr="0.0.0.0/0"),
                       PolicyAction.DROP, priority=200))
        txn.add(Policy("web", FlowSelector(tp_dst=80), PolicyAction.ALLOW))
        txn.commit()
        for src in self.ODD_ADDRESSES:
            flow = FlowNineTuple(None, "a", "b", 0x0800, src, "10.0.0.2",
                                 6, 1, 80)
            hit, scanned = table.match(flow)
            assert (hit.name, scanned) == ("web", 2), src


def _counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` so calls are counted; returns the counter."""
    calls = [0]
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestPolicyIndex:
    """The index prunes and nothing else: ``match`` is
    ``oracles.first_match`` on winner *and* rows scanned, and
    ``verify_rows`` is ``oracles.verify_rows_all_pairs`` as a list, on
    seeded tables full of what the index cannot key (opaque exact
    addresses, string prefixes that are not whole octets, contradictory
    sides), of priority ties, match-everything rows and VLANs, probed
    with flows whose addresses are not IPv4 either."""

    TABLES = 300
    PROBES = 10  # per table state; three states per table
    generator = TestCompiledLiveEquivalence()
    odd = TestParseOnceMatcher()

    def _random_rows(self, rng, count):
        return [
            normalize_intent(self.generator._random_intent(rng, index))
            for index in range(count)
        ]

    def _assert_matches_oracle(self, table, rng, context):
        rows = list(table)
        for _ in range(self.PROBES):
            probe = self.odd._random_flow(rng)
            want, want_scanned = oracles.first_match(rows, probe)
            got, got_scanned = table.match(probe)
            assert got is want, (context, probe)
            assert got_scanned == want_scanned, (context, probe)
        return self.PROBES

    def test_match_equals_first_match_oracle(self):
        cases = 0
        for seed in range(self.TABLES):
            rng = random.Random(9000 + seed)
            rows = self._random_rows(rng, rng.randint(1, 14))
            table = PolicyTable()
            txn = table.begin()
            for row in rows[:-1]:
                txn.add(row)
            txn.commit()
            cases += self._assert_matches_oracle(table, rng, (seed, "commit"))
            # One-row transactions rebuild the index too.
            table.add(rows[-1])
            table.remove(rng.choice(rows).name)
            cases += self._assert_matches_oracle(table, rng, (seed, "add/remove"))
            compiled = CompiledPolicyTable(rows)
            cases += self._assert_matches_oracle(compiled, rng, (seed, "compiled"))
            table.apply_compiled(compiled)
            assert [p.name for p in table] == [p.name for p in compiled]
            cases += self._assert_matches_oracle(table, rng, (seed, "applied"))
        assert cases >= 300 * 30, cases

    def test_verify_rows_equals_all_pairs_oracle(self):
        findings = 0
        for seed in range(self.TABLES):
            rng = random.Random(9000 + seed)
            table = CompiledPolicyTable(
                self._random_rows(rng, rng.randint(1, 14))
            )
            got = verify_rows(table, service_types=("ids",))
            assert got == oracles.verify_rows_all_pairs(
                list(table), service_types=("ids",)
            ), seed
            findings += len(got)
        assert findings >= 1000, findings  # the tables are messy on purpose

    def test_verify_rows_equals_all_pairs_on_example_documents(self):
        here = os.path.dirname(os.path.abspath(__file__))
        documents = sorted(glob.glob(
            os.path.join(here, "..", "examples", "policies", "*.json")
        ))
        assert documents
        for path in documents:
            intents, default = load_intents(path)
            table = compile_intents(intents, default_action=default).table
            assert verify_rows(table) == oracles.verify_rows_all_pairs(list(table)), path

    def _zone_table(self, zones):
        """The perf ledger's population: one gateway chain after
        ``zones`` disjoint /24 work zones."""
        intents = [PolicyIntent(
            name="inspect-internet", action=PolicyAction.CHAIN,
            selector=FlowSelector(dst_ip="10.255.255.254"),
            service_chain=("ids",), priority=200,
        )]
        for index in range(zones):
            intents.append(PolicyIntent(
                name=f"zone-{index}",
                action=(PolicyAction.ALLOW, PolicyAction.DROP)[index % 2],
                dst_zone=f"172.{16 + (index >> 8)}.{index & 0xFF}.0/24",
                priority=300 + index,
            ))
        return intents

    def test_work_is_counted_in_candidates_not_rows(self, monkeypatch):
        """2 000 disjoint zones plus the gateway chain: the verifier
        evaluates the algebra on at most n pairs (1 999 000 before the
        index) and a lookup confirms at most one row per signature --
        counted, not timed."""
        intents = self._zone_table(2000)
        overlaps = _counting(monkeypatch, policy_compiler, "space_overlap")
        result = compile_intents(intents, service_types=("ids",))
        assert result.findings == []
        assert overlaps[0] <= len(intents), overlaps[0]
        table = result.table
        signatures = len(table._index._groups)
        assert signatures == 2 and not table._index._residual
        confirms = _counting(monkeypatch, FlowSelector, "matches")
        probes = (
            ("172.20.7.9", "zone-1031", 2000 - 1031),
            ("10.255.255.254", "inspect-internet", 2001),
            ("192.168.0.1", None, 2001),
        )
        for dst, winner, scanned in probes:
            confirms[0] = 0
            flow = FlowNineTuple(None, "a", "b", 0x0800, "10.0.0.1", dst,
                                 17, 1, 9000)
            hit, depth = table.match(flow)
            assert confirms[0] <= signatures, (dst, confirms[0])
            assert (hit.name if hit else None, depth) == (winner, scanned)
            assert (hit, depth) == oracles.first_match(list(table), flow)

    def test_pairs_the_index_must_not_prune_are_still_reported(self):
        """A wildcard row over a zone, a /16 over a nested /24 and one
        zone under two ports sit in different signatures (or buckets of
        one signature's neighbours); each conflict still surfaces."""
        result = compile_intents([
            PolicyIntent("everything", PolicyAction.DROP, priority=400),
            PolicyIntent("zone", PolicyAction.ALLOW,
                         dst_zone="172.31.5.0/24", priority=300),
            PolicyIntent("campus", PolicyAction.DROP,
                         dst_zone="172.31.0.0/16", priority=250),
            PolicyIntent("zone-web", PolicyAction.ALLOW,
                         dst_zone="172.31.5.0/24",
                         selector=FlowSelector(tp_dst=80), priority=200),
            PolicyIntent("zone-ssh", PolicyAction.DROP,
                         dst_zone="172.31.5.0/24",
                         selector=FlowSelector(tp_dst=22), priority=200),
            PolicyIntent("elsewhere", PolicyAction.ALLOW,
                         dst_zone="172.30.5.0/24", priority=100),
        ])
        found = {(f.kind, f.policies) for f in result.findings}
        assert ("shadowed", ("everything", "zone")) in found
        assert ("redundant", ("everything", "campus")) in found
        assert ("redundant", ("zone", "zone-web")) in found
        assert ("shadowed", ("zone", "zone-ssh")) in found
        assert ("shadowed", ("campus", "zone-web")) in found
        assert ("shadowed", ("everything", "elsewhere")) in found
        # Disjoint zones and ports meet nowhere.
        assert not any(
            set(f.policies) in ({"zone", "elsewhere"}, {"zone-web", "zone-ssh"})
            for f in result.findings
        )
        assert result.findings == oracles.verify_rows_all_pairs(
            list(result.table)
        )

    def test_contradiction_across_signatures_is_reported(self):
        """Equal priority, opposed effects, partial overlap -- one row
        keyed on a zone, the other on a port."""
        table = PolicyTable()
        txn = table.begin()
        txn.add(Policy("lab", FlowSelector(src_cidr="10.1.0.0/16"),
                       PolicyAction.DROP))
        txn.add(Policy("web", FlowSelector(tp_dst=80), PolicyAction.ALLOW))
        kinds = [(f.kind, f.policies) for f in txn.validate()]
        assert kinds == [("contradictory", ("lab", "web"))]
        import pytest

        with pytest.raises(policy_compiler.PolicyConflictError):
            txn.commit(verify=True)
        assert len(table) == 0


class TestSelectorRegressions:
    """Octet-boundary and CIDR selector semantics (the '10.1' vs
    10.10.0.1 bug)."""

    def flow(self, src, dst="10.0.0.2"):
        return FlowNineTuple(None, "a", "b", 0x0800, src, dst, 6, 1, 80)

    def test_bare_prefix_is_octet_aligned(self):
        selector = FlowSelector(src_ip_prefix="10.1")
        assert selector.matches(self.flow("10.1.0.1"))
        assert selector.matches(self.flow("10.1.255.9"))
        assert not selector.matches(self.flow("10.10.0.1"))
        assert not selector.matches(self.flow("10.100.0.1"))

    def test_trailing_dot_prefix_keeps_historical_shape(self):
        selector = FlowSelector(src_ip_prefix="10.1.")
        assert selector.matches(self.flow("10.1.0.1"))
        assert not selector.matches(self.flow("10.10.0.1"))

    def test_exact_prefix_equals_ip(self):
        selector = FlowSelector(src_ip_prefix="10.1.0.1")
        assert selector.matches(self.flow("10.1.0.1"))
        assert not selector.matches(self.flow("10.1.0.10"))

    def test_cidr_selectors(self):
        selector = FlowSelector(src_cidr="10.1.128.0/17",
                                dst_cidr="10.0.0.0/16")
        assert selector.matches(self.flow("10.1.200.1", "10.0.3.4"))
        assert not selector.matches(self.flow("10.1.0.1", "10.0.3.4"))
        assert not selector.matches(self.flow("10.1.200.1", "10.9.3.4"))

    def test_cidr_validated_at_construction(self):
        import pytest

        with pytest.raises(ValueError):
            FlowSelector(src_cidr="10.1.0.1/16")  # host bits
        with pytest.raises(ValueError):
            FlowSelector(dst_cidr="10.1.0.0")  # no length

    def test_cidr_counts_toward_specificity(self):
        wide = FlowSelector(src_cidr="10.0.0.0/16")
        narrow = FlowSelector(src_cidr="10.0.0.0/16", tp_dst=80)
        assert narrow.specificity() > wide.specificity()

    def test_policy_table_orders_cidr_policies(self):
        table = PolicyTable()
        txn = table.begin()
        txn.add(Policy(name="wide", selector=FlowSelector(
            src_cidr="10.0.0.0/16"), action=PolicyAction.ALLOW))
        txn.add(Policy(name="narrow", selector=FlowSelector(
            src_cidr="10.0.0.0/16", tp_dst=80), action=PolicyAction.DROP))
        txn.commit()
        hit, _ = table.match(self.flow("10.0.0.1"))
        assert hit.name == "narrow"  # specificity breaks the tie
