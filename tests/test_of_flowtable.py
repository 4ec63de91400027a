"""Unit tests for flow tables: priorities, timeouts, OF semantics."""

import random

import pytest

from repro.net import packet as pkt
from repro.openflow.actions import Output
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.match import Match


def frame():
    return pkt.make_tcp("m1", "m2", "1.1.1.1", "2.2.2.2", 1000, 80)


def entry(match=None, priority=100, actions=(Output(1),), **kwargs):
    return FlowEntry(match=match or Match(), priority=priority,
                     actions=tuple(actions), **kwargs)


class TestLookup:
    def test_miss_on_empty_table(self):
        table = FlowTable()
        assert table.lookup(frame(), 1, now=0.0) is None
        assert table.lookups == 1 and table.matched == 0

    def test_highest_priority_wins(self):
        table = FlowTable()
        table.add(entry(priority=10, actions=(Output(1),)), now=0.0)
        table.add(entry(priority=200, actions=(Output(2),)), now=0.0)
        table.add(entry(priority=50, actions=(Output(3),)), now=0.0)
        hit = table.lookup(frame(), 1, now=1.0)
        assert hit.actions == (Output(2),)

    def test_specific_beats_general_only_by_priority(self):
        table = FlowTable()
        specific = Match(tp_dst=80)
        table.add(entry(match=specific, priority=200, actions=(Output(9),)),
                  now=0.0)
        table.add(entry(priority=100, actions=(Output(1),)), now=0.0)
        assert table.lookup(frame(), 1, now=0.0).actions == (Output(9),)
        other = pkt.make_tcp("m1", "m2", "1.1.1.1", "2.2.2.2", 1, 443)
        assert table.lookup(other, 1, now=0.0).actions == (Output(1),)

    def test_counters_updated_on_hit(self):
        table = FlowTable()
        table.add(entry(), now=0.0)
        hit = table.lookup(frame(), 1, now=2.5)
        assert hit.packets == 1
        assert hit.bytes == frame().size
        assert hit.last_used_at == 2.5

    def test_non_matching_entry_skipped(self):
        table = FlowTable()
        table.add(entry(match=Match(tp_dst=443)), now=0.0)
        assert table.lookup(frame(), 1, now=0.0) is None


class TestAddSemantics:
    def test_identical_match_priority_replaces(self):
        table = FlowTable()
        table.add(entry(actions=(Output(1),)), now=0.0)
        table.add(entry(actions=(Output(2),)), now=1.0)
        assert len(table) == 1
        assert table.lookup(frame(), 1, now=1.0).actions == (Output(2),)

    def test_same_match_different_priority_coexist(self):
        table = FlowTable()
        table.add(entry(priority=100), now=0.0)
        table.add(entry(priority=200), now=0.0)
        assert len(table) == 2


    def test_bisected_inserts_keep_linear_scan_order(self):
        """Entries are inserted at (and removed from) a bisected slot;
        iteration must stay what the stable re-sort produced:
        descending priority, insertion order within a priority."""
        rng = random.Random(7)
        table = FlowTable()
        for step in range(600):
            roll = rng.random()
            match = Match(tp_dst=rng.randrange(40)) if rng.random() < 0.5 \
                else Match.from_frame(
                    pkt.make_tcp("m1", "m2", "1.1.1.1", "2.2.2.2", 1000,
                                 rng.randrange(40)), in_port=1)
            priority = rng.choice((50, 100, 100, 100, 200))
            if roll < 0.7:
                table.add(entry(match=match, priority=priority),
                          now=float(step))
            elif roll < 0.85:
                table.delete(match, strict=True, priority=priority)
            else:
                table.delete(Match(tp_dst=rng.randrange(40)))
            for view in (list(table), list(table.wildcard_entries())):
                assert view == sorted(
                    view, key=lambda e: (-e.priority, e.seq))
            assert set(map(id, table.wildcard_entries())) == {
                id(e) for e in table
                if e.match.exact_index_key() is None
            }

    def test_modify_recompiles_the_action_plan(self):
        table = FlowTable()
        table.add(entry(actions=(Output(1),)), now=0.0)
        table.modify(Match(), (Output(5), Output(6)), now=1.0)
        hit = table.lookup(frame(), 1, now=2.0)
        assert hit.actions == (Output(5), Output(6))
        assert [step[1] for step in hit.plan] == [5, 6]


class TestTimeouts:
    def test_idle_timeout_expiry(self):
        table = FlowTable()
        table.add(entry(idle_timeout=2.0), now=0.0)
        assert table.lookup(frame(), 1, now=1.0) is not None
        # Unused since t=1: expired at t=3.5.
        assert table.lookup(frame(), 1, now=3.5) is None

    def test_idle_timeout_refreshed_by_traffic(self):
        table = FlowTable()
        table.add(entry(idle_timeout=2.0), now=0.0)
        for t in (1.0, 2.5, 4.0):
            assert table.lookup(frame(), 1, now=t) is not None

    def test_hard_timeout_not_refreshed(self):
        table = FlowTable()
        table.add(entry(hard_timeout=3.0), now=0.0)
        assert table.lookup(frame(), 1, now=2.9) is not None
        assert table.lookup(frame(), 1, now=3.1) is None

    def test_zero_timeouts_never_expire(self):
        table = FlowTable()
        table.add(entry(), now=0.0)
        assert table.lookup(frame(), 1, now=1e9) is not None

    def test_expire_returns_reason(self):
        table = FlowTable()
        table.add(entry(idle_timeout=1.0), now=0.0)
        table.add(entry(match=Match(tp_dst=80), hard_timeout=2.0), now=0.0)
        removed = table.expire(now=5.0)
        reasons = sorted(r.reason for r in removed)
        assert reasons == ["hard", "idle"]
        assert len(table) == 0


class TestDelete:
    def test_strict_delete_requires_exact_match(self):
        table = FlowTable()
        table.add(entry(match=Match(tp_dst=80)), now=0.0)
        assert table.delete(Match(), strict=True, priority=100) == []
        removed = table.delete(Match(tp_dst=80), strict=True, priority=100)
        assert len(removed) == 1 and len(table) == 0

    def test_strict_delete_without_priority_rejected(self):
        """OF 1.0 strict delete requires priority equality; a strict
        delete spanning all priorities is a caller bug, not a wildcard."""
        table = FlowTable()
        table.add(entry(match=Match(tp_dst=80), priority=100), now=0.0)
        table.add(entry(match=Match(tp_dst=80), priority=200), now=0.0)
        with pytest.raises(ValueError):
            table.delete(Match(tp_dst=80), strict=True)
        assert len(table) == 2  # nothing was deleted

    def test_strict_delete_removes_single_priority(self):
        table = FlowTable()
        table.add(entry(match=Match(tp_dst=80), priority=100), now=0.0)
        table.add(entry(match=Match(tp_dst=80), priority=200), now=0.0)
        removed = table.delete(Match(tp_dst=80), strict=True, priority=200)
        assert [e.priority for e in removed] == [200]
        assert len(table) == 1 and next(iter(table)).priority == 100

    def test_strict_delete_wrong_priority_keeps_entry(self):
        table = FlowTable()
        table.add(entry(match=Match(tp_dst=80), priority=100), now=0.0)
        assert table.delete(Match(tp_dst=80), strict=True, priority=50) == []
        assert len(table) == 1

    def test_nonstrict_delete_covers_subsets(self):
        table = FlowTable()
        table.add(entry(match=Match(tp_dst=80)), now=0.0)
        table.add(entry(match=Match(tp_dst=80, nw_proto=6), priority=50),
                  now=0.0)
        table.add(entry(match=Match(tp_dst=443), priority=60), now=0.0)
        removed = table.delete(Match(tp_dst=80))
        assert len(removed) == 2
        assert len(table) == 1

    def test_nonstrict_delete_all_with_any(self):
        table = FlowTable()
        for port in (80, 443):
            table.add(entry(match=Match(tp_dst=port)), now=0.0)
        assert len(table.delete(Match())) == 2


class TestModify:
    def test_modify_updates_actions_preserves_counters(self):
        table = FlowTable()
        table.add(entry(actions=(Output(1),)), now=0.0)
        table.lookup(frame(), 1, now=1.0)
        count = table.modify(Match(), (Output(5),), now=2.0)
        assert count == 1
        hit = table.lookup(frame(), 1, now=3.0)
        assert hit.actions == (Output(5),)
        assert hit.packets == 2  # counter survived the modify

    def test_modify_to_drop(self):
        table = FlowTable()
        table.add(entry(), now=0.0)
        table.modify(Match(), (), now=1.0)
        assert table.lookup(frame(), 1, now=2.0).is_drop

    def test_modify_covers_narrower_entries_only(self):
        """OF 1.0 MODIFY mirrors non-strict delete: it touches entries
        *covered by* the given match, never broader ones."""
        table = FlowTable()
        table.add(entry(match=Match(tp_dst=80, nw_proto=6),
                        actions=(Output(1),)), now=0.0)
        # The broader match covers the installed entry: modified.
        assert table.modify(Match(tp_dst=80), (Output(5),), now=1.0) == 1
        # A *narrower* match does not cover it: the old bidirectional
        # check would have rewritten the entry anyway.
        assert table.modify(
            Match(tp_dst=80, nw_proto=6, tp_src=9), (Output(7),), now=2.0
        ) == 0
        assert table.lookup(frame(), 1, now=3.0).actions == (Output(5),)

    def test_modify_does_not_rewrite_disjoint_entry(self):
        table = FlowTable()
        table.add(entry(match=Match(tp_dst=443)), now=0.0)
        assert table.modify(Match(tp_dst=80), (Output(5),), now=1.0) == 0


class TestEvictOnObservation:
    def test_lookup_evicts_expired_entries(self):
        """An entry observed expired leaves the table immediately; the
        table's length always matches what the datapath honors."""
        table = FlowTable()
        table.add(entry(idle_timeout=1.0), now=0.0)
        assert table.lookup(frame(), 1, now=5.0) is None
        assert len(table) == 0
        removed = table.take_removed()
        assert len(removed) == 1 and removed[0].reason == "idle"
        # Drained once: a second take is empty.
        assert table.take_removed() == ()

    def test_lookup_evicts_even_on_unrelated_frame(self):
        table = FlowTable()
        table.add(entry(match=Match(tp_dst=80), hard_timeout=2.0), now=0.0)
        other = pkt.make_tcp("m9", "m8", "9.9.9.9", "8.8.8.8", 7, 443)
        table.lookup(other, 1, now=10.0)
        assert len(table) == 0
        assert table.take_removed()[0].reason == "hard"

    def test_idle_refresh_defers_heap_deadline(self):
        table = FlowTable()
        table.add(entry(idle_timeout=2.0), now=0.0)
        for t in (1.0, 2.5, 4.0):  # each hit refreshes the idle clock
            assert table.lookup(frame(), 1, now=t) is not None
        assert table.lookup(frame(), 1, now=7.0) is None
        assert table.take_removed()[0].reason == "idle"


class TestExactIndex:
    def test_exact_rule_hits_via_index(self):
        table = FlowTable()
        exact = Match.from_frame(frame(), in_port=1)
        table.add(entry(match=exact, actions=(Output(4),)), now=0.0)
        hit = table.lookup(frame(), 1, now=1.0)
        assert hit is not None and hit.actions == (Output(4),)
        assert table.exact_hits == 1 and table.wildcard_hits == 0
        assert table.wildcard_entries() == ()

    def test_wildcard_rule_hits_via_list(self):
        table = FlowTable()
        table.add(entry(match=Match(tp_dst=80)), now=0.0)
        assert table.lookup(frame(), 1, now=1.0) is not None
        assert table.wildcard_hits == 1 and table.exact_hits == 0
        assert len(table.wildcard_entries()) == 1

    def test_higher_priority_wildcard_beats_exact(self):
        """A drop rule above an exact forward rule must win (the
        paper's attack blocking depends on it)."""
        table = FlowTable()
        exact = Match.from_frame(frame(), in_port=1)
        table.add(entry(match=exact, priority=100, actions=(Output(4),)),
                  now=0.0)
        table.add(entry(match=Match(in_port=1, dl_src="m1"), priority=210,
                        actions=()), now=0.0)
        assert table.lookup(frame(), 1, now=1.0).is_drop

    def test_lower_priority_wildcard_loses_to_exact(self):
        table = FlowTable()
        exact = Match.from_frame(frame(), in_port=1)
        table.add(entry(match=exact, priority=200, actions=(Output(4),)),
                  now=0.0)
        table.add(entry(match=Match(), priority=50, actions=()), now=0.0)
        assert table.lookup(frame(), 1, now=1.0).actions == (Output(4),)

    def test_replacement_updates_index(self):
        table = FlowTable()
        exact = Match.from_frame(frame(), in_port=1)
        table.add(entry(match=exact, actions=(Output(1),)), now=0.0)
        table.add(entry(match=exact, actions=(Output(2),)), now=1.0)
        assert len(table) == 1
        assert table.lookup(frame(), 1, now=2.0).actions == (Output(2),)

    def test_vlan_checked_despite_shared_bucket(self):
        """The index key omits the VLAN tag; bucket verification must
        still separate tagged and untagged entries."""
        tagged = pkt.make_tcp("m1", "m2", "1.1.1.1", "2.2.2.2", 1000, 80,
                              vlan=7)
        table = FlowTable()
        table.add(entry(match=Match.from_frame(tagged, in_port=1),
                        actions=(Output(9),)), now=0.0)
        assert table.lookup(frame(), 1, now=1.0) is None  # untagged probe
        assert table.lookup(tagged, 1, now=1.0).actions == (Output(9),)
