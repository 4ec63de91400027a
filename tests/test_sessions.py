"""Unit tests for bidirectional session tracking."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sessions import SessionTable
from repro.net.packet import FlowNineTuple


def flow(tp_src=1000):
    return FlowNineTuple(
        vlan=None, dl_src="mA", dl_dst="mB", dl_type=0x0800,
        nw_src="10.0.0.1", nw_dst="10.0.0.2", nw_proto=6,
        tp_src=tp_src, tp_dst=80,
    )


def make_session(table, tp_src=1000, elements=()):
    return table.create(
        flow=flow(tp_src),
        src_mac="mA",
        dst_mac="mB",
        policy_name="p",
        element_macs=tuple(elements),
        now=1.0,
    )


class TestLifecycle:
    def test_create_and_lookup_both_directions(self):
        table = SessionTable()
        session = make_session(table)
        assert table.lookup(flow()) is session
        assert table.lookup(flow().reversed()) is session
        assert table.by_id(session.session_id) is session
        assert len(table) == 1
        assert table.created == 1

    def test_end_removes_both_directions(self):
        table = SessionTable()
        session = make_session(table)
        table.end(session)
        assert table.lookup(flow()) is None
        assert table.lookup(flow().reversed()) is None
        assert table.by_id(session.session_id) is None
        assert table.ended == 1

    def test_end_is_idempotent(self):
        table = SessionTable()
        session = make_session(table)
        table.end(session)
        table.end(session)
        assert table.ended == 1

    def test_ids_are_unique_and_monotonic(self):
        table = SessionTable()
        ids = [make_session(table, tp_src=1000 + i).session_id
               for i in range(5)]
        assert ids == sorted(set(ids))

    def test_explicit_session_id(self):
        table = SessionTable()
        session = table.create(flow(), "mA", "mB", None, (), now=0.0,
                               session_id=42)
        assert table.by_id(42) is session


class TestQueries:
    def test_sessions_via_element(self):
        table = SessionTable()
        with_element = make_session(table, tp_src=1, elements=("e1",))
        make_session(table, tp_src=2)
        assert table.sessions_via_element("e1") == [with_element]
        assert table.sessions_via_element("e2") == []

    def test_sessions_of_user_matches_either_end(self):
        table = SessionTable()
        session = make_session(table)
        assert table.sessions_of_user("mA") == [session]
        assert table.sessions_of_user("mB") == [session]
        assert table.sessions_of_user("mZ") == []

    def test_is_steered(self):
        table = SessionTable()
        assert make_session(table, tp_src=1, elements=("e1",)).is_steered
        assert not make_session(table, tp_src=2).is_steered

    def test_iteration(self):
        table = SessionTable()
        created = {make_session(table, tp_src=1000 + i).session_id
                   for i in range(3)}
        assert {s.session_id for s in table} == created


class TestBlocks:
    """Blocks sit in the same book as the sessions and outlive them."""

    def test_get_or_create_is_idempotent(self):
        table = SessionTable()
        block = table.block("mA", flow(), cookie=7)
        assert (block.src_mac, block.flow, block.cookie) == ("mA", flow(), 7)
        assert block.rules == []
        # Asked again -- under whatever cookie -- the book answers with
        # the entry it holds.
        assert table.block("mA", flow(), cookie=9) is block
        assert table.block("mA", flow(tp_src=2)) is not block
        assert table.blocks_of("mA") == [block, table.block("mA", flow(2))]
        assert table.blocks() == table.blocks_of("mA")
        assert table.blocks_of("mB") == []

    def test_block_for_matches_the_flow_or_its_source(self):
        table = SessionTable()
        assert table.block_for(flow()) is None
        one_flow = table.block("mA", flow())
        assert table.block_for(flow()) is one_flow
        assert table.block_for(flow(tp_src=2)) is None
        assert table.block_for(flow().reversed()) is None
        source = table.block("mA", None)
        # A source block covers every flow of the source, also those
        # the book would otherwise enter one by one.
        assert table.block_for(flow(tp_src=2)) is source
        assert table.block("mA", flow(tp_src=3)) is source

    def test_a_block_survives_the_session_it_was_raised_against(self):
        table = SessionTable()
        session = make_session(table, elements=("e1",))
        block = table.block(session.src_mac, session.flow,
                            cookie=session.session_id)
        table.end(session)
        assert len(table) == 0 and table.load_of("e1") == 0
        assert table.block_for(flow()) is block
        assert table.blocks_of("mA") == [block]

    def test_blocks_leave_only_with_their_source(self):
        table = SessionTable()
        gone = [table.block("mA", flow()), table.block("mA", flow(tp_src=2))]
        stays = table.block("mB", None)
        assert table.take_blocks("mA") == gone
        assert table.take_blocks("mA") == []
        assert table.block_for(flow()) is None
        assert table.blocks() == [stays]


class TestElementLoad:
    """The table is the one record of which session loads which
    element: ``load_of`` is a recount over ``element_macs``, always."""

    def test_create_resteer_end(self):
        table = SessionTable()
        session = make_session(table, elements=("e1", "e2"))
        assert (table.load_of("e1"), table.load_of("e2")) == (1, 1)
        table.resteer(session, ["e2", "e3"])
        assert session.element_macs == ("e2", "e3")
        assert [table.load_of(m) for m in ("e1", "e2", "e3")] == [0, 1, 1]
        table.resteer(session, ())  # off its chain, still live
        assert not session.is_steered and len(table) == 1
        assert [table.load_of(m) for m in ("e1", "e2", "e3")] == [0, 0, 0]
        table.resteer(session, ("e1",))
        table.end(session)
        table.end(session)  # idempotent: un-charged once
        assert table.load_of("e1") == 0
        assert table.load_of("never-seen") == 0

    chains = st.lists(st.sampled_from(["e0", "e1", "e2", "e3"]),
                      max_size=3, unique=True).map(tuple)

    @given(st.lists(st.tuples(st.sampled_from(["create", "resteer", "end"]),
                              st.integers(0, 30), chains), max_size=60))
    @settings(max_examples=60)
    def test_load_is_a_recount_over_element_macs(self, ops):
        table = SessionTable()
        live = []
        for step, (op, pick, chain) in enumerate(ops):
            if op == "create" or not live:
                live.append(make_session(table, tp_src=step, elements=chain))
            elif op == "resteer":
                table.resteer(live[pick % len(live)], chain)
            else:
                table.end(live.pop(pick % len(live)))
            recount = Counter(m for s in table for m in s.element_macs)
            assert all(
                table.load_of(mac) == recount[mac]
                for mac in ("e0", "e1", "e2", "e3")
            )
        for session in live:
            table.end(session)
        assert not any(table.load_of(f"e{i}") for i in range(4))
