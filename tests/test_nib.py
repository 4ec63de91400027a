"""Unit tests for the Network Information Base."""

import hashlib
import random

import pytest

from repro.core import nib as nib_module
from repro.core.nib import NetworkInformationBase


@pytest.fixture
def nib():
    return NetworkInformationBase(host_timeout_s=10.0)


class TestHosts:
    def test_learn_new_host(self, nib):
        record, is_new = nib.learn_host("m1", "10.0.0.1", dpid=1, port=2,
                                        now=5.0)
        assert is_new
        assert record.first_seen == record.last_seen == 5.0
        assert nib.host_by_mac("m1") is record
        assert nib.host_by_ip("10.0.0.1") is record

    def test_refresh_updates_last_seen_only(self, nib):
        nib.learn_host("m1", "10.0.0.1", dpid=1, port=2, now=5.0)
        record, is_new = nib.learn_host("m1", None, dpid=1, port=2, now=9.0)
        assert not is_new
        assert record.first_seen == 5.0 and record.last_seen == 9.0
        assert record.ip == "10.0.0.1"  # ip preserved on refresh

    def test_move_is_reported_as_new(self, nib):
        nib.learn_host("m1", "10.0.0.1", dpid=1, port=2, now=5.0)
        record, is_new = nib.learn_host("m1", None, dpid=3, port=7, now=6.0)
        assert is_new  # VM migration: location changed
        assert record.dpid == 3 and record.port == 7
        assert record.first_seen == 5.0  # identity preserved

    def test_ip_update_on_refresh(self, nib):
        nib.learn_host("m1", None, dpid=1, port=2, now=1.0)
        record, _ = nib.learn_host("m1", "10.0.0.9", dpid=1, port=2, now=2.0)
        assert record.ip == "10.0.0.9"
        assert nib.host_by_ip("10.0.0.9") is record

    def test_element_flag_is_sticky(self, nib):
        nib.learn_host("m1", None, dpid=1, port=2, now=1.0, is_element=True)
        record, _ = nib.learn_host("m1", None, dpid=1, port=2, now=2.0)
        assert record.is_element

    def test_expiry_removes_stale_hosts(self, nib):
        nib.learn_host("old", None, dpid=1, port=1, now=0.0)
        nib.learn_host("new", None, dpid=1, port=2, now=8.0)
        expired = nib.expire_hosts(now=11.0)
        assert [r.mac for r in expired] == ["old"]
        assert nib.host_by_mac("old") is None
        assert nib.host_by_mac("new") is not None

    def test_remove_host_clears_ip_index(self, nib):
        nib.learn_host("m1", "10.0.0.1", dpid=1, port=2, now=1.0)
        nib.remove_host("m1")
        assert nib.host_by_ip("10.0.0.1") is None

    def test_ip_change_drops_the_old_index_entry(self, nib):
        nib.learn_host("aa", "10.0.0.1", dpid=1, port=2, now=1.0)
        nib.learn_host("aa", "10.0.0.2", dpid=1, port=2, now=2.0)  # refresh
        assert nib.host_by_ip("10.0.0.1") is None
        assert nib.host_by_ip("10.0.0.2").mac == "aa"
        nib.learn_host("aa", "10.0.0.3", dpid=4, port=9, now=3.0)  # move
        assert nib.host_by_ip("10.0.0.2") is None
        assert nib.host_by_ip("10.0.0.3").mac == "aa"

    def test_remove_host_keeps_a_re_leased_address(self, nib):
        nib.learn_host("aa", "10.0.0.1", dpid=1, port=2, now=1.0)
        nib.learn_host("bb", "10.0.0.1", dpid=1, port=3, now=2.0)
        nib.remove_host("aa")
        assert nib.host_by_ip("10.0.0.1").mac == "bb"
        nib.remove_host("bb")
        assert nib.host_by_ip("10.0.0.1") is None

    def test_ip_change_keeps_a_re_leased_address(self, nib):
        nib.learn_host("aa", "10.0.0.1", dpid=1, port=2, now=1.0)
        nib.learn_host("bb", "10.0.0.1", dpid=1, port=3, now=2.0)
        nib.learn_host("aa", "10.0.0.2", dpid=1, port=2, now=3.0)
        assert nib.host_by_ip("10.0.0.1").mac == "bb"

    def test_expiry_refreshes_hosts_the_caller_vouches_for(self, nib):
        nib.learn_host("busy", None, dpid=1, port=1, now=0.0)
        nib.learn_host("gone", None, dpid=1, port=2, now=0.0)
        nib.learn_host("new", None, dpid=1, port=3, now=8.0)
        asked = []

        def keep_alive(record):
            asked.append(record.mac)
            return record.mac == "busy"

        expired = nib.expire_hosts(now=11.0, keep_alive=keep_alive)
        assert [r.mac for r in expired] == ["gone"]
        assert asked == ["busy", "gone"]  # only the silent ones
        assert nib.host_by_mac("busy").last_seen == 11.0
        assert nib.host_by_mac("new").last_seen == 8.0

    def test_sweep_that_can_expire_nobody_reads_no_row(self, nib):
        """Nothing is stale before the oldest ``last_seen`` plus the
        timeout, so such a sweep must not walk the book."""
        class NoWalk(dict):
            def values(self):
                raise AssertionError("idle sweep walked the hosts")

        nib.learn_host("a", None, dpid=1, port=1, now=2.0)
        nib.learn_host("b", None, dpid=1, port=2, now=5.0)
        walked, nib.hosts = nib.hosts, NoWalk(nib.hosts)
        assert nib.expire_hosts(now=2.0 + nib.host_timeout_s) == []
        nib.hosts = walked
        # The walk that does run recomputes the bound from what is left.
        assert [r.mac for r in nib.expire_hosts(now=2.5 + nib.host_timeout_s)] == ["a"]
        nib.hosts = NoWalk(nib.hosts)
        assert nib.expire_hosts(now=5.0 + nib.host_timeout_s) == []
        # A row heard from at an earlier instant lowers the bound again.
        nib.hosts = dict(nib.hosts)
        nib.learn_host("b", None, dpid=1, port=2, now=1.0)
        assert [r.mac for r in nib.expire_hosts(now=4.0 + nib.host_timeout_s)] == ["b"]

    def test_a_row_is_slotted(self, nib):
        record, _ = nib.learn_host("m1", "10.0.0.1", dpid=1, port=2, now=0.0)
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.shard = 0

    def test_a_roam_keeps_first_seen_and_the_element_flag(self, nib):
        nib.learn_host("e1", "10.0.0.1", dpid=1, port=2, now=1.0,
                       is_element=True)
        record, moved = nib.learn_host("e1", None, dpid=2, port=5, now=4.0)
        assert moved and nib.host_by_mac("e1") is record
        assert (record.first_seen, record.last_seen) == (1.0, 4.0)
        assert record.is_element and record.ip == "10.0.0.1"

    def test_an_empty_address_is_stored_as_none(self, nib):
        record, _ = nib.learn_host("m1", "", dpid=1, port=2, now=0.0)
        assert record.ip is None
        assert nib.host_by_ip("") is None

    def test_user_and_element_views(self, nib):
        nib.learn_host("u1", None, dpid=1, port=1, now=0.0)
        nib.learn_host("e1", None, dpid=1, port=2, now=0.0, is_element=True)
        assert [r.mac for r in nib.user_hosts()] == ["u1"]
        assert [r.mac for r in nib.element_hosts()] == ["e1"]


class TestLinks:
    def test_learn_and_query(self, nib):
        nib.learn_link(1, 5, 2, 6, now=0.0)
        link = nib.link(1, 2)
        assert link.src_port == 5 and link.dst_port == 6
        assert nib.link(2, 1) is None  # unidirectional

    def test_uplink_port_set_accumulates(self, nib):
        nib.learn_link(1, 1, 2, 1, now=0.0)
        nib.learn_link(1, 2, 2, 2, now=0.0)  # second (redundant) uplink
        assert nib.uplink_ports(1) == frozenset({1, 2})
        assert nib.uplink_port(1) == 1  # deterministic primary

    def test_canonical_mapping_is_lowest_pair(self, nib):
        nib.learn_link(1, 2, 2, 2, now=0.0)
        nib.learn_link(1, 1, 2, 1, now=1.0)
        nib.learn_link(1, 2, 2, 2, now=2.0)  # re-seen: must not usurp
        link = nib.link(1, 2)
        assert (link.src_port, link.dst_port) == (1, 1)

    def test_rebuild_links_drops_stale_uplinks(self, nib):
        nib.learn_link(1, 1, 2, 1, now=0.0)
        nib.learn_link(1, 2, 2, 2, now=0.0)

        class FakeLink:
            def __init__(self, sd, sp, dd, dp):
                self.src_dpid, self.src_port = sd, sp
                self.dst_dpid, self.dst_port = dd, dp

        nib.rebuild_links([FakeLink(1, 2, 2, 2)], now=5.0)
        assert nib.uplink_ports(1) == frozenset({2})
        assert nib.uplink_port(1) == 2

    def test_uplink_unknown_before_discovery(self, nib):
        assert nib.uplink_port(9) is None
        assert nib.uplink_ports(9) == frozenset()


class TestSwitchesAndMesh:
    def test_full_mesh_detection(self, nib):
        nib.add_switch(1, "a", (1,), now=0.0)
        nib.add_switch(2, "b", (1,), now=0.0)
        assert not nib.is_full_mesh()
        nib.learn_link(1, 1, 2, 1, now=0.0)
        assert not nib.is_full_mesh()
        nib.learn_link(2, 1, 1, 1, now=0.0)
        assert nib.is_full_mesh()

    def test_single_switch_is_trivially_full_mesh(self, nib):
        nib.add_switch(1, "a", (1,), now=0.0)
        assert nib.is_full_mesh()

    def test_remove_switch_cascades(self, nib):
        nib.add_switch(1, "a", (1,), now=0.0)
        nib.add_switch(2, "b", (1,), now=0.0)
        nib.learn_link(1, 1, 2, 1, now=0.0)
        nib.learn_host("m1", None, dpid=1, port=2, now=0.0)
        nib.remove_switch(1)
        assert nib.link(1, 2) is None
        assert nib.host_by_mac("m1") is None
        assert 1 not in nib.switches

    def test_summary(self, nib):
        nib.add_switch(1, "a", (1,), now=0.0)
        nib.learn_host("m1", None, dpid=1, port=1, now=0.0, is_element=True)
        summary = nib.summary()
        assert summary["switches"] == 1
        assert summary["hosts"] == 1
        assert summary["elements"] == 1


def reference_digest(nib):
    """The digest as defined before it was memoised: sha256 over the
    sorted five-tuples, one ``update`` per row."""
    rows = [
        (h.mac, h.ip, h.dpid, h.port, h.is_element)
        for h in nib.hosts.values()
    ]
    rows.sort()
    digest = hashlib.sha256()
    for mac, ip, dpid, port, is_element in rows:
        digest.update(
            f"{mac} {ip} {dpid} {port} {int(is_element)}\n".encode()
        )
    return digest.hexdigest(), rows


class TestLocationDigest:
    MACS = [f"02:00:00:00:00:{i:02x}" for i in range(12)]
    IPS = [f"10.0.0.{i}" for i in range(1, 7)]  # scarce: re-leases happen
    DPIDS = (1, 2, 3)

    def test_empty_nib(self, nib):
        assert nib.location_digest() == hashlib.sha256().hexdigest()

    def test_digest_spans_several_hash_updates(self, nib, monkeypatch):
        monkeypatch.setattr(nib_module, "_DIGEST_CHUNK", 4)
        for index in range(4 * 3 + 1):
            nib.learn_host(f"m{index:02d}", f"10.0.1.{index}", dpid=index % 3,
                           port=index, now=0.0, is_element=index % 5 == 0)
        assert nib.location_digest() == reference_digest(nib)[0]

    def test_idle_rounds_return_the_memoised_string(self, nib):
        nib.learn_host("m1", "10.0.0.1", dpid=1, port=2, now=0.0)
        first = nib.location_digest()
        nib.learn_host("m1", "10.0.0.1", dpid=1, port=2, now=5.0)
        assert nib.location_digest() is first

    def _step(self, rng, nib, now):
        """Apply one random operation; returns whether it is one of the
        kinds that can never change a digest row."""
        known = sorted(nib.hosts)
        kind = rng.choice((
            "new", "move", "ip", "element", "refresh", "readopt",
            "remove", "expire", "remove-switch",
        ))
        if kind == "new" or not known:
            nib.learn_host(
                rng.choice(self.MACS), rng.choice(self.IPS + [None]),
                rng.choice(self.DPIDS), rng.randint(1, 4), now,
                is_element=rng.random() < 0.2,
            )
            return False
        host = nib.hosts[rng.choice(known)]
        if kind == "move":
            nib.learn_host(host.mac, rng.choice(self.IPS + [None]),
                           rng.choice(self.DPIDS), rng.randint(1, 4), now)
        elif kind == "ip":
            nib.learn_host(host.mac, rng.choice(self.IPS),
                           host.dpid, host.port, now)
        elif kind == "element":
            nib.learn_host(host.mac, None, host.dpid, host.port, now,
                           is_element=True)
        elif kind == "refresh":
            nib.learn_host(host.mac, None, host.dpid, host.port, now)
            return True
        elif kind == "readopt":
            # What ``remote_candidates`` does to a borrowed element on
            # every resolve.
            nib.learn_host(host.mac, host.ip, host.dpid, host.port, now,
                           is_element=host.is_element)
            return True
        elif kind == "remove":
            nib.remove_host(rng.choice(self.MACS))
        elif kind == "expire":
            def keep(record):
                return record.port % 2 == 0

            # What the full walk expires, whether or not the sweep's
            # oldest-row bound lets it skip the walk.
            want = [
                record.mac for record in nib.hosts.values()
                if now - record.last_seen > nib.host_timeout_s
                and not keep(record)
            ]
            expired = nib.expire_hosts(now, keep_alive=keep)
            assert [record.mac for record in expired] == want
        else:
            nib.remove_switch(rng.choice(self.DPIDS))
        return False

    def _three_switch_nib(self):
        nib = NetworkInformationBase(host_timeout_s=3.0)
        for dpid in self.DPIDS:
            nib.add_switch(dpid, f"s{dpid}", (1, 2, 3, 4), now=0.0)
        return nib

    def test_an_unchanged_version_across_a_round_means_unchanged_rows(self):
        """What the sync round relies on: a hello carries only
        ``location_version``, and a round of any operations that leaves
        it where it was has changed no row.  (The converse does not
        hold over a round -- a host can leave and come back -- and
        costs one ``SHARD_HELLO`` line, never a missed one.)"""
        quiet_rounds = rows_came_back = 0
        for seed in range(300):
            rng = random.Random(seed)
            nib = self._three_switch_nib()
            now, steps_left = 0.0, 40
            while steps_left:
                version = nib.location_version
                digest = reference_digest(nib)[0]
                steps = min(steps_left, rng.randint(1, 4))
                steps_left -= steps
                for _ in range(steps):
                    now += rng.choice((0.1, 1.0, 2.5))
                    self._step(rng, nib, now)
                unchanged = reference_digest(nib)[0] == digest
                if nib.location_version == version:
                    assert unchanged, (seed, now)
                    quiet_rounds += 1
                elif unchanged:
                    rows_came_back += 1
        assert quiet_rounds >= 300 and rows_came_back >= 1

    def test_memoised_digest_tracks_every_row_change(self):
        steps = 0
        for seed in range(300):
            rng = random.Random(seed)
            nib = self._three_switch_nib()
            now = 0.0
            digest, rows = reference_digest(nib)
            assert nib.location_digest() == digest
            for _ in range(40):
                now += rng.choice((0.1, 1.0, 2.5))
                version, cached = nib.location_version, nib.location_digest()
                row_neutral = self._step(rng, nib, now)
                new_digest, new_rows = reference_digest(nib)
                context = (seed, steps)
                assert nib.location_digest() == new_digest, context
                # The version moves exactly when a row did: never on a
                # last_seen refresh or a no-op re-adopt, always on a
                # join/move/ip/flag change or a removal.
                changed = new_rows != rows
                assert (nib.location_version != version) == changed, context
                if row_neutral:
                    assert not changed, context
                if not changed:
                    assert nib.location_digest() is cached, context
                for ip in self.IPS:
                    found = nib.host_by_ip(ip)
                    assert found is None or found.ip == ip, context
                digest, rows = new_digest, new_rows
                steps += 1
        assert steps >= 300 * 40
