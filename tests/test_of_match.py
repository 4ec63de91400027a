"""Unit tests for the OpenFlow 12-tuple match."""

import pytest

from repro.net import packet as pkt
from repro.net.packet import extract_nine_tuple
from repro.openflow.match import Match, frame_index_key


@pytest.fixture
def tcp_frame():
    return pkt.make_tcp("m1", "m2", "1.1.1.1", "2.2.2.2", 1000, 80,
                        payload=b"x", flags="S")


class TestExactMatch:
    def test_from_frame_matches_its_frame(self, tcp_frame):
        match = Match.from_frame(tcp_frame, in_port=3)
        assert match.matches(tcp_frame, 3)

    def test_in_port_mismatch(self, tcp_frame):
        match = Match.from_frame(tcp_frame, in_port=3)
        assert not match.matches(tcp_frame, 4)

    def test_field_mismatches(self, tcp_frame):
        base = Match.from_frame(tcp_frame, in_port=1)
        other = pkt.make_tcp("m1", "m2", "1.1.1.1", "2.2.2.2", 1000, 81)
        assert not base.matches(other, 1)
        other = pkt.make_tcp("m1", "m3", "1.1.1.1", "2.2.2.2", 1000, 80)
        assert not base.matches(other, 1)
        other = pkt.make_tcp("m1", "m2", "1.1.1.9", "2.2.2.2", 1000, 80)
        assert not base.matches(other, 1)
        other = pkt.make_udp("m1", "m2", "1.1.1.1", "2.2.2.2", 1000, 80)
        assert not base.matches(other, 1)


class TestWildcards:
    def test_empty_match_matches_everything(self, tcp_frame):
        assert Match().matches(tcp_frame, 7)
        arp = pkt.make_arp_request("m1", "1.1.1.1", "2.2.2.2")
        assert Match().matches(arp, 1)

    def test_partial_match(self, tcp_frame):
        match = Match(dl_type=pkt.ETH_TYPE_IP, tp_dst=80)
        assert match.matches(tcp_frame, 1)
        udp = pkt.make_udp("a", "b", "3.3.3.3", "4.4.4.4", 5, 80)
        assert match.matches(udp, 9)

    def test_transport_fields_fail_on_non_ip(self):
        arp = pkt.make_arp_request("m1", "1.1.1.1", "2.2.2.2")
        assert not Match(tp_dst=80).matches(arp, 1)
        assert not Match(nw_src="1.1.1.1").matches(arp, 1)

    def test_transport_fields_fail_on_icmp(self):
        echo = pkt.make_icmp_echo("m1", "m2", "1.1.1.1", "2.2.2.2")
        assert not Match(tp_src=1).matches(echo, 1)
        assert Match(nw_proto=pkt.IP_PROTO_ICMP).matches(echo, 1)

    def test_wildcard_count(self, tcp_frame):
        assert Match().wildcard_count() == 12
        exact = Match.from_frame(tcp_frame, in_port=1)
        # vlan_pcp and nw_tos stay wild for an untagged frame; vlan too.
        assert exact.wildcard_count() == 3

    def test_vlan_matching(self):
        tagged = pkt.make_udp("a", "b", "1.1.1.1", "2.2.2.2", 1, 2, vlan=10)
        assert Match(dl_vlan=10).matches(tagged, 1)
        assert not Match(dl_vlan=11).matches(tagged, 1)


class TestNineTupleBridge:
    def test_from_nine_tuple_roundtrip(self, tcp_frame):
        nine = extract_nine_tuple(tcp_frame)
        match = Match.from_nine_tuple(nine, in_port=2)
        assert match.matches(tcp_frame, 2)
        assert match.in_port == 2
        assert match.tp_dst == 80

    def test_reply_direction_match(self, tcp_frame):
        nine = extract_nine_tuple(tcp_frame).reversed()
        match = Match.from_nine_tuple(nine)
        reply = pkt.make_tcp("m2", "m1", "2.2.2.2", "1.1.1.1", 80, 1000)
        assert match.matches(reply, 5)
        assert not match.matches(tcp_frame, 5)


class TestExactIndexKey:
    """The hash-index contract: a match is indexable exactly when every
    frame it accepts produces the same ``frame_index_key``."""

    def test_exact_tcp_match_is_indexable(self, tcp_frame):
        match = Match.from_frame(tcp_frame, in_port=3)
        key = match.exact_index_key()
        assert key is not None
        assert key == frame_index_key(tcp_frame, 3)

    def test_exact_matches_for_every_kind_are_indexable(self):
        frames = [
            pkt.make_udp("m1", "m2", "1.1.1.1", "2.2.2.2", 5, 53),
            pkt.make_icmp_echo("m1", "m2", "1.1.1.1", "2.2.2.2"),
            pkt.make_arp_request("m1", "1.1.1.1", "2.2.2.2"),
            pkt.make_tcp("m1", "m2", "1.1.1.1", "2.2.2.2", 1, 2, vlan=9),
        ]
        for frame in frames:
            match = Match.from_frame(frame, in_port=1)
            key = match.exact_index_key()
            assert key is not None, frame
            assert key == frame_index_key(frame, 1)

    def test_partial_wildcards_are_not_indexable(self, tcp_frame):
        assert Match().exact_index_key() is None
        assert Match(tp_dst=80).exact_index_key() is None
        exact = Match.from_frame(tcp_frame, in_port=1)
        for field in ("in_port", "dl_src", "dl_dst", "dl_type",
                      "nw_src", "nw_dst", "nw_proto", "tp_src", "tp_dst"):
            widened = exact._replace(**{field: None})
            assert widened.exact_index_key() is None, field

    def test_vlan_wildcard_shares_bucket_with_tagged(self, tcp_frame):
        """VLAN is deliberately left out of the key, so tagged and
        untagged exact matches collide -- ``matches`` re-verifies."""
        tagged = pkt.make_tcp("m1", "m2", "1.1.1.1", "2.2.2.2", 1000, 80,
                              vlan=7)
        untagged_match = Match.from_frame(tcp_frame, in_port=1)
        tagged_match = Match.from_frame(tagged, in_port=1)
        assert untagged_match.exact_index_key() == \
            tagged_match.exact_index_key()
        assert not tagged_match.matches(tcp_frame, 1)

    def test_frame_key_ignores_ports_on_non_tcp_udp(self):
        """tp fields are only meaningful for TCP/UDP; an ICMP frame's
        key pins them to None, matching ``extract_nine_tuple``."""
        echo = pkt.make_icmp_echo("m1", "m2", "1.1.1.1", "2.2.2.2")
        key = frame_index_key(echo, 2)
        assert key[-2:] == (None, None)
        assert key == Match.from_frame(echo, in_port=2).exact_index_key()


class TestSubset:
    def test_everything_is_subset_of_any(self, tcp_frame):
        exact = Match.from_frame(tcp_frame, in_port=1)
        assert exact.is_subset_of(Match())

    def test_any_not_subset_of_exact(self, tcp_frame):
        exact = Match.from_frame(tcp_frame, in_port=1)
        assert not Match().is_subset_of(exact)

    def test_subset_requires_field_equality(self):
        narrow = Match(dl_type=pkt.ETH_TYPE_IP, tp_dst=80)
        wide = Match(dl_type=pkt.ETH_TYPE_IP)
        assert narrow.is_subset_of(wide)
        assert not wide.is_subset_of(narrow)
        sibling = Match(dl_type=pkt.ETH_TYPE_IP, tp_dst=81)
        assert not narrow.is_subset_of(sibling)

    def test_subset_is_reflexive(self, tcp_frame):
        exact = Match.from_frame(tcp_frame, in_port=1)
        assert exact.is_subset_of(exact)

    def test_str_shows_only_set_fields(self):
        assert str(Match()) == "Match(any)"
        assert "tp_dst=80" in str(Match(tp_dst=80))
