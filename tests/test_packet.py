"""Unit tests for the packet model."""

import dataclasses

import pytest

from repro.net import packet as pkt
from repro.net.legacy import Bpdu
from repro.net.packet import (
    Arp, Dhcp, Ethernet, FlowNineTuple, Icmp, IPv4, Lldp, Tcp, Udp,
    extract_nine_tuple, ip_address, mac_address,
)
from repro.openflow.pathproof import PathDescriptor, PathTag


class TestAddresses:
    def test_mac_address_formatting(self):
        assert mac_address(1) == "00:00:00:00:00:01"
        assert mac_address(0xAB) == "00:00:00:00:00:ab"
        assert mac_address(256) == "00:00:00:00:01:00"

    def test_mac_address_range_check(self):
        with pytest.raises(ValueError):
            mac_address(2 ** 48)
        with pytest.raises(ValueError):
            mac_address(-1)

    def test_ip_address_carry(self):
        assert ip_address(1) == "10.0.0.1"
        assert ip_address(256) == "10.0.1.0"
        assert ip_address(300) == "10.0.1.44"

    def test_ip_address_custom_base(self):
        assert ip_address(5, base="192.168.1.0") == "192.168.1.5"


class TestBuilders:
    def test_make_udp_default_size_includes_headers(self):
        frame = pkt.make_udp("m1", "m2", "1.1.1.1", "2.2.2.2", 10, 20,
                             payload=b"hello")
        assert frame.size == 18 + 20 + 8 + 5
        assert isinstance(frame.transport(), Udp)
        assert frame.app_payload() == b"hello"

    def test_make_tcp_flags(self):
        frame = pkt.make_tcp("m1", "m2", "1.1.1.1", "2.2.2.2", 10, 80,
                             flags="S")
        segment = frame.transport()
        assert isinstance(segment, Tcp) and segment.flags == "S"

    def test_explicit_size_overrides(self):
        frame = pkt.make_udp("m1", "m2", "1.1.1.1", "2.2.2.2", 1, 2,
                             payload=b"x", size=1500)
        assert frame.size == 1500

    def test_arp_request_is_broadcast(self):
        frame = pkt.make_arp_request("m1", "10.0.0.1", "10.0.0.2")
        assert frame.is_broadcast
        assert frame.ethertype == pkt.ETH_TYPE_ARP
        assert isinstance(frame.payload, Arp) and frame.payload.is_request

    def test_arp_reply_is_unicast(self):
        frame = pkt.make_arp_reply("m1", "10.0.0.1", "m2", "10.0.0.2")
        assert not frame.is_broadcast
        assert not frame.payload.is_request

    def test_icmp_echo_builder(self):
        frame = pkt.make_icmp_echo("m1", "m2", "1.1.1.1", "2.2.2.2", ident=7)
        assert frame.ip().proto == pkt.IP_PROTO_ICMP
        assert frame.ip().payload.ident == 7

    def test_lldp_builder(self):
        frame = pkt.make_lldp(chassis_id=3, port_id=2)
        assert frame.ethertype == pkt.ETH_TYPE_LLDP
        assert frame.payload.chassis_id == 3
        assert frame.payload.port_id == 2


class TestFrameHelpers:
    def test_clone_is_deep_and_fresh_id(self):
        frame = pkt.make_tcp("m1", "m2", "1.1.1.1", "2.2.2.2", 1, 2,
                             payload=b"data")
        copy = frame.clone()
        assert copy is not frame
        copy.dst = "rewritten"
        copy.ip().dst = "9.9.9.9"
        assert frame.dst == "m2"
        assert frame.ip().dst == "2.2.2.2"

    def test_ip_returns_none_for_arp(self):
        frame = pkt.make_arp_request("m1", "1.1.1.1", "2.2.2.2")
        assert frame.ip() is None
        assert frame.transport() is None
        assert frame.app_payload() == b""


class TestNineTuple:
    def test_extract_from_tcp(self):
        frame = pkt.make_tcp("m1", "m2", "1.1.1.1", "2.2.2.2", 1000, 80)
        nine = extract_nine_tuple(frame)
        assert nine == FlowNineTuple(
            vlan=None, dl_src="m1", dl_dst="m2", dl_type=pkt.ETH_TYPE_IP,
            nw_src="1.1.1.1", nw_dst="2.2.2.2", nw_proto=pkt.IP_PROTO_TCP,
            tp_src=1000, tp_dst=80,
        )

    def test_extract_from_non_ip_wildcards_network_fields(self):
        frame = pkt.make_arp_request("m1", "1.1.1.1", "2.2.2.2")
        nine = extract_nine_tuple(frame)
        assert nine.nw_src is None and nine.tp_src is None
        assert nine.dl_type == pkt.ETH_TYPE_ARP

    def test_icmp_has_proto_but_no_ports(self):
        frame = pkt.make_icmp_echo("m1", "m2", "1.1.1.1", "2.2.2.2")
        nine = extract_nine_tuple(frame)
        assert nine.nw_proto == pkt.IP_PROTO_ICMP
        assert nine.tp_src is None and nine.tp_dst is None

    def test_reversed_swaps_both_layers(self):
        frame = pkt.make_tcp("m1", "m2", "1.1.1.1", "2.2.2.2", 1000, 80)
        nine = extract_nine_tuple(frame)
        rev = nine.reversed()
        assert rev.dl_src == "m2" and rev.dl_dst == "m1"
        assert rev.nw_src == "2.2.2.2" and rev.nw_dst == "1.1.1.1"
        assert rev.tp_src == 80 and rev.tp_dst == 1000

    def test_reversed_is_involution(self):
        frame = pkt.make_udp("m1", "m2", "1.1.1.1", "2.2.2.2", 5, 6)
        nine = extract_nine_tuple(frame)
        assert nine.reversed().reversed() == nine

    def test_vlan_preserved(self):
        frame = pkt.make_udp("m1", "m2", "1.1.1.1", "2.2.2.2", 5, 6, vlan=42)
        assert extract_nine_tuple(frame).vlan == 42

    @pytest.mark.parametrize("frame,expected", [
        (pkt.make_tcp("m1", "m2", "1.1.1.1", "2.2.2.2", 1000, 80),
         dict(vlan=None, dl_src="m1", dl_dst="m2", dl_type=pkt.ETH_TYPE_IP,
              nw_src="1.1.1.1", nw_dst="2.2.2.2", nw_proto=pkt.IP_PROTO_TCP,
              tp_src=1000, tp_dst=80)),
        (pkt.make_udp("m1", "m2", "1.1.1.1", "2.2.2.2", 5, 6, vlan=42),
         dict(vlan=42, dl_src="m1", dl_dst="m2", dl_type=pkt.ETH_TYPE_IP,
              nw_src="1.1.1.1", nw_dst="2.2.2.2", nw_proto=pkt.IP_PROTO_UDP,
              tp_src=5, tp_dst=6)),
        (pkt.make_icmp_echo("m1", "m2", "1.1.1.1", "2.2.2.2"),
         dict(vlan=None, dl_src="m1", dl_dst="m2", dl_type=pkt.ETH_TYPE_IP,
              nw_src="1.1.1.1", nw_dst="2.2.2.2", nw_proto=pkt.IP_PROTO_ICMP,
              tp_src=None, tp_dst=None)),
        (pkt.make_arp_request("m1", "1.1.1.1", "2.2.2.2"),
         dict(vlan=None, dl_src="m1", dl_dst=pkt.BROADCAST_MAC,
              dl_type=pkt.ETH_TYPE_ARP, nw_src=None, nw_dst=None,
              nw_proto=None, tp_src=None, tp_dst=None)),
    ], ids=["tcp", "udp-vlan", "icmp", "arp"])
    def test_equals_keyword_built_tuple(self, frame, expected):
        nine = extract_nine_tuple(frame)
        assert nine == FlowNineTuple(**expected)
        assert type(nine) is FlowNineTuple
        assert nine._asdict() == expected
        back = nine.reversed()
        assert type(back) is FlowNineTuple
        assert back.reversed() == nine


# ----------------------------------------------------------------------
# The per-packet builders pass every field positionally.  Each case
# below is pinned against a frame built with keywords, so a reordered
# or inserted field fails here instead of shifting a value silently.

def headers(frame):
    """Every header object of a frame, outermost first."""
    out = []
    node = frame
    while dataclasses.is_dataclass(node):
        out.append(node)
        node = getattr(node, "payload", None)
    return out


def assert_same_fields(frame, reference):
    built, wanted = headers(frame), headers(reference)
    assert [type(h) for h in built] == [type(h) for h in wanted]
    for header, expected in zip(built, wanted):
        for f in dataclasses.fields(expected):
            assert getattr(header, f.name) == getattr(expected, f.name), (
                type(header).__name__, f.name)


def ip_frame(proto, segment, size, vlan=None, flow_id=None):
    return Ethernet(
        src="m1", dst="m2", ethertype=pkt.ETH_TYPE_IP,
        payload=IPv4(src="1.1.1.1", dst="2.2.2.2", proto=proto, tos=0,
                     payload=segment),
        vlan=vlan, size=size, flow_id=flow_id, path_tag=None,
    )


def a_path_tag():
    descriptor = PathDescriptor(session_id=4, dpids=(1, 2), tag=99)
    return PathTag(descriptor=descriptor, marks=(7,))


def keyword_references():
    """(name, frame, keyword-built reference) for every kind of frame."""
    udp_args = ("m1", "m2", "1.1.1.1", "2.2.2.2", 10, 20)
    cases = [
        ("udp default size",
         pkt.make_udp(*udp_args, payload=b"hello"),
         ip_frame(pkt.IP_PROTO_UDP,
                  Udp(sport=10, dport=20, payload=b"hello"), 18 + 20 + 8 + 5)),
        ("udp size vlan flow_id",
         pkt.make_udp(*udp_args, b"x", 250, vlan=42, flow_id=9),
         ip_frame(pkt.IP_PROTO_UDP, Udp(sport=10, dport=20, payload=b"x"),
                  250, vlan=42, flow_id=9)),
        ("tcp syn default size",
         pkt.make_tcp(*udp_args, payload=b"GET", flags="S"),
         ip_frame(pkt.IP_PROTO_TCP,
                  Tcp(sport=10, dport=20, flags="S", seq=0, payload=b"GET",
                      ack_seq=None), 18 + 20 + 20 + 3)),
        ("tcp flags size vlan flow_id",
         pkt.make_tcp(*udp_args, b"", "SA", 1500, vlan=7, flow_id=3),
         ip_frame(pkt.IP_PROTO_TCP,
                  Tcp(sport=10, dport=20, flags="SA", seq=0, payload=b""),
                  1500, vlan=7, flow_id=3)),
        ("icmp echo",
         pkt.make_icmp_echo("m1", "m2", "1.1.1.1", "2.2.2.2", ident=5, seq=2),
         ip_frame(pkt.IP_PROTO_ICMP,
                  Icmp(kind="echo-request", ident=5, seq=2), 98)),
        ("arp request",
         pkt.make_arp_request("m1", "10.0.0.1", "10.0.0.2"),
         Ethernet(src="m1", dst=pkt.BROADCAST_MAC,
                  ethertype=pkt.ETH_TYPE_ARP, size=64,
                  payload=Arp(opcode=Arp.REQUEST, sender_mac="m1",
                              sender_ip="10.0.0.1",
                              target_mac=pkt.BROADCAST_MAC,
                              target_ip="10.0.0.2"))),
        ("arp reply",
         pkt.make_arp_reply("m1", "10.0.0.1", "m2", "10.0.0.2"),
         Ethernet(src="m1", dst="m2", ethertype=pkt.ETH_TYPE_ARP, size=64,
                  payload=Arp(opcode=Arp.REPLY, sender_mac="m1",
                              sender_ip="10.0.0.1", target_mac="m2",
                              target_ip="10.0.0.2"))),
        ("lldp",
         pkt.make_lldp(chassis_id=3, port_id=2),
         Ethernet(src=mac_address(pkt.SWITCH_MAC_BASE + 3),
                  dst="01:80:c2:00:00:0e", ethertype=pkt.ETH_TYPE_LLDP,
                  size=64, payload=Lldp(chassis_id=3, port_id=2))),
    ]

    def dhcp_offer():  # the controller's DHCP proxy builds it this way
        return Ethernet(src="m1", dst="m2", ethertype=pkt.ETH_TYPE_IP,
                        size=300, payload=Dhcp(opcode="offer",
                                               client_mac="m2",
                                               offered_ip="10.0.0.9"))

    cases.append(("dhcp", dhcp_offer(), dhcp_offer()))
    tagged = pkt.make_udp(*udp_args, b"t", 250, flow_id=1)
    tagged.path_tag = a_path_tag()
    tagged_ref = ip_frame(pkt.IP_PROTO_UDP,
                          Udp(sport=10, dport=20, payload=b"t"), 250,
                          flow_id=1)
    tagged_ref.path_tag = a_path_tag()
    cases.append(("path-tagged", tagged, tagged_ref))
    return cases


CASES = keyword_references()


class TestPositionalBuilds:
    def test_field_order_is_pinned(self):
        """The positional builders depend on these exact orders."""
        def names(cls):
            return [f.name for f in dataclasses.fields(cls)]

        assert names(Ethernet) == ["src", "dst", "ethertype", "payload",
                                   "vlan", "size", "flow_id", "path_tag"]
        assert names(IPv4) == ["src", "dst", "proto", "tos", "payload"]
        assert names(Udp) == ["sport", "dport", "payload"]
        assert names(Tcp) == ["sport", "dport", "flags", "seq", "payload",
                              "ack_seq"]
        assert names(Arp) == ["opcode", "sender_mac", "sender_ip",
                              "target_mac", "target_ip"]
        assert names(Lldp) == ["chassis_id", "port_id"]
        assert names(Icmp) == ["kind", "ident", "seq"]
        assert names(Dhcp) == ["opcode", "client_mac", "offered_ip"]
        assert FlowNineTuple._fields == (
            "vlan", "dl_src", "dl_dst", "dl_type", "nw_src", "nw_dst",
            "nw_proto", "tp_src", "tp_dst")

    def test_no_field_nothing_reads(self):
        frame = pkt.make_udp("m1", "m2", "1.1.1.1", "2.2.2.2", 1, 2)
        for gone in ("created_at", "packet_id"):
            assert not hasattr(frame, gone)
        assert not hasattr(frame.payload, "ttl")
        assert repr(frame) == "<Ethernet m1->m2 IPv4 46B>"

    @pytest.mark.parametrize("name,frame,reference", CASES,
                             ids=[case[0] for case in CASES])
    def test_builder_equals_keyword_reference(self, name, frame, reference):
        assert_same_fields(frame, reference)
        assert frame == reference

    @pytest.mark.parametrize("name,frame,reference", CASES,
                             ids=[case[0] for case in CASES])
    def test_clone_equals_source_and_shares_no_header(
            self, name, frame, reference):
        copy = frame.clone()
        assert_same_fields(copy, reference)
        assert len(headers(copy)) == len(headers(frame))
        shared = {id(h) for h in headers(copy)} & {id(h) for h in headers(frame)}
        assert not shared, name
        # The accountability tag is immutable, so a clone may share it.
        assert copy.path_tag is frame.path_tag

    def test_clone_of_a_foreign_payload_is_a_copy(self):
        frame = Ethernet(src="m1", dst="m2", ethertype=0x4242, size=64,
                         payload=Bpdu(root_id=1, root_cost=0, bridge_id=1,
                                      port_id=2))
        copy = frame.clone()
        assert copy.payload == frame.payload
        assert copy.payload is not frame.payload
