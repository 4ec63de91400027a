"""Unit tests for the service elements: capacity model, daemon, engines."""

import pytest

from repro.core import messages as svcmsg
from repro.elements import (
    IntrusionDetectionElement,
    ProtocolIdentificationElement,
    VirusScanElement,
)
from repro.elements.base import ServiceElement
from repro.net import packet as pkt
from repro.net.node import Node, connect


class Collector(Node):
    """Receives what the element re-emits and what its daemon sends."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.frames = []
        self.service_messages = []

    def receive(self, frame, in_port):
        payload = frame.app_payload()
        if svcmsg.is_service_message(payload):
            self.service_messages.append(svcmsg.decode(payload))
        else:
            self.frames.append(frame)


def wire(sim, element):
    collector = Collector(sim, "collector")
    connect(sim, collector, element, bandwidth_bps=10e9, delay_s=1e-6)
    return collector


def frame_to(element, payload=b"", size=1500, sport=1000, dport=80,
             src_ip="10.0.0.1", proto="tcp", flags=""):
    if proto == "tcp":
        frame = pkt.make_tcp("00:00:00:00:00:01", element.mac, src_ip,
                             "10.0.0.9", sport, dport, payload=payload,
                             flags=flags, size=size)
    else:
        frame = pkt.make_udp("00:00:00:00:00:01", element.mac, src_ip,
                             "10.0.0.9", sport, dport, payload=payload,
                             size=size)
    return frame


class TestCapacityModel:
    def test_processes_and_reemits(self, sim):
        element = ServiceElement(sim, "e", "00:00:00:00:00:02", "10.0.0.2")
        collector = wire(sim, element)
        element.receive(frame_to(element), 1)
        sim.run(until=1.0)
        assert element.processed_packets == 1
        assert len(collector.frames) == 1
        # Re-emitted unchanged: the switch restores the real dst.
        assert collector.frames[0].dst == element.mac

    def test_throughput_limited_by_capacity(self, sim):
        element = ServiceElement(sim, "e", "00:00:00:00:00:02", "10.0.0.2",
                                 capacity_bps=12e6, per_packet_cost_s=0.0,
                                 max_queue_bytes=10**9)
        wire(sim, element)
        for __ in range(100):
            element.receive(frame_to(element, size=1500), 1)
        sim.run(until=1.0)
        # 12 Mbps / (1500*8 bits) = 1000 pps -> all 100 done in 0.1s,
        # but throughput over the busy period matches capacity.
        assert element.processed_packets == 100
        assert element._busy_time_total == pytest.approx(100 * 1500 * 8 / 12e6)

    def test_per_packet_cost_reduces_rate(self, sim):
        plain = ServiceElement(sim, "p", "00:00:00:00:00:02", "10.0.0.2",
                               capacity_bps=500e6, per_packet_cost_s=0.0)
        costly = ServiceElement(sim, "c", "00:00:00:00:00:03", "10.0.0.3",
                                capacity_bps=500e6, per_packet_cost_s=4.5e-6)
        assert costly._processing_cost(frame_to(costly)) > \
            plain._processing_cost(frame_to(plain))

    def test_bypass_skips_inspection_cost(self, sim):
        element = IntrusionDetectionElement(
            sim, "e", "00:00:00:00:00:02", "10.0.0.2", bypass=True)
        wire(sim, element)
        element.receive(
            frame_to(element, payload=b"' OR '1'='1", dport=80), 1)
        sim.run(until=1.0)
        assert element.alerts == 0  # bypass mode does not inspect
        assert element.processed_packets == 1

    def test_queue_overflow_drops(self, sim):
        element = ServiceElement(sim, "e", "00:00:00:00:00:02", "10.0.0.2",
                                 capacity_bps=1e6, max_queue_bytes=3000)
        wire(sim, element)
        for __ in range(5):
            element.receive(frame_to(element, size=1500), 1)
        sim.run(until=5.0)
        assert element.dropped_packets == 3
        assert element.processed_packets == 2

    def test_ignores_frames_for_other_macs(self, sim):
        element = ServiceElement(sim, "e", "00:00:00:00:00:02", "10.0.0.2")
        wire(sim, element)
        stray = frame_to(element)
        stray.dst = "00:00:00:00:00:99"
        element.receive(stray, 1)
        sim.run(until=1.0)
        assert element.processed_packets == 0

    def test_invalid_capacity_rejected(self, sim):
        with pytest.raises(ValueError):
            ServiceElement(sim, "e", "m", "ip", capacity_bps=0)


class TestDaemon:
    def test_online_messages_carry_load(self, sim):
        element = ServiceElement(sim, "e", "00:00:00:00:00:02", "10.0.0.2",
                                 report_interval_s=0.5)
        element.provision("cert")
        collector = wire(sim, element)
        for __ in range(10):
            element.receive(frame_to(element), 1)
        sim.run(until=1.2)
        assert len(collector.service_messages) >= 2
        message = collector.service_messages[-1]
        assert isinstance(message, svcmsg.OnlineMessage)
        assert message.certificate == "cert"
        assert message.service_type == "generic"

    def test_shutdown_stops_daemon(self, sim):
        element = ServiceElement(sim, "e", "00:00:00:00:00:02", "10.0.0.2",
                                 report_interval_s=0.5)
        collector = wire(sim, element)
        element.shutdown()
        sim.run(until=2.0)
        assert collector.service_messages == []

    def test_cpu_reflects_busy_fraction(self, sim):
        element = ServiceElement(sim, "e", "00:00:00:00:00:02", "10.0.0.2",
                                 capacity_bps=12e6, per_packet_cost_s=0.0,
                                 report_interval_s=1.0)
        wire(sim, element)
        element.shutdown()  # keep the daemon from resetting the window
        # 50 frames x 1ms = 50 ms busy in a 1 s window -> ~5% CPU.
        for __ in range(50):
            element.receive(frame_to(element, size=1500), 1)
        sim.run(until=0.99)
        cpu, __, pps = element.current_load()
        assert cpu == pytest.approx(0.05, abs=0.01)
        assert pps == pytest.approx(50, abs=5)


class TestIds:
    def test_content_rule_fires_once_per_flow(self, sim):
        element = IntrusionDetectionElement(sim, "e", "00:00:00:00:00:02",
                                            "10.0.0.2")
        collector = wire(sim, element)
        for __ in range(3):
            element.receive(
                frame_to(element, payload=b"x ' OR '1'='1 y", dport=80), 1)
        sim.run(until=1.0)
        attacks = [m for m in collector.service_messages
                   if isinstance(m, svcmsg.EventReportMessage)]
        assert len(attacks) == 1
        assert "SQL injection" in attacks[0].detail["attack"]
        assert attacks[0].detail["verdict"] == "malicious"

    def test_rule_port_constraint(self, sim):
        element = IntrusionDetectionElement(sim, "e", "00:00:00:00:00:02",
                                            "10.0.0.2")
        wire(sim, element)
        element.receive(
            frame_to(element, payload=b"' OR '1'='1", dport=8080), 1)
        sim.run(until=1.0)
        assert element.alerts == 0  # SQLi rule is port-80 scoped

    def test_portscan_detection(self, sim):
        element = IntrusionDetectionElement(sim, "e", "00:00:00:00:00:02",
                                            "10.0.0.2")
        collector = wire(sim, element)
        for port in range(1000, 1020):
            element.receive(frame_to(element, dport=port, flags="S",
                                     size=64), 1)
        sim.run(until=1.0)
        scans = [m for m in collector.service_messages
                 if isinstance(m, svcmsg.EventReportMessage)
                 and "portscan" in m.detail.get("attack", "")]
        assert len(scans) == 1

    def test_no_portscan_for_repeat_ports(self, sim):
        element = IntrusionDetectionElement(sim, "e", "00:00:00:00:00:02",
                                            "10.0.0.2")
        wire(sim, element)
        for __ in range(30):
            element.receive(frame_to(element, dport=80), 1)
        sim.run(until=1.0)
        assert element.alerts == 0

    def test_clean_traffic_silent(self, sim):
        element = IntrusionDetectionElement(sim, "e", "00:00:00:00:00:02",
                                            "10.0.0.2")
        collector = wire(sim, element)
        element.receive(
            frame_to(element, payload=b"GET /index.html HTTP/1.1"), 1)
        sim.run(until=1.0)
        events = [m for m in collector.service_messages
                  if isinstance(m, svcmsg.EventReportMessage)]
        assert events == []


class TestL7:
    @pytest.mark.parametrize("payload,expected", [
        (b"GET / HTTP/1.1\r\n", "http"),
        (b"SSH-2.0-OpenSSH_5.8", "ssh"),
        (b"\x13BitTorrent protocol", "bittorrent"),
        (b"EHLO mail.example.com", "smtp"),
        (b"\x16\x03\x01\x02\x00", "ssl"),
    ])
    def test_classification(self, sim, payload, expected):
        element = ProtocolIdentificationElement(sim, "e",
                                                "00:00:00:00:00:02",
                                                "10.0.0.2")
        collector = wire(sim, element)
        element.receive(frame_to(element, payload=payload), 1)
        sim.run(until=1.0)
        reports = [m for m in collector.service_messages
                   if isinstance(m, svcmsg.EventReportMessage)]
        assert len(reports) == 1
        assert reports[0].kind == "protocol"
        assert reports[0].detail["application"] == expected

    def test_classified_once_per_flow(self, sim):
        element = ProtocolIdentificationElement(sim, "e",
                                                "00:00:00:00:00:02",
                                                "10.0.0.2")
        collector = wire(sim, element)
        for __ in range(5):
            element.receive(frame_to(element, payload=b"GET / HTTP/1.1"), 1)
        sim.run(until=1.0)
        reports = [m for m in collector.service_messages
                   if isinstance(m, svcmsg.EventReportMessage)]
        assert len(reports) == 1

    def test_gives_up_after_bounded_packets(self, sim):
        element = ProtocolIdentificationElement(sim, "e",
                                                "00:00:00:00:00:02",
                                                "10.0.0.2")
        collector = wire(sim, element)
        for __ in range(15):
            element.receive(frame_to(element, payload=b"\x00\x01garbage"), 1)
        sim.run(until=1.0)
        reports = [m for m in collector.service_messages
                   if isinstance(m, svcmsg.EventReportMessage)]
        assert len(reports) == 1
        assert reports[0].detail["application"] == "unknown"


class TestVirusScanner:
    def test_signature_in_single_packet(self, sim):
        element = VirusScanElement(sim, "e", "00:00:00:00:00:02", "10.0.0.2")
        collector = wire(sim, element)
        element.receive(
            frame_to(element,
                     payload=b"X5O!P%@AP[4\\PZX54(P^)7CC)7}$EICAR"), 1)
        sim.run(until=1.0)
        assert element.detections == 1
        reports = [m for m in collector.service_messages
                   if isinstance(m, svcmsg.EventReportMessage)]
        assert reports[0].detail["verdict"] == "malicious"

    def test_signature_straddling_packets(self, sim):
        element = VirusScanElement(sim, "e", "00:00:00:00:00:02", "10.0.0.2")
        wire(sim, element)
        signature = b"X5O!P%@AP[4\\PZX54(P^)7CC)7}$EICAR"
        element.receive(frame_to(element, payload=signature[:15]), 1)
        element.receive(frame_to(element, payload=signature[15:]), 1)
        sim.run(until=1.0)
        assert element.detections == 1

    def test_clean_payload_silent(self, sim):
        element = VirusScanElement(sim, "e", "00:00:00:00:00:02", "10.0.0.2")
        wire(sim, element)
        element.receive(frame_to(element, payload=b"innocent bytes"), 1)
        sim.run(until=1.0)
        assert element.detections == 0


class TestIdsRuleLanguage:
    """Snort-style content modifiers (offset/depth/nocase, multi-content)."""

    def _fire(self, sim, rule, payload, dport=80):
        element = IntrusionDetectionElement(
            sim, "e", "00:00:00:00:00:02", "10.0.0.2", rules=[rule])
        wire(sim, element)
        element.receive(frame_to(element, payload=payload, dport=dport), 1)
        sim.run(until=0.5)
        return element.alerts

    def test_nocase_matching(self, sim):
        from repro.elements.signatures import IdsRule

        rule = IdsRule(name="nocase", content=b"select * from",
                       nocase=True)
        assert self._fire(sim, rule, b"SELECT * FROM users") == 1

    def test_case_sensitive_by_default(self, sim):
        from repro.elements.signatures import IdsRule

        rule = IdsRule(name="cs", content=b"select * from")
        assert self._fire(sim, rule, b"SELECT * FROM users") == 0

    def test_offset_skips_prefix(self, sim):
        from repro.elements.signatures import ContentMatch, IdsRule

        rule = IdsRule(name="off", contents=(
            ContentMatch(b"EVIL", offset=4),))
        assert self._fire(sim, rule, b"xxxxEVIL") == 1
        assert self._fire(sim, rule, b"EVILxxxx") == 0

    def test_depth_bounds_search(self, sim):
        from repro.elements.signatures import ContentMatch, IdsRule

        rule = IdsRule(name="depth", contents=(
            ContentMatch(b"EVIL", depth=6),))
        assert self._fire(sim, rule, b"xxEVILzz") == 1
        assert self._fire(sim, rule, b"xxxxxxEVIL") == 0

    def test_multi_content_all_must_match(self, sim):
        from repro.elements.signatures import ContentMatch, IdsRule

        rule = IdsRule(name="multi", contents=(
            ContentMatch(b"user="),
            ContentMatch(b"passwd="),
        ))
        assert self._fire(sim, rule, b"user=a&passwd=b") == 1
        assert self._fire(sim, rule, b"user=a&token=b") == 0

    def test_source_port_constraint(self, sim):
        from repro.elements.signatures import IdsRule
        from repro.net.packet import IP_PROTO_TCP

        rule = IdsRule(name="src", content=b"BEACON",
                       nw_proto=IP_PROTO_TCP, tp_src=6667)
        element = IntrusionDetectionElement(
            sim, "e", "00:00:00:00:00:02", "10.0.0.2", rules=[rule])
        wire(sim, element)
        element.receive(
            frame_to(element, payload=b"BEACON", sport=6667), 1)
        element.receive(
            frame_to(element, payload=b"BEACON", sport=80), 1)
        sim.run(until=0.5)
        assert element.alerts == 1
