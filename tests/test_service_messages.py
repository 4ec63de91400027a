"""Unit tests for the element<->controller message codec and certs."""

import pytest

from repro.core import messages as svcmsg
from repro.net.packet import FlowNineTuple


def nine():
    return FlowNineTuple(
        vlan=None, dl_src="m1", dl_dst="m2", dl_type=0x0800,
        nw_src="10.0.0.1", nw_dst="10.0.0.2", nw_proto=6,
        tp_src=1000, tp_dst=80,
    )


class TestCertificates:
    def test_deterministic(self):
        a = svcmsg.issue_certificate("secret", "m1")
        b = svcmsg.issue_certificate("secret", "m1")
        assert a == b and len(a) == 16

    def test_mac_bound(self):
        assert svcmsg.issue_certificate("s", "m1") != \
            svcmsg.issue_certificate("s", "m2")

    def test_secret_bound(self):
        assert svcmsg.issue_certificate("s1", "m") != \
            svcmsg.issue_certificate("s2", "m")


class TestOnlineRoundtrip:
    def test_encode_decode(self):
        message = svcmsg.OnlineMessage(
            element_mac="00:00:00:00:00:05",
            certificate="cert123",
            service_type="ids",
            cpu=0.42,
            memory=0.1,
            pps=1234.5,
            active_flows=7,
        )
        decoded = svcmsg.decode(svcmsg.encode_online(message))
        assert isinstance(decoded, svcmsg.OnlineMessage)
        assert decoded.element_mac == message.element_mac
        assert decoded.service_type == "ids"
        assert decoded.cpu == pytest.approx(0.42, abs=1e-4)
        assert decoded.pps == pytest.approx(1234.5)
        assert decoded.active_flows == 7

    def test_is_service_message(self):
        message = svcmsg.OnlineMessage("m", "c", "ids", 0, 0, 0)
        assert svcmsg.is_service_message(svcmsg.encode_online(message))
        assert not svcmsg.is_service_message(b"GET / HTTP/1.1")
        assert not svcmsg.is_service_message(b"")
        assert not svcmsg.is_service_message(b"LIVESEC1")  # needs separator
        assert not svcmsg.is_service_message(b"LIVESEC2|c|ONLINE|mac=m")


class TestEventRoundtrip:
    def test_attack_report(self):
        message = svcmsg.EventReportMessage(
            element_mac="m5",
            certificate="c",
            kind="attack",
            flow=nine(),
            detail={"attack": "SQL injection", "verdict": "malicious"},
        )
        decoded = svcmsg.decode(svcmsg.encode_event(message))
        assert isinstance(decoded, svcmsg.EventReportMessage)
        assert decoded.kind == "attack"
        assert decoded.flow == nine()
        assert decoded.detail["attack"] == "SQL injection"
        assert decoded.detail["verdict"] == "malicious"

    def test_flow_with_wildcard_fields(self):
        flow = nine()._replace(tp_src=None, nw_src=None, vlan=None)
        message = svcmsg.EventReportMessage("m", "c", "protocol", flow,
                                            {"application": "http"})
        decoded = svcmsg.decode(svcmsg.encode_event(message))
        assert decoded.flow == flow

    def test_flowless_report(self):
        message = svcmsg.EventReportMessage("m", "c", "protocol", None, {})
        decoded = svcmsg.decode(svcmsg.encode_event(message))
        assert decoded.flow is None


class TestMalformed:
    @pytest.mark.parametrize("payload", [
        b"",
        b"NOTMAGIC|x|ONLINE",
        # Well-formed under a magic no sender or receiver speaks.
        b"LIVESEC2|c|ONLINE|mac=m|type=ids|cpu=0.1|mem=0.2|pps=3",
        b"LIVESEC1|cert",
        b"LIVESEC1|cert|BOGUS|mac=m",
        b"LIVESEC1|cert|ONLINE|mac=m",  # missing load fields
        b"LIVESEC1|cert|ONLINE|mac=m|type=ids|cpu=NaNope|mem=0|pps=0",
        b"LIVESEC1|cert|EVENT|mac=m|kind=attack",  # missing flow
        b"LIVESEC1|cert|EVENT|mac=m|kind=attack|flow=1,2,3",  # short tuple
        b"LIVESEC1|cert|ONLINE|noequals",
        b"\xff\xfe\x00binary",
    ])
    def test_rejected(self, payload):
        with pytest.raises(svcmsg.MessageFormatError):
            svcmsg.decode(payload)


class TestStrictCodec:
    """The decode side rejects structurally valid but lying payloads."""

    GOOD = b"LIVESEC1|cert|ONLINE|mac=m|type=ids|cpu=0.5|mem=0.5|pps=10"

    @pytest.mark.parametrize("payload", [
        # Duplicate key: last-wins would let a second copy override.
        b"LIVESEC1|c|ONLINE|mac=m|mac=m2|type=ids|cpu=0|mem=0|pps=0",
        # Unknown ONLINE field.
        b"LIVESEC1|c|ONLINE|mac=m|type=ids|cpu=0|mem=0|pps=0|evil=1",
        # Unknown EVENT field (detail keys must be d.-namespaced).
        b"LIVESEC1|c|EVENT|mac=m|kind=attack|flow=-|verdict=bad",
        # Out-of-range loads.
        b"LIVESEC1|c|ONLINE|mac=m|type=ids|cpu=1.5|mem=0|pps=0",
        b"LIVESEC1|c|ONLINE|mac=m|type=ids|cpu=0|mem=-0.1|pps=0",
        b"LIVESEC1|c|ONLINE|mac=m|type=ids|cpu=0|mem=0|pps=-5",
        b"LIVESEC1|c|ONLINE|mac=m|type=ids|cpu=nan|mem=0|pps=0",
        b"LIVESEC1|c|ONLINE|mac=m|type=ids|cpu=inf|mem=0|pps=0",
        b"LIVESEC1|c|ONLINE|mac=m|type=ids|cpu=0|mem=0|pps=0|flows=-1",
        # Flow tuple with a non-numeric port.
        b"LIVESEC1|c|EVENT|mac=m|kind=x|flow=,a,b,2048,,,,,port",
    ])
    def test_rejected(self, payload):
        with pytest.raises(svcmsg.MessageFormatError):
            svcmsg.decode(payload)

    def test_boundary_values_accepted(self):
        payload = b"LIVESEC1|c|ONLINE|mac=m|type=ids|cpu=1.0|mem=0.0|pps=0"
        decoded = svcmsg.decode(payload)
        assert decoded.cpu == 1.0 and decoded.memory == 0.0

    def test_online_full_round_trip_equality(self):
        message = svcmsg.OnlineMessage(
            element_mac="00:aa:bb:cc:dd:ee",
            certificate="deadbeefcafe0000",
            service_type="firewall",
            cpu=0.25,
            memory=0.75,
            pps=42.0,
            active_flows=3,
        )
        assert svcmsg.decode(svcmsg.encode_online(message)) == message
