"""Unit tests for the service registry and certification."""

import pytest

from repro.core import messages as svcmsg
from repro.core.services import CertificateError, ServiceRegistry


@pytest.fixture
def registry():
    return ServiceRegistry(secret="test-secret", liveness_timeout_s=2.0)


def online(registry, mac="e1", service_type="ids", cpu=0.1, pps=100.0,
           certificate=None, flows=0):
    return svcmsg.OnlineMessage(
        element_mac=mac,
        certificate=(certificate if certificate is not None
                     else registry.issue_certificate(mac)),
        service_type=service_type,
        cpu=cpu,
        memory=0.0,
        pps=pps,
        active_flows=flows,
    )


class TestOnlineIntake:
    def test_first_message_registers(self, registry):
        record = registry.handle_online(online(registry), now=1.0)
        assert record.mac == "e1"
        assert record.service_type == "ids"
        assert record.online and record.reports == 1
        assert registry.is_element("e1")

    def test_load_fields_updated(self, registry):
        registry.handle_online(online(registry, cpu=0.1, pps=10), now=1.0)
        record = registry.handle_online(
            online(registry, cpu=0.9, pps=900, flows=4), now=2.0)
        assert record.cpu == 0.9 and record.pps == 900
        assert record.active_flows == 4
        assert record.reports == 2

    def test_bad_certificate_rejected(self, registry):
        with pytest.raises(CertificateError):
            registry.handle_online(
                online(registry, certificate="forged"), now=1.0)
        assert not registry.is_element("e1")
        assert registry.rejected_macs["e1"] == "bad-certificate"

    def test_event_verification(self, registry):
        message = svcmsg.EventReportMessage(
            element_mac="e1",
            certificate=registry.issue_certificate("e1"),
            kind="attack", flow=None,
        )
        registry.verify_event(message)  # no raise
        message.certificate = "nope"
        with pytest.raises(CertificateError):
            registry.verify_event(message)


class TestLiveness:
    def test_silent_element_expires(self, registry):
        registry.handle_online(online(registry), now=0.0)
        expired = registry.expire(now=3.0)
        assert [r.mac for r in expired] == ["e1"]
        assert not registry.get("e1").online
        assert registry.online_elements() == []

    def test_expire_is_idempotent(self, registry):
        registry.handle_online(online(registry), now=0.0)
        registry.expire(now=3.0)
        assert registry.expire(now=4.0) == []

    def test_fresh_message_revives(self, registry):
        registry.handle_online(online(registry), now=0.0)
        registry.expire(now=3.0)
        record = registry.handle_online(online(registry), now=4.0)
        assert record.online
        assert registry.online_elements("ids")

    def test_expiry_and_recovery_counters(self, registry):
        registry.handle_online(online(registry), now=0.0)
        record = registry.get("e1")
        assert record.offline_count == 0 and record.recovered_count == 0
        registry.expire(now=3.0)
        assert record.offline_count == 1 and record.recovered_count == 0
        registry.handle_online(online(registry), now=4.0)
        assert record.offline_count == 1 and record.recovered_count == 1
        # A second expiry/revival cycle keeps counting; redundant expire
        # sweeps in between must not inflate offline_count.
        registry.expire(now=5.0)
        registry.expire(now=7.0)
        registry.expire(now=8.0)
        assert record.offline_count == 2
        registry.handle_online(online(registry), now=9.0)
        assert record.recovered_count == 2

    def test_online_reports_do_not_count_as_recovery(self, registry):
        registry.handle_online(online(registry), now=0.0)
        registry.handle_online(online(registry), now=1.0)
        registry.handle_online(online(registry), now=2.0)
        record = registry.get("e1")
        assert record.reports == 3
        assert record.recovered_count == 0

    def test_revived_element_is_candidate_again_unbiased(self, registry):
        registry.handle_online(online(registry, pps=500.0, flows=7), now=0.0)
        registry.expire(now=3.0)
        assert registry.online_elements("ids") == []
        registry.handle_online(online(registry, pps=120.0, flows=2), now=4.0)
        rows = registry.online_elements("ids")
        assert [r.mac for r in rows] == ["e1"]
        # The row the policy engine dispatches over reflects the fresh
        # report; the bias half (pending dropped at expiry) is the
        # balancer's: test_forget_element_drops_pending_and_pins.
        assert rows[0].pps == 120.0
        assert rows[0].active_flows == 2

    def test_expire_only_hits_silent_elements(self, registry):
        registry.handle_online(online(registry, mac="e1"), now=0.0)
        registry.handle_online(online(registry, mac="e2"), now=2.5)
        expired = registry.expire(now=3.0)
        assert [r.mac for r in expired] == ["e1"]
        assert [r.mac for r in registry.online_elements("ids")] == ["e2"]
        assert registry.get("e2").offline_count == 0


class TestQueries:
    def test_candidates_by_type(self, registry):
        registry.handle_online(online(registry, mac="e1", service_type="ids"),
                               now=0.0)
        registry.handle_online(online(registry, mac="e2", service_type="l7"),
                               now=0.0)
        assert [r.mac for r in registry.online_elements("ids")] == ["e1"]
        assert registry.online_elements("firewall") == []

    def test_candidates_carry_load(self, registry):
        registry.handle_online(
            online(registry, pps=777.0, cpu=0.5, flows=3), now=0.0)
        row = registry.online_elements("ids")[0]
        assert row.pps == 777.0
        assert row.cpu == 0.5
        assert row.active_flows == 3

    def test_summary(self, registry):
        registry.handle_online(online(registry, mac="e1"), now=0.0)
        registry.handle_online(online(registry, mac="e2", service_type="l7"),
                               now=0.0)
        with pytest.raises(CertificateError):
            registry.handle_online(
                online(registry, mac="rogue", certificate="bad"), now=0.0)
        summary = registry.summary()
        assert summary["total"] == 2
        assert summary["online"] == 2
        assert summary["by_type"] == {"ids": 1, "l7": 1}
        assert summary["rejected"] == 1

    def test_service_types_sorted(self, registry):
        for mac, kind in (("a", "l7"), ("b", "ids"), ("c", "virus")):
            registry.handle_online(
                online(registry, mac=mac, service_type=kind), now=0.0)
        assert registry.service_types() == ["ids", "l7", "virus"]
