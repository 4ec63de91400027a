"""Network Information Base: the controller's global state.

Section I: "LiveSec employs a global controller to obtain the entire
network information, e.g. network logical topology and Network
Information Base (NIB)".  The NIB unifies the paper's *routing table*
(host locations learned from ARP, Section III.C.2) and *link table*
(logical port mapping between AS switches, learned from LLDP and
bidirectional ARP), plus the switch inventory.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

DEFAULT_HOST_TIMEOUT_S = 120.0
_DIGEST_CHUNK = 4096  # rows per sha256 update


@dataclass(slots=True)
class HostRecord:
    """The routing-table row for one discovered host.

    ``dpid``/``port`` give the AS switch and Network-Periphery port the
    host is attached to -- the paper's ``src-sw`` and ``src-sw-inport``.
    Slotted: a large network holds one per resident.
    """

    mac: str
    ip: Optional[str]
    dpid: int
    port: int
    first_seen: float
    last_seen: float
    is_element: bool = False


@dataclass
class LogicalLink:
    """The link-table row between two AS switches.

    ``src_port`` is the paper's ``src-sw-outport`` (the Legacy-Switching
    port of the source switch); ``dst_port`` is ``dst-sw-inport``.
    """

    src_dpid: int
    src_port: int
    dst_dpid: int
    dst_port: int
    last_seen: float


@dataclass
class SwitchRecord:
    """One connected AS switch or OF Wi-Fi AP."""

    dpid: int
    name: str
    ports: Tuple[int, ...]
    joined_at: float


class NetworkInformationBase:
    """Unified, queryable view of switches, hosts and logical links."""

    def __init__(self, host_timeout_s: float = DEFAULT_HOST_TIMEOUT_S):
        self.host_timeout_s = host_timeout_s
        self.hosts: Dict[str, HostRecord] = {}  # keyed by MAC
        self._hosts_by_ip: Dict[str, str] = {}  # ip -> mac
        self.links: Dict[Tuple[int, int], LogicalLink] = {}
        self.switches: Dict[int, SwitchRecord] = {}
        self._uplink_ports: Dict[int, set] = {}
        #: Bumped exactly where a ``location_digest`` row can change
        #: (never by a ``last_seen`` refresh), and never reset: an
        #: unchanged version means unchanged rows.  It is what a shard's
        #: hello carries, and the digest's memo key.
        self.location_version = 0
        self._digest_memo: Tuple[int, str] = (-1, "")
        #: No row's ``last_seen`` is older than this (``last_seen`` only
        #: moves forward), so no sweep before ``_oldest_seen +
        #: host_timeout_s`` can expire anybody.
        self._oldest_seen = 0.0

    # ------------------------------------------------------------------
    # Switches

    def add_switch(self, dpid: int, name: str, ports: Tuple[int, ...],
                   now: float) -> SwitchRecord:
        record = SwitchRecord(dpid=dpid, name=name, ports=ports, joined_at=now)
        self.switches[dpid] = record
        return record

    def remove_switch(self, dpid: int) -> None:
        self.switches.pop(dpid, None)
        for key in [k for k in self.links if dpid in k]:
            del self.links[key]
        self._recompute_uplinks()
        for mac in [m for m, h in self.hosts.items() if h.dpid == dpid]:
            self.remove_host(mac)

    # ------------------------------------------------------------------
    # Hosts (the routing table)

    def learn_host(
        self,
        mac: str,
        ip: Optional[str],
        dpid: int,
        port: int,
        now: float,
        is_element: bool = False,
    ) -> Tuple[HostRecord, bool]:
        """Record or refresh a host location.

        Returns ``(record, is_new)`` where ``is_new`` is also True for
        a host that moved to a different switch/port (VM migration,
        Section III.D.1).
        """
        existing = self.hosts.get(mac)
        if not self.hosts or now < self._oldest_seen:
            self._oldest_seen = now
        if existing is None:
            record = HostRecord(mac, ip or None, dpid, port, now, now, is_element)
        else:
            if ip and ip != existing.ip:
                self._unindex_ip(mac, existing.ip)
            if existing.dpid == dpid and existing.port == port:
                existing.last_seen = now
                if ip:
                    if ip != existing.ip:
                        existing.ip = ip
                        self.location_version += 1
                    self._hosts_by_ip[ip] = mac
                if is_element and not existing.is_element:
                    existing.is_element = True
                    self.location_version += 1
                return existing, False
            record = HostRecord(
                mac, ip or existing.ip, dpid, port, existing.first_seen, now,
                is_element or existing.is_element,
            )
        self.hosts[mac] = record
        if record.ip:
            self._hosts_by_ip[record.ip] = mac
        self.location_version += 1
        return record, True

    def remove_host(self, mac: str) -> Optional[HostRecord]:
        record = self.hosts.pop(mac, None)
        if record is not None:
            self._unindex_ip(mac, record.ip)
            self.location_version += 1
        return record

    def _unindex_ip(self, mac: str, ip: Optional[str]) -> None:
        """Drop ``ip -> mac`` unless the address has since been
        re-leased to another host, whose mapping must survive."""
        if ip and self._hosts_by_ip.get(ip) == mac:
            del self._hosts_by_ip[ip]

    def host_by_mac(self, mac: str) -> Optional[HostRecord]:
        return self.hosts.get(mac)

    def host_by_ip(self, ip: str) -> Optional[HostRecord]:
        mac = self._hosts_by_ip.get(ip)
        return self.hosts.get(mac) if mac else None

    def expire_hosts(
        self, now: float, keep_alive: Optional[Callable[[HostRecord], bool]] = None
    ) -> List[HostRecord]:
        """Drop hosts not heard from within the timeout (the paper's
        'removed from the routing table due to ARP packet timeout').
        A silent host that ``keep_alive`` vouches for is refreshed
        instead of dropped."""
        stale, timeout = [], self.host_timeout_s
        if now - self._oldest_seen <= timeout:
            return stale
        oldest = now
        for record in self.hosts.values():
            if now - record.last_seen > timeout:
                if keep_alive is not None and keep_alive(record):
                    record.last_seen = now
                else:
                    stale.append(record)
            elif record.last_seen < oldest:
                oldest = record.last_seen
        self._oldest_seen = oldest
        for record in stale:
            self.remove_host(record.mac)
        return stale

    # ------------------------------------------------------------------
    # Links (the link table)

    def learn_link(self, src_dpid: int, src_port: int, dst_dpid: int,
                   dst_port: int, now: float) -> LogicalLink:
        link = LogicalLink(src_dpid, src_port, dst_dpid, dst_port, now)
        existing = self.links.get((src_dpid, dst_dpid))
        # Dual-homed pairs are seen through several port pairs; keep
        # the lowest pair as the canonical mapping for determinism.
        if existing is None or (src_port, dst_port) <= (
            existing.src_port, existing.dst_port
        ):
            self.links[(src_dpid, dst_dpid)] = link
        else:
            existing.last_seen = now
        # Remember *every* Legacy-Switching port so periphery
        # classification never mistakes a redundant uplink for a host
        # port.
        self._uplink_ports.setdefault(src_dpid, set()).add(src_port)
        self._uplink_ports.setdefault(dst_dpid, set()).add(dst_port)
        return link

    def rebuild_links(self, confirmed_links, now: float) -> None:
        """Replace the link table with what discovery still confirms.

        ``confirmed_links`` is an iterable of objects with
        ``src_dpid/src_port/dst_dpid/dst_port`` attributes.
        """
        self.links = {}
        self._uplink_ports = {}
        for link in confirmed_links:
            self.learn_link(
                link.src_dpid, link.src_port, link.dst_dpid, link.dst_port, now
            )

    def _recompute_uplinks(self) -> None:
        self._uplink_ports = {}
        for link in self.links.values():
            self._uplink_ports.setdefault(link.src_dpid, set()).add(link.src_port)
            self._uplink_ports.setdefault(link.dst_dpid, set()).add(link.dst_port)

    def link(self, src_dpid: int, dst_dpid: int) -> Optional[LogicalLink]:
        return self.links.get((src_dpid, dst_dpid))

    def uplink_ports(self, dpid: int) -> frozenset:
        """Every Legacy-Switching port of a switch seen in the link
        table (a dual-homed switch has more than one)."""
        return frozenset(self._uplink_ports.get(dpid, ()))

    def uplink_port(self, dpid: int) -> Optional[int]:
        """The *primary* Legacy-Switching port of a switch: the lowest
        numbered uplink, used consistently for announcements, egress
        matches and uplink outputs so the legacy fabric's MAC learning
        and our flow matches agree on one path."""
        ports = self._uplink_ports.get(dpid)
        if not ports:
            return None
        return min(ports)

    def is_full_mesh(self) -> bool:
        """Whether every pair of known switches has a discovered link
        in both directions (the paper's full-mesh logical topology)."""
        dpids = list(self.switches)
        if len(dpids) < 2:
            return True
        return all(
            (a, b) in self.links
            for a in dpids
            for b in dpids
            if a != b
        )

    # ------------------------------------------------------------------
    # Location digest (read on demand; rounds carry ``location_version``)

    def location_digest(self) -> str:
        """sha256 over the host-location rows in MAC order (the MAC is
        the unique key).  Two NIBs hold the same locations exactly when
        their digests match.  It reads every row, so no periodic path
        calls it: the reader who asks (``ShardCoordinator.status``)
        pays, once per ``location_version``."""
        version, hexdigest = self._digest_memo
        if version != self.location_version:
            macs = sorted(self.hosts)
            digest = hashlib.sha256()
            for start in range(0, len(macs), _DIGEST_CHUNK):
                digest.update("".join([
                    f"{h.mac} {h.ip} {h.dpid} {h.port} {int(h.is_element)}\n"
                    for h in map(self.hosts.__getitem__, macs[start:start + _DIGEST_CHUNK])
                ]).encode())
            hexdigest = digest.hexdigest()
            self._digest_memo = (self.location_version, hexdigest)
        return hexdigest

    # ------------------------------------------------------------------
    # Views

    def user_hosts(self) -> Iterable[HostRecord]:
        return [h for h in self.hosts.values() if not h.is_element]

    def element_hosts(self) -> Iterable[HostRecord]:
        return [h for h in self.hosts.values() if h.is_element]

    def summary(self) -> dict:
        return {
            "switches": len(self.switches),
            "links": len(self.links),
            "hosts": len(self.hosts),
            "elements": sum(1 for h in self.hosts.values() if h.is_element),
            "full_mesh": self.is_full_mesh(),
        }
