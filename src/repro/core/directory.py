"""The directory proxy for ARP and DHCP (Section III.C.2).

"Directly broadcasting will burden the legacy switching network ...
a dedicated directory proxy should be employed to specially handle all
ARP and DHCP resolutions by looking-up global host information
maintained by LiveSec controller."

The proxy answers ARP requests from the NIB (crafting a unicast reply
injected at the requester's own switch) and runs a small DHCP server
over the same punt path.  Only when the target is genuinely unknown is
the request flooded, and the resulting reply teaches the NIB.

On a shard fabric each shard runs its own proxy over its own NIB, but
the global host information is the fabric's: the host tracker hands
in a target located on another shard, and every proxy leases from the
coordinator's one DHCP book (``leases``), so a client is offered one
address whichever shard it asks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.nib import HostRecord, NetworkInformationBase
from repro.net import packet as pkt
from repro.net.packet import Arp, Dhcp, Ethernet, ip_address


@dataclass
class ArpDecision:
    """What the controller should do with a punted ARP request."""

    action: str  # "reply" | "flood" | "ignore"
    reply_frame: Optional[Ethernet] = None


class DirectoryProxy:
    """ARP/DHCP resolution from the controller's global host table."""

    def __init__(self, nib: NetworkInformationBase,
                 dhcp_pool_base: str = "10.1.0.0"):
        self.nib = nib
        self.dhcp_pool_base = dhcp_pool_base
        #: mac -> ip, never released: host number ``n`` of the pool is
        #: the ``n``-th lease.  On a shard fabric every shard's proxy
        #: holds the coordinator's one book here.
        self.leases: Dict[str, str] = {}
        self.arp_replies = 0
        self.arp_floods = 0
        self.dhcp_acks = 0

    # ------------------------------------------------------------------
    # ARP

    def handle_arp_request(
        self, arp: Arp, target: Optional[HostRecord] = None
    ) -> ArpDecision:
        """Decide how to resolve a punted ARP request.

        Gratuitous ARP (sender == target) is a location announcement,
        not a question: nothing to answer, nothing to flood.
        ``target``: the asked-for host, if the caller located it (the
        host tracker looks past this NIB); None: look in the NIB.
        """
        if arp.sender_ip == arp.target_ip:
            return ArpDecision(action="ignore")
        if target is None:
            target = self.nib.host_by_ip(arp.target_ip)
        if target is None:
            self.arp_floods += 1
            return ArpDecision(action="flood")
        reply = pkt.make_arp_reply(
            sender_mac=target.mac,
            sender_ip=arp.target_ip,
            target_mac=arp.sender_mac,
            target_ip=arp.sender_ip,
        )
        self.arp_replies += 1
        return ArpDecision(action="reply", reply_frame=reply)

    # ------------------------------------------------------------------
    # DHCP

    def handle_dhcp(self, dhcp: Dhcp) -> Optional[Dhcp]:
        """DHCP state machine: DISCOVER -> OFFER, REQUEST -> ACK.

        Returns the response payload to send back to the client, or
        None for message types the server ignores.
        """
        if dhcp.opcode == "discover":
            ip = self._lease_for(dhcp.client_mac)
            return Dhcp(opcode="offer", client_mac=dhcp.client_mac, offered_ip=ip)
        if dhcp.opcode == "request":
            ip = self._lease_for(dhcp.client_mac)
            self.dhcp_acks += 1
            return Dhcp(opcode="ack", client_mac=dhcp.client_mac, offered_ip=ip)
        return None

    def _lease_for(self, mac: str) -> str:
        ip = self.leases.get(mac)
        if ip is None:
            ip = ip_address(len(self.leases) + 1, base=self.dhcp_pool_base)
            self.leases[mac] = ip
        return ip

    def lease_of(self, mac: str) -> Optional[str]:
        return self.leases.get(mac)
