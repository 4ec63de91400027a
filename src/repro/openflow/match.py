"""OpenFlow 1.0 match structure: the 12-tuple with wildcards.

A field set to ``None`` is wildcarded.  The paper's "9-tuple"
(Section III.C.3) is this structure without ``in_port``, ``dl_vlan_pcp``
and ``nw_tos``; :meth:`Match.from_nine_tuple` bridges the two.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Tuple

from repro.net.packet import (
    ETH_TYPE_IP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    Ethernet,
    FlowNineTuple,
    IPv4,
    Tcp,
    Udp,
    extract_nine_tuple,
)


@dataclass(frozen=True)
class Match:
    """An OpenFlow 1.0 flow match.  ``None`` means wildcard."""

    in_port: Optional[int] = None
    dl_src: Optional[str] = None
    dl_dst: Optional[str] = None
    dl_type: Optional[int] = None
    dl_vlan: Optional[int] = None
    dl_vlan_pcp: Optional[int] = None
    nw_src: Optional[str] = None
    nw_dst: Optional[str] = None
    nw_proto: Optional[int] = None
    nw_tos: Optional[int] = None
    tp_src: Optional[int] = None
    tp_dst: Optional[int] = None

    @classmethod
    def from_frame(cls, frame: Ethernet, in_port: Optional[int] = None) -> "Match":
        """The exact match of a concrete frame (plus optional in_port)."""
        nine = extract_nine_tuple(frame)
        return cls.from_nine_tuple(nine, in_port=in_port)

    @classmethod
    def from_nine_tuple(
        cls, nine: FlowNineTuple, in_port: Optional[int] = None
    ) -> "Match":
        """Build a match from the paper's 9-tuple flow identity."""
        return cls(
            in_port=in_port,
            dl_vlan=nine.vlan,
            dl_src=nine.dl_src,
            dl_dst=nine.dl_dst,
            dl_type=nine.dl_type,
            nw_src=nine.nw_src,
            nw_dst=nine.nw_dst,
            nw_proto=nine.nw_proto,
            tp_src=nine.tp_src,
            tp_dst=nine.tp_dst,
        )

    def matches(self, frame: Ethernet, in_port: int) -> bool:
        """Whether a concrete frame arriving on ``in_port`` matches."""
        if self.in_port is not None and self.in_port != in_port:
            return False
        if self.dl_src is not None and self.dl_src != frame.src:
            return False
        if self.dl_dst is not None and self.dl_dst != frame.dst:
            return False
        if self.dl_type is not None and self.dl_type != frame.ethertype:
            return False
        if self.dl_vlan is not None and self.dl_vlan != frame.vlan:
            return False
        ip = frame.ip()
        if self.nw_src is not None and (ip is None or ip.src != self.nw_src):
            return False
        if self.nw_dst is not None and (ip is None or ip.dst != self.nw_dst):
            return False
        if self.nw_proto is not None and (ip is None or ip.proto != self.nw_proto):
            return False
        if self.nw_tos is not None and (ip is None or ip.tos != self.nw_tos):
            return False
        if self.tp_src is not None or self.tp_dst is not None:
            segment = ip.payload if ip is not None else None
            if not isinstance(segment, (Tcp, Udp)):
                return False
            if self.tp_src is not None and segment.sport != self.tp_src:
                return False
            if self.tp_dst is not None and segment.dport != self.tp_dst:
                return False
        return True

    def wildcard_count(self) -> int:
        """How many of the 12 fields are wildcarded (0 = exact match)."""
        return sum(1 for name in _MATCH_FIELDS if getattr(self, name) is None)

    def is_subset_of(self, other: "Match") -> bool:
        """True when every frame matching ``self`` also matches ``other``.

        Used for OpenFlow's non-strict delete semantics.
        """
        for name in _MATCH_FIELDS:
            ours = getattr(self, name)
            theirs = getattr(other, name)
            if theirs is not None and ours != theirs:
                return False
        return True

    def overlaps(self, other: "Match") -> bool:
        """True when some frame could match both (field-wise algebra).

        Two matches are disjoint exactly when some field is pinned to
        different values on each side; everywhere else a frame carrying
        the more specific side's values satisfies both.  The policy
        compiler's conflict detector is built on this.
        """
        for name in _MATCH_FIELDS:
            ours = getattr(self, name)
            theirs = getattr(other, name)
            if ours is not None and theirs is not None and ours != theirs:
                return False
        return True

    def intersection(self, other: "Match") -> Optional["Match"]:
        """The match space common to both, or None when disjoint.

        Field-wise: a pinned value wins over a wildcard; two pinned
        values must agree.  The result matches exactly the frames both
        inputs match, and is what conflict reports print as "the
        overlapping match space".
        """
        values = {}
        for name in _MATCH_FIELDS:
            ours = getattr(self, name)
            theirs = getattr(other, name)
            if ours is None:
                values[name] = theirs
            elif theirs is None or theirs == ours:
                values[name] = ours
            else:
                return None
        return Match(**values)

    def exact_index_key(self) -> Optional[Tuple]:
        """The hash key of a fully-specified match, or None if wildcard.

        A match is *exact-indexable* when every frame it matches
        produces the same :func:`frame_index_key` -- i.e. each keyed
        field is either set, or forced to extract as None by the set
        fields (a non-IP ``dl_type`` forces the network/transport
        fields None; a non-TCP/UDP ``nw_proto`` forces the port fields
        None).  ``dl_vlan`` is deliberately *not* part of the key (a
        wildcarded VLAN would otherwise be unindexable for every
        untagged flow); candidates found under the key are re-verified
        with :meth:`matches`, which checks it.  ``dl_vlan_pcp`` and
        ``nw_tos`` are outside the 9-tuple and force the wildcard path
        when set.
        """
        if self.dl_vlan_pcp is not None or self.nw_tos is not None:
            return None
        if (
            self.in_port is None
            or self.dl_src is None
            or self.dl_dst is None
            or self.dl_type is None
        ):
            return None
        if self.dl_type == ETH_TYPE_IP:
            if self.nw_src is None or self.nw_dst is None \
                    or self.nw_proto is None:
                return None
            if self.nw_proto in (IP_PROTO_TCP, IP_PROTO_UDP):
                if self.tp_src is None or self.tp_dst is None:
                    return None
            elif self.tp_src is not None or self.tp_dst is not None:
                return None
        elif (
            self.nw_src is not None
            or self.nw_dst is not None
            or self.nw_proto is not None
            or self.tp_src is not None
            or self.tp_dst is not None
        ):
            return None
        return (
            self.in_port, self.dl_src, self.dl_dst, self.dl_type,
            self.nw_src, self.nw_dst, self.nw_proto,
            self.tp_src, self.tp_dst,
        )

    def __str__(self) -> str:
        set_fields = ", ".join(
            f"{name}={getattr(self, name)}"
            for name in _MATCH_FIELDS
            if getattr(self, name) is not None
        )
        return f"Match({set_fields or 'any'})"


#: The twelve field names in declaration order, resolved once: the
#: field-wise algebra above runs per installed entry on every non-strict
#: delete and flow-stats request.
_MATCH_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(Match))


def frame_index_key(frame: Ethernet, in_port: int) -> Tuple:
    """The exact-match hash key of a concrete frame arriving on a port.

    Mirrors :meth:`Match.exact_index_key`: in_port plus the 9-tuple,
    minus the VLAN tag, with transport ports normalized to None unless
    the IP protocol is TCP/UDP (matching the indexability rule).
    """
    ip = frame.payload  # Ethernet.ip(), inlined: once per lookup
    if frame.ethertype != ETH_TYPE_IP or not isinstance(ip, IPv4):
        return (in_port, frame.src, frame.dst, frame.ethertype,
                None, None, None, None, None)
    tp_src = tp_dst = None
    if ip.proto == IP_PROTO_TCP or ip.proto == IP_PROTO_UDP:
        segment = ip.payload
        if isinstance(segment, (Tcp, Udp)):
            tp_src, tp_dst = segment.sport, segment.dport
    return (in_port, frame.src, frame.dst, frame.ethertype,
            ip.src, ip.dst, ip.proto, tp_src, tp_dst)
