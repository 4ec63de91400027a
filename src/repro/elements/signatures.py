"""Rule and pattern definitions for the security elements.

:class:`IdsRule` is a faithful miniature of a Snort rule: protocol and
port constraints plus a payload ``content`` match and an attack name.
``DEFAULT_IDS_RULES`` covers the attack classes the deployment's Snort
configuration would flag in the Figure 8 scenario (malicious web
access) plus the usual suspects.  ``L7_PATTERNS`` mirrors the classic
l7-filter pattern set: a byte signature over the first payload bytes
of a flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.net.packet import IP_PROTO_TCP, IP_PROTO_UDP


@dataclass(frozen=True)
class ContentMatch:
    """One Snort-style ``content`` clause with its modifiers.

    ``offset`` skips that many payload bytes before searching;
    ``depth`` bounds how far (from the offset) the search may look;
    ``nocase`` makes the match case-insensitive -- the same semantics
    as Snort's ``content:...; offset:N; depth:N; nocase;``.
    """

    content: bytes
    nocase: bool = False
    offset: int = 0
    depth: Optional[int] = None
    # ``content`` as searched for (lowered under ``nocase``); built
    # once at rule load, not per inspected packet.
    needle: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "needle",
            self.content.lower() if self.nocase else self.content,
        )

    def matches(self, payload: bytes) -> bool:
        if self.offset:
            payload = payload[self.offset:]
        if self.depth is not None:
            payload = payload[: self.depth]
        if self.nocase:
            payload = payload.lower()
        return self.needle in payload


@dataclass(frozen=True)
class IdsRule:
    """A Snort-style detection rule.

    ``content`` is the single-clause shorthand; ``contents`` takes a
    tuple of :class:`ContentMatch` clauses that must ALL match (Snort's
    multiple-content AND semantics).  At least one body/flag constraint
    is required, otherwise the rule would fire on all traffic.
    """

    name: str
    content: Optional[bytes] = None  # shorthand: one plain substring
    contents: Tuple[ContentMatch, ...] = ()
    nocase: bool = False  # applies to the shorthand ``content``
    nw_proto: Optional[int] = None
    tp_src: Optional[int] = None
    tp_dst: Optional[int] = None
    tcp_flags: Optional[str] = None  # exact flag string, e.g. "S"
    severity: str = "high"
    # Every clause that must match, the shorthand first; built once at
    # rule load, not per inspected packet.
    clauses: Tuple[ContentMatch, ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        clauses = self.contents
        if self.content is not None:
            clauses = (ContentMatch(self.content, nocase=self.nocase),
                       *clauses)
        object.__setattr__(self, "clauses", clauses)

    def matches(self, payload: bytes, nw_proto: Optional[int],
                tp_dst: Optional[int], tcp_flags: Optional[str],
                tp_src: Optional[int] = None) -> bool:
        if self.nw_proto is not None and self.nw_proto != nw_proto:
            return False
        if self.tp_dst is not None and self.tp_dst != tp_dst:
            return False
        if self.tp_src is not None and self.tp_src != tp_src:
            return False
        if self.tcp_flags is not None and self.tcp_flags != tcp_flags:
            return False
        clauses = self.clauses
        if not clauses and self.tcp_flags is None:
            # A rule must constrain *something* about the packet body
            # or flags, otherwise it would fire on all traffic.
            return False
        return all(clause.matches(payload) for clause in clauses)


DEFAULT_IDS_RULES: Tuple[IdsRule, ...] = (
    IdsRule(
        name="EXPLOIT shellcode NOP sled",
        content=b"\x90\x90\x90\x90\x90\x90\x90\x90",
    ),
    IdsRule(
        name="MALWARE known C2 beacon",
        content=b"BEACON:cnc.evil.example",
    ),
    IdsRule(
        name="WEB-ATTACK SQL injection attempt",
        content=b"' OR '1'='1",
        nw_proto=IP_PROTO_TCP,
        tp_dst=80,
    ),
    IdsRule(
        name="WEB-ATTACK directory traversal",
        content=b"../../../../etc/passwd",
        nw_proto=IP_PROTO_TCP,
        tp_dst=80,
    ),
    IdsRule(
        name="WEB-ATTACK XSS script tag",
        content=b"<script>alert(",
        nw_proto=IP_PROTO_TCP,
    ),
    IdsRule(
        name="POLICY malicious website request",
        content=b"GET /malware/dropper.exe",
        nw_proto=IP_PROTO_TCP,
        tp_dst=80,
    ),
    IdsRule(
        name="DOS udp flood marker",
        content=b"FLOODFLOODFLOOD",
        nw_proto=IP_PROTO_UDP,
    ),
    IdsRule(
        name="EXPLOIT buffer overflow pattern",
        content=b"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",
    ),
    IdsRule(
        name="TROJAN backdoor handshake",
        content=b"PRIVMSG #bots :.login",
    ),
    IdsRule(
        name="SCAN null-payload SYN probe",
        tcp_flags="S",
        tp_dst=31337,
        nw_proto=IP_PROTO_TCP,
    ),
)


# First-payload byte signatures, after the classic l7-filter patterns.
# Checked in order; first hit wins.
L7_PATTERNS: Tuple[Tuple[str, bytes], ...] = (
    ("bittorrent", b"\x13BitTorrent protocol"),
    ("http", b"GET "),
    ("http", b"POST "),
    ("http", b"HTTP/1."),
    ("ssh", b"SSH-"),
    ("dns", b"\x00\x01\x00\x00"),
    ("smtp", b"EHLO "),
    ("smtp", b"HELO "),
    ("ftp", b"220 "),
    ("ssl", b"\x16\x03"),
    ("irc", b"NICK "),
)

# Virus signatures (EICAR-style byte strings).
VIRUS_SIGNATURES: Tuple[Tuple[str, bytes], ...] = (
    ("EICAR-Test-File", b"X5O!P%@AP[4\\PZX54(P^)7CC)7}$EICAR"),
    ("W32.Sim.Dropper", b"MZ\x90\x00SIMDROPPER"),
    ("JS.Sim.Downloader", b"eval(unescape('%73%69%6d'))"),
)

# Content-inspection keywords (DLP-style).
CONTENT_KEYWORDS: Tuple[bytes, ...] = (
    b"CONFIDENTIAL-INTERNAL-ONLY",
    b"SSN:",
    b"credit_card_number=",
)


def classify_l7(payload: bytes) -> Optional[str]:
    """The l7-filter decision for a first-payload buffer, or None."""
    for name, signature in L7_PATTERNS:
        if signature in payload[:256]:
            return name
    return None
