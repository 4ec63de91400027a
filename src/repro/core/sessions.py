"""Bidirectional session tracking (Section III.C.3).

"In fact, bidirectional flows can be simultaneously handled as a
session.  For the request flow, the 9-tuple flow information can be
utilized ... to construct the 9-tuple flow information of the
corresponding reply flow based on the predefined session policy."

A :class:`Session` records both directions of one end-to-end
connection, the policy that governed it, the service elements it was
steered through, and every flow entry installed for it -- so teardown
(idle timeout, policy revocation, element failure) can remove exactly
the right state everywhere.  A :class:`Block` is the other kind of
desired rule the table holds: the ingress drop of Section IV.A, which
outlives the session it was raised against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.routing import RuleSpec
from repro.net.packet import FlowNineTuple


@dataclass(slots=True)
class Session:
    """One live end-to-end connection managed by the controller."""

    session_id: int
    flow: FlowNineTuple  # request direction
    reverse_flow: FlowNineTuple
    src_mac: str
    dst_mac: str
    policy_name: Optional[str]
    element_macs: Tuple[str, ...]
    rules: List[RuleSpec]
    created_at: float
    blocked: bool = False
    application: Optional[str] = None  # filled in by L7 identification
    # Forwarding accountability: the expected forward-path descriptor
    # stamped into this session's ingress rule (None when disabled).
    path_descriptor: Optional[object] = None

    @property
    def is_steered(self) -> bool:
        return bool(self.element_macs)

    def dpids_on_path(self) -> Tuple[int, ...]:
        """Distinct dpids on the session's expected forward path."""
        if self.path_descriptor is None:
            return ()
        seen = []
        for dpid in self.path_descriptor.dpids:
            if dpid not in seen:
                seen.append(dpid)
        return tuple(seen)

    def snapshot(self) -> "SessionSnapshot":
        """An immutable, JSON-friendly view of this session right now."""
        return SessionSnapshot(
            session_id=self.session_id,
            src_mac=self.src_mac,
            dst_mac=self.dst_mac,
            policy=self.policy_name,
            element_macs=tuple(self.element_macs),
            rules=len(self.rules),
            created_at=self.created_at,
            blocked=self.blocked,
            application=self.application,
            accountable=self.path_descriptor is not None,
        )


@dataclass(slots=True)
class Block:
    """One thing the controller drops at the entrance: ``flow``, or --
    ``flow=None`` -- everything ``src_mac`` sends.  ``rules`` is where
    the drop is installed now; steering's reconcile is its one writer,
    as it is of ``Session.rules``."""

    src_mac: str
    flow: Optional[FlowNineTuple]
    cookie: int
    rules: List[RuleSpec] = field(default_factory=list)


@dataclass(frozen=True)
class SessionSnapshot:
    """A point-in-time typed view of one session (the ``repro ops``
    contract): everything an operator needs to reason about the
    session, nothing mutable, nothing tied to live controller objects.
    """

    session_id: int
    src_mac: str
    dst_mac: str
    policy: Optional[str]
    element_macs: Tuple[str, ...]
    rules: int
    created_at: float
    blocked: bool
    application: Optional[str]
    accountable: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "session_id": self.session_id,
            "src_mac": self.src_mac,
            "dst_mac": self.dst_mac,
            "policy": self.policy,
            "element_macs": list(self.element_macs),
            "rules": self.rules,
            "created_at": self.created_at,
            "blocked": self.blocked,
            "application": self.application,
            "accountable": self.accountable,
        }


class SessionTable:
    """Sessions indexed by either direction's 9-tuple and by cookie.

    The table is also the only record of which live session loads
    which service element: :meth:`load_of` is a count over
    ``element_macs`` kept in step where a session enters
    (:meth:`create`), changes chain (:meth:`resteer`, the one writer of
    ``Session.element_macs``) and leaves (:meth:`end`).  The dispatchers
    rank by it; nothing else mirrors it.

    Beside the sessions sit the :class:`Block` entries: together, the
    one book of what the controller enforces.  Nothing lifts a block;
    it leaves this book only with its source, for the book of the shard
    the source roamed to (:meth:`take_blocks`)."""

    def __init__(self, start: int = 1, step: int = 1) -> None:
        self._by_flow: Dict[FlowNineTuple, Session] = {}
        self._by_id: Dict[int, Session] = {}
        self._load: Counter = Counter()  # element MAC -> live sessions
        # source MAC -> {blocked 9-tuple, or None for the source: Block}
        self._blocks: Dict[str, Dict[Optional[FlowNineTuple], Block]] = {}
        self._ids = itertools.count(start, step)
        self.created = 0
        self.ended = 0

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(self._by_id.values())

    def reseed(self, start: int, step: int = 1) -> None:
        """Re-key the id sequence.  The shard fabric gives shard ``i``
        of ``N`` the stride ``start=i+1, step=N`` so session ids stay
        globally unique -- a handoff-preserved id can never collide
        with one minted by the destination shard."""
        self._ids = itertools.count(start, step)

    def next_id(self) -> int:
        return next(self._ids)

    def create(
        self,
        flow: FlowNineTuple,
        src_mac: str,
        dst_mac: str,
        policy_name: Optional[str],
        element_macs: Tuple[str, ...],
        now: float,
        session_id: Optional[int] = None,
    ) -> Session:
        session = Session(
            session_id=session_id if session_id is not None else self.next_id(),
            flow=flow,
            reverse_flow=flow.reversed(),
            src_mac=src_mac,
            dst_mac=dst_mac,
            policy_name=policy_name,
            element_macs=element_macs,
            rules=[],
            created_at=now,
        )
        self._by_flow[session.flow] = session
        self._by_flow[session.reverse_flow] = session
        self._by_id[session.session_id] = session
        self._load.update(session.element_macs)
        self.created += 1
        return session

    def resteer(self, session: Session, element_macs) -> None:
        """Move a live session onto another chain; ``()`` takes it off
        every element (a chain about to be re-dispatched must not
        count its own survivors)."""
        self._load.subtract(session.element_macs)
        session.element_macs = tuple(element_macs)
        self._load.update(session.element_macs)

    def load_of(self, element_mac: str) -> int:
        """Live sessions steered through ``element_mac``."""
        return self._load[element_mac]

    def lookup(self, flow: FlowNineTuple) -> Optional[Session]:
        """The session owning this flow (either direction)."""
        return self._by_flow.get(flow)

    def by_id(self, session_id: int) -> Optional[Session]:
        return self._by_id.get(session_id)

    def end(self, session: Session) -> None:
        self._by_flow.pop(session.flow, None)
        self._by_flow.pop(session.reverse_flow, None)
        if self._by_id.pop(session.session_id, None) is not None:
            self._load.subtract(session.element_macs)
            self.ended += 1

    def block(
        self, src_mac: str, flow: Optional[FlowNineTuple], cookie: int = 0
    ) -> Block:
        """The block killing ``flow`` (None: all) of ``src_mac``,
        entered now unless the book holds it -- or a source block,
        which covers every flow -- already."""
        held = self._blocks.setdefault(src_mac, {})
        block = held.get(None) or held.get(flow)
        if block is None:
            block = held[flow] = Block(src_mac, flow, cookie)
        return block

    def block_for(self, flow: FlowNineTuple) -> Optional[Block]:
        """The block ``flow`` falls under, if any."""
        held = self._blocks.get(flow.dl_src)
        if held is None:
            return None
        return held.get(None) or held.get(flow)

    def blocks_of(self, src_mac: str) -> List[Block]:
        return list(self._blocks.get(src_mac, {}).values())

    def take_blocks(self, src_mac: str) -> List[Block]:
        """Remove and return the blocks of a source another shard's
        book answers for from now on."""
        return list(self._blocks.pop(src_mac, {}).values())

    def blocks(self) -> List[Block]:
        return [b for held in self._blocks.values() for b in held.values()]

    def sessions_via_element(self, element_mac: str) -> List[Session]:
        return [
            session
            for session in self._by_id.values()
            if element_mac in session.element_macs
        ]

    def snapshot(self) -> Tuple[SessionSnapshot, ...]:
        """Typed snapshots of every live session, ordered by id."""
        return tuple(
            self._by_id[sid].snapshot() for sid in sorted(self._by_id)
        )

    def sessions_of_user(self, mac: str) -> List[Session]:
        return [
            session
            for session in self._by_id.values()
            if session.src_mac == mac or session.dst_mac == mac
        ]
