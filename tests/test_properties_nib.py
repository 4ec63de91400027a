"""The NIB's routing table against the mutable-record table it replaced.

A row is an exact tuple the NIB never rewrites for a refresh: a
``last_seen`` refresh lands in a ``mac -> float`` column, and readers get
``HostRecord`` values.  ``oracles.MutableHostTable`` is the table as it
was, one mutable record per host written in place.  Driven through the
same seeded operations -- every kind ``TestLocationDigest._step`` draws,
an address and element flag changed at once, and steering's
forward-only refresh -- both must answer every read alike: the lookups
by MAC and by IP, ``records()``, what the idle sweep expires and whom
it asks about, ``location_version`` and the digest.
"""

import random

from repro.core.nib import HostRecord, NetworkInformationBase
from tests import oracles

MACS = [f"02:00:00:00:00:{i:02x}" for i in range(12)]
IPS = [f"10.0.0.{i}" for i in range(1, 7)]  # scarce: re-leases happen
DPIDS = (1, 2, 3)
TIMEOUT_S = 3.0
SEEDS = range(200)
STEPS = 60

KINDS = (
    "new", "move", "ip", "element", "ip+element", "refresh", "readopt",
    "remove", "expire", "remove-switch", "touch",
)


def fields(record):
    """A record of either table as its field tuple (None stays None)."""
    if record is None:
        return None
    return tuple(getattr(record, name) for name in HostRecord._fields)


def random_op(rng, nib, now):
    """One operation as ``(method name, args)``, drawn from what the NIB
    under test holds."""
    known = sorted(nib.hosts)
    kind = rng.choice(KINDS)
    if kind == "new" or not known:
        return "learn_host", (
            rng.choice(MACS), rng.choice(IPS + [None, ""]),
            rng.choice(DPIDS), rng.randint(1, 4), now,
            rng.random() < 0.2,
        )
    host = nib.host_by_mac(rng.choice(known))
    if kind == "move":
        return "learn_host", (host.mac, rng.choice(IPS + [None]),
                              rng.choice(DPIDS), rng.randint(1, 4), now)
    if kind == "ip":
        return "learn_host", (host.mac, rng.choice(IPS), host.dpid,
                              host.port, now)
    if kind == "element":
        return "learn_host", (host.mac, None, host.dpid, host.port, now,
                              True)
    if kind == "ip+element":
        # Two row changes in one refresh: the version moves twice.
        return "learn_host", (host.mac, rng.choice(IPS), host.dpid,
                              host.port, now, True)
    if kind == "refresh":
        return "learn_host", (host.mac, None, host.dpid, host.port, now)
    if kind == "readopt":
        return "learn_host", (host.mac, host.ip, host.dpid, host.port,
                              now, host.is_element)
    if kind == "remove":
        return "remove_host", (rng.choice(MACS),)
    if kind == "expire":
        return "expire_hosts", (now,)
    if kind == "remove-switch":
        return "remove_switch", (rng.choice(DPIDS),)
    # Steering's refresh on a FlowRemoved: an instant behind ``now``,
    # sometimes behind the row's own ``last_seen`` (then a no-op).
    return "touch_host", (rng.choice(MACS), now - rng.choice((0.2, 1.5, 4.0)))


def apply(table, name, args):
    """Run one operation; returns its result as comparable values and
    the MACs an expiry's ``keep_alive`` was asked about."""
    asked = []
    if name == "expire_hosts":
        def keep(record):
            asked.append(record.mac)
            return record.port % 2 == 0

        return [fields(r) for r in table.expire_hosts(*args, keep)], asked
    result = getattr(table, name)(*args)
    if name == "learn_host":
        record, is_new = result
        return (fields(record), is_new), asked
    if name == "remove_host":
        return fields(result), asked
    return result, asked


def reads(table):
    return (
        [fields(table.host_by_mac(mac)) for mac in MACS],
        [fields(table.host_by_ip(ip)) for ip in IPS + [""]],
        [fields(record) for record in table.records()],
        table.location_version,
        table.location_digest(),
    )


def test_every_read_matches_the_mutable_record_table():
    ops = {kind: 0 for kind in ("learn_host", "remove_host", "expire_hosts",
                                "remove_switch", "touch_host")}
    expired = kept = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        nib = NetworkInformationBase(host_timeout_s=TIMEOUT_S)
        oracle = oracles.MutableHostTable(host_timeout_s=TIMEOUT_S)
        now = 0.0
        for step in range(STEPS):
            now += rng.choice((0.1, 1.0, 2.5))
            name, args = random_op(rng, nib, now)
            got, asked = apply(nib, name, args)
            want, oracle_asked = apply(oracle, name, args)
            context = (seed, step, name, args)
            assert got == want, context
            assert asked == oracle_asked, context
            assert reads(nib) == reads(oracle), context
            ops[name] += 1
            if name == "expire_hosts":
                expired += len(got)
                kept += len(asked) - len(got)
    # Every operation ran often, and the sweep both dropped and kept.
    assert min(ops.values()) >= 500, ops
    assert expired >= 100 and kept >= 100, (expired, kept)
