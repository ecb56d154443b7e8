"""Consistent-hashing identifier ring.

File names and node addresses hash into one 160-bit circular space; the
node responsible for an identifier is its successor on the ring. Each
ring view is immutable: joins and leaves return a new epoch. Every member
carries a finger table of up to 160 entries pointing exponentially far
around the ring, so lookups route within ceil(log2(n)) + 1 hops.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
from dataclasses import dataclass

from .errors import RoutingError

RING_BITS = 160
RING_SIZE = 1 << RING_BITS


def hash_name(name: str) -> int:
    """Map a file name or node address to its ring identifier."""
    if not name:
        raise ValueError("cannot hash an empty name")
    return int.from_bytes(hashlib.sha1(name.encode("utf-8")).digest(), "big")


def distance(a: int, b: int) -> int:
    """Clockwise distance from a to b."""
    return (b - a) % RING_SIZE


def name_owned_by(ring: "RingView", base: str, owner_address: str) -> str:
    """Salt a file name until the ring places it on the desired node: base
    itself, else base + ".1", ".2", ... A name with n members takes about n
    hashes; an address off the ring raises RoutingError."""
    ring.member(owner_address)
    for salt in itertools.count():
        name = base if salt == 0 else "%s.%d" % (base, salt)
        if ring.owner(name).address == owner_address:
            return name


@dataclass(frozen=True)
class RingMember:
    id: int
    address: str


class RingView:
    def __init__(self, members):
        members = sorted(members, key=lambda m: m.id)
        ids = [m.id for m in members]
        if len(set(ids)) != len(ids):
            raise RoutingError("duplicate identifiers on the ring")
        if len({m.address for m in members}) != len(members):
            raise RoutingError("duplicate addresses on the ring")
        self.members: tuple[RingMember, ...] = tuple(members)
        self._ids = ids
        self._by_address = {m.address: m for m in self.members}
        self._fingers = {m.address: self._build_fingers(m) for m in self.members}

    @classmethod
    def from_addresses(cls, addresses) -> "RingView":
        return cls(RingMember(hash_name(a), a) for a in addresses)

    def _build_fingers(self, member: RingMember):
        """Finger i points 2^i members clockwise (up to 160 entries).

        Rank-based fingers make the lookup hop bound deterministic: the
        largest in-range finger always skips at least half the members
        remaining to the target, so routing takes at most
        ceil(log2(len(ring))) + 1 hops. Distance-based fingers
        (successor of id + 2^i) only achieve that bound with high
        probability, not always.
        """
        start = self.members.index(member)
        fingers = []
        step = 1
        while step < len(self.members):
            fingers.append(self.members[(start + step) % len(self.members)])
            step <<= 1
        fingers.sort(key=lambda f: distance(member.id, f.id))
        return tuple(fingers)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, address: str) -> bool:
        return address in self._by_address

    @property
    def addresses(self) -> tuple[str, ...]:
        return tuple(m.address for m in self.members)

    def member(self, address: str) -> RingMember:
        try:
            return self._by_address[address]
        except KeyError:
            raise RoutingError("%s is not a ring member" % address)

    def successor(self, id: int) -> RingMember:
        """The member owning identifier id: smallest member id >= id, circularly."""
        if not self.members:
            raise RoutingError("ring is empty")
        i = bisect.bisect_left(self._ids, id)
        return self.members[i % len(self.members)]

    def successor_of(self, member: RingMember) -> RingMember:
        i = bisect.bisect_right(self._ids, member.id)
        return self.members[i % len(self.members)]

    def owner(self, name: str) -> RingMember:
        return self.successor(hash_name(name))

    def route(self, start_address: str, id: int) -> tuple[RingMember, int]:
        """Walk finger tables from start to the owner of id.

        Returns (owner, hops) where hops counts members visited after the
        start. Each hop at least halves the clockwise distance, so the
        walk terminates in O(log n) for hash-distributed members.
        """
        current = self.member(start_address)
        hops = 0
        for _ in range(RING_BITS + len(self.members) + 1):
            if current.id == id:
                return current, hops
            succ = self.successor_of(current)
            succ_dist = distance(current.id, succ.id) if succ is not current else RING_SIZE
            if distance(current.id, id) <= succ_dist:
                if succ is not current:
                    hops += 1
                return succ, hops
            current = self._closest_preceding(current, id)
            hops += 1
        raise RoutingError("routing did not converge")  # pragma: no cover

    def _closest_preceding(self, member: RingMember, id: int) -> RingMember:
        span = distance(member.id, id)
        best = None
        best_dist = 0
        for finger in self._fingers[member.address]:
            d = distance(member.id, finger.id)
            if 0 < d < span and d > best_dist:
                best, best_dist = finger, d
        if best is None:
            return self.successor_of(member)
        return best

    def join(self, address: str) -> "RingView":
        if address in self._by_address:
            raise RoutingError("%s already joined" % address)
        return RingView(self.members + (RingMember(hash_name(address), address),))

    def leave(self, address: str) -> "RingView":
        if address not in self._by_address:
            raise RoutingError("%s is not a ring member" % address)
        return RingView(m for m in self.members if m.address != address)
