import math
import random

import pytest

from sectorsphere.errors import RoutingError
from sectorsphere.routing import RING_SIZE, RingMember, RingView, hash_name, name_owned_by


def linear_scan_successor(members, id):
    """Brute-force oracle: smallest member id >= id, wrapping to the minimum."""
    candidates = [m for m in members if m.id >= id]
    if candidates:
        return min(candidates, key=lambda m: m.id)
    return min(members, key=lambda m: m.id)


def test_hash_is_deterministic_and_160_bit():
    a = hash_name("file01.dat")
    assert a == hash_name("file01.dat")
    assert 0 <= a < RING_SIZE


def test_hash_rejects_empty_name():
    with pytest.raises(ValueError):
        hash_name("")


def test_no_collisions_over_100k_names():
    rng = random.Random(11)
    names = {"name-%d-%d" % (i, rng.getrandbits(32)) for i in range(100_000)}
    ids = {hash_name(n) for n in names}
    assert len(ids) == len(names)


def test_single_member_ring_owns_everything():
    ring = RingView.from_addresses(["only"])
    for id in (0, 123456, RING_SIZE - 1):
        assert ring.successor(id).address == "only"


def test_truncated_ring_circular_order():
    ring = RingView([RingMember(10, "a"), RingMember(100, "b"), RingMember(1000, "c")])
    assert ring.successor(101).address == "c"
    assert ring.successor(1001).address == "a"   # wraps past the top
    assert ring.successor(100).address == "b"    # exact hit


def test_empty_ring_is_an_error():
    ring = RingView([])
    with pytest.raises(RoutingError):
        ring.successor(42)


def test_find_successor_matches_linear_oracle():
    rng = random.Random(7)
    ring = RingView.from_addresses("node-%02d" % i for i in range(64))
    for _ in range(10_000):
        id = rng.randrange(RING_SIZE)
        assert ring.successor(id) == linear_scan_successor(ring.members, id)


def test_finger_routing_matches_oracle_and_hop_bound():
    rng = random.Random(19)
    for size in (2, 3, 5, 8, 13, 21, 34, 55, 64):
        ring = RingView.from_addresses("n%d-%02d" % (size, i) for i in range(size))
        bound = math.ceil(math.log2(size)) + 1
        for _ in range(400):
            id = rng.randrange(RING_SIZE)
            start = rng.choice(ring.members).address
            owner, hops = ring.route(start, id)
            assert owner == linear_scan_successor(ring.members, id)
            assert hops <= bound, "size %d: %d hops > %d" % (size, hops, bound)


def test_join_into_empty_ring():
    ring = RingView([]).join("first")
    assert len(ring) == 1
    assert ring.successor(0).address == "first"


def test_join_then_leave_restores_ring():
    ring = RingView.from_addresses(["a", "b", "c"])
    changed = ring.join("d").leave("d")
    assert changed.members == ring.members


def test_duplicate_join_and_unknown_leave_are_errors():
    ring = RingView.from_addresses(["a", "b"])
    with pytest.raises(RoutingError):
        ring.join("a")
    with pytest.raises(RoutingError):
        ring.leave("zzz")


def test_leave_to_empty_ring():
    ring = RingView.from_addresses(["solo"]).leave("solo")
    assert len(ring) == 0


def test_ownership_transfer_on_join_matches_oracle():
    rng = random.Random(3)
    ring = RingView.from_addresses("m-%02d" % i for i in range(12))
    names = ["f-%03d" % i for i in range(300)]
    joined = ring.join("newcomer")
    for name in names:
        id = hash_name(name)
        assert joined.successor(id) == linear_scan_successor(joined.members, id)
    # names not claimed by the newcomer keep their old owner
    for name in names:
        before = ring.owner(name)
        after = joined.owner(name)
        assert after.address == "newcomer" or after == before


def test_leave_hands_ownership_to_successor():
    ring = RingView.from_addresses("m-%02d" % i for i in range(8))
    victim = ring.members[3]
    shrunk = ring.leave(victim.address)
    for name in ("x-%03d" % i for i in range(200)):
        owner = ring.owner(name)
        new_owner = shrunk.owner(name)
        if owner.address != victim.address:
            assert new_owner == owner
        else:
            assert new_owner == ring.successor_of(victim)


def test_randomized_join_leave_sequence_keeps_invariants():
    rng = random.Random(23)
    ring = RingView.from_addresses(["seed-node"])
    alive = {"seed-node"}
    counter = 0
    for _ in range(1000):
        if rng.random() < 0.5 or len(alive) == 1:
            counter += 1
            address = "dyn-%04d" % counter
            ring = ring.join(address)
            alive.add(address)
        else:
            address = rng.choice(sorted(alive - {"seed-node"}) or ["seed-node"])
            ring = ring.leave(address)
            alive.discard(address)
        ids = [m.id for m in ring.members]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)
        assert {m.address for m in ring.members} == alive


def test_name_owned_by_salts_until_the_member_owns_the_name():
    ring = RingView.from_addresses("node-%d" % i for i in range(6))
    for address in ring.addresses:
        name = name_owned_by(ring, "job/bucket_00001.dat", address)
        assert ring.owner(name).address == address
        assert name == "job/bucket_00001.dat" or name.startswith("job/bucket_00001.dat.")
    with pytest.raises(RoutingError):  # no salt reaches an address off the ring
        name_owned_by(ring, "job/bucket_00001.dat", "node-9")
