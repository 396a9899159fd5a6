import copy
import hashlib
import pickle
import random

import pytest

from pkisn.crypto import (
    TAG_CHAIN_COMMITMENT,
    TAG_SIGNED_ROOT,
    Digest,
    KeyPair,
    KeyRole,
    UnregisteredTag,
    empty_subtree_root,
    hash_leaf,
    hash_node,
    key_id_of,
    sign,
    verify,
)

# Golden vectors computed independently with hashlib.
GOLDEN_LEAF_EMPTY = "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"
GOLDEN_LEAF_FIXED = "5d8fcfefa9aeeb711fb8ed1e4b7d5c8a9bafa46e8e76e68aa18adce5a10df6ab"
GOLDEN_NODE = "c39aa38c3926cd0b0c3e81514bc538d890cac0e565ed20cd7053b74d56fb80bb"
GOLDEN_EMPTY_SUBTREE = "fcf0a6c700dd13e274b6fba8deea8dd9b26e4eedde3495717cac8408c9c5177f"


def test_hash_leaf_golden():
    assert hash_leaf(b"").hex == GOLDEN_LEAF_EMPTY
    assert hash_leaf(bytes(range(1, 33))).hex == GOLDEN_LEAF_FIXED


def test_hash_node_golden():
    a = hash_leaf(b"left-entry")
    b = hash_leaf(b"right-entry")
    assert hash_node(a, b).hex == GOLDEN_NODE
    assert empty_subtree_root().hex == GOLDEN_EMPTY_SUBTREE


def test_node_ordering_matters():
    a = hash_leaf(b"x")
    b = hash_leaf(b"y")
    assert hash_node(a, b) != hash_node(b, a)


def test_leaf_node_domain_separation():
    # A node preimage starts 0x01, a leaf preimage 0x00: no overlap possible.
    a = hash_leaf(b"a")
    b = hash_leaf(b"b")
    assert hash_node(a, b) != hash_leaf(a.value + b.value)


def test_two_leaf_tree_root_by_definition():
    e1, e2 = b"entry-one", b"entry-two"
    expected = hashlib.sha256(
        b"\x01"
        + hashlib.sha256(b"\x00" + e1).digest()
        + hashlib.sha256(b"\x00" + e2).digest()
    ).hexdigest()
    assert hash_node(hash_leaf(e1), hash_leaf(e2)).hex == expected


def test_no_collisions_random_inputs():
    rng = random.Random(0xC0FFEE)
    seen = set()
    for _ in range(100_000):
        data = rng.randbytes(rng.randrange(0, 64))
        seen.add(hash_leaf(data).value)
    # Distinct inputs may repeat; distinct inputs must not collide.
    inputs = set()
    rng = random.Random(0xC0FFEE)
    for _ in range(100_000):
        inputs.add(rng.randbytes(rng.randrange(0, 64)))
    assert len(seen) == len(inputs)


def test_digest_ordering_matches_bytes():
    rng = random.Random(7)
    digests = [hash_leaf(rng.randbytes(8)) for _ in range(200)]
    by_digest = sorted(digests)
    by_bytes = sorted(digests, key=lambda d: d.value)
    assert by_digest == by_bytes
    # Total order: equal digests compare equal, others strictly ordered.
    assert digests[0] <= digests[0]


def test_digest_length_enforced():
    with pytest.raises(ValueError):
        Digest(b"\x00" * 31)


def test_digest_is_bytes_without_a_dict():
    d = hash_leaf(b"one type")
    assert isinstance(d, bytes)
    assert not hasattr(d, "__dict__")
    with pytest.raises(AttributeError):
        d.extra = 1


@pytest.mark.parametrize("value", ["\x00" * 32, bytearray(32), 7, b"\x00" * 33, b""])
def test_digest_rejects_non_bytes_and_wrong_lengths(value):
    with pytest.raises(ValueError):
        Digest(value)


def test_digest_sorts_hashes_and_compares_as_its_bytes():
    rng = random.Random(11)
    raw = [rng.randbytes(32) for _ in range(300)]
    digests = [Digest(x) for x in raw]
    assert [bytes(d) for d in sorted(digests)] == sorted(raw)
    for d, x in zip(digests, raw):
        assert d == x and hash(d) == hash(x)
    assert {x: 1 for x in raw}[digests[0]] == 1


def test_digest_hex_and_value():
    d = hash_leaf(b"")
    assert d.hex == GOLDEN_LEAF_EMPTY  # a property, shadowing bytes.hex()
    assert Digest.from_hex(d.hex) == d
    assert type(d.value) is bytes and d.value == d


def test_digest_survives_pickle_and_deepcopy():
    d = hash_leaf(b"copy me")
    for copied in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert type(copied) is Digest and copied == d


def test_sign_verify_round_trip():
    key = KeyPair.generate(KeyRole.LOG)
    payload = b"some payload"
    sig = sign(key, TAG_SIGNED_ROOT, payload)
    assert verify(key.public_bytes, TAG_SIGNED_ROOT, payload, sig)


def test_verify_rejects_flipped_payload():
    key = KeyPair.generate(KeyRole.LOG)
    payload = bytearray(b"some payload")
    sig = sign(key, TAG_SIGNED_ROOT, bytes(payload))
    payload[0] ^= 1
    assert not verify(key.public_bytes, TAG_SIGNED_ROOT, bytes(payload), sig)


def test_verify_rejects_other_tag():
    key = KeyPair.generate(KeyRole.LOG)
    payload = b"same payload"
    sig = sign(key, TAG_SIGNED_ROOT, payload)
    assert not verify(key.public_bytes, TAG_CHAIN_COMMITMENT, payload, sig)


def test_verify_rejects_other_key():
    k1 = KeyPair.generate(KeyRole.LOG)
    k2 = KeyPair.generate(KeyRole.LOG)
    sig = sign(k1, TAG_SIGNED_ROOT, b"p")
    assert not verify(k2.public_bytes, TAG_SIGNED_ROOT, b"p", sig)


def test_sign_rejects_unregistered_tag():
    key = KeyPair.generate(KeyRole.LOG)
    with pytest.raises(UnregisteredTag):
        sign(key, 0x7F, b"p")


def test_key_id_is_sha256_of_public_bytes():
    key = KeyPair.generate(KeyRole.VENDOR)
    assert key.key_id.value == hashlib.sha256(key.public_bytes).digest()
    assert key_id_of(key.public_bytes) == key.key_id


def test_keypair_deterministic_from_seed():
    key = KeyPair.generate(KeyRole.LOG)
    again = KeyPair(role=KeyRole.LOG, seed=key.seed)
    assert again.public_bytes == key.public_bytes
    sig1 = sign(key, TAG_SIGNED_ROOT, b"m")
    sig2 = sign(again, TAG_SIGNED_ROOT, b"m")
    assert sig1 == sig2  # Ed25519 signatures are deterministic
