"""Hashing and signing primitives.

Hashes are full 32-byte SHA-256. Merkle hashing is domain-separated: leaves
are hashed as H(0x00 || entry) and internal nodes as H(0x01 || left || right)
so a leaf payload can never collide with a node encoding. Signatures are
Ed25519 for every role; each signed payload carries a one-byte domain tag so
a signature made for one message type never verifies as another.

There is one hash type, Digest, an immutable bytes subclass. The Merkle
store keeps its leaves as Digests and the levels above them as plain bytes,
hashed by hash_node_raw.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .wire import Reader, lp, u8

DIGEST_LEN = 32

LEAF_PREFIX = b"\x00"
NODE_PREFIX = b"\x01"
EMPTY_SUBTREE_MARKER = b"\x02"

# Signature payload domain tags (prepended to the payload before signing).
TAG_LEAF_REVOKE = 0x01
TAG_CA_REVOKE = 0x02
TAG_CHAIN_COMMITMENT = 0x03
TAG_SIGNED_ROOT = 0x04
TAG_REVOCATION_COMMITMENT = 0x05
TAG_TCRL = 0x06
TAG_CERT_ISSUE = 0x07

REGISTERED_TAGS = frozenset(
    {
        TAG_LEAF_REVOKE,
        TAG_CA_REVOKE,
        TAG_CHAIN_COMMITMENT,
        TAG_SIGNED_ROOT,
        TAG_REVOCATION_COMMITMENT,
        TAG_TCRL,
        TAG_CERT_ISSUE,
    }
)


class CryptoError(Exception):
    pass


class UnregisteredTag(CryptoError):
    pass


class Digest(bytes):
    """32-byte hash value, and the one hash type: an immutable bytes, so
    hashing, equality and ordering (unsigned big-endian) run in C, and
    Digest(x) == x for the raw bytes x. The .hex property shadows
    bytes.hex() and returns the hex string directly; .value is the plain
    bytes, kept for tests."""

    __slots__ = ()

    def __new__(cls, value: bytes) -> "Digest":
        if not isinstance(value, bytes) or len(value) != DIGEST_LEN:
            raise ValueError(f"digest must be {DIGEST_LEN} bytes")
        return bytes.__new__(cls, value)

    @property
    def value(self) -> bytes:
        return bytes(self)

    @property
    def hex(self) -> str:
        return bytes.hex(self)

    @classmethod
    def from_hex(cls, text: str) -> "Digest":
        return cls(bytes.fromhex(text))

    def __repr__(self):
        return f"Digest({bytes.hex(self)[:12]}…)"

    __str__ = __repr__  # bytes.__str__ would print the raw bytes in messages


ZERO_DIGEST = Digest(b"\x00" * DIGEST_LEN)


def sha256(data: bytes) -> Digest:
    # A SHA-256 output is always 32 bytes, so the length check is skipped.
    return bytes.__new__(Digest, hashlib.sha256(data).digest())


def hash_leaf(entry_bytes: bytes) -> Digest:
    return sha256(LEAF_PREFIX + entry_bytes)


def hash_node(left: Digest, right: Digest) -> Digest:
    return sha256(NODE_PREFIX + left + right)


def hash_node_raw(left: bytes, right: bytes) -> bytes:
    """hash_node returning plain bytes, as the Merkle store keeps the levels
    above its leaves: a Digest per internal node would cost more to make."""
    return hashlib.sha256(NODE_PREFIX + left + right).digest()


def empty_subtree_root() -> Digest:
    return hash_leaf(EMPTY_SUBTREE_MARKER)


def key_id_of(public_bytes: bytes) -> Digest:
    """Key identifier: SHA-256 of the raw public-key bytes."""
    return sha256(public_bytes)


class KeyRole(str, Enum):
    STANDARD_CA = "standard_ca"
    STANDARD_LEAF = "standard_leaf"
    REVOCATION = "revocation"
    VENDOR = "vendor"
    LOG = "log"


@dataclass(frozen=True, slots=True)
class Signature:
    """Ed25519 signature plus the identity of the key and the payload tag."""

    signer_key_id: Digest
    payload_tag: int
    value: bytes

    def encode(self) -> bytes:
        return self.signer_key_id + u8(self.payload_tag) + lp(self.value)

    @classmethod
    def read_from(cls, r: Reader) -> "Signature":
        key_id = Digest(r.take(DIGEST_LEN))
        tag = r.u8()
        value = r.lp()
        return cls(key_id, tag, value)


@dataclass(frozen=True)
class KeyPair:
    role: KeyRole
    seed: bytes  # 32-byte Ed25519 private seed

    def __post_init__(self):
        if len(self.seed) != 32:
            raise ValueError("seed must be 32 bytes")

    @cached_property
    def _private(self) -> Ed25519PrivateKey:
        return Ed25519PrivateKey.from_private_bytes(self.seed)

    @cached_property
    def public_bytes(self) -> bytes:
        return self._private.public_key().public_bytes(
            encoding=serialization.Encoding.Raw,
            format=serialization.PublicFormat.Raw,
        )

    @cached_property
    def key_id(self) -> Digest:
        return key_id_of(self.public_bytes)

    @classmethod
    def generate(cls, role: KeyRole) -> "KeyPair":
        priv = Ed25519PrivateKey.generate()
        seed = priv.private_bytes(
            encoding=serialization.Encoding.Raw,
            format=serialization.PrivateFormat.Raw,
            encryption_algorithm=serialization.NoEncryption(),
        )
        return cls(role=role, seed=seed)

    def sign(self, tag: int, payload: bytes) -> Signature:
        return sign(self, tag, payload)


def sign(key: KeyPair, tag: int, payload: bytes) -> Signature:
    """Sign tag || payload; rejects tags outside the registered set."""
    if tag not in REGISTERED_TAGS:
        raise UnregisteredTag(f"tag 0x{tag:02x} is not registered")
    sig = key._private.sign(u8(tag) + payload)
    return Signature(signer_key_id=key.key_id, payload_tag=tag, value=sig)


def verify(public_bytes: bytes, tag: int, payload: bytes, sig: Signature) -> bool:
    """True iff sig was produced over tag || payload by the holder of public_bytes."""
    if sig.payload_tag != tag:
        return False
    try:
        pub = Ed25519PublicKey.from_public_bytes(public_bytes)
        pub.verify(sig.value, u8(tag) + payload)
        return True
    except (InvalidSignature, ValueError):
        return False
