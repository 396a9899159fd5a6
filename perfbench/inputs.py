"""Seeded inputs: keys, certificates, chains, revocations and their expected verdicts.

Every key is ``KeyPair(role, sha256(seed || name))``, so one seed fixes every
byte the benchmark hands to the program. Nothing here calls
``KeyPair.generate``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from pkisn.certs import (
    CertChain,
    Certificate,
    RevocationKind,
    RevocationMessage,
    SignerRole,
    make_certificate,
    make_revocation,
)
from pkisn.crypto import TAG_CHAIN_COMMITMENT, Digest, KeyPair, KeyRole
from pkisn.log import ChainCommitment
from pkisn.validation import Reason

T0 = 1_600_000_000
PERIOD = 3600
YEAR = 365 * 86400


def derive(seed: int, name: str) -> bytes:
    return hashlib.sha256(f"{seed}\x00{name}".encode()).digest()


def seeded_key(seed: int, role: KeyRole, name: str) -> KeyPair:
    return KeyPair(role=role, seed=derive(seed, name))


@dataclass
class Pki:
    """Root -> intermediates, plus the leaf, vendor and log keys."""

    seed: int
    root_key: KeyPair
    root: Certificate
    inter_keys: list[KeyPair]
    inters: list[Certificate]
    leaf_key: KeyPair
    vendor_key: KeyPair
    log_key: KeyPair

    @property
    def trust_roots(self) -> frozenset[Digest]:
        return frozenset({self.root.cert_hash})


def make_pki(seed: int, n_inters: int) -> Pki:
    root_key = seeded_key(seed, KeyRole.STANDARD_CA, "root")
    root_rk = seeded_key(seed, KeyRole.REVOCATION, "root-rk")
    root = make_certificate(
        serial=1, subject_name="Bench Root", subject_public_key=root_key.public_bytes,
        is_ca=True, not_before=T0 - 10, not_after=T0 + 30 * YEAR,
        issuer_key=root_key, revocation_public_key=root_rk.public_bytes,
    )
    inter_keys, inters = [], []
    for i in range(n_inters):
        key = seeded_key(seed, KeyRole.STANDARD_CA, f"inter-{i}")
        rk = seeded_key(seed, KeyRole.REVOCATION, f"inter-{i}-rk")
        inter_keys.append(key)
        inters.append(make_certificate(
            serial=100 + i, subject_name=f"Bench CA {i}", subject_public_key=key.public_bytes,
            is_ca=True, not_before=T0 - 10, not_after=T0 + 20 * YEAR,
            issuer_key=root_key, revocation_public_key=rk.public_bytes,
        ))
    return Pki(
        seed=seed,
        root_key=root_key,
        root=root,
        inter_keys=inter_keys,
        inters=inters,
        leaf_key=seeded_key(seed, KeyRole.STANDARD_LEAF, "leaf"),
        vendor_key=seeded_key(seed, KeyRole.VENDOR, "vendor"),
        log_key=seeded_key(seed, KeyRole.LOG, "log"),
    )


@dataclass
class ChainInfo:
    """One root -> intermediate -> leaf chain and what is known about it by
    construction: its commitment once submitted, and the registration time
    of its revocation once that is merged."""

    serial: int
    inter: int
    chain: CertChain
    cc: ChainCommitment | None = None
    revoked_at: int | None = None

    @property
    def name(self) -> str:
        return self.chain.leaf.subject_name


def make_chain(pki: Pki, serial: int, inter: int, not_before: int, not_after: int) -> ChainInfo:
    leaf = make_certificate(
        serial=serial, subject_name=f"s{serial}.c{inter}.example",
        subject_public_key=pki.leaf_key.public_bytes, is_ca=False,
        not_before=not_before, not_after=not_after, issuer_key=pki.inter_keys[inter],
    )
    return ChainInfo(serial, inter, CertChain((pki.root, pki.inters[inter], leaf)))


def seed_commitment(pki: Pki, info: ChainInfo, registered: int) -> ChainCommitment:
    """The commitment for a chain whose certificates were all registered at
    ``registered`` by the seed journal, never through a submission. It is
    signed with the log key over the log's payload; Ed25519 signing is
    deterministic, so it is the very commitment a submission would return."""
    unsigned = ChainCommitment(info.chain.leaf.cert_hash, (registered,) * len(info.chain.certs), None)
    return replace(unsigned, log_signature=pki.log_key.sign(TAG_CHAIN_COMMITMENT, unsigned.payload()))


def revoke_by_issuer(pki: Pki, info: ChainInfo) -> RevocationMessage:
    """Leaf revocation signed by the issuing intermediate (chain index 1)."""
    return make_revocation(
        RevocationKind.LEAF_REVOKE, info.chain.leaf, pki.inter_keys[info.inter],
        SignerRole.PARENT_CA, signer_depth=1,
    )


def absent_id(seed: int, i: int) -> Digest:
    """An identity hash no certificate has."""
    return Digest(derive(seed, f"absent-{i}"))


def expected_reason(info: ChainInfo, now: int) -> Reason | None:
    """Verdict known from construction: None for success."""
    if not all(c.not_before <= now <= c.not_after for c in info.chain.certs):
        return Reason.PRE_VALIDATE_FAIL
    if info.revoked_at is not None and info.revoked_at <= now:
        return Reason.LEAF_REVOKED
    return None
