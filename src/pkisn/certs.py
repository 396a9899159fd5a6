"""Canonical certificates, chains, and revocation messages.

Certificates use a native deterministic byte format rather than X.509/DER:
identical field values always produce identical bytes, so hashes and
signatures are reproducible everywhere. CA certificates additionally embed a
dedicated revocation public key whose private half stays offline until the
CA needs to cut itself off from a chosen point in time.

Two revocation shapes exist. A leaf revocation simply invalidates a non-CA
certificate. A CA revocation carries a cut-off timestamp: everything the
revoked key did at or after that instant is void, everything before stays
valid. Who may sign which shape is fixed by a policy matrix (owner key,
ancestor CA keys, the CA's own revocation key, or the software vendor key).

Each admission rule exists once, here, for the log, the full monitor and the
validator alike: issuance_problem (one issuer link), check_revocation_form
and revocation_signer (a revocation's shape, then the key that signed it).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import IntEnum
from functools import cached_property

from .crypto import (
    DIGEST_LEN,
    TAG_CA_REVOKE,
    TAG_CERT_ISSUE,
    TAG_LEAF_REVOKE,
    Digest,
    KeyPair,
    Signature,
    hash_leaf,
    key_id_of,
    verify,
)
from .wire import DecodeError, Reader, lp, u8, u16, u64


class CertError(Exception):
    pass


class PolicyViolation(CertError):
    """Revocation shape or signing key the policy matrix does not allow."""


class TimestampAfterExpiry(CertError):
    """CA revocation cut-off must precede the certificate's expiry."""


class InvalidChain(CertError):
    pass


class RevocationKind(IntEnum):
    LEAF_REVOKE = 1
    CA_REVOKE_FROM = 2


class SignerRole(IntEnum):
    OWN_KEY = 0
    PARENT_CA = 1
    REVOCATION_KEY = 2
    VENDOR = 3


# (kind, role) pairs accepted anywhere in the system.
ALLOWED_REVOCATIONS = frozenset(
    {
        (RevocationKind.LEAF_REVOKE, SignerRole.OWN_KEY),
        (RevocationKind.LEAF_REVOKE, SignerRole.PARENT_CA),
        (RevocationKind.LEAF_REVOKE, SignerRole.VENDOR),
        (RevocationKind.CA_REVOKE_FROM, SignerRole.REVOCATION_KEY),
        (RevocationKind.CA_REVOKE_FROM, SignerRole.PARENT_CA),
        (RevocationKind.CA_REVOKE_FROM, SignerRole.VENDOR),
    }
)


@dataclass(frozen=True)
class Certificate:
    serial: int
    subject_name: str
    issuer_key_id: Digest
    subject_public_key: bytes
    is_ca: bool
    not_before: int
    not_after: int
    revocation_public_key: bytes | None
    issuer_signature: Signature

    def check_fields(self) -> None:
        if self.not_before >= self.not_after:
            raise CertError("not_before must precede not_after")
        if self.is_ca != (self.revocation_public_key is not None):
            raise CertError("revocation key present iff certificate is a CA")

    @property
    def tbs_bytes(self) -> bytes:
        """The signed fields: canonical_bytes without the issuer signature."""
        return self.canonical_bytes[: -len(self.issuer_signature.encode())]

    @cached_property
    def canonical_bytes(self) -> bytes:
        return canonical_tbs_bytes(self) + self.issuer_signature.encode()

    @cached_property
    def cert_hash(self) -> Digest:
        return hash_leaf(self.canonical_bytes)

    @cached_property
    def subject_key_id(self) -> Digest:
        return key_id_of(self.subject_public_key)

    @property
    def is_self_signed(self) -> bool:
        return self.issuer_key_id == self.subject_key_id


def canonical_tbs_bytes(cert: Certificate) -> bytes:
    """Deterministic to-be-signed encoding of every field except the signature."""
    out = u64(cert.serial)
    out += lp(cert.subject_name.encode("utf-8"))
    out += cert.issuer_key_id
    out += lp(cert.subject_public_key)
    out += u8(1 if cert.is_ca else 0)
    out += u64(cert.not_before)
    out += u64(cert.not_after)
    if cert.revocation_public_key is not None:
        out += u8(1) + lp(cert.revocation_public_key)
    else:
        out += u8(0)
    return out


def decode_certificate(data: bytes) -> Certificate:
    data = bytes(data)
    r = Reader(data)
    serial = r.u64()
    try:
        subject_name = r.lp().decode("utf-8")
    except UnicodeDecodeError as e:
        raise DecodeError(f"subject name is not UTF-8: {e}") from None
    issuer_key_id = Digest(r.take(DIGEST_LEN))
    subject_public_key = r.lp()
    ca_flag = r.u8()
    not_before = r.u64()
    not_after = r.u64()
    rk_flag = r.u8()
    rk = r.lp() if rk_flag == 1 else None
    sig = Signature.read_from(r)
    r.done()
    cert = Certificate(
        serial=serial,
        subject_name=subject_name,
        issuer_key_id=issuer_key_id,
        subject_public_key=subject_public_key,
        is_ca=ca_flag == 1,
        not_before=not_before,
        not_after=not_after,
        revocation_public_key=rk,
        issuer_signature=sig,
    )
    cert.check_fields()
    if ca_flag <= 1 and rk_flag <= 1:
        # Every other field has one encoding (strict UTF-8 included), so the
        # input is exactly what re-encoding would produce.
        cert.__dict__["canonical_bytes"] = data
    return cert


def make_certificate(
    serial: int,
    subject_name: str,
    subject_public_key: bytes,
    is_ca: bool,
    not_before: int,
    not_after: int,
    issuer_key: KeyPair,
    revocation_public_key: bytes | None = None,
) -> Certificate:
    """Build and sign a certificate; pass the subject's own key to self-sign."""
    unsigned = Certificate(
        serial=serial,
        subject_name=subject_name,
        issuer_key_id=issuer_key.key_id,
        subject_public_key=subject_public_key,
        is_ca=is_ca,
        not_before=not_before,
        not_after=not_after,
        revocation_public_key=revocation_public_key,
        issuer_signature=Signature(issuer_key.key_id, TAG_CERT_ISSUE, b""),
    )
    unsigned.check_fields()
    sig = issuer_key.sign(TAG_CERT_ISSUE, canonical_tbs_bytes(unsigned))
    return replace(unsigned, issuer_signature=sig)


@dataclass(frozen=True)
class CertChain:
    """Ordered root-to-leaf certificate chain."""

    certs: tuple[Certificate, ...]

    def __post_init__(self):
        if not self.certs:
            raise InvalidChain("empty chain")

    @property
    def root(self) -> Certificate:
        return self.certs[0]

    @property
    def leaf(self) -> Certificate:
        return self.certs[-1]

    def __len__(self) -> int:
        return len(self.certs)

    def verify_structure(self, require_leaf: bool = True) -> None:
        """Raise InvalidChain unless every link is sound.

        require_leaf=False admits chains ending at a CA certificate, as used
        when submitting a revocation of a CA.
        """
        for i, cert in enumerate(self.certs):
            cert.check_fields()
            problem = issuance_problem(cert, self.certs[i - 1] if i else cert)
            if problem is not None:
                raise InvalidChain(f"certificate {i}: {problem}")
        if require_leaf and self.leaf.is_ca:
            raise InvalidChain("chain must end with a non-CA certificate")


def issuance_problem(cert: Certificate, issuer: Certificate) -> str | None:
    """Why issuer did not issue cert, or None; a root is its own issuer."""
    if not issuer.is_ca:
        return "issuer is not a CA"
    if cert.issuer_key_id != issuer.subject_key_id:
        return "issuer key id does not match the issuer"
    if not verify(issuer.subject_public_key, TAG_CERT_ISSUE, cert.tbs_bytes, cert.issuer_signature):
        return "issuer signature does not verify"
    return None


@dataclass(frozen=True)
class RevocationMessage:
    kind: RevocationKind
    target_cert_hash: Digest
    rev_timestamp: int | None  # present iff kind is CA_REVOKE_FROM
    signer_role: SignerRole
    signer_depth: int  # chain index of the signing ancestor, for PARENT_CA
    signer_key_id: Digest
    signature: Signature

    @property
    def tag(self) -> int:
        return TAG_LEAF_REVOKE if self.kind == RevocationKind.LEAF_REVOKE else TAG_CA_REVOKE

    def signed_payload(self) -> bytes:
        if self.kind == RevocationKind.LEAF_REVOKE:
            return self.target_cert_hash
        return self.target_cert_hash + u64(self.rev_timestamp)

    @cached_property
    def canonical_bytes(self) -> bytes:
        out = u8(int(self.kind))
        out += self.target_cert_hash
        if self.kind == RevocationKind.CA_REVOKE_FROM:
            out += u64(self.rev_timestamp)
        out += u8(int(self.signer_role))
        out += u16(self.signer_depth)
        out += self.signer_key_id
        out += self.signature.encode()
        return out

    @cached_property
    def rev_hash(self) -> Digest:
        return hash_leaf(self.canonical_bytes)

    @property
    def statement(self) -> tuple:
        """What the signature fixes: kind, target, cut-off and the signature
        value. Copies that differ only in the unsigned fields (signer_depth,
        signer_key_id, the key id in the signature) share it."""
        return (self.kind, self.target_cert_hash, self.rev_timestamp, self.signature.value)


def decode_revocation(data: bytes) -> RevocationMessage:
    data = bytes(data)
    r = Reader(data)
    kind = RevocationKind(r.u8())
    target = Digest(r.take(DIGEST_LEN))
    rev_ts = r.u64() if kind == RevocationKind.CA_REVOKE_FROM else None
    role = SignerRole(r.u8())
    depth = r.u16()
    signer_key_id = Digest(r.take(DIGEST_LEN))
    sig = Signature.read_from(r)
    r.done()
    rev = RevocationMessage(
        kind=kind,
        target_cert_hash=target,
        rev_timestamp=rev_ts,
        signer_role=role,
        signer_depth=depth,
        signer_key_id=signer_key_id,
        signature=sig,
    )
    rev.__dict__["canonical_bytes"] = data  # every field has one encoding
    return rev


def check_revocation_form(rev: RevocationMessage, target: Certificate) -> None:
    """Raise PolicyViolation or TimestampAfterExpiry unless the policy matrix
    lets rev's role issue its kind, rev names target, its kind fits the target,
    and a cut-off is present only for a CA and falls before the CA's expiry."""
    if (rev.kind, rev.signer_role) not in ALLOWED_REVOCATIONS:
        raise PolicyViolation(f"{rev.signer_role.name} may not issue {rev.kind.name}")
    if rev.target_cert_hash != target.cert_hash:
        raise PolicyViolation("revocation names another certificate")
    if target.is_ca != (rev.kind == RevocationKind.CA_REVOKE_FROM):
        raise PolicyViolation(f"{rev.kind.name} cannot target this certificate")
    if target.is_ca != (rev.rev_timestamp is not None):
        raise PolicyViolation("a CA revocation, and only one, carries a cut-off")
    if target.is_ca and rev.rev_timestamp >= target.not_after:
        raise TimestampAfterExpiry("cut-off must precede certificate expiry")


def revocation_signer(
    rev: RevocationMessage,
    target: Certificate,
    ancestors: Sequence[Certificate],
    vendor_pub: bytes,
) -> int | None:
    """Index in ancestors (target's issuers, root first) of the one that
    signed rev; -1 if the target's own key, its revocation key or the vendor
    key did; None if rev is malformed or not signed by the key its role names.
    Whether it came inside the signer's legitimacy period is not checked here.
    """
    try:
        check_revocation_form(rev, target)
    except CertError:
        return None
    signer = -1
    if rev.signer_role == SignerRole.OWN_KEY:
        key = target.subject_public_key
    elif rev.signer_role == SignerRole.REVOCATION_KEY:
        key = target.revocation_public_key
        if key is None or key_id_of(key) != rev.signer_key_id:
            return None
    elif rev.signer_role == SignerRole.VENDOR:
        key = vendor_pub
    else:  # PARENT_CA: the first ancestor holding the named key
        ids = [anc.subject_key_id for anc in ancestors]
        if rev.signer_key_id not in ids:
            return None
        signer = ids.index(rev.signer_key_id)
        key = ancestors[signer].subject_public_key
    return signer if verify(key, rev.tag, rev.signed_payload(), rev.signature) else None


def make_revocation(
    kind: RevocationKind,
    target: Certificate,
    signer_key: KeyPair,
    signer_role: SignerRole,
    rev_timestamp: int | None = None,
    signer_depth: int = 0,
) -> RevocationMessage:
    """Create a signed revocation message, enforcing the policy matrix."""
    msg = RevocationMessage(
        kind=kind,
        target_cert_hash=target.cert_hash,
        rev_timestamp=rev_timestamp,
        signer_role=signer_role,
        signer_depth=signer_depth,
        signer_key_id=signer_key.key_id,
        signature=Signature(signer_key.key_id, 0x01, b""),
    )
    check_revocation_form(msg, target)
    named = {SignerRole.OWN_KEY: target.subject_public_key,
             SignerRole.REVOCATION_KEY: target.revocation_public_key}
    if signer_role in named and named[signer_role] != signer_key.public_bytes:
        raise PolicyViolation("the key does not match the one the signer role names")
    sig = signer_key.sign(msg.tag, msg.signed_payload())
    return replace(msg, signature=sig)


def verify_revocation(
    rev: RevocationMessage,
    target: Certificate,
    chain: CertChain,
    vendor_pub: bytes,
) -> bool:
    """Pure predicate: is rev a well-formed, correctly signed revocation of
    target, a member of chain? See revocation_signer."""
    for depth, cert in enumerate(chain.certs):
        if cert.cert_hash == target.cert_hash:
            return revocation_signer(rev, target, chain.certs[:depth], vendor_pub) is not None
    return False


def names_match(a: str, b: str) -> bool:
    # Exact match, case-insensitive ASCII; no wildcards.
    return a.lower() == b.lower()


def pre_validate(
    chain: CertChain,
    name: str,
    trust_roots: frozenset[Digest] | set[Digest],
    now: int,
) -> bool:
    """Structural chain validation against a domain name and trust anchors."""
    try:
        chain.verify_structure(require_leaf=True)
    except InvalidChain:
        return False
    if not names_match(chain.leaf.subject_name, name):
        return False
    if chain.root.cert_hash not in trust_roots:
        return False
    for cert in chain.certs:
        if not cert.not_before <= now <= cert.not_after:
            return False
    return True
