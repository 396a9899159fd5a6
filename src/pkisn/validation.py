"""Client-side complete certificate validation.

Beyond the standard chain checks, validation derives a legitimacy period for
every certificate in the chain: the window from its registration in the log
until it expires or is effectively revoked. A child certificate only counts
if it was registered inside its parent's legitimacy period, which is what
lets a compromised CA cut off everything issued after the break-in while
older, honestly issued certificates keep working.

Revocation classes are ranked. For CA certificates: vendor revocations beat
revocation-key revocations beat parent revocations, and the highest-ranked
class with an applicable message decides the period on its own. A parent's
revocation only applies if it was registered during that parent's own
legitimacy period, so a revoked CA cannot maliciously revoke its children.
Leaf certificates know only two states (revoked or not): the earliest
applicable revocation's registration time ends the period.

A message has force only if certs.revocation_signer accepts it, the check the
log and the full monitor admit it by; a pending one also needs the log's
commitment. The proof path (is_valid) and the bundle path (validate_with_tcrl)
bind the chain to its commitment through the same _commitment_reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .certs import (
    CertChain,
    Certificate,
    RevocationMessage,
    SignerRole,
    decode_revocation,
    pre_validate,
    revocation_signer,
)
from .crypto import Digest
from .log import ChainCommitment, PendingRevocation, SignedRoot
from .revtree import ChainPresenceProof, verify_chain


class Cause(str, Enum):
    EXPIRY = "expiry"
    VENDOR_REV = "vendor_revocation"
    RK_REV = "revocation_key"
    PARENT_REV = "parent_revocation"
    OWN_REV = "own_key"
    UNREVOKED = "unrevoked"


REVOCATION_CAUSES = {Cause.VENDOR_REV, Cause.RK_REV, Cause.PARENT_REV, Cause.OWN_REV}


class Reason(str, Enum):
    PRE_VALIDATE_FAIL = "PreValidateFail"
    PROOF_MISMATCH = "ProofMismatch"
    STALE_ROOT = "StaleRoot"
    BAD_SIGNATURE = "BadSignature"
    REG_OUTSIDE_PARENT_LP = "RegOutsideParentLP"
    LEAF_REVOKED = "LeafRevoked"
    LEAF_EXPIRED = "LeafExpired"
    EMPTY_LP = "EmptyLP"


@dataclass(frozen=True)
class LegitimacyPeriod:
    """Half-open interval [begin, end); an inverted interval is empty and
    fails every membership test."""

    begin: int
    end: int
    cause: Cause
    from_pending: bool = False

    def contains(self, t: int) -> bool:
        return self.begin <= t < self.end

    @property
    def is_empty(self) -> bool:
        return self.end <= self.begin

    def to_json(self) -> dict:
        return {
            "begin": self.begin,
            "end": self.end,
            "cause": self.cause.value,
            "pending": self.from_pending,
        }


@dataclass(frozen=True)
class CertVerdict:
    cert_hash: Digest
    lp: LegitimacyPeriod

    def to_json(self) -> dict:
        return {
            "cert_hash": self.cert_hash.hex,
            "lp_begin": self.lp.begin,
            "lp_end": self.lp.end,
            "cause": self.lp.cause.value,
            "pending": self.lp.from_pending,
        }


@dataclass(frozen=True)
class ValidationResult:
    success: bool
    reason: Reason | None
    per_cert: tuple[CertVerdict, ...] = ()

    @property
    def decision(self) -> str:
        return "SUCCESS" if self.success else "FAIL"

    def to_json(self) -> dict:
        return {
            "decision": self.decision,
            "reason": self.reason.value if self.reason else None,
            "per_cert": [v.to_json() for v in self.per_cert],
        }


@dataclass
class ValidationInput:
    chain: CertChain
    cc: ChainCommitment
    proof: ChainPresenceProof
    signed_root: SignedRoot
    pending_revocations: list[PendingRevocation]
    name: str
    now: int
    trust_roots: frozenset[Digest]
    log_pub: bytes
    vendor_pub: bytes
    max_root_age: int


@dataclass(frozen=True)
class _Rev:
    """A revocation with its effective registration time, as the period
    computation consumes it. Pending messages use the validation instant."""

    msg: RevocationMessage
    reg_ts: int
    pending: bool = False


# Cause of a revocation that has force, by its signer's role.
_ROLE_CAUSE = {
    SignerRole.VENDOR: Cause.VENDOR_REV,
    SignerRole.REVOCATION_KEY: Cause.RK_REV,
    SignerRole.PARENT_CA: Cause.PARENT_REV,
    SignerRole.OWN_KEY: Cause.OWN_REV,
}


def _applicable_class(
    rev: _Rev,
    cert: Certificate,
    ancestors: list[Certificate],
    ancestor_lps: list[LegitimacyPeriod],
    vendor_pub: bytes,
) -> Cause | None:
    """Classify one revocation against a certificate; None if it has no force."""
    signer = revocation_signer(rev.msg, cert, ancestors, vendor_pub)
    if signer is None:
        return None
    # A parent's revocation counts only if registered inside the parent's
    # own legitimacy period.
    if signer >= 0 and not ancestor_lps[signer].contains(rev.reg_ts):
        return None
    return _ROLE_CAUSE[rev.msg.signer_role]


def _determine_lp(
    cert: Certificate,
    t_x: int,
    revocations: list[_Rev],
    ancestors: list[Certificate],
    ancestor_lps: list[LegitimacyPeriod],
    vendor_pub: bytes,
) -> LegitimacyPeriod:
    classified: list[tuple[Cause, _Rev]] = []
    for rev in revocations:
        cause = _applicable_class(rev, cert, ancestors, ancestor_lps, vendor_pub)
        if cause is not None:
            classified.append((cause, rev))

    if cert.is_ca:
        # Priority classes; the best non-empty class alone decides, so a
        # vendor can override a malicious lower-priority cut-off outright.
        for cause in (Cause.VENDOR_REV, Cause.RK_REV, Cause.PARENT_REV):
            cutoffs = [r.msg.rev_timestamp for c, r in classified if c == cause]
            if cutoffs:
                cut = min(cutoffs)
                pending = any(
                    r.pending for c, r in classified if c == cause and r.msg.rev_timestamp == cut
                )
                if cert.not_after <= cut:
                    return LegitimacyPeriod(t_x, cert.not_after, Cause.EXPIRY)
                return LegitimacyPeriod(t_x, cut, cause, from_pending=pending)
        return LegitimacyPeriod(t_x, cert.not_after, Cause.UNREVOKED)

    # Leaf: any applicable revocation ends the period at its registration
    # time; the earliest one wins, ties broken by class priority.
    if classified:
        priority = {Cause.VENDOR_REV: 0, Cause.PARENT_REV: 1, Cause.OWN_REV: 2}
        cause, best = min(classified, key=lambda cr: (cr[1].reg_ts, priority[cr[0]]))
        cut = best.reg_ts
        if cert.not_after <= cut:
            return LegitimacyPeriod(t_x, cert.not_after, Cause.EXPIRY)
        return LegitimacyPeriod(t_x, cut, cause, from_pending=best.pending)
    return LegitimacyPeriod(t_x, cert.not_after, Cause.UNREVOKED)


def determine_lp_ca(
    cert: Certificate,
    t_x: int,
    revocations: list[tuple[RevocationMessage, int]],
    ancestors: list[Certificate],
    ancestor_lps: list[LegitimacyPeriod],
    vendor_pub: bytes,
) -> LegitimacyPeriod:
    assert cert.is_ca
    revs = [_Rev(m, ts) for m, ts in revocations]
    return _determine_lp(cert, t_x, revs, ancestors, ancestor_lps, vendor_pub)


def determine_lp_leaf(
    cert: Certificate,
    t_x: int,
    revocations: list[tuple[RevocationMessage, int]],
    ancestors: list[Certificate],
    ancestor_lps: list[LegitimacyPeriod],
    vendor_pub: bytes,
) -> LegitimacyPeriod:
    assert not cert.is_ca
    revs = [_Rev(m, ts) for m, ts in revocations]
    return _determine_lp(cert, t_x, revs, ancestors, ancestor_lps, vendor_pub)


def _commitment_reason(cc: ChainCommitment, chain: CertChain, log_pub: bytes) -> Reason | None:
    """Does the log's commitment bind this chain? It must carry the log's
    signature, name the leaf, and hold one timestamp per certificate,
    non-increasing from leaf to root."""
    if not cc.verify(log_pub):
        return Reason.BAD_SIGNATURE
    ts = cc.timestamps
    ordered = all(a >= b for a, b in zip(ts, ts[1:]))
    if cc.leaf_cert_hash != chain.leaf.cert_hash or len(ts) != len(chain.certs) or not ordered:
        return Reason.PROOF_MISMATCH
    return None


def _verify_proofs_reason(
    signed_root: SignedRoot,
    proof: ChainPresenceProof,
    chain: CertChain,
    cc: ChainCommitment,
    log_pub: bytes,
    max_root_age: int,
    now: int,
) -> Reason | None:
    if not signed_root.verify(log_pub):
        return Reason.BAD_SIGNATURE
    reason = _commitment_reason(cc, chain, log_pub)
    if reason is not None:
        return reason
    if now - signed_root.timestamp > max_root_age:
        return Reason.STALE_ROOT
    if not verify_chain(chain, cc.timestamps, proof, signed_root):
        return Reason.PROOF_MISMATCH
    return None


def verify_proofs(
    signed_root: SignedRoot,
    proof: ChainPresenceProof,
    chain: CertChain,
    cc: ChainCommitment,
    log_pub: bytes,
    max_root_age: int,
    now: int,
) -> bool:
    return (
        _verify_proofs_reason(signed_root, proof, chain, cc, log_pub, max_root_age, now)
        is None
    )


def _decide(
    chain: CertChain,
    cc: ChainCommitment,
    revs_per_cert: list[list[_Rev]],
    now: int,
    vendor_pub: bytes,
) -> ValidationResult:
    """Shared legitimacy-period walk, root CA first."""
    ts_root_first = cc.timestamps[::-1]
    lps: list[LegitimacyPeriod] = []
    verdicts: list[CertVerdict] = []
    for k, cert in enumerate(chain.certs):
        t_x = ts_root_first[k]
        lp = _determine_lp(cert, t_x, revs_per_cert[k], list(chain.certs[:k]), lps, vendor_pub)
        verdicts.append(CertVerdict(cert.cert_hash, lp))
        if k > 0 and not lps[k - 1].contains(t_x):
            return ValidationResult(False, Reason.REG_OUTSIDE_PARENT_LP, tuple(verdicts))
        lps.append(lp)
    leaf_lp = lps[-1]
    if leaf_lp.contains(now):
        return ValidationResult(True, None, tuple(verdicts))
    if leaf_lp.is_empty:
        return ValidationResult(False, Reason.EMPTY_LP, tuple(verdicts))
    if now >= leaf_lp.end and leaf_lp.cause in REVOCATION_CAUSES:
        return ValidationResult(False, Reason.LEAF_REVOKED, tuple(verdicts))
    return ValidationResult(False, Reason.LEAF_EXPIRED, tuple(verdicts))


def is_valid(inp: ValidationInput) -> ValidationResult:
    """Complete validation: structural checks, proof verification, then the
    legitimacy-period walk from the root CA down to the leaf."""
    if not pre_validate(inp.chain, inp.name, inp.trust_roots, inp.now):
        return ValidationResult(False, Reason.PRE_VALIDATE_FAIL)
    reason = _verify_proofs_reason(
        inp.signed_root, inp.proof, inp.chain, inp.cc, inp.log_pub, inp.max_root_age, inp.now
    )
    if reason is not None:
        return ValidationResult(False, reason)

    # Not yet merged: a pending revocation the log committed to counts at
    # once, so it takes effect without waiting out the scheduling period.
    # One the log never signed for does not count at all.
    pending = [
        p for p in inp.pending_revocations
        if p.commitment.rev_hash == p.revocation.rev_hash and p.commitment.verify(inp.log_pub)
    ]
    revs_per_cert: list[list[_Rev]] = []
    for cert, level in zip(inp.chain.certs, inp.proof.levels):
        revs = [_Rev(decode_revocation(rb), reg_ts) for rb, reg_ts in level.revocations]
        revs += [_Rev(p.revocation, inp.now, pending=True) for p in pending
                 if p.revocation.target_cert_hash == cert.cert_hash]
        revs_per_cert.append(revs)
    return _decide(inp.chain, inp.cc, revs_per_cert, inp.now, inp.vendor_pub)


def validate_with_tcrl(
    chain: CertChain,
    cc: ChainCommitment,
    tcrl,
    name: str,
    now: int,
    trust_roots: frozenset[Digest],
    vendor_pub: bytes,
    log_pub: bytes,
) -> ValidationResult:
    """Validation against a locally stored revocation bundle instead of a
    presence proof; the bundle must have been verified beforehand."""
    if not pre_validate(chain, name, trust_roots, now):
        return ValidationResult(False, Reason.PRE_VALIDATE_FAIL)
    reason = _commitment_reason(cc, chain, log_pub)
    if reason is not None:
        return ValidationResult(False, reason)
    revs_per_cert = [
        [_Rev(decode_revocation(rb), reg_ts) for rb, reg_ts in tcrl.lookup(cert.cert_hash)]
        for cert in chain.certs
    ]
    return _decide(chain, cc, revs_per_cert, now, vendor_pub)
