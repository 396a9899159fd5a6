"""Vendor-built, log-committed revocation bundles for browser distribution.

The bundle carries the complete revocation messages (not just hashes) of
every revoked, non-expired certificate known at build time, sorted by target
hash for binary lookup. Carrying the full messages lets a client derive the
same legitimacy periods it would get from a presence proof, entirely
offline. The vendor signs the bundle and must log it before shipping; the
log's commitment (or, after the next update, an inclusion proof) rides along
so clients can check the bundle is the one the world sees.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter, lt

from .crypto import (
    TAG_TCRL,
    Digest,
    KeyPair,
    Signature,
    hash_leaf,
    verify,
)
from .log import LogServer, LogState, RevocationCommitment, SignedRoot, BadVendorSignature
from .timetree import EntryKind, InclusionProof, TimeTreeEntry, verify_inclusion
from .wire import Reader, b64d, b64e, lp, u32, u64


@dataclass(frozen=True)
class TcrlEntry:
    cert_hash: Digest
    rev_bytes: bytes
    reg_ts: int

    def encode(self) -> bytes:
        return self.cert_hash + lp(self.rev_bytes) + u64(self.reg_ts)

    def to_json(self) -> dict:
        return {"cert_hash": self.cert_hash.hex, "rev_bytes": b64e(self.rev_bytes), "reg_ts": self.reg_ts}

    @classmethod
    def from_json(cls, obj: dict) -> "TcrlEntry":
        return cls(Digest.from_hex(obj["cert_hash"]), b64d(obj["rev_bytes"]), obj["reg_ts"])


_ORDER = attrgetter("cert_hash", "reg_ts", "rev_bytes")


def _sorted(entries) -> tuple[TcrlEntry, ...]:
    """The one order of bundle entries: by target, then time, then bytes."""
    return tuple(sorted(entries, key=_ORDER))


def _in_order(entries: tuple[TcrlEntry, ...]) -> bool:
    """True iff the entries strictly increase in the one order, as lookup's
    bisection needs: a signature over unsorted entries would hide revocations."""
    keys = list(map(_ORDER, entries))
    return all(map(lt, keys, keys[1:]))


def _sig_json(sig: Signature | None) -> str | None:
    return b64e(sig.encode()) if sig else None


def _sig_from_json(text: str | None) -> Signature | None:
    return Signature.read_from(Reader(b64d(text))) if text else None


def _vendor_signed(vendor_pub: bytes, signed: Tcrl | TcrlDelta, sig: Signature | None) -> bool:
    return sig is not None and verify(vendor_pub, TAG_TCRL, signed.signing_bytes(), sig)


@dataclass(frozen=True)
class Tcrl:
    version: int
    issued_at: int
    entries: tuple[TcrlEntry, ...]  # sorted by (cert_hash, reg_ts, rev_bytes)
    vendor_signature: Signature | None = None
    log_commitment: RevocationCommitment | None = None
    inclusion: tuple[InclusionProof, SignedRoot] | None = None

    def signing_bytes(self) -> bytes:
        out = u64(self.version) + u64(self.issued_at) + u32(len(self.entries))
        for e in self.entries:
            out += e.encode()
        return out

    @cached_property
    def tcrl_hash(self) -> Digest:
        assert self.vendor_signature is not None, "hash covers the signed bundle"
        return hash_leaf(self.signing_bytes() + self.vendor_signature.encode())

    def lookup(self, cert_hash: Digest) -> list[tuple[bytes, int]]:
        """All logged revocations of one certificate; empty when unlisted."""
        lo = bisect.bisect_left(self.entries, cert_hash, key=attrgetter("cert_hash"))
        hi = bisect.bisect_right(self.entries, cert_hash, lo, key=attrgetter("cert_hash"))
        return [(e.rev_bytes, e.reg_ts) for e in self.entries[lo:hi]]

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "issued_at": self.issued_at,
            "entries": [e.to_json() for e in self.entries],
            "vendor_sig": _sig_json(self.vendor_signature),
            "log_commitment": self.log_commitment.to_json() if self.log_commitment else None,
            "inclusion": (
                {
                    "proof": self.inclusion[0].to_json(),
                    "signed_root": self.inclusion[1].to_json(),
                }
                if self.inclusion
                else None
            ),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Tcrl":
        inclusion = None
        if obj.get("inclusion"):
            inclusion = (
                InclusionProof.from_json(obj["inclusion"]["proof"]),
                SignedRoot.from_json(obj["inclusion"]["signed_root"]),
            )
        return cls(
            version=obj["version"],
            issued_at=obj["issued_at"],
            entries=tuple(TcrlEntry.from_json(e) for e in obj["entries"]),
            vendor_signature=_sig_from_json(obj.get("vendor_sig")),
            log_commitment=(
                RevocationCommitment.from_json(obj["log_commitment"]) if obj.get("log_commitment") else None
            ),
            inclusion=inclusion,
        )

    def dump(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    @classmethod
    def load(cls, text: str) -> "Tcrl":
        return cls.from_json(json.loads(text))


def build_tcrl(state: LogState, vendor_key: KeyPair, now: int, version: int = 1) -> Tcrl:
    """Deterministic bundle over the given synchronized state: the
    revocations of revoked, non-expired certificates."""
    entries = _sorted(
        TcrlEntry(cert_hash, rev_bytes, reg_ts)
        for cert_hash, rec in state.registry.items()
        if rec.not_after > now
        for rev_bytes, reg_ts in rec.revocations
    )
    unsigned = Tcrl(version=version, issued_at=now, entries=entries)
    sig = vendor_key.sign(TAG_TCRL, unsigned.signing_bytes())
    return replace(unsigned, vendor_signature=sig)


def commit_tcrl(log: LogServer, tcrl: Tcrl) -> Tcrl:
    """Queue the bundle's hash in the log; returns the bundle carrying the
    log's commitment."""
    vendor_pub = log.config.vendor_public_key
    if not _in_order(tcrl.entries):
        raise ValueError("bundle entries are not in canonical order")
    if not _vendor_signed(vendor_pub, tcrl, tcrl.vendor_signature):
        raise BadVendorSignature("bundle is not validly vendor-signed")
    commitment = log.submit_tcrl_hash(tcrl.tcrl_hash)
    return replace(tcrl, log_commitment=commitment)


def attach_inclusion(log: LogServer, tcrl: Tcrl) -> Tcrl:
    """After an update, swap the bare commitment for an inclusion proof.
    Only the entries of the update at the committed time are searched."""
    ts = tcrl.log_commitment.timestamp
    entry = TimeTreeEntry(EntryKind.TCRL, tcrl.tcrl_hash, ts)
    at = bisect.bisect_left(log.updates, ts, key=attrgetter("timestamp"))
    if at < len(log.updates) and log.updates[at].timestamp == ts:
        start = log.updates[at - 1].tree_size if at else 0
        batch = log.tree.entries(start, log.updates[at].tree_size)
        if entry in batch:
            proof = log.tree.inclusion_proof(start + batch.index(entry), log.latest.tree_size)
            return replace(tcrl, inclusion=(proof, log.latest.signed_root))
    raise LookupError("bundle entry not found in the log")


def verify_tcrl(
    tcrl: Tcrl,
    vendor_pub: bytes,
    log_pub: bytes,
    require_inclusion: bool = False,
) -> bool:
    """Vendor signature plus the log's binding of the bundle hash.

    With require_inclusion=False a signed commitment suffices; otherwise the
    bundle must carry an inclusion proof against a signed root.
    """
    if not _in_order(tcrl.entries) or not _vendor_signed(vendor_pub, tcrl, tcrl.vendor_signature):
        return False
    if tcrl.inclusion is not None:
        proof, signed_root = tcrl.inclusion
        if not signed_root.verify(log_pub):
            return False
        entry = TimeTreeEntry(
            EntryKind.TCRL,
            tcrl.tcrl_hash,
            tcrl.log_commitment.timestamp if tcrl.log_commitment else signed_root.timestamp,
        )
        return verify_inclusion(entry.encode(), proof, signed_root.root)
    if require_inclusion:
        return False
    if tcrl.log_commitment is None:
        return False
    if tcrl.log_commitment.rev_hash != tcrl.tcrl_hash:
        return False
    return tcrl.log_commitment.verify_as_tcrl(log_pub)


@dataclass(frozen=True)
class TcrlDelta:
    """Version-to-version difference: new revocation entries plus entries
    dropped because their certificate expired. It carries the vendor's
    signature over the bundle it produces, so a client holding only the
    vendor's public key can rebuild that bundle exactly."""

    from_version: int
    to_version: int
    issued_at: int
    added: tuple[TcrlEntry, ...]
    removed: tuple[TcrlEntry, ...]
    vendor_signature: Signature | None = None
    bundle_signature: Signature | None = None

    def signing_bytes(self) -> bytes:
        out = u64(self.from_version) + u64(self.to_version) + u64(self.issued_at)
        out += u32(len(self.added))
        for e in self.added:
            out += e.encode()
        out += u32(len(self.removed))
        for e in self.removed:
            out += e.encode()
        return out

    def to_json(self) -> dict:
        return {
            "from_version": self.from_version,
            "to_version": self.to_version,
            "issued_at": self.issued_at,
            "added": [e.to_json() for e in self.added],
            "removed": [e.to_json() for e in self.removed],
            "vendor_sig": _sig_json(self.vendor_signature),
            "bundle_sig": _sig_json(self.bundle_signature),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TcrlDelta":
        return cls(
            from_version=obj["from_version"],
            to_version=obj["to_version"],
            issued_at=obj["issued_at"],
            added=tuple(TcrlEntry.from_json(e) for e in obj["added"]),
            removed=tuple(TcrlEntry.from_json(e) for e in obj["removed"]),
            vendor_signature=_sig_from_json(obj.get("vendor_sig")),
            bundle_signature=_sig_from_json(obj.get("bundle_sig")),
        )


def build_tcrl_delta(old: Tcrl, state: LogState, vendor_key: KeyPair, now: int) -> TcrlDelta:
    new = build_tcrl(state, vendor_key, now, version=old.version + 1)
    old_set, new_set = set(old.entries), set(new.entries)
    delta = TcrlDelta(
        from_version=old.version,
        to_version=new.version,
        issued_at=now,
        added=_sorted(new_set - old_set),
        removed=_sorted(old_set - new_set),
        bundle_signature=new.vendor_signature,
    )
    return replace(delta, vendor_signature=vendor_key.sign(TAG_TCRL, delta.signing_bytes()))


def apply_tcrl_delta(old: Tcrl, delta: TcrlDelta, vendor_pub: bytes) -> Tcrl:
    """Reconstruct the next full bundle from a delta with public keys only;
    the result is byte-identical to the bundle the vendor built directly."""
    if delta.from_version != old.version:
        raise ValueError("delta does not extend this bundle version")
    if not _vendor_signed(vendor_pub, delta, delta.vendor_signature):
        raise BadVendorSignature("delta is not validly vendor-signed")
    merged = _sorted((set(old.entries) - set(delta.removed)) | set(delta.added))
    unsigned = Tcrl(version=delta.to_version, issued_at=delta.issued_at, entries=merged)
    if not _vendor_signed(vendor_pub, unsigned, delta.bundle_signature):
        raise BadVendorSignature("the vendor did not sign the bundle this delta produces")
    return replace(unsigned, vendor_signature=delta.bundle_signature)
