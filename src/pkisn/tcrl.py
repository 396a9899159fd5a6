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
from operator import attrgetter

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
        return self.cert_hash.value + lp(self.rev_bytes) + u64(self.reg_ts)

    def to_json(self) -> dict:
        return {"cert_hash": self.cert_hash.hex, "rev_bytes": b64e(self.rev_bytes), "reg_ts": self.reg_ts}

    @classmethod
    def from_json(cls, obj: dict) -> "TcrlEntry":
        return cls(Digest.from_hex(obj["cert_hash"]), b64d(obj["rev_bytes"]), obj["reg_ts"])


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
            "vendor_sig": b64e(self.vendor_signature.encode()) if self.vendor_signature else None,
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
            vendor_signature=(
                Signature.read_from(Reader(b64d(obj["vendor_sig"]))) if obj.get("vendor_sig") else None
            ),
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


def _collect_entries(state: LogState, now: int) -> list[TcrlEntry]:
    """Revocations of revoked, non-expired certificates."""
    out: list[TcrlEntry] = []
    for cert_hash, rec in state.registry.items():
        if not rec.revocations:
            continue
        if rec.not_after <= now:
            continue
        for rev_bytes, reg_ts in rec.revocations:
            out.append(TcrlEntry(cert_hash=cert_hash, rev_bytes=rev_bytes, reg_ts=reg_ts))
    out.sort(key=lambda e: (e.cert_hash, e.reg_ts, e.rev_bytes))
    return out


def build_tcrl(state: LogState, vendor_key: KeyPair, now: int, version: int = 1) -> Tcrl:
    """Deterministic bundle over the given synchronized state."""
    entries = tuple(_collect_entries(state, now))
    unsigned = Tcrl(version=version, issued_at=now, entries=entries)
    sig = vendor_key.sign(TAG_TCRL, unsigned.signing_bytes())
    return replace(unsigned, vendor_signature=sig)


def commit_tcrl(log: LogServer, tcrl: Tcrl) -> Tcrl:
    """Queue the bundle's hash in the log; returns the bundle carrying the
    log's commitment."""
    vendor_pub = log.config.vendor_public_key
    if tcrl.vendor_signature is None or not verify(
        vendor_pub, TAG_TCRL, tcrl.signing_bytes(), tcrl.vendor_signature
    ):
        raise BadVendorSignature("bundle is not validly vendor-signed")
    commitment = log.submit_tcrl_hash(tcrl.tcrl_hash)
    return replace(tcrl, log_commitment=commitment)


def attach_inclusion(log: LogServer, tcrl: Tcrl) -> Tcrl:
    """After an update, swap the bare commitment for an inclusion proof."""
    entry = TimeTreeEntry(EntryKind.TCRL, tcrl.tcrl_hash.value, tcrl.log_commitment.timestamp)
    target = entry.leaf_hash
    for idx in range(log.tree.size):
        if log.tree.leaf_hash(idx) == target:
            proof = log.tree.inclusion_proof(idx, log.latest.tree_size)
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
    if tcrl.vendor_signature is None:
        return False
    if not verify(vendor_pub, TAG_TCRL, tcrl.signing_bytes(), tcrl.vendor_signature):
        return False
    if tcrl.inclusion is not None:
        proof, signed_root = tcrl.inclusion
        if not signed_root.verify(log_pub):
            return False
        entry = TimeTreeEntry(
            EntryKind.TCRL,
            tcrl.tcrl_hash.value,
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
    dropped because their certificate expired."""

    from_version: int
    to_version: int
    issued_at: int
    added: tuple[TcrlEntry, ...]
    removed: tuple[TcrlEntry, ...]
    vendor_signature: Signature | None = None

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
            "vendor_sig": b64e(self.vendor_signature.encode()) if self.vendor_signature else None,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TcrlDelta":
        return cls(
            from_version=obj["from_version"],
            to_version=obj["to_version"],
            issued_at=obj["issued_at"],
            added=tuple(TcrlEntry.from_json(e) for e in obj["added"]),
            removed=tuple(TcrlEntry.from_json(e) for e in obj["removed"]),
            vendor_signature=(
                Signature.read_from(Reader(b64d(obj["vendor_sig"]))) if obj.get("vendor_sig") else None
            ),
        )


def build_tcrl_delta(old: Tcrl, state: LogState, vendor_key: KeyPair, now: int) -> TcrlDelta:
    new_entries = _collect_entries(state, now)
    old_set = set(old.entries)
    new_set = set(new_entries)
    delta = TcrlDelta(
        from_version=old.version,
        to_version=old.version + 1,
        issued_at=now,
        added=tuple(sorted(new_set - old_set, key=lambda e: (e.cert_hash, e.reg_ts, e.rev_bytes))),
        removed=tuple(sorted(old_set - new_set, key=lambda e: (e.cert_hash, e.reg_ts, e.rev_bytes))),
    )
    sig = vendor_key.sign(TAG_TCRL, delta.signing_bytes())
    return replace(delta, vendor_signature=sig)


def apply_tcrl_delta(old: Tcrl, delta: TcrlDelta, vendor_key: KeyPair, vendor_pub: bytes) -> Tcrl:
    """Reconstruct the next full bundle from a delta; the result is signed
    fresh so it is byte-identical to a directly built bundle."""
    if delta.from_version != old.version:
        raise ValueError("delta does not extend this bundle version")
    if delta.vendor_signature is None or not verify(
        vendor_pub, TAG_TCRL, delta.signing_bytes(), delta.vendor_signature
    ):
        raise BadVendorSignature("delta is not validly vendor-signed")
    entries = (set(old.entries) - set(delta.removed)) | set(delta.added)
    merged = tuple(sorted(entries, key=lambda e: (e.cert_hash, e.reg_ts, e.rev_bytes)))
    unsigned = Tcrl(version=delta.to_version, issued_at=delta.issued_at, entries=merged)
    sig = vendor_key.sign(TAG_TCRL, unsigned.signing_bytes())
    return replace(unsigned, vendor_signature=sig)
