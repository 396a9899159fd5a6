"""The log's state machine.

Submissions are verified and queued; a chain commitment signed immediately
promises the registration timestamp of every certificate in the chain. At
each scheduled update the queue is appended to the chronological tree, the
revocation forest is rebuilt, its root is appended as the batch's final
entry, and a fresh signed root is emitted. Proofs are served from the
forest of the last completed update.

LogState holds what the entry stream alone determines (registry, issuance
hierarchy, revocation forest); LogServer and the full monitor both extend
it, so they place certificates and rebuild the forest with the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import journal as jr
from .certs import (
    CertChain,
    Certificate,
    RevocationMessage,
    SignerRole,
    decode_certificate,
    decode_revocation,
    verify_revocation,
)
from .crypto import (
    TAG_CHAIN_COMMITMENT,
    TAG_REVOCATION_COMMITMENT,
    TAG_SIGNED_ROOT,
    TAG_TCRL,
    Digest,
    KeyPair,
    Signature,
    verify,
)
from .revtree import (
    AbsenceProof,
    ChainPresenceProof,
    NotFoundAtLevel,
    RegisteredCert,
    RevForest,
    SubtreeLeafRecord,
)
from .timetree import EntryKind, TimeTree, TimeTreeEntry, ConsistencyProof
from .wire import Reader, b64d, b64e, u8, u64


class LogError(Exception):
    pass


class InvalidChainSubmission(LogError):
    pass


class UntrustedRoot(LogError):
    pass


class QueueFull(LogError):
    pass


class TargetNotLogged(LogError):
    pass


class IllegitimateRevocation(LogError):
    pass


class DuplicateRkRevocation(LogError):
    """A CA's offline revocation key is single-use."""


class RelabelledRevocation(LogError):
    """A revocation whose signed statement is already logged under other
    bytes: only its unsigned fields differ."""


class ReplayMismatch(LogError):
    """Recovery met a journaled update it cannot reproduce exactly; nothing
    is signed for it."""

    def __init__(self, update_time: int, why: str):
        super().__init__(f"journaled update at {update_time}: {why}")
        self.update_time = update_time


class UpdateTooEarly(LogError):
    pass


class NoUpdateYet(LogError):
    pass


class BadVendorSignature(LogError):
    pass


class UnknownLeaf(LogError):
    """Raised by proof queries when a level is missing; carries the absence proof."""

    def __init__(self, level: int, absence: AbsenceProof, signed_root: "SignedRoot"):
        super().__init__(f"no leaf at level {level}")
        self.level = level
        self.absence = absence
        self.signed_root = signed_root


@dataclass(frozen=True)
class ChainCommitment:
    """Signed promise binding a leaf to the registration times of its chain.

    Timestamps run leaf to root and are always non-increasing in that order.
    """

    leaf_cert_hash: Digest
    timestamps: tuple[int, ...]
    log_signature: Signature

    def payload(self) -> bytes:
        out = self.leaf_cert_hash + u8(len(self.timestamps))
        for t in self.timestamps:
            out += u64(t)
        return out

    def verify(self, log_pub: bytes) -> bool:
        return verify(log_pub, TAG_CHAIN_COMMITMENT, self.payload(), self.log_signature)

    def to_json(self) -> dict:
        return {
            "leaf_cert_hash": self.leaf_cert_hash.hex,
            "timestamps": list(self.timestamps),
            "signature": b64e(self.log_signature.encode()),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ChainCommitment":
        return cls(
            leaf_cert_hash=Digest.from_hex(obj["leaf_cert_hash"]),
            timestamps=tuple(obj["timestamps"]),
            log_signature=Signature.read_from(Reader(b64d(obj["signature"]))),
        )


@dataclass(frozen=True)
class SignedRoot:
    root: Digest
    timestamp: int
    log_signature: Signature

    def payload(self) -> bytes:
        return self.root + u64(self.timestamp)

    def verify(self, log_pub: bytes) -> bool:
        return verify(log_pub, TAG_SIGNED_ROOT, self.payload(), self.log_signature)

    def to_json(self) -> dict:
        return {
            "root": self.root.hex,
            "timestamp": self.timestamp,
            "signature": b64e(self.log_signature.encode()),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SignedRoot":
        return cls(
            root=Digest.from_hex(obj["root"]),
            timestamp=obj["timestamp"],
            log_signature=Signature.read_from(Reader(b64d(obj["signature"]))),
        )


@dataclass(frozen=True)
class RevocationCommitment:
    rev_hash: Digest
    timestamp: int
    log_signature: Signature

    def payload(self) -> bytes:
        return self.rev_hash + u64(self.timestamp)

    def verify(self, log_pub: bytes) -> bool:
        return verify(log_pub, TAG_REVOCATION_COMMITMENT, self.payload(), self.log_signature)

    def verify_as_tcrl(self, log_pub: bytes) -> bool:
        # Bundle commitments share the shape but live under their own tag.
        return verify(log_pub, TAG_TCRL, self.payload(), self.log_signature)

    def to_json(self) -> dict:
        return {
            "rev_hash": self.rev_hash.hex,
            "timestamp": self.timestamp,
            "signature": b64e(self.log_signature.encode()),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RevocationCommitment":
        return cls(
            rev_hash=Digest.from_hex(obj["rev_hash"]),
            timestamp=obj["timestamp"],
            log_signature=Signature.read_from(Reader(b64d(obj["signature"]))),
        )


@dataclass(frozen=True)
class PendingRevocation:
    """A verified revocation awaiting the next update, with its commitment."""

    revocation: RevocationMessage
    commitment: RevocationCommitment

    def to_json(self) -> dict:
        return {
            "revocation": b64e(self.revocation.canonical_bytes),
            "commitment": self.commitment.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PendingRevocation":
        return cls(
            revocation=decode_revocation(b64d(obj["revocation"])),
            commitment=RevocationCommitment.from_json(obj["commitment"]),
        )


@dataclass
class LogConfig:
    scheduling_period: int
    trust_roots: frozenset[Digest]
    vendor_public_key: bytes
    max_pending: int = 100_000

    def __post_init__(self):
        if self.scheduling_period <= 0:
            raise ValueError("scheduling period must be positive")


@dataclass
class UpdateRecord:
    timestamp: int
    tree_size: int
    signed_root: SignedRoot
    forest_root: Digest


class LogState:
    """The state the entry stream determines: chronological tree, registry,
    issuance hierarchy and revocation forest. The log and every full monitor
    build it through these methods alone, so a replica's forest root is the
    log's computation by construction. register and add_revocation file each
    certificate they touch under its parent; forest_root hands those to the
    forest, which rewrites only their leaves and the paths above them. The
    registry holds every certificate's bytes; certs keeps decoded CAs only."""

    def __init__(self):
        self.tree = TimeTree()
        self.forest = RevForest()
        self.registry: dict[Digest, RegisteredCert] = {}
        self.certs: dict[Digest, Certificate] = {}  # CAs only
        self.children: dict[Digest | None, list[Digest]] = {None: []}
        # First registered certificate holding each subject key; fixes forest
        # placement deterministically from the entry stream alone.
        self.key_owner: dict[Digest, Digest] = {}
        # Certificates registered or revoked since the last rebuild, by parent.
        self._changed: dict[Digest | None, list[Digest]] = {}

    def register(self, cert: Certificate, reg_ts: int) -> bool:
        """Place a certificate in the forest; False if it is already there.

        A self-signed CA, or a certificate whose issuer key no registered
        certificate holds, goes to the top subtree; anything else hangs under
        the first registered holder of its issuer key."""
        h = cert.cert_hash
        if h in self.registry:
            return False
        parent = None if cert.is_ca and cert.is_self_signed else self.key_owner.get(cert.issuer_key_id)
        self.registry[h] = RegisteredCert(cert.canonical_bytes, reg_ts, parent, [], cert.not_after)
        if cert.is_ca:
            self.certs[h] = cert
        self.key_owner.setdefault(cert.subject_key_id, h)
        self.children.setdefault(parent, []).append(h)
        self._changed.setdefault(parent, []).append(h)
        return True

    def add_revocation(self, target: Digest, rev_bytes: bytes, reg_ts: int) -> None:
        record = self.registry[target]
        record.revocations.append((rev_bytes, reg_ts))
        self._changed.setdefault(record.parent, []).append(target)

    def logged_under_other_bytes(self, rev: RevocationMessage) -> bool:
        """True if rev's target already holds a revocation that makes rev's
        signed statement in other bytes."""
        record = self.registry.get(rev.target_cert_hash)
        return record is not None and any(
            rb != rev.canonical_bytes and decode_revocation(rb).statement == rev.statement
            for rb, _ in record.revocations
        )

    def forest_root(self) -> Digest:
        """Hand the forest the certificates changed since the last call, or
        reuse the cached top root when none did."""
        if not self._changed:
            return self.forest.top_root()
        changed, self._changed = self._changed, {}
        return self.forest.rebuild(self.registry, changed)


class LogServer(LogState):
    """Single-writer log with no locking of its own: LogHTTPService runs every
    request, submissions and reads alike, under one lock, so submissions are
    checked one at a time and no read overlaps an update. Submissions wait in
    the queues until the next update; the forest and the tree answer reads
    as of the last completed one, plus the pending revocations."""

    def __init__(
        self,
        config: LogConfig,
        signing_key: KeyPair,
        start_time: int,
        journal: jr.Journal | None = None,
    ):
        super().__init__()
        self.config = config
        self.key = signing_key
        self.pending_certs: dict[Digest, Certificate] = {}  # submission order, parents first
        self.pending_revs: list[RevocationMessage] = []
        # Commitments to pending revocations, signed once until the update merges them.
        self._pending_commitments: dict[Digest, RevocationCommitment] = {}
        self.pending_tcrls: list[Digest] = []
        self.rk_revocations: set[Digest] = set()  # targets whose revocation key was used
        self.updates: list[UpdateRecord] = []
        self.last_update_time = start_time
        self._journal = journal

    # -- schedule ----------------------------------------------------------

    def next_update_time(self) -> int:
        return self.last_update_time + self.config.scheduling_period

    @property
    def latest(self) -> UpdateRecord:
        if not self.updates:
            raise NoUpdateYet("log has not produced an update yet")
        return self.updates[-1]

    def latest_signed_root(self) -> SignedRoot:
        return self.latest.signed_root

    # -- submissions -------------------------------------------------------

    def submit_chain(self, chain: CertChain) -> ChainCommitment:
        try:
            chain.verify_structure(require_leaf=True)
        except Exception as e:
            raise InvalidChainSubmission(str(e)) from e
        return self._admit_chain(chain)

    def _admit_chain(self, chain: CertChain) -> ChainCommitment:
        if chain.root.cert_hash not in self.config.trust_roots:
            raise UntrustedRoot("chain does not terminate at a trusted root")
        self._make_room(sum(
            1 for c in chain.certs if c.cert_hash not in self.registry and c.cert_hash not in self.pending_certs
        ))
        queued = [(jr.REC_CERT, c.canonical_bytes) for c in chain.certs if self._queue_cert(c)]
        if self._journal is not None and queued:
            self._journal.append_all(queued)
        timestamps = tuple(
            self.registry[c.cert_hash].reg_ts if c.cert_hash in self.registry else self.next_update_time()
            for c in reversed(chain.certs)
        )
        return self._sign(TAG_CHAIN_COMMITMENT, ChainCommitment(chain.leaf.cert_hash, timestamps, None))

    def _queue_cert(self, cert: Certificate) -> bool:
        """Queue a certificate for the next update; False if already known."""
        h = cert.cert_hash
        if h in self.registry or h in self.pending_certs:
            return False
        self.pending_certs[h] = cert
        return True

    def _make_room(self, new: int) -> None:
        """Refuse new entries that would take the queues past max_pending."""
        if len(self.pending_certs) + len(self.pending_revs) + len(self.pending_tcrls) + new > self.config.max_pending:
            raise QueueFull(f"more than {self.config.max_pending} entries pending")

    def _sign(self, tag: int, unsigned):
        return replace(unsigned, log_signature=self.key.sign(tag, unsigned.payload()))

    def submit_revocation(self, chain: CertChain, rev: RevocationMessage) -> RevocationCommitment:
        try:
            chain.verify_structure(require_leaf=False)
        except Exception as e:
            raise InvalidChainSubmission(str(e)) from e
        target = chain.certs[-1]
        if rev.target_cert_hash != target.cert_hash:
            raise IllegitimateRevocation("revocation does not target the chain's last certificate")
        h = target.cert_hash
        if h not in self.registry and h not in self.pending_certs:
            raise TargetNotLogged("target certificate was never submitted")
        if not verify_revocation(rev, target, chain, self.config.vendor_public_key):
            raise IllegitimateRevocation("revocation signature or policy check failed")
        return self._admit_revocation(rev)

    def _admit_revocation(self, rev: RevocationMessage) -> RevocationCommitment:
        ts = self._known_revocation_time(rev)
        if ts is None:
            self._make_room(1)
            ts = self._queue_revocation(rev)
        if ts == self.next_update_time():
            return self._pending_commitment(rev)
        return self._sign_rev_commitment(rev, ts)

    def _known_revocation_time(self, rev: RevocationMessage) -> int | None:
        """The registration time of a byte-identical revocation that is
        logged or pending, which a resubmission keeps; None for a new one."""
        record = self.registry.get(rev.target_cert_hash)
        if record is not None:
            for rb, ts in record.revocations:
                if rb == rev.canonical_bytes:
                    return ts
        if any(p.canonical_bytes == rev.canonical_bytes for p in self.pending_revs):
            return self.next_update_time()
        return None

    def _queue_revocation(self, rev: RevocationMessage) -> int:
        """Queue a new revocation for the next update and journal it;
        returns its registration time."""
        h = rev.target_cert_hash
        if self.logged_under_other_bytes(rev) or any(p.statement == rev.statement for p in self.pending_revs):
            raise RelabelledRevocation("this revocation is already logged under other bytes")
        if rev.signer_role == SignerRole.REVOCATION_KEY:
            if h in self.rk_revocations:
                raise DuplicateRkRevocation("the revocation key was already used for this certificate")
            self.rk_revocations.add(h)
        self.pending_revs.append(rev)
        if self._journal is not None:
            self._journal.append(jr.REC_REVOCATION, rev.canonical_bytes)
        return self.next_update_time()

    def _queue_tcrl(self, tcrl_hash: Digest) -> None:
        """Queue a new bundle hash for the next update and journal it."""
        self.pending_tcrls.append(tcrl_hash)
        if self._journal is not None:
            self._journal.append(jr.REC_TCRL, tcrl_hash)

    def _sign_rev_commitment(self, rev: RevocationMessage, ts: int) -> RevocationCommitment:
        return self._sign(TAG_REVOCATION_COMMITMENT, RevocationCommitment(rev.rev_hash, ts, None))

    def _pending_commitment(self, rev: RevocationMessage) -> RevocationCommitment:
        """The commitment to a pending revocation, signed on first use (at
        admission, or at the first read after recovery) and kept until the
        update merges it; Ed25519 signing is deterministic, so the bytes are
        those a fresh signature would have."""
        commitment = self._pending_commitments.get(rev.rev_hash)
        if commitment is None:
            commitment = self._sign_rev_commitment(rev, self.next_update_time())
            self._pending_commitments[rev.rev_hash] = commitment
        return commitment

    def submit_tcrl_hash(self, tcrl_hash: Digest) -> RevocationCommitment:
        """Queue a vendor revocation bundle by its hash; the tcrl module
        verifies the vendor signature before calling this."""
        if tcrl_hash not in self.pending_tcrls:
            self._make_room(1)
            self._queue_tcrl(tcrl_hash)
        return self._sign(TAG_TCRL, RevocationCommitment(tcrl_hash, self.next_update_time(), None))

    # -- the update cycle --------------------------------------------------

    def run_update(self, now: int | None = None) -> SignedRoot:
        now = self.next_update_time() if now is None else now
        if now < self.last_update_time + self.config.scheduling_period:
            raise UpdateTooEarly(
                f"next update is due at {self.next_update_time()}, got {now}"
            )
        return self._apply_update(now)

    def _apply_update(self, now: int, journaled: tuple[Digest, Digest] | None = None) -> SignedRoot:
        """Append the queued batch and sign the new root. In recovery,
        journaled holds the (forest root, tree root) the live log journaled
        for this update: the forest is not rebuilt, and nothing is signed
        unless the recomputed tree root equals the journaled one."""
        batch: list[TimeTreeEntry] = []
        for cert in self.pending_certs.values():
            self.register(cert, now)
            batch.append(TimeTreeEntry(EntryKind.CERT, cert.canonical_bytes, now))
        self.pending_certs.clear()

        for rev in self.pending_revs:
            self.add_revocation(rev.target_cert_hash, rev.canonical_bytes, now)
            batch.append(TimeTreeEntry(EntryKind.REVOCATION, rev.canonical_bytes, now))
        self.pending_revs.clear()
        self._pending_commitments.clear()

        for tcrl_hash in self.pending_tcrls:
            batch.append(TimeTreeEntry(EntryKind.TCRL, tcrl_hash, now))
        self.pending_tcrls.clear()

        forest_root = self.forest_root() if journaled is None else journaled[0]
        batch.append(TimeTreeEntry(EntryKind.REV_TREE_ROOT, forest_root, now))
        root = self.tree.append(batch)
        if journaled is not None and root != journaled[1]:
            raise ReplayMismatch(now, "tree root differs from the journaled one")
        signed = self._sign(TAG_SIGNED_ROOT, SignedRoot(root, now, None))
        self.updates.append(UpdateRecord(now, self.tree.size, signed, forest_root))
        self.last_update_time = now
        if self._journal is not None:
            self._journal.append(jr.REC_UPDATE, jr.encode_update(now, forest_root, root))
        return signed

    # -- queries -----------------------------------------------------------

    def get_proof(
        self, query: list[Digest]
    ) -> tuple[ChainPresenceProof, SignedRoot, list[PendingRevocation]]:
        latest = self.latest
        try:
            levels = self.forest.prove_chain(query)
        except NotFoundAtLevel as e:
            absence = self.prove_absence(query[: e.level], query[e.level])
            raise UnknownLeaf(e.level, absence, latest.signed_root) from e
        proof = ChainPresenceProof(
            levels=tuple(levels),
            root_entry_proof=self.tree.inclusion_proof(latest.tree_size - 1, latest.tree_size),
        )
        return proof, latest.signed_root, self._pending_for_levels(levels)

    def _pending_for_levels(self, levels: list[SubtreeLeafRecord]) -> list[PendingRevocation]:
        ids = {rec.id_hash for rec in levels}
        out = []
        for rev in self.pending_revs:
            target = self.registry.get(rev.target_cert_hash)
            if target is not None and target.id_hash in ids:
                out.append(PendingRevocation(rev, self._pending_commitment(rev)))
        return out

    def prove_absence(self, level_path: list[Digest], missing: Digest) -> AbsenceProof:
        latest = self.latest
        ancestors, empty, size, left, right = self.forest.prove_absence_records(level_path, missing)
        return AbsenceProof(
            levels=tuple(ancestors),
            missing=missing,
            empty=empty,
            subtree_size=size,
            left=left,
            right=right,
            root_entry_proof=self.tree.inclusion_proof(latest.tree_size - 1, latest.tree_size),
        )

    def get_consistency(self, old_size: int, new_size: int) -> ConsistencyProof:
        return self.tree.consistency_proof(old_size, new_size)

    def get_entries(self, start: int, end: int | None = None) -> list[TimeTreeEntry]:
        return self.tree.entries(start, end)

    # -- recovery ----------------------------------------------------------

    @classmethod
    def recover(
        cls,
        config: LogConfig,
        signing_key: KeyPair,
        start_time: int,
        journal_path,
    ) -> "LogServer":
        """Rebuild the full state by replaying the journal, then continue
        appending to it.

        Submissions are queued again through the live admission code. An
        update record that journals its forest and tree roots is applied
        without rebuilding the forest: its root entry takes the journaled
        forest root, and it is signed only once the recomputed tree root
        equals the journaled one. The forest is rebuilt once, after the last
        record (or before a legacy record, which rebuilds as the live log
        did), and must reproduce the last journaled forest root. Any
        disagreement raises ReplayMismatch."""
        journal, records = jr.Journal.open(journal_path)
        log = cls(config, signing_key, start_time, journal=None)
        try:
            for rec in records:
                if rec.kind == jr.REC_CERT:
                    log._queue_cert(decode_certificate(rec.payload))
                elif rec.kind == jr.REC_REVOCATION:
                    log._queue_revocation(decode_revocation(rec.payload))
                elif rec.kind == jr.REC_TCRL:
                    log._queue_tcrl(Digest(rec.payload))
                elif rec.kind == jr.REC_UPDATE:
                    log._replay_update(rec.payload)
            log._check_forest()
        except BaseException:
            journal.close()
            raise
        log._journal = journal
        return log

    def _replay_update(self, payload: bytes) -> None:
        try:
            now, roots = jr.decode_update(payload)
        except ValueError as e:
            raise ReplayMismatch(int.from_bytes(payload[:8], "big"), str(e)) from None
        if roots is None:
            self._check_forest()
        self._apply_update(now, roots)

    def _check_forest(self) -> None:
        """Rebuild what the replayed updates changed and compare the forest
        root with the one the last update journaled."""
        if self.updates and self.forest_root() != self.updates[-1].forest_root:
            raise ReplayMismatch(self.updates[-1].timestamp, "forest root differs from the journaled one")
