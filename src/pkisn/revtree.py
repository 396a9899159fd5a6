"""Hierarchical Merkle forest mirroring the certificate-issuance hierarchy.

The forest is a tree of subtrees: the top subtree holds one leaf per root CA,
and each CA's leaf links to the subtree of its children. Every leaf commits
to the certificate's identity hash H(cert || reg_ts), to all of its logged
revocations with their registration timestamps, and to the root of its child
subtree. Leaves within a subtree are sorted by identity hash, which makes
lookups logarithmic and lets the log prove absence by exhibiting the two
adjacent leaves bracketing a missing hash.

One presence proof therefore authenticates a whole chain at once, including
every revocation attached to any of its members.

Subtrees persist across updates and are edited in place, as history trees
are. LogState hands each rebuild the certificates registered or revoked
since the last one, filed under their parents, and one rule applies them: a
listed leaf that is already there is rewritten with its O(log n) ancestors,
and a new one is inserted at its sorted position, after which only the nodes
from the leftmost insert on are hashed again. A subtree that changed lists
its owner under the owner's parent in turn, up to the top.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from operator import attrgetter, is_not

from .certs import CertChain
from .crypto import Digest, empty_subtree_root, hash_leaf
from .merkle import HashStore, root_from_audit_path
from .timetree import EntryKind, InclusionProof, TimeTreeEntry, verify_inclusion
from .wire import b64d, b64e, lp, u16, u64

ZERO32 = b"\x00" * 32


class RevTreeError(Exception):
    pass


class OrphanCertificate(RevTreeError):
    pass


class NotFoundAtLevel(RevTreeError):
    def __init__(self, level: int, message: str = ""):
        super().__init__(message or f"no matching leaf at level {level}")
        self.level = level


class ActuallyPresent(RevTreeError):
    pass


@dataclass(slots=True)
class RegisteredCert:
    """Registry view of one logged certificate, as the forest consumes it."""

    cert_bytes: bytes
    reg_ts: int
    parent: Digest | None
    revocations: list[tuple[bytes, int]] = field(default_factory=list)
    not_after: int = 0
    id_hash: Digest = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # cert_bytes and reg_ts never change after registration.
        self.id_hash = cert_id_hash(self.cert_bytes, self.reg_ts)


def cert_id_hash(cert_bytes: bytes, reg_ts: int) -> Digest:
    """Identity of a logged certificate: hash of its bytes and registration time."""
    return hash_leaf(cert_bytes + u64(reg_ts))


def chain_id_hashes(chain: CertChain, cc_timestamps: Sequence[int]) -> list[Digest]:
    """Identity hashes of a chain, root CA first, from its commitment's
    timestamps (leaf first, as committed): the query for its proof."""
    return [cert_id_hash(c.canonical_bytes, t) for c, t in zip(chain.certs, reversed(cc_timestamps))]


def rev_leaf_hash(
    id_hash: Digest,
    revocations: tuple[tuple[bytes, int], ...],
    child_root: Digest | None,
) -> Digest:
    """Hash of one forest leaf; commits to identity, revocations, and child subtree."""
    out = id_hash + u16(len(revocations))
    for rev_bytes, reg_ts in revocations:
        out += lp(rev_bytes) + u64(reg_ts)
    out += child_root if child_root is not None else ZERO32
    return hash_leaf(out)


@dataclass(frozen=True)
class SubtreeLeafRecord:
    """One proven leaf: full contents plus its audit path inside the subtree."""

    id_hash: Digest
    revocations: tuple[tuple[bytes, int], ...]
    child_root: Digest | None
    leaf_index: int
    subtree_size: int
    path: tuple[Digest, ...]

    @cached_property
    def leaf_hash(self) -> Digest:
        return rev_leaf_hash(self.id_hash, self.revocations, self.child_root)

    def subtree_root(self) -> Digest | None:
        return root_from_audit_path(
            self.leaf_hash, self.leaf_index, self.subtree_size, list(self.path)
        )

    def to_json(self) -> dict:
        return {
            "id_hash": self.id_hash.hex,
            "revocations": [{"bytes": b64e(rb), "reg_ts": ts} for rb, ts in self.revocations],
            "child_root": self.child_root.hex if self.child_root else None,
            "leaf_index": self.leaf_index,
            "subtree_size": self.subtree_size,
            "path": [d.hex for d in self.path],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SubtreeLeafRecord":
        return cls(
            id_hash=Digest.from_hex(obj["id_hash"]),
            revocations=tuple((b64d(r["bytes"]), r["reg_ts"]) for r in obj["revocations"]),
            child_root=Digest.from_hex(obj["child_root"]) if obj["child_root"] else None,
            leaf_index=obj["leaf_index"],
            subtree_size=obj["subtree_size"],
            path=tuple(Digest.from_hex(h) for h in obj["path"]),
        )


@dataclass(frozen=True)
class ChainPresenceProof:
    """Per-level leaf records from the root-CA subtree down to the leaf, plus
    the chronological-tree inclusion proof of the current forest-root entry."""

    levels: tuple[SubtreeLeafRecord, ...]
    root_entry_proof: InclusionProof

    def to_json(self) -> dict:
        return {
            "levels": [rec.to_json() for rec in self.levels],
            "root_entry_proof": self.root_entry_proof.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ChainPresenceProof":
        return cls(
            levels=tuple(SubtreeLeafRecord.from_json(r) for r in obj["levels"]),
            root_entry_proof=InclusionProof.from_json(obj["root_entry_proof"]),
        )


@dataclass(frozen=True)
class AbsenceProof:
    """Bracketing proof that an identity hash is not in some subtree.

    levels authenticates the ancestor path down to the subtree in question;
    empty=True covers subtrees with no leaves at all (for child subtrees this
    shows the parent leaf committed to no children).
    """

    levels: tuple[SubtreeLeafRecord, ...]
    missing: Digest
    empty: bool
    subtree_size: int
    left: SubtreeLeafRecord | None
    right: SubtreeLeafRecord | None
    root_entry_proof: InclusionProof

    def to_json(self) -> dict:
        return {
            "levels": [rec.to_json() for rec in self.levels],
            "missing": self.missing.hex,
            "empty": self.empty,
            "subtree_size": self.subtree_size,
            "left": self.left.to_json() if self.left else None,
            "right": self.right.to_json() if self.right else None,
            "root_entry_proof": self.root_entry_proof.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AbsenceProof":
        return cls(
            levels=tuple(SubtreeLeafRecord.from_json(r) for r in obj["levels"]),
            missing=Digest.from_hex(obj["missing"]),
            empty=obj["empty"],
            subtree_size=obj["subtree_size"],
            left=SubtreeLeafRecord.from_json(obj["left"]) if obj["left"] else None,
            right=SubtreeLeafRecord.from_json(obj["right"]) if obj["right"] else None,
            root_entry_proof=InclusionProof.from_json(obj["root_entry_proof"]),
        )


class _Subtree:
    """One CA's children (the root CAs for the top), kept across rebuilds and
    sorted by identity hash. Parallel lists hold each leaf's identity hash
    and the revocations and child root its leaf hash commits to; level 0 of
    the store holds the leaf hashes. Hashes are Digests, which are bytes, so
    the sort and the bisect compare them directly.

    An update names the certificates whose leaves changed. A listed leaf
    that is already here is rewritten with its O(log n) ancestors
    (HashStore.set). A missing one is inserted at its sorted position, which
    shifts every leaf right of it, so the store rehashes from the leftmost
    insert on, once per update. A subtree built from empty sorts its leaves
    once and hashes them in one pass instead."""

    def __init__(self):
        self.id_hashes: list[Digest] = []
        self.revocations: list[tuple[tuple[bytes, int], ...]] = []
        self.child_roots: list[Digest | None] = []
        self.store = HashStore()
        self.root: Digest | None = None  # None while there are no leaves

    @property
    def size(self) -> int:
        return len(self.id_hashes)

    def find(self, id_hash: Digest) -> tuple[int, bool]:
        """Position of id_hash, or of the next leaf up, and whether it is there."""
        idx = bisect.bisect_left(self.id_hashes, id_hash)
        return idx, idx < self.size and self.id_hashes[idx] == id_hash

    def _leaf_hash(self, idx: int, cert: RegisteredCert, subtrees) -> Digest:
        """Take in a leaf's revocations and its child subtree's root, and hash it."""
        child = subtrees.get(cert.id_hash)
        self.revocations[idx] = revocations = tuple(cert.revocations)
        self.child_roots[idx] = child_root = None if child is None else child.root
        return rev_leaf_hash(cert.id_hash, revocations, child_root)

    def update(self, certs: list[Digest], registry, subtrees) -> None:
        """Bring the leaves of the listed certificates (registry keys, possibly
        repeated) up to date with their records and child subtrees; a repeat
        of a leaf already here rewrites it again, which changes nothing."""
        try:
            listed = [registry[h] for h in certs]
        except KeyError as e:
            raise OrphanCertificate(f"child {e.args[0].hex[:12]} is not registered") from None
        if not self.id_hashes:  # built from empty: one sort, then one hashing pass
            listed.sort(key=attrgetter("id_hash"))
            # A certificate listed twice sorts next to itself and gets one leaf.
            listed[1:] = compress(listed[1:], map(is_not, listed[1:], listed))
            self.id_hashes = [cert.id_hash for cert in listed]
            self.revocations = [()] * len(listed)
            self.child_roots = [None] * len(listed)
            self.store = HashStore([self._leaf_hash(idx, cert, subtrees) for idx, cert in enumerate(listed)])
        else:
            for cert in listed:
                idx, present = self.find(cert.id_hash)
                if not present:
                    self.id_hashes.insert(idx, cert.id_hash)
                    self.revocations.insert(idx, ())
                    self.child_roots.insert(idx, None)
                (self.store.set if present else self.store.insert)(idx, self._leaf_hash(idx, cert, subtrees))
        self.root = self.store.root()

    def record(self, idx: int) -> SubtreeLeafRecord:
        return SubtreeLeafRecord(
            id_hash=self.id_hashes[idx],
            revocations=self.revocations[idx],
            child_root=self.child_roots[idx],
            leaf_index=idx,
            subtree_size=self.size,
            path=tuple(self.store.audit_path(idx)),
        )


class RevForest:
    """The forest as of the last rebuild; query operations are read-only.
    Subtrees are keyed by the identity hash of the certificate they hang
    from, None for the top."""

    def __init__(self):
        self._subtrees: dict[Digest | None, _Subtree] = {None: _Subtree()}

    def rebuild(
        self,
        registry: dict[Digest, RegisteredCert],
        changed: dict[Digest | None, list[Digest]],
    ) -> Digest:
        """Apply the certificates registered or revoked since the last rebuild,
        filed like `children` under their parent (None for the top). Subtrees
        go deepest first, and each one that changed files its owner under the
        owner's parent, whose leaf commits to its root. Given the whole
        `children` map, a fresh forest builds every subtree from empty."""
        # Copies: owners join these lists, and `changed` may be the caller's `children`.
        pending = {key: list(certs) for key, certs in changed.items() if certs}
        depth: dict[Digest | None, int] = {}
        try:
            for key in pending:
                path = [key]
                while path[-1] is not None:
                    path.append(registry[path[-1]].parent)
                depth.update((k, d) for d, k in enumerate(reversed(path)))
        except KeyError as e:
            raise OrphanCertificate(f"parent {e} is not registered") from e
        for key in sorted(depth, key=depth.get, reverse=True):
            sub_id = None if key is None else registry[key].id_hash
            self._subtrees.setdefault(sub_id, _Subtree()).update(pending[key], registry, self._subtrees)
            if key is not None:
                pending.setdefault(registry[key].parent, []).append(key)
        return self.top_root()

    def top_root(self) -> Digest:
        return self._subtrees[None].root or empty_subtree_root()

    def prove_chain(self, query: list[Digest]) -> list[SubtreeLeafRecord]:
        """Locate each queried identity hash level by level, root CA first."""
        records: list[SubtreeLeafRecord] = []
        key: Digest | None = None
        for level, qh in enumerate(query):
            subtree = self._subtrees.get(key)
            idx, present = subtree.find(qh) if subtree is not None else (0, False)
            if not present:
                raise NotFoundAtLevel(level)
            records.append(subtree.record(idx))
            key = qh
        return records

    def prove_absence_records(
        self, level_path: list[Digest], missing: Digest
    ) -> tuple[list[SubtreeLeafRecord], bool, int, SubtreeLeafRecord | None, SubtreeLeafRecord | None]:
        """Ancestor records plus brackets for a missing hash; the log wraps this
        with the chronological-tree binding."""
        ancestors = self.prove_chain(level_path)
        subtree = self._subtrees.get(level_path[-1] if level_path else None)
        if subtree is None or not subtree.size:
            return ancestors, True, 0, None, None
        pos, present = subtree.find(missing)
        if present:
            raise ActuallyPresent(f"{missing.hex[:12]} is present")
        left = subtree.record(pos - 1) if pos > 0 else None
        right = subtree.record(pos) if pos < subtree.size else None
        return ancestors, False, subtree.size, left, right


def _chain_levels_root(levels: tuple[SubtreeLeafRecord, ...]) -> Digest | None:
    """Verify hierarchical chaining and return the implied top-subtree root."""
    top_root: Digest | None = None
    for k, rec in enumerate(levels):
        computed = rec.subtree_root()
        if computed is None:
            return None
        if k == 0:
            top_root = computed
        elif levels[k - 1].child_root != computed:
            return None
    return top_root


def _root_entry_binds(top_root: Digest, proof: InclusionProof, signed_root) -> bool:
    entry = TimeTreeEntry(EntryKind.REV_TREE_ROOT, top_root, signed_root.timestamp)
    return verify_inclusion(entry.encode(), proof, signed_root.root)


def verify_chain(
    chain: CertChain,
    cc_timestamps: list[int],
    proof: ChainPresenceProof,
    signed_root,
) -> bool:
    """Check a presence proof against a chain, its commitment timestamps
    (leaf first, as committed), and a signed root."""
    if len(proof.levels) != len(chain.certs) or len(cc_timestamps) != len(chain.certs):
        return False
    if [rec.id_hash for rec in proof.levels] != chain_id_hashes(chain, cc_timestamps):
        return False
    top_root = _chain_levels_root(proof.levels)
    if top_root is None:
        return False
    return _root_entry_binds(top_root, proof.root_entry_proof, signed_root)


def verify_absence(
    level_path: list[Digest],
    missing: Digest,
    proof: AbsenceProof,
    signed_root,
) -> bool:
    """Check a bracketing absence proof against a signed root."""
    if proof.missing != missing or len(proof.levels) != len(level_path):
        return False
    for rec, expected in zip(proof.levels, level_path):
        if rec.id_hash != expected:
            return False
    top_root = _chain_levels_root(proof.levels) if proof.levels else None
    if proof.levels and top_root is None:
        return False

    if proof.empty:
        if proof.left or proof.right or proof.subtree_size != 0:
            return False
        if proof.levels:
            if proof.levels[-1].child_root is not None:
                return False
        else:
            top_root = empty_subtree_root()
    else:
        brackets = [b for b in (proof.left, proof.right) if b is not None]
        if not brackets:
            return False
        roots = set()
        for b in brackets:
            if b.subtree_size != proof.subtree_size:
                return False
            r = b.subtree_root()
            if r is None:
                return False
            roots.add(r)
        if len(roots) != 1:
            return False
        subtree_root = roots.pop()
        if proof.left is not None and not proof.left.id_hash < missing:
            return False
        if proof.right is not None and not missing < proof.right.id_hash:
            return False
        if proof.left is not None and proof.right is not None:
            if proof.right.leaf_index != proof.left.leaf_index + 1:
                return False
        if proof.left is None and (proof.right is None or proof.right.leaf_index != 0):
            return False
        if proof.right is None and proof.left.leaf_index != proof.subtree_size - 1:
            return False
        if proof.levels:
            if proof.levels[-1].child_root != subtree_root:
                return False
        else:
            top_root = subtree_root

    assert top_root is not None
    return _root_entry_binds(top_root, proof.root_entry_proof, signed_root)
