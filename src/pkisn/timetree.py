"""Append-only chronological Merkle tree over all logged objects.

Entries are certificates, revocations, per-update roots of the hierarchical
revocation forest, and committed revocation-bundle hashes, in the order the
log accepted them. The tree answers inclusion proofs ("this entry was logged
at this time") and consistency proofs ("this snapshot extends that one").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from .crypto import Digest, hash_leaf
from .merkle import HashStore, Node, root_from_audit_path, verify_consistency_path
from .wire import Reader, b64d, b64e, lp, u8, u64


class TimeTreeError(Exception):
    pass


class NonMonotonicTimestamp(TimeTreeError):
    pass


class IndexOutOfRange(TimeTreeError):
    pass


class SizeOutOfRange(TimeTreeError):
    pass


class EntryKind(IntEnum):
    CERT = 1
    REVOCATION = 2
    REV_TREE_ROOT = 3
    TCRL = 4


@dataclass(frozen=True, slots=True)
class TimeTreeEntry:
    kind: EntryKind
    payload: bytes
    reg_timestamp: int
    leaf_hash: Digest = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "leaf_hash", hash_leaf(self.encode()))

    def encode(self) -> bytes:
        return u8(int(self.kind)) + u64(self.reg_timestamp) + lp(self.payload)

    @classmethod
    def decode(cls, data: bytes) -> "TimeTreeEntry":
        r = Reader(data)
        kind = EntryKind(r.u8())
        ts = r.u64()
        payload = r.lp()
        r.done()
        return cls(kind=kind, payload=payload, reg_timestamp=ts)


@dataclass(frozen=True)
class InclusionProof:
    leaf_index: int
    tree_size: int
    path: tuple[Digest, ...]

    def to_json(self) -> dict:
        return {
            "leaf_index": self.leaf_index,
            "tree_size": self.tree_size,
            "path": [d.hex for d in self.path],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "InclusionProof":
        return cls(
            leaf_index=obj["leaf_index"],
            tree_size=obj["tree_size"],
            path=tuple(Digest.from_hex(h) for h in obj["path"]),
        )


@dataclass(frozen=True)
class ConsistencyProof:
    old_size: int
    new_size: int
    nodes: tuple[Digest, ...]

    def to_json(self) -> dict:
        return {
            "old_size": self.old_size,
            "new_size": self.new_size,
            "nodes": [d.hex for d in self.nodes],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ConsistencyProof":
        return cls(
            old_size=obj["old_size"],
            new_size=obj["new_size"],
            nodes=tuple(Digest.from_hex(h) for h in obj["nodes"]),
        )


class TimeTree:
    """Single-writer append-only tree; reads see immutable size-identified snapshots."""

    def __init__(self):
        self._entries: list[TimeTreeEntry] = []
        self._store = HashStore()

    @property
    def size(self) -> int:
        return len(self._entries)

    def entry(self, index: int) -> TimeTreeEntry:
        if not 0 <= index < self.size:
            raise IndexOutOfRange(f"index {index} outside tree of size {self.size}")
        return self._entries[index]

    def entries(self, start: int = 0, end: int | None = None) -> list[TimeTreeEntry]:
        end = self.size if end is None else end
        if not 0 <= start <= end <= self.size:
            raise SizeOutOfRange(f"range [{start}, {end}) outside tree of size {self.size}")
        return self._entries[start:end]

    def append(self, entries: list[TimeTreeEntry]) -> Digest:
        """Append a batch of entries; timestamps must stay non-decreasing."""
        last_ts = self._entries[-1].reg_timestamp if self._entries else None
        for e in entries:
            if last_ts is not None and e.reg_timestamp < last_ts:
                raise NonMonotonicTimestamp(
                    f"entry timestamp {e.reg_timestamp} precedes {last_ts}"
                )
            last_ts = e.reg_timestamp
        self._entries.extend(entries)
        self._store.append(e.leaf_hash for e in entries)
        return self.root()

    def root(self, size: int | None = None) -> Digest:
        size = self.size if size is None else size
        if not 0 <= size <= self.size:
            raise SizeOutOfRange(f"size {size} outside tree of size {self.size}")
        return self._store.root(size)

    def cover(self, lo: int, hi: int) -> list[Node]:
        """Maximal aligned nodes tiling entries [lo, hi), left to right."""
        return self._store.cover(lo, hi)

    def inclusion_proof(self, index: int, tree_size: int | None = None) -> InclusionProof:
        tree_size = self.size if tree_size is None else tree_size
        if not 0 <= index < tree_size <= self.size:
            raise IndexOutOfRange(f"index {index} outside tree of size {tree_size}")
        path = self._store.audit_path(index, tree_size)
        return InclusionProof(leaf_index=index, tree_size=tree_size, path=tuple(path))

    def consistency_proof(self, old_size: int, new_size: int) -> ConsistencyProof:
        if not 0 < old_size <= new_size <= self.size:
            raise SizeOutOfRange(
                f"sizes ({old_size}, {new_size}) outside tree of size {self.size}"
            )
        nodes = self._store.consistency_path(old_size, new_size)
        return ConsistencyProof(old_size=old_size, new_size=new_size, nodes=tuple(nodes))


def verify_inclusion(entry_bytes: bytes, proof: InclusionProof, root: Digest) -> bool:
    computed = root_from_audit_path(
        hash_leaf(entry_bytes), proof.leaf_index, proof.tree_size, list(proof.path)
    )
    return computed is not None and computed == root


def verify_consistency(old_root: Digest, new_root: Digest, proof: ConsistencyProof) -> bool:
    return verify_consistency_path(
        proof.old_size, proof.new_size, old_root, new_root, list(proof.nodes)
    )


def entry_to_json(e: TimeTreeEntry) -> dict:
    return {"b64": b64e(e.encode())}


def entry_from_json(obj: dict) -> TimeTreeEntry:
    return TimeTreeEntry.decode(b64d(obj["b64"]))
