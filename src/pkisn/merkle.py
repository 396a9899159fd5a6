"""Merkle math over sequences of leaf hashes.

Trees follow the standard transparency-log shape (RFC 9162, section 2.1): a
tree over n > 1 leaves splits at the largest power of two strictly less than
n. Audit paths, consistency paths, and their verifiers all assume that shape,
so any two parties agree on the structure for every size. This module is the
only place that knows it: the chronological tree, every forest subtree and
the lightweight monitor's frontier all build on it.

A node is a tuple (level, index, hash) naming the complete subtree over
leaves [index * 2^level, (index + 1) * 2^level).

There is one hash type, Digest, and it is bytes. HashStore keeps the leaf
Digests it is given at level 0 and the nodes above them as plain bytes,
hashed by crypto.hash_node_raw; what it hands out is a Digest. Everything
else here (push, fold, the proof verifiers) hashes through hash_node.
"""

from __future__ import annotations

from collections.abc import Iterable

from .crypto import Digest, hash_node, hash_node_raw, sha256

Node = tuple[int, int, Digest]


def push(frontier: list[Node], node: Node) -> None:
    """Append a node to a right-edge frontier, merging equal siblings.

    The frontier holds the complete subtrees of a prefix, largest first; the
    node must start where that prefix ends."""
    frontier.append(node)
    while len(frontier) > 1 and frontier[-2][0] == frontier[-1][0]:
        level, index, right = frontier.pop()
        left = frontier.pop()[2]
        frontier.append((level + 1, index >> 1, hash_node(left, right)))


def fold(nodes: list[Node]) -> Digest:
    """Root over a left-to-right run of shrinking nodes, folded right to left."""
    if not nodes:
        return sha256(b"")
    acc = nodes[-1][2]
    for _, _, digest in reversed(nodes[:-1]):
        acc = hash_node(digest, acc)
    return acc


class HashStore:
    """Leaf hashes and every complete aligned node above them, one array per
    level: levels[level][index] is the 32-byte hash of node (level, index).

    Level 0 holds the leaf Digests as given. The levels above hold plain
    bytes from hash_node_raw, since a Digest per internal node would cost
    more to make; root, cover, range_hash and audit_path return Digests.
    Appending hashes the nodes the new leaves complete, and ragged ranges on
    the right edge fold O(log n) stored nodes. set rewrites one leaf and its
    ancestors in place. insert shifts every leaf right of it, so it drops
    the stored nodes from there on; the next read hashes them again, once
    for any number of inserts."""

    def __init__(self, leaf_hashes: Iterable[Digest] = ()):
        self.levels: list[list[bytes]] = [[]]  # level 0 holds Digests
        self._stale = False  # inserts left nodes to rehash
        self.append(leaf_hashes)

    def __len__(self) -> int:
        return len(self.levels[0])

    def append(self, leaf_hashes: Iterable[Digest]) -> None:
        self.levels[0].extend(leaf_hashes)
        self._fill()

    def _fill(self) -> None:
        """Hash every node whose two children are stored and it is not."""
        row = self.levels[0]
        level = 0
        while len(row) >= 2:
            if level + 1 == len(self.levels):
                self.levels.append([])
            up = self.levels[level + 1]
            lo = 2 * len(up)
            up.extend(map(hash_node_raw, row[lo::2], row[lo + 1::2]))
            row, level = up, level + 1
        self._stale = False

    def set(self, index: int, leaf_hash: Digest) -> None:
        """Replace one leaf and rehash the stored nodes above it, one per level."""
        if not 0 <= index < len(self):
            raise IndexError(f"leaf {index} outside {len(self)} leaves")
        below = self.levels[0]
        below[index] = leaf_hash
        for row in self.levels[1:]:
            index >>= 1
            if index >= len(row):
                break
            row[index] = hash_node_raw(below[2 * index], below[2 * index + 1])
            below = row

    def insert(self, index: int, leaf_hash: Digest) -> None:
        """Insert a leaf before position index; the nodes over it and right of
        it are rehashed on the next read."""
        if not 0 <= index <= len(self):
            raise IndexError(f"position {index} outside {len(self)} leaves")
        self.levels[0].insert(index, leaf_hash)
        for level in range(1, len(self.levels)):
            del self.levels[level][index >> level:]
        self._stale = True

    def cover(self, lo: int, hi: int) -> list[Node]:
        """Greedy tiling of leaves [lo, hi) by maximal aligned nodes, left to right."""
        if not 0 <= lo <= hi <= len(self):
            raise ValueError(f"bad range [{lo}, {hi}) over {len(self)} leaves")
        if self._stale:
            self._fill()
        nodes = []
        while lo < hi:
            level = (hi - lo).bit_length() - 1
            if lo:
                level = min(level, (lo & -lo).bit_length() - 1)
            nodes.append((level, lo >> level, Digest(self.levels[level][lo >> level])))
            lo += 1 << level
        return nodes

    def range_hash(self, lo: int, hi: int) -> Digest:
        """Root of the subtree over leaves [lo, hi), which must be a node of
        some prefix tree: lo is a multiple of the least power of two >= hi - lo."""
        n = hi - lo
        if n <= 0 or lo % (1 << (n - 1).bit_length()):
            raise ValueError(f"[{lo}, {hi}) is not a node of a prefix tree")
        return fold(self.cover(lo, hi))

    def root(self, size: int | None = None) -> Digest:
        return fold(self.cover(0, len(self) if size is None else size))

    def audit_path(self, index: int, size: int | None = None) -> list[Digest]:
        """Sibling hashes from the leaf up to the root of the size-prefix tree."""
        size = len(self) if size is None else size
        if not 0 <= index < size <= len(self):
            raise ValueError("index outside tree")
        if self._stale:
            self._fill()
        path: list[Digest] = []
        level = 0
        while 1 << level < size:
            sibling = (index >> level) ^ 1
            lo = sibling << level
            if lo + (1 << level) <= size:
                path.append(Digest(self.levels[level][sibling]))
            elif lo < size:  # a sibling cut by the right edge
                path.append(self.range_hash(lo, size))
            level += 1
        return path

    def consistency_path(self, old_size: int, new_size: int) -> list[Digest]:
        """Nodes proving the old_size tree is a prefix of the new_size tree."""
        if not 0 < old_size <= new_size <= len(self):
            raise ValueError("sizes outside tree")
        if old_size == new_size:
            return []
        return self._sub_consistency(old_size, 0, new_size, True)

    def _sub_consistency(self, m: int, lo: int, hi: int, complete: bool) -> list[Digest]:
        n = hi - lo
        if m == n:
            return [] if complete else [self.range_hash(lo, hi)]
        k = 1 << ((n - 1).bit_length() - 1)  # the split: largest power of two below n
        if m <= k:
            out = self._sub_consistency(m, lo, lo + k, complete)
            out.append(self.range_hash(lo + k, hi))
        else:
            out = self._sub_consistency(m - k, lo + k, hi, False)
            out.append(self.range_hash(lo, lo + k))
        return out


def root_from_audit_path(
    leaf_hash: Digest, index: int, size: int, path: list[Digest]
) -> Digest | None:
    """Recompute the root implied by an audit path; None if the path is malformed."""
    if size <= 0 or not 0 <= index < size:
        return None
    fn, sn = index, size - 1
    r = leaf_hash
    for node in path:
        if sn == 0:
            return None
        if fn & 1 or fn == sn:
            r = hash_node(node, r)
            if not fn & 1:
                while True:
                    fn >>= 1
                    sn >>= 1
                    if fn & 1 or fn == 0:
                        break
        else:
            r = hash_node(r, node)
        fn >>= 1
        sn >>= 1
    if sn != 0:
        return None
    return r


def verify_consistency_path(
    old_size: int,
    new_size: int,
    old_root: Digest,
    new_root: Digest,
    path: list[Digest],
) -> bool:
    """Check that the new tree is an append-only extension of the old one."""
    if old_size <= 0 or old_size > new_size:
        return False
    if old_size == new_size:
        return not path and old_root == new_root
    nodes = list(path)
    if old_size & (old_size - 1) == 0:
        # Exact power of two: the old root itself opens the path.
        nodes = [old_root] + nodes
    if not nodes:
        return False
    fn, sn = old_size - 1, new_size - 1
    while fn & 1:
        fn >>= 1
        sn >>= 1
    fr = sr = nodes[0]
    for node in nodes[1:]:
        if sn == 0:
            return False
        if fn & 1 or fn == sn:
            fr = hash_node(node, fr)
            sr = hash_node(node, sr)
            if not fn & 1:
                while True:
                    fn >>= 1
                    sn >>= 1
                    if fn & 1 or fn == 0:
                        break
        else:
            sr = hash_node(sr, node)
        fn >>= 1
        sn >>= 1
    return sn == 0 and fr == old_root and sr == new_root
