"""The one tree shape (RFC 9162, section 2.1) behind the chronological tree,
the forest subtrees and the lightweight monitor's frontier."""

import random

import pytest

from pkisn.crypto import hash_leaf, hash_node, sha256
from pkisn.merkle import HashStore, fold, push, root_from_audit_path

LEAVES = [hash_leaf(bytes([i])) for i in range(130)]


def split(n):
    k = 1
    while 2 * k < n:
        k *= 2
    return k


def mth(leaves):
    """MTH by its recursive definition."""
    if len(leaves) == 1:
        return leaves[0]
    k = split(len(leaves))
    return hash_node(mth(leaves[:k]), mth(leaves[k:]))


def path(m, leaves):
    """PATH(m, D[n]) by its recursive definition."""
    if len(leaves) == 1:
        return []
    k = split(len(leaves))
    if m < k:
        return path(m, leaves[:k]) + [mth(leaves[k:])]
    return path(m - k, leaves[k:]) + [mth(leaves[:k])]


def test_root_and_audit_paths_follow_the_definition():
    store = HashStore(LEAVES)
    assert store.root(0) == sha256(b"")
    for n in range(1, len(LEAVES) + 1):
        root = mth(LEAVES[:n])
        assert store.root(n) == root, n
        for i in range(n):
            audit = store.audit_path(i, n)
            assert audit == path(i, LEAVES[:n]), (n, i)
            assert root_from_audit_path(LEAVES[i], i, n, audit) == root, (n, i)


def test_frontier_over_any_split_folds_to_the_root():
    store = HashStore(LEAVES)
    for n in range(1, len(LEAVES) + 1):
        for lo in range(n + 1):
            frontier = []
            for node in store.cover(0, lo) + store.cover(lo, n):
                push(frontier, node)
            assert fold(frontier) == store.root(n), (n, lo)
            assert frontier == store.cover(0, n), (n, lo)


def test_range_hash_rejects_a_range_that_is_no_node():
    store = HashStore(LEAVES[:8])
    assert store.range_hash(4, 7) == mth(LEAVES[4:7])
    assert store.range_hash(6, 8) == mth(LEAVES[6:8])
    for lo, hi in [(1, 3), (2, 5), (2, 6), (4, 9), (3, 3), (5, 4)]:
        with pytest.raises(ValueError):
            store.range_hash(lo, hi)


def test_edits_in_place_match_a_fresh_store():
    # append, set and insert on one store, with reads in between,
    # give the roots, covers and audit paths of a store built from scratch.
    rng = random.Random(4)
    for _ in range(60):
        store, leaves = HashStore(), []
        for _ in range(rng.randrange(1, 25)):
            leaf = hash_leaf(rng.randbytes(8))
            op = rng.random()
            if op < 0.25 or not leaves:
                new = [hash_leaf(rng.randbytes(8)) for _ in range(rng.randrange(1, 6))]
                store.append(new)
                leaves += new
            elif op < 0.55:
                i = rng.randrange(len(leaves))
                store.set(i, leaf)
                leaves[i] = leaf
            else:
                i = rng.randrange(len(leaves) + 1)
                store.insert(i, leaf)
                leaves.insert(i, leaf)
            if leaves and rng.random() < 0.3:
                assert store.root() == mth(leaves)
        fresh = HashStore(leaves)
        for n in range(1, len(leaves) + 1):
            assert store.root(n) == fresh.root(n) == mth(leaves[:n])
            assert store.cover(0, n) == fresh.cover(0, n)
            for i in range(n):
                assert store.audit_path(i, n) == fresh.audit_path(i, n)
