import hashlib
import random
import struct
from types import SimpleNamespace

import pytest

from pkisn import merkle
from pkisn.crypto import Digest, empty_subtree_root, hash_leaf
from pkisn.revtree import (
    ActuallyPresent,
    AbsenceProof,
    ChainPresenceProof,
    NotFoundAtLevel,
    RegisteredCert,
    RevForest,
    cert_id_hash,
    verify_absence,
    verify_chain,
)
from pkisn.timetree import EntryKind, TimeTree, TimeTreeEntry


# --- independent oracle: plain hashlib, recursive ---------------------------

def bf_id_hash(cert_bytes: bytes, reg_ts: int) -> bytes:
    return hashlib.sha256(b"\x00" + cert_bytes + struct.pack(">Q", reg_ts)).digest()


def bf_leaf_hash(cert_bytes, reg_ts, revs, child_root: bytes | None) -> bytes:
    body = bf_id_hash(cert_bytes, reg_ts) + struct.pack(">H", len(revs))
    for rb, ts in revs:
        body += struct.pack(">I", len(rb)) + rb + struct.pack(">Q", ts)
    body += child_root if child_root is not None else b"\x00" * 32
    return hashlib.sha256(b"\x00" + body).digest()


def bf_merkle(leaves: list[bytes]) -> bytes:
    if not leaves:
        return hashlib.sha256(b"\x00\x02").digest()
    if len(leaves) == 1:
        return leaves[0]
    k = 1
    while k * 2 < len(leaves):
        k *= 2
    return hashlib.sha256(b"\x01" + bf_merkle(leaves[:k]) + bf_merkle(leaves[k:])).digest()


def bf_forest_root(registry: dict, children: dict) -> bytes:
    def subtree(key) -> bytes | None:
        kids = children.get(key, [])
        if not kids:
            return None
        leaves = []
        for ch in kids:
            rec = registry[ch]
            leaves.append(
                (
                    bf_id_hash(rec.cert_bytes, rec.reg_ts),
                    bf_leaf_hash(rec.cert_bytes, rec.reg_ts, rec.revocations, subtree(ch)),
                )
            )
        leaves.sort(key=lambda x: x[0])
        return bf_merkle([h for _, h in leaves])

    top = subtree(None)
    return top if top is not None else hashlib.sha256(b"\x00\x02").digest()


# --- fixture builders --------------------------------------------------------

def synth_registry(rng: random.Random, n_roots=2, n_mid=4, n_leaves=10, revs=2):
    """Random three-level forest over synthetic certificate bytes."""
    registry: dict[Digest, RegisteredCert] = {}
    children: dict = {None: []}

    def add(parent, ts):
        cb = rng.randbytes(rng.randrange(20, 60))
        rec = RegisteredCert(cert_bytes=cb, reg_ts=ts, parent=parent, revocations=[])
        h = hash_leaf(cb)  # stand-in for the certificate hash
        registry[h] = rec
        children.setdefault(h, [])
        children.setdefault(parent, []).append(h)
        return h

    roots = [add(None, 100) for _ in range(n_roots)]
    mids = [add(rng.choice(roots), 200) for _ in range(n_mid)]
    for _ in range(n_leaves):
        add(rng.choice(mids or roots), 300)
    all_hashes = list(registry)
    for _ in range(revs):
        target = rng.choice(all_hashes)
        registry[target].revocations.append((rng.randbytes(40), 400))
    return registry, children


def forest_of(registry, children) -> RevForest:
    forest = RevForest()
    forest.rebuild(registry, children)
    return forest


def signed_root_for(forest_root: Digest, ts: int = 1000):
    """Minimal chronological-tree context: the forest root as the last entry."""
    tree = TimeTree()
    tree.append([TimeTreeEntry(EntryKind.REV_TREE_ROOT, forest_root.value, ts)])
    sr = SimpleNamespace(root=tree.root(), timestamp=ts)
    proof = tree.inclusion_proof(0)
    return sr, proof


# --- tests -------------------------------------------------------------------

def test_empty_forest_root_is_marker():
    forest = RevForest()
    root = forest.rebuild({}, {None: []})
    assert root == empty_subtree_root()


def test_rebuild_deterministic():
    registry, children = synth_registry(random.Random(1))
    f1 = forest_of(registry, children)
    f2 = forest_of(registry, children)
    assert f1.top_root() == f2.top_root()


def test_root_matches_brute_force_oracle():
    for seed in range(25):
        rng = random.Random(seed)
        registry, children = synth_registry(
            rng,
            n_roots=rng.randrange(1, 4),
            n_mid=rng.randrange(0, 6),
            n_leaves=rng.randrange(0, 12),
            revs=rng.randrange(0, 4),
        )
        forest = forest_of(registry, children)
        assert forest.top_root().value == bf_forest_root(registry, children), seed


def test_incremental_rebuild_matches_full():
    # Randomized insertion/revocation sequence reaching ~1000 certificates;
    # the incremental root must track the from-scratch rebuild throughout.
    rng = random.Random(99)
    registry: dict[Digest, RegisteredCert] = {}
    children: dict = {None: []}
    forest = RevForest()
    forest.rebuild(registry, children)

    inserted: list[Digest] = []
    ts = 0
    incremental = None
    for step in range(1400):
        ts += 1
        if not inserted or rng.random() < 0.75:
            parent = None if not inserted or rng.random() < 0.1 else rng.choice(inserted)
            cb = rng.randbytes(30)
            h = hash_leaf(cb)
            registry[h] = RegisteredCert(cert_bytes=cb, reg_ts=ts, parent=parent, revocations=[])
            children.setdefault(h, [])
            children.setdefault(parent, []).append(h)
            inserted.append(h)
            changed = {parent: [h]}
        else:
            target = rng.choice(inserted)
            registry[target].revocations.append((rng.randbytes(20), ts))
            changed = {registry[target].parent: [target]}
        incremental = forest.rebuild(registry, changed)
        if step % 25 == 0:
            full = RevForest().rebuild(registry, children)
            assert incremental == full, step
    assert len(inserted) > 1000
    assert incremental == RevForest().rebuild(registry, children)


def build_chain_query(registry, chain_hashes):
    return [registry[h].id_hash for h in chain_hashes]


def pick_chain(rng, registry, children):
    """Random root-to-some-node path."""
    node = rng.choice(children[None])
    path = [node]
    while children.get(node):
        if rng.random() < 0.3:
            break
        node = rng.choice(children[node])
        path.append(node)
    return path


class FakeChain:
    def __init__(self, certs):
        self.certs = certs


def test_prove_and_verify_chain_random_forests():
    ok = 0
    for seed in range(200):
        rng = random.Random(1000 + seed)
        registry, children = synth_registry(
            rng, n_roots=rng.randrange(1, 3), n_mid=rng.randrange(1, 5), n_leaves=rng.randrange(1, 8)
        )
        forest = forest_of(registry, children)
        assert forest.top_root().value == bf_forest_root(registry, children)
        chain_hashes = pick_chain(rng, registry, children)
        query = build_chain_query(registry, chain_hashes)
        levels = forest.prove_chain(query)
        sr, incl = signed_root_for(forest.top_root())
        proof = ChainPresenceProof(levels=tuple(levels), root_entry_proof=incl)
        certs = [
            SimpleNamespace(canonical_bytes=registry[h].cert_bytes) for h in chain_hashes
        ]
        ts_leaf_first = [registry[h].reg_ts for h in reversed(chain_hashes)]
        assert verify_chain(FakeChain(certs), ts_leaf_first, proof, sr), seed
        ok += 1
    assert ok == 200


def test_proof_exposes_all_revocations():
    rng = random.Random(5)
    registry, children = synth_registry(rng, n_roots=1, n_mid=2, n_leaves=4, revs=0)
    mid = children[None][0]
    registry[mid].revocations.append((b"rev-one", 500))
    registry[mid].revocations.append((b"rev-two", 600))
    forest = forest_of(registry, children)
    levels = forest.prove_chain([registry[mid].id_hash])
    assert levels[0].revocations == ((b"rev-one", 500), (b"rev-two", 600))


def test_tampered_timestamp_fails_verification():
    rng = random.Random(6)
    registry, children = synth_registry(rng, n_roots=1, n_mid=1, n_leaves=2)
    forest = forest_of(registry, children)
    chain_hashes = pick_chain(rng, registry, children)
    query = build_chain_query(registry, chain_hashes)
    levels = forest.prove_chain(query)
    sr, incl = signed_root_for(forest.top_root())
    proof = ChainPresenceProof(levels=tuple(levels), root_entry_proof=incl)
    certs = [SimpleNamespace(canonical_bytes=registry[h].cert_bytes) for h in chain_hashes]
    good_ts = [registry[h].reg_ts for h in reversed(chain_hashes)]
    bad_ts = list(good_ts)
    bad_ts[0] += 1
    assert verify_chain(FakeChain(certs), good_ts, proof, sr)
    assert not verify_chain(FakeChain(certs), bad_ts, proof, sr)


def test_omitted_revocation_fails_verification():
    rng = random.Random(7)
    registry, children = synth_registry(rng, n_roots=1, n_mid=1, n_leaves=1, revs=0)
    root_h = children[None][0]
    registry[root_h].revocations.append((b"the-revocation", 700))
    forest = forest_of(registry, children)
    rec = forest.prove_chain([registry[root_h].id_hash])[0]
    sr, incl = signed_root_for(forest.top_root())
    stripped = ChainPresenceProof(
        levels=(
            type(rec)(
                id_hash=rec.id_hash,
                revocations=(),
                child_root=rec.child_root,
                leaf_index=rec.leaf_index,
                subtree_size=rec.subtree_size,
                path=rec.path,
            ),
        ),
        root_entry_proof=incl,
    )
    certs = [SimpleNamespace(canonical_bytes=registry[root_h].cert_bytes)]
    assert not verify_chain(FakeChain(certs), [registry[root_h].reg_ts], stripped, sr)


def test_single_root_chain_proof():
    rng = random.Random(8)
    registry, children = synth_registry(rng, n_roots=1, n_mid=0, n_leaves=0)
    forest = forest_of(registry, children)
    root_h = children[None][0]
    levels = forest.prove_chain([registry[root_h].id_hash])
    assert len(levels) == 1
    assert levels[0].child_root is None


def test_absence_brackets_random_hashes():
    rng = random.Random(9)
    registry, children = synth_registry(rng, n_roots=3, n_mid=6, n_leaves=16)
    forest = forest_of(registry, children)
    sorted_top = sorted(registry[h].id_hash for h in children[None])
    sr, incl = signed_root_for(forest.top_root())
    for _ in range(50):
        missing = Digest(rng.randbytes(32))
        if missing in sorted_top:
            continue
        ancestors, empty, size, left, right = forest.prove_absence_records([], missing)
        proof = AbsenceProof(
            levels=tuple(ancestors),
            missing=missing,
            empty=empty,
            subtree_size=size,
            left=left,
            right=right,
            root_entry_proof=incl,
        )
        assert verify_absence([], missing, proof, sr)
        # Cross-check brackets against the independently sorted list.
        smaller = [h for h in sorted_top if h < missing]
        larger = [h for h in sorted_top if h > missing]
        assert (left.id_hash if left else None) == (smaller[-1] if smaller else None)
        assert (right.id_hash if right else None) == (larger[0] if larger else None)


def test_absence_below_all_and_above_all():
    rng = random.Random(10)
    registry, children = synth_registry(rng, n_roots=4, n_mid=0, n_leaves=0)
    forest = forest_of(registry, children)
    sr, incl = signed_root_for(forest.top_root())
    low = Digest(b"\x00" * 32)
    high = Digest(b"\xff" * 32)
    for missing in (low, high):
        ancestors, empty, size, left, right = forest.prove_absence_records([], missing)
        proof = AbsenceProof((), missing, empty, size, left, right, incl)
        assert verify_absence([], missing, proof, sr)
    _, _, _, left, right = forest.prove_absence_records([], low)
    assert left is None and right.leaf_index == 0
    _, _, _, left, right = forest.prove_absence_records([], high)
    assert right is None and left.leaf_index == 3


def test_absence_in_childless_subtree():
    rng = random.Random(11)
    registry, children = synth_registry(rng, n_roots=1, n_mid=1, n_leaves=0)
    forest = forest_of(registry, children)
    mid = children[children[None][0]][0]
    sr, incl = signed_root_for(forest.top_root())
    missing = Digest(rng.randbytes(32))
    path = [registry[children[None][0]].id_hash, registry[mid].id_hash]
    ancestors, empty, size, left, right = forest.prove_absence_records(path, missing)
    assert empty and left is None and right is None
    proof = AbsenceProof(tuple(ancestors), missing, empty, size, left, right, incl)
    assert verify_absence(path, missing, proof, sr)


def test_absence_of_present_hash_refused():
    rng = random.Random(12)
    registry, children = synth_registry(rng, n_roots=2, n_mid=2, n_leaves=2)
    forest = forest_of(registry, children)
    present = registry[children[None][0]].id_hash
    with pytest.raises(ActuallyPresent):
        forest.prove_absence_records([], present)


def test_absence_soundness_exhaustive_small():
    # No verifying absence proof can be forged for any present hash: every
    # bracketing configuration around a present leaf breaks an invariant.
    rng = random.Random(13)
    registry, children = synth_registry(rng, n_roots=6, n_mid=0, n_leaves=0)
    forest = forest_of(registry, children)
    sr, incl = signed_root_for(forest.top_root())
    top_ids = sorted(registry[h].id_hash for h in children[None])
    subtree = forest._subtrees[None]
    for present in top_ids:
        for li in range(-1, subtree.size):
            for ri in range(0, subtree.size + 1):
                left = subtree.record(li) if li >= 0 else None
                right = subtree.record(ri) if ri < subtree.size else None
                proof = AbsenceProof(
                    (), present, False, subtree.size, left, right, incl
                )
                assert not verify_absence([], present, proof, sr), (li, ri)


def test_not_found_level_reported():
    rng = random.Random(14)
    registry, children = synth_registry(rng, n_roots=1, n_mid=1, n_leaves=1)
    forest = forest_of(registry, children)
    chain_hashes = [children[None][0]]
    chain_hashes.append(children[chain_hashes[0]][0])
    query = build_chain_query(registry, chain_hashes)
    query.append(Digest(rng.randbytes(32)))
    with pytest.raises(NotFoundAtLevel) as err:
        forest.prove_chain(query)
    assert err.value.level == 2


def test_cert_id_hash_shape():
    assert cert_id_hash(b"abc", 5).value == bf_id_hash(b"abc", 5)


def test_orphan_certificate_rejected():
    from pkisn.revtree import OrphanCertificate

    rng = random.Random(15)
    registry, children = synth_registry(rng, n_roots=1, n_mid=1, n_leaves=1)
    phantom_parent = Digest(rng.randbytes(32))
    cb = rng.randbytes(30)
    orphan = hash_leaf(cb)
    registry[orphan] = RegisteredCert(cert_bytes=cb, reg_ts=9, parent=phantom_parent, revocations=[])
    children.setdefault(phantom_parent, []).append(orphan)
    with pytest.raises(OrphanCertificate):
        RevForest().rebuild(registry, children)


def test_incremental_records_match_fresh_forest():
    # Every presence record and absence bracket of a forest kept across
    # random inserts and revocations equals the one of a fresh rebuild.
    rng = random.Random(17)
    registry: dict[Digest, RegisteredCert] = {}
    children: dict = {None: []}
    forest = RevForest()
    inserted: list[Digest] = []

    def path_to(h):
        out = [h]
        while registry[out[0]].parent is not None:
            out.insert(0, registry[out[0]].parent)
        return out

    for step in range(300):
        changed = {}
        for _ in range(rng.randrange(1, 4)):
            if not inserted or rng.random() < 0.7:
                parent = None if not inserted or rng.random() < 0.1 else rng.choice(inserted)
                cb = rng.randbytes(30)
                h = hash_leaf(cb)
                registry[h] = RegisteredCert(cert_bytes=cb, reg_ts=step, parent=parent, revocations=[])
                children[h] = []
                children[parent].append(h)
                inserted.append(h)
                changed.setdefault(parent, []).append(h)
            else:
                target = rng.choice(inserted)
                registry[target].revocations.append((rng.randbytes(20), step))
                changed.setdefault(registry[target].parent, []).append(target)
        forest.rebuild(registry, changed)  # rebuild adds the ancestors
        if step % 60 == 59:
            fresh = forest_of(registry, children)
            assert forest.top_root() == fresh.top_root(), step
            for h in [None] + inserted:
                query = [registry[x].id_hash for x in path_to(h)] if h is not None else []
                assert forest.prove_chain(query) == fresh.prove_chain(query)
                missing = Digest(rng.randbytes(32))
                assert forest.prove_absence_records(query, missing) == fresh.prove_absence_records(query, missing)
    assert len(inserted) > 300


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_revoking_any_leaf_rehashes_one_path(monkeypatch, where):
    # A revocation rewrites its leaf and the ancestors above it in place,
    # wherever the leaf sorts: one 9-level path over 512 leaves.
    rng = random.Random(18)
    registry, children = synth_registry(rng, n_roots=1, n_mid=0, n_leaves=0, revs=0)
    ca = children[None][0]
    for _ in range(512):
        cb = rng.randbytes(30)
        h = hash_leaf(cb)
        registry[h] = RegisteredCert(cert_bytes=cb, reg_ts=300, parent=ca, revocations=[])
        children[h] = []
        children[ca].append(h)
    forest = forest_of(registry, children)
    by_id = sorted(children[ca], key=lambda h: registry[h].id_hash.value)
    target = {"first": by_id[0], "middle": by_id[len(by_id) // 2], "last": by_id[-1]}[where]
    registry[target].revocations.append((b"revocation", 400))
    calls = []
    for name in ("hash_node_raw", "hash_node"):
        fn = getattr(merkle, name)
        monkeypatch.setattr(merkle, name, lambda l, r, fn=fn: calls.append(1) or fn(l, r))
    root = forest.rebuild(registry, {ca: [target]})
    assert len(calls) <= 2 * 9 + 4
    assert root.value == bf_forest_root(registry, children)


class CountingList(list):
    """A revocation list that counts how often it is read whole."""

    reads = 0

    def __len__(self):
        self.reads += 1
        return super().__len__()

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def test_revoking_one_leaf_reads_only_its_own_revocations():
    # The forest is told which certificate changed: a revocation under a CA
    # of 4,096 children reads the revoked leaf's list and the CA's, and no
    # other leaf's.
    rng = random.Random(19)
    registry: dict[Digest, RegisteredCert] = {}
    children: dict = {None: []}

    def add(parent):
        cb = rng.randbytes(30)
        h = hash_leaf(cb)
        registry[h] = RegisteredCert(cert_bytes=cb, reg_ts=300, parent=parent, revocations=CountingList())
        children[h] = []
        children[parent].append(h)
        return h

    ca = add(None)
    for _ in range(4096):
        add(ca)
    forest = forest_of(registry, children)
    target = children[ca][1234]
    for rec in registry.values():
        rec.revocations.reads = 0
    registry[target].revocations.append((b"revocation", 400))
    root = forest.rebuild(registry, {ca: [target]})
    assert {h for h, rec in registry.items() if rec.revocations.reads} <= {target, ca}
    assert sum(rec.revocations.reads for rec in registry.values()) <= 4
    assert root.value == bf_forest_root(registry, children)


@pytest.mark.parametrize("top", ["empty", "populated"])
def test_ca_registered_with_its_children_gets_one_leaf(top):
    # A CA listed under its parent is listed there again when its own new
    # subtree moves: either way its parent holds one leaf for it.
    rng = random.Random(20)
    n_roots = 0 if top == "empty" else 3
    registry, children = synth_registry(rng, n_roots=n_roots, n_mid=0, n_leaves=0, revs=0)
    forest = forest_of(registry, children)
    cb = rng.randbytes(30)
    ca = hash_leaf(cb)
    registry[ca] = RegisteredCert(cert_bytes=cb, reg_ts=500, parent=None, revocations=[])
    children[None].append(ca)
    children[ca] = []
    changed = {None: [ca], ca: []}
    for _ in range(5):
        cb = rng.randbytes(30)
        h = hash_leaf(cb)
        registry[h] = RegisteredCert(cert_bytes=cb, reg_ts=500, parent=ca, revocations=[])
        children[h] = []
        children[ca].append(h)
        changed[ca].append(h)
    root = forest.rebuild(registry, changed)
    assert root.value == bf_forest_root(registry, children)
    assert forest.prove_chain([registry[ca].id_hash])[0].subtree_size == n_roots + 1
