import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import pkisn
from pkisn.certs import (
    CertChain,
    RevocationKind,
    SignerRole,
    make_revocation,
)
from pkisn.crypto import KeyPair, KeyRole, empty_subtree_root, hash_leaf
from pkisn.journal import Journal
from pkisn.log import (
    DuplicateRkRevocation,
    IllegitimateRevocation,
    InvalidChainSubmission,
    LogConfig,
    LogServer,
    QueueFull,
    RelabelledRevocation,
    TargetNotLogged,
    UnknownLeaf,
    UntrustedRoot,
    UpdateTooEarly,
)
from pkisn.revtree import cert_id_hash, verify_absence, verify_chain
from pkisn.timetree import EntryKind, verify_consistency

from helpers import T0, YEAR, ChainFixture, make_leaf

PERIOD = 3600


def new_log(fx: ChainFixture, start=T0, period=PERIOD, max_pending=100_000):
    vendor = KeyPair.generate(KeyRole.VENDOR)
    config = LogConfig(
        scheduling_period=period,
        trust_roots=frozenset({fx.root.cert_hash}),
        vendor_public_key=vendor.public_bytes,
        max_pending=max_pending,
    )
    log_key = KeyPair.generate(KeyRole.LOG)
    return LogServer(config, log_key, start_time=start), vendor, log_key


def query_for(chain, cc):
    ts_root_first = list(reversed(cc.timestamps))
    return [
        cert_id_hash(cert.canonical_bytes, ts)
        for cert, ts in zip(chain.certs, ts_root_first)
    ]


def test_fresh_chain_promises_next_update():
    fx = ChainFixture()
    log, _, _ = new_log(fx)
    cc = log.submit_chain(fx.chain)
    assert cc.timestamps == (T0 + PERIOD,) * 3
    assert cc.leaf_cert_hash == fx.leaf.cert_hash


def test_resubmission_returns_identical_commitment():
    fx = ChainFixture()
    log, _, log_key = new_log(fx)
    cc1 = log.submit_chain(fx.chain)
    cc2 = log.submit_chain(fx.chain)
    assert cc1 == cc2
    log.run_update()
    cc3 = log.submit_chain(fx.chain)
    assert cc3.timestamps == cc1.timestamps  # historical timestamps preserved
    assert cc3.verify(log_key.public_bytes)


def test_new_leaf_under_logged_cas():
    fx = ChainFixture()
    log, _, _ = new_log(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    leaf2_key = KeyPair.generate(KeyRole.STANDARD_LEAF)
    leaf2 = make_leaf("second.example.com", leaf2_key, issuer_key=fx.inter_key, serial=999)
    chain2 = CertChain((fx.root, fx.inter, leaf2))
    cc = log.submit_chain(chain2)
    t_leaf, t_inter, t_root = cc.timestamps
    assert t_leaf == T0 + 2 * PERIOD
    assert t_inter == t_root == T0 + PERIOD
    assert t_leaf >= t_inter >= t_root


def test_untrusted_root_rejected():
    fx = ChainFixture()
    other = ChainFixture()
    log, _, _ = new_log(fx)
    with pytest.raises(UntrustedRoot):
        log.submit_chain(other.chain)


def test_garbage_chain_rejected():
    fx = ChainFixture()
    log, _, _ = new_log(fx)
    with pytest.raises(InvalidChainSubmission):
        log.submit_chain(CertChain((fx.inter, fx.root, fx.leaf)))


def test_queue_full():
    fx = ChainFixture()
    log, _, _ = new_log(fx, max_pending=2)
    with pytest.raises(QueueFull):
        log.submit_chain(fx.chain)  # three new certs > 2


def test_promise_keeping_across_update():
    fx = ChainFixture()
    log, _, _ = new_log(fx)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    for cert, promised in zip(fx.chain.certs, reversed(cc.timestamps)):
        assert log.registry[cert.cert_hash].reg_ts == promised


def test_update_too_early():
    fx = ChainFixture()
    log, _, _ = new_log(fx)
    with pytest.raises(UpdateTooEarly):
        log.run_update(T0 + PERIOD - 1)


def test_batch_layout_and_root_entry():
    fx = ChainFixture()
    log, _, _ = new_log(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    entries = log.get_entries(0)
    assert [e.kind for e in entries] == [
        EntryKind.CERT,
        EntryKind.CERT,
        EntryKind.CERT,
        EntryKind.REV_TREE_ROOT,
    ]
    assert entries[-1].payload == log.forest.top_root().value
    assert all(e.reg_timestamp == T0 + PERIOD for e in entries)


def test_empty_update_still_emits_root():
    fx = ChainFixture()
    log, _, log_key = new_log(fx)
    sr1 = log.run_update()
    sr2 = log.run_update()
    assert sr1.root != sr2.root
    assert sr1.verify(log_key.public_bytes)
    proof = log.get_consistency(1, 2)
    assert verify_consistency(sr1.root, sr2.root, proof)
    # With nothing registered, the forest root entry is the empty marker.
    assert log.get_entries(0, 1)[0].payload == empty_subtree_root().value


def test_proof_round_trip_and_revocation_attachment():
    fx = ChainFixture()
    log, vendor, _ = new_log(fx)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    rev = make_revocation(
        RevocationKind.CA_REVOKE_FROM,
        fx.inter,
        fx.inter_rk,
        SignerRole.REVOCATION_KEY,
        rev_timestamp=T0 + YEAR,
    )
    log.submit_revocation(CertChain((fx.root, fx.inter)), rev)
    log.run_update()
    proof, signed_root, pending = log.get_proof(query_for(fx.chain, cc))
    assert pending == []
    assert verify_chain(fx.chain, list(cc.timestamps), proof, signed_root)
    inter_level = proof.levels[1]
    assert inter_level.revocations == ((rev.canonical_bytes, T0 + 2 * PERIOD),)


def test_pending_revocation_returned_before_merge():
    fx = ChainFixture()
    log, _, log_key = new_log(fx)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    commitment = log.submit_revocation(fx.chain, rev)
    assert commitment.timestamp == log.next_update_time()
    assert commitment.verify(log_key.public_bytes)
    proof, _, pending = log.get_proof(query_for(fx.chain, cc))
    assert len(pending) == 1
    assert pending[0].revocation == rev
    assert proof.levels[2].revocations == ()  # not merged yet


def test_revocation_of_unknown_target():
    fx = ChainFixture()
    log, _, _ = new_log(fx)
    rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    with pytest.raises(TargetNotLogged):
        log.submit_revocation(fx.chain, rev)


def test_revocation_key_single_use():
    fx = ChainFixture()
    log, _, _ = new_log(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    ca_chain = CertChain((fx.root, fx.inter))
    rev1 = make_revocation(
        RevocationKind.CA_REVOKE_FROM,
        fx.inter,
        fx.inter_rk,
        SignerRole.REVOCATION_KEY,
        rev_timestamp=T0 + YEAR,
    )
    c1 = log.submit_revocation(ca_chain, rev1)
    # Byte-identical resubmission is idempotent.
    c2 = log.submit_revocation(ca_chain, rev1)
    assert c1 == c2
    rev2 = make_revocation(
        RevocationKind.CA_REVOKE_FROM,
        fx.inter,
        fx.inter_rk,
        SignerRole.REVOCATION_KEY,
        rev_timestamp=T0 + 2 * YEAR,
    )
    with pytest.raises(DuplicateRkRevocation):
        log.submit_revocation(ca_chain, rev2)


def test_distinct_revocations_accumulate():
    fx = ChainFixture()
    log, vendor, _ = new_log(fx)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    own = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    by_root = make_revocation(
        RevocationKind.LEAF_REVOKE, fx.leaf, fx.root_key, SignerRole.PARENT_CA, signer_depth=0
    )
    log.submit_revocation(fx.chain, own)
    log.submit_revocation(fx.chain, by_root)
    log.run_update()
    proof, _, _ = log.get_proof(query_for(fx.chain, cc))
    assert len(proof.levels[2].revocations) == 2


def test_wrong_signer_revocation_rejected():
    fx = ChainFixture()
    log, _, _ = new_log(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    stranger = KeyPair.generate(KeyRole.STANDARD_CA)
    rev = make_revocation(
        RevocationKind.LEAF_REVOKE, fx.leaf, stranger, SignerRole.PARENT_CA, signer_depth=0
    )
    with pytest.raises(IllegitimateRevocation):
        log.submit_revocation(fx.chain, rev)


def test_stale_timestamp_query_gets_absence_proof():
    fx = ChainFixture()
    log, _, _ = new_log(fx)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    query = query_for(fx.chain, cc)
    bad = [query[0], query[1], cert_id_hash(fx.leaf.canonical_bytes, cc.timestamps[0] + 1)]
    with pytest.raises(UnknownLeaf) as err:
        log.get_proof(bad)
    assert err.value.level == 2
    assert verify_absence(bad[:2], bad[2], err.value.absence, err.value.signed_root)


def test_proof_after_revocation_merge_includes_it():
    fx = ChainFixture()
    log, _, _ = new_log(fx)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    log.submit_revocation(fx.chain, rev)
    log.run_update()
    proof, signed_root, pending = log.get_proof(query_for(fx.chain, cc))
    assert pending == []
    assert proof.levels[2].revocations[0][0] == rev.canonical_bytes
    assert verify_chain(fx.chain, list(cc.timestamps), proof, signed_root)


def test_consecutive_roots_always_consistent():
    fx = ChainFixture()
    log, _, _ = new_log(fx)
    roots = []
    sizes = []
    log.submit_chain(fx.chain)
    for i in range(5):
        sr = log.run_update()
        roots.append(sr.root)
        sizes.append(log.tree.size)
        if i == 2:
            leaf_key = KeyPair.generate(KeyRole.STANDARD_LEAF)
            leaf = make_leaf(f"host{i}.example.com", leaf_key, issuer_key=fx.inter_key, serial=500 + i)
            log.submit_chain(CertChain((fx.root, fx.inter, leaf)))
    for a in range(len(roots)):
        for b in range(a, len(roots)):
            proof = log.get_consistency(sizes[a], sizes[b])
            assert verify_consistency(roots[a], roots[b], proof)


def test_ca_revocation_past_expiry_rejected_at_submission():
    fx = ChainFixture()
    log, vendor, _ = new_log(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    good = make_revocation(
        RevocationKind.CA_REVOKE_FROM,
        fx.inter,
        vendor,
        SignerRole.VENDOR,
        rev_timestamp=T0 + YEAR,
    )
    # Forge the cut-off after signing to get past message construction.
    from dataclasses import replace

    forged = replace(good, rev_timestamp=fx.inter.not_after + 5)
    with pytest.raises(IllegitimateRevocation):
        log.submit_revocation(CertChain((fx.root, fx.inter)), forged)


@pytest.mark.parametrize("merged", [False, True], ids=["pending", "merged"])
def test_relabelled_revocation_copies_refused(merged):
    fx = ChainFixture()
    log, vendor, _ = new_log(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    rc = log.submit_revocation(fx.chain, rev)
    if merged:
        log.run_update()
    for copy in (replace(rev, signer_depth=7), replace(rev, signer_key_id=vendor.key_id)):
        with pytest.raises(RelabelledRevocation):
            log.submit_revocation(fx.chain, copy)
    assert log.submit_revocation(fx.chain, rev) == rc  # byte-identical stays idempotent
    log.run_update()
    assert log.registry[fx.leaf.cert_hash].revocations == [(rev.canonical_bytes, rc.timestamp)]


def test_pending_revocation_commitment_is_signed_once(monkeypatch):
    fx = ChainFixture()
    log, _, _ = new_log(fx)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    commitment = log.submit_revocation(fx.chain, rev)
    signatures = []
    sign = KeyPair.sign
    monkeypatch.setattr(KeyPair, "sign", lambda self, tag, payload: signatures.append(tag) or sign(self, tag, payload))
    for _ in range(10):
        _, _, pending = log.get_proof(query_for(fx.chain, cc))
        assert [p.commitment for p in pending] == [commitment]
        assert pending[0].commitment.log_signature.encode() == commitment.log_signature.encode()
    assert len(signatures) <= 1


def _inter_cutoffs(fx, n):
    """n distinct CA revocations of the intermediate, signed by the root."""
    return [
        make_revocation(RevocationKind.CA_REVOKE_FROM, fx.inter, fx.root_key, SignerRole.PARENT_CA,
                        rev_timestamp=T0 + YEAR + k, signer_depth=0)
        for k in range(n)
    ]


def test_max_pending_bounds_revocations_and_bundles():
    fx = ChainFixture()
    log, _, _ = new_log(fx, max_pending=3)
    log.submit_chain(fx.chain)
    log.run_update()
    ca_chain = CertChain((fx.root, fx.inter))
    revs = _inter_cutoffs(fx, 4)
    commitments = [log.submit_revocation(ca_chain, rev) for rev in revs[:3]]
    with pytest.raises(QueueFull):
        log.submit_revocation(ca_chain, revs[3])
    with pytest.raises(QueueFull):
        log.submit_tcrl_hash(hash_leaf(b"bundle"))
    assert len(log.pending_revs) == 3 and log.pending_tcrls == []
    # A resubmission at capacity adds nothing and keeps its commitment, pending or logged.
    assert log.submit_revocation(ca_chain, revs[0]).log_signature.encode() == commitments[0].log_signature.encode()
    log.run_update()
    assert log.submit_revocation(ca_chain, revs[1]) == commitments[1]


def test_max_pending_counts_every_kind_of_entry():
    fx = ChainFixture()
    log, _, _ = new_log(fx, max_pending=4)
    log.submit_chain(fx.chain)
    bundle = hash_leaf(b"bundle")
    rc = log.submit_tcrl_hash(bundle)
    assert log.submit_tcrl_hash(bundle) == rc  # a pending bundle is not queued twice
    leaf2 = make_leaf("second.example.com", KeyPair.generate(KeyRole.STANDARD_LEAF), fx.inter_key, serial=999)
    with pytest.raises(QueueFull):
        log.submit_chain(CertChain((fx.root, fx.inter, leaf2)))
    with pytest.raises(QueueFull):
        log.submit_tcrl_hash(hash_leaf(b"another bundle"))


def test_recovery_replays_a_full_queue(tmp_path):
    fx = ChainFixture()
    log, vendor, log_key = new_log(fx, max_pending=3)
    log._journal = Journal(tmp_path / "journal.bin", fsync=False)
    log.submit_chain(fx.chain)
    log.run_update()
    for rev in _inter_cutoffs(fx, 3):
        log.submit_revocation(CertChain((fx.root, fx.inter)), rev)
    log._journal.close()
    # Replay keeps what was admitted, even under a smaller bound.
    config = replace(log.config, max_pending=1)
    recovered = LogServer.recover(config, log_key, T0, tmp_path / "journal.bin")
    assert [r.canonical_bytes for r in recovered.pending_revs] == [r.canonical_bytes for r in log.pending_revs]
    recovered._journal.close()


def test_log_keeps_decoded_cas_only(tmp_path):
    fx = ChainFixture()
    log, _, log_key = new_log(fx)
    log._journal = Journal(tmp_path / "journal.bin", fsync=False)
    log.submit_chain(fx.chain)
    log.run_update()
    leaves = [make_leaf(f"h{i}.example.com", KeyPair.generate(KeyRole.STANDARD_LEAF), fx.inter_key, serial=900 + i)
              for i in range(3)]
    for leaf in leaves:
        log.submit_chain(CertChain((fx.root, fx.inter, leaf)))
    log._journal.close()
    recovered = LogServer.recover(log.config, log_key, T0, tmp_path / "journal.bin")
    assert set(recovered.certs) == {fx.root.cert_hash, fx.inter.cert_hash}
    assert list(recovered.pending_certs.items()) == [(leaf.cert_hash, leaf) for leaf in leaves]
    recovered.run_update()
    recovered._journal.close()
    assert set(recovered.certs) == {fx.root.cert_hash, fx.inter.cert_hash}
    assert recovered.pending_certs == {}


# Run in a fresh interpreter: CPython sizes an instance dict by the instances
# of its class made before it, so a process that built the certificates
# would count them differently.
_MEASURE_RECOVERY = """
import gc, json, sys, tracemalloc
from pkisn.crypto import Digest, KeyPair, KeyRole
from pkisn.log import LogConfig, LogServer
from pkisn.monitor import FullMonitor

arg = json.loads(sys.argv[1])
config = LogConfig(arg["period"], frozenset({Digest.from_hex(arg["root"])}), bytes.fromhex(arg["vendor"]))
log_key = KeyPair(KeyRole.LOG, bytes.fromhex(arg["seed"]))
tracemalloc.start()
log = LogServer.recover(config, log_key, arg["start"], arg["journal"])
gc.collect()
held_by_log = tracemalloc.get_traced_memory()[0]
monitor = FullMonitor(config.trust_roots, log_key.public_bytes, config.vendor_public_key)
assert monitor.sync_from(log).ok
gc.collect()
held_by_monitor = tracemalloc.get_traced_memory()[0] - held_by_log
n = len(log.registry)
print(json.dumps({"certs": n, "log": held_by_log / n, "monitor": held_by_monitor / n}))
"""


def test_recovered_log_and_its_replica_hold_little_per_certificate(tmp_path):
    fx = ChainFixture()
    log, vendor, log_key = new_log(fx)
    log._journal = Journal(tmp_path / "journal.bin", fsync=False)
    for update in range(10):
        for i in range(200):
            serial = 1000 + 200 * update + i
            leaf = make_leaf(f"h{serial}.example.com", KeyPair.generate(KeyRole.STANDARD_LEAF), fx.inter_key, serial)
            log.submit_chain(CertChain((fx.root, fx.inter, leaf)))
        log.run_update()
    log._journal.close()
    arg = {"period": PERIOD, "root": fx.root.cert_hash.hex, "vendor": vendor.public_bytes.hex(),
           "seed": log_key.seed.hex(), "start": T0, "journal": str(tmp_path / "journal.bin")}
    src = str(Path(pkisn.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _MEASURE_RECOVERY, json.dumps(arg)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    held = json.loads(out.stdout)
    assert held["certs"] == 2002
    assert held["log"] < 1500, held
    assert held["monitor"] < 1100, held
