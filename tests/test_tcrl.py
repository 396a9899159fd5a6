from dataclasses import replace

import pytest

from pkisn.certs import CertChain, RevocationKind, SignerRole, make_revocation
from pkisn.crypto import TAG_TCRL, KeyPair, KeyRole
from pkisn.log import BadVendorSignature, LogConfig, LogServer
from pkisn.monitor import FullMonitor
from pkisn.tcrl import (
    TcrlDelta,
    apply_tcrl_delta,
    attach_inclusion,
    build_tcrl,
    build_tcrl_delta,
    commit_tcrl,
    verify_tcrl,
)
from pkisn.validation import Reason, validate_with_tcrl, is_valid, ValidationInput
from pkisn.revtree import cert_id_hash

from helpers import T0, YEAR, ChainFixture, make_leaf
from scenario_gen import KeyPool, run_random_scenario

PERIOD = 3600


def make_env(fx, period=PERIOD):
    vendor = KeyPair.generate(KeyRole.VENDOR)
    log_key = KeyPair.generate(KeyRole.LOG)
    config = LogConfig(
        scheduling_period=period,
        trust_roots=frozenset({fx.root.cert_hash}),
        vendor_public_key=vendor.public_bytes,
    )
    return LogServer(config, log_key, start_time=T0), vendor, log_key


def test_empty_state_builds_signed_empty_bundle():
    fx = ChainFixture()
    log, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    tcrl = build_tcrl(log, vendor, now=log.last_update_time)
    assert tcrl.entries == ()
    assert verify_tcrl(commit_tcrl(log, tcrl), vendor.public_bytes, log_key.public_bytes)


def test_expired_certificates_filtered():
    fx = ChainFixture()
    log, vendor, log_key = make_env(fx)
    short = make_leaf(
        "short.example.com", KeyPair.generate(KeyRole.STANDARD_LEAF), fx.inter_key,
        serial=600, not_after=T0 + 2 * PERIOD,
    )
    log.submit_chain(fx.chain)
    log.submit_chain(CertChain((fx.root, fx.inter, short)))
    log.run_update()
    for leaf, key in ((fx.leaf, fx.leaf_key), (short, None)):
        rev = make_revocation(
            RevocationKind.LEAF_REVOKE, leaf, key or fx.inter_key,
            SignerRole.OWN_KEY if key else SignerRole.PARENT_CA,
            signer_depth=0 if key else 1,
        )
        log.submit_revocation(CertChain((fx.root, fx.inter, leaf)), rev)
    log.run_update()
    # Build after the short cert expired: only the long-lived leaf remains.
    now = T0 + 3 * PERIOD
    tcrl = build_tcrl(log, vendor, now=now)
    assert {e.cert_hash for e in tcrl.entries} == {fx.leaf.cert_hash}


def test_build_deterministic():
    fx = ChainFixture()
    log, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    log.submit_revocation(fx.chain, rev)
    log.run_update()
    a = build_tcrl(log, vendor, now=log.last_update_time)
    b = build_tcrl(log, vendor, now=log.last_update_time)
    assert a == b
    assert a.signing_bytes() == b.signing_bytes()


def test_commit_then_prove_inclusion():
    fx = ChainFixture()
    log, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    tcrl = build_tcrl(log, vendor, now=log.last_update_time)
    tcrl = commit_tcrl(log, tcrl)
    assert tcrl.log_commitment.timestamp == log.next_update_time()
    log.run_update()
    with_proof = attach_inclusion(log, tcrl)
    assert verify_tcrl(with_proof, vendor.public_bytes, log_key.public_bytes, require_inclusion=True)
    # The bare commitment also passes in the lenient mode.
    assert verify_tcrl(tcrl, vendor.public_bytes, log_key.public_bytes)
    assert not verify_tcrl(tcrl, vendor.public_bytes, log_key.public_bytes, require_inclusion=True)


def test_unsigned_bundle_rejected():
    fx = ChainFixture()
    log, vendor, log_key = make_env(fx)
    log.run_update()
    tcrl = build_tcrl(log, vendor, now=log.last_update_time)
    stripped = replace(tcrl, vendor_signature=None)
    with pytest.raises(BadVendorSignature):
        commit_tcrl(log, stripped)


def test_mutated_entries_fail_verification():
    fx = ChainFixture()
    log, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    log.submit_revocation(fx.chain, rev)
    log.run_update()
    tcrl = commit_tcrl(log, build_tcrl(log, vendor, now=log.last_update_time))
    assert verify_tcrl(tcrl, vendor.public_bytes, log_key.public_bytes)
    mutated = replace(tcrl, entries=())
    assert not verify_tcrl(mutated, vendor.public_bytes, log_key.public_bytes)


def test_commitment_for_other_bundle_rejected():
    fx = ChainFixture()
    log, vendor, log_key = make_env(fx)
    log.run_update()
    t1 = commit_tcrl(log, build_tcrl(log, vendor, now=log.last_update_time))
    t2 = build_tcrl(log, vendor, now=log.last_update_time + 1)
    crossed = replace(t2, log_commitment=t1.log_commitment)
    assert not verify_tcrl(crossed, vendor.public_bytes, log_key.public_bytes)


def test_lookup_multiple_and_absent():
    fx = ChainFixture()
    log, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    own = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    parent = make_revocation(
        RevocationKind.LEAF_REVOKE, fx.leaf, fx.root_key, SignerRole.PARENT_CA, signer_depth=0
    )
    log.submit_revocation(fx.chain, own)
    log.submit_revocation(fx.chain, parent)
    log.run_update()
    tcrl = build_tcrl(log, vendor, now=log.last_update_time)
    hits = tcrl.lookup(fx.leaf.cert_hash)
    assert len(hits) == 2
    assert tcrl.lookup(fx.inter.cert_hash) == []


def test_rk_revocation_enables_client_side_periods():
    fx = ChainFixture()
    log, vendor, log_key = make_env(fx)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    cutoff = T0 + 100 * 86400
    rk_rev = make_revocation(
        RevocationKind.CA_REVOKE_FROM, fx.inter, fx.inter_rk,
        SignerRole.REVOCATION_KEY, rev_timestamp=cutoff,
    )
    log.submit_revocation(CertChain((fx.root, fx.inter)), rk_rev)
    log.run_update()
    tcrl = build_tcrl(log, vendor, now=log.last_update_time)
    # Leaf registered before the cut-off: still fine.
    result = validate_with_tcrl(
        fx.chain, cc, tcrl, fx.domain, now=log.last_update_time + 5,
        trust_roots=log.config.trust_roots, vendor_pub=vendor.public_bytes,
        log_pub=log_key.public_bytes,
    )
    assert result.success, result.reason
    assert result.per_cert[1].lp.end == cutoff


def test_tcrl_built_from_monitor_state():
    fx = ChainFixture()
    log, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    log.submit_revocation(fx.chain, rev)
    log.run_update()
    monitor = FullMonitor(log.config.trust_roots, log_key.public_bytes, vendor.public_bytes)
    monitor.sync_from(log)
    from_log = build_tcrl(log, vendor, now=log.last_update_time)
    from_monitor = build_tcrl(monitor, vendor, now=log.last_update_time)
    assert from_log == from_monitor


def test_delta_reconstructs_next_version():
    fx = ChainFixture()
    log, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    short = make_leaf(
        "short.example.com", KeyPair.generate(KeyRole.STANDARD_LEAF), fx.inter_key,
        serial=601, not_after=T0 + 3 * PERIOD,
    )
    log.submit_chain(CertChain((fx.root, fx.inter, short)))
    log.run_update()
    rev_short = make_revocation(
        RevocationKind.LEAF_REVOKE, short, fx.inter_key, SignerRole.PARENT_CA, signer_depth=1
    )
    log.submit_revocation(CertChain((fx.root, fx.inter, short)), rev_short)
    log.run_update()
    v1 = build_tcrl(log, vendor, now=log.last_update_time)
    assert len(v1.entries) == 1

    # Later: the short cert expires out, a new revocation arrives.
    rev_leaf = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    log.submit_revocation(fx.chain, rev_leaf)
    log.run_update()
    now2 = T0 + 4 * PERIOD
    delta = build_tcrl_delta(v1, log, vendor, now=now2)
    assert len(delta.added) == 1 and len(delta.removed) == 1
    rebuilt = apply_tcrl_delta(v1, delta, vendor.public_bytes)
    direct = build_tcrl(log, vendor, now=now2, version=rebuilt.version)
    assert rebuilt.entries == direct.entries
    assert rebuilt.signing_bytes() == direct.signing_bytes()


def test_bundle_never_shrinks_a_revocation():
    # Every logged revocation of a non-expired certificate appears in the
    # next built bundle.
    fx = ChainFixture()
    log, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    revs = [
        make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY),
        make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.root_key, SignerRole.PARENT_CA, signer_depth=0),
        make_revocation(
            RevocationKind.CA_REVOKE_FROM, fx.inter, fx.inter_rk,
            SignerRole.REVOCATION_KEY, rev_timestamp=T0 + YEAR,
        ),
    ]
    for rev in revs[:2]:
        log.submit_revocation(fx.chain, rev)
    log.submit_revocation(CertChain((fx.root, fx.inter)), revs[2])
    log.run_update()
    tcrl = build_tcrl(log, vendor, now=log.last_update_time)
    in_bundle = {(e.cert_hash, e.rev_bytes) for e in tcrl.entries}
    for cert_hash, rec in log.registry.items():
        if rec.not_after <= log.last_update_time:
            continue
        for rb, _ in rec.revocations:
            assert (cert_hash, rb) in in_bundle


def test_equivalence_with_proof_path_random(pool=None):
    pool = pool or KeyPool()
    vendor_pub = pool.vendor.public_bytes
    log_pub = pool.log.public_bytes
    for seed in range(150):
        impl, oracle, log, chain, cc = run_random_scenario(seed + 50_000, pool)
        if log.pending_revs:
            continue  # bundles carry only merged revocations
        tcrl = build_tcrl(log, pool.vendor, now=log.last_update_time)
        now = log.last_update_time + 1  # same instant for both paths
        proof, sr, pending = log.get_proof(
            [cert_id_hash(c.canonical_bytes, t) for c, t in zip(chain.certs, reversed(cc.timestamps))]
        )
        full = is_valid(ValidationInput(
            chain=chain, cc=cc, proof=proof, signed_root=sr, pending_revocations=pending,
            name=chain.leaf.subject_name, now=now, trust_roots=log.config.trust_roots,
            log_pub=log_pub, vendor_pub=vendor_pub, max_root_age=10_000,
        ))
        offline = validate_with_tcrl(
            chain, cc, tcrl, chain.leaf.subject_name, now=now,
            trust_roots=log.config.trust_roots, vendor_pub=vendor_pub, log_pub=log_pub,
        )
        assert (full.decision, full.reason) == (offline.decision, offline.reason), seed


def test_delta_applies_with_public_keys_only():
    fx = ChainFixture()
    log, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    v1 = build_tcrl(log, vendor, now=log.last_update_time)
    rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    log.submit_revocation(fx.chain, rev)
    log.run_update()
    delta = TcrlDelta.from_json(build_tcrl_delta(v1, log, vendor, now=log.last_update_time).to_json())
    direct = build_tcrl(log, vendor, now=log.last_update_time, version=2)
    assert apply_tcrl_delta(v1, delta, vendor.public_bytes) == direct
    # The bundle signature must be the vendor's, over exactly the merged bundle.
    other_vendor = KeyPair.generate(KeyRole.VENDOR)
    forged = replace(delta, bundle_signature=other_vendor.sign(TAG_TCRL, direct.signing_bytes()))
    wrong_bundle = replace(delta, bundle_signature=v1.vendor_signature)
    for bad in (forged, wrong_bundle, replace(delta, bundle_signature=None)):
        with pytest.raises(BadVendorSignature):
            apply_tcrl_delta(v1, bad, vendor.public_bytes)


def test_inclusion_found_after_later_updates():
    fx = ChainFixture()
    log, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    tcrl = commit_tcrl(log, build_tcrl(log, vendor, now=log.last_update_time))
    log.run_update()
    log.run_update()
    with_proof = attach_inclusion(log, tcrl)
    assert with_proof.inclusion[1] == log.latest.signed_root
    assert verify_tcrl(with_proof, vendor.public_bytes, log_key.public_bytes, require_inclusion=True)
    never_logged = replace(tcrl, log_commitment=replace(tcrl.log_commitment, timestamp=T0 + 1))
    with pytest.raises(LookupError):
        attach_inclusion(log, never_logged)


def test_bundle_out_of_canonical_order_is_refused():
    # lookup bisects on cert_hash, so a vendor-signed bundle whose entries are
    # out of order would hide most of its revocations from a client.
    fx = ChainFixture()
    log, vendor, log_key = make_env(fx)
    chains, ccs = [], []
    for i in range(6):
        key = KeyPair.generate(KeyRole.STANDARD_LEAF)
        chain = CertChain((fx.root, fx.inter, make_leaf(f"r{i}.example.com", key, fx.inter_key, serial=700 + i)))
        ccs.append(log.submit_chain(chain))
        chains.append((chain, key))
    log.run_update()
    for chain, key in chains:
        log.submit_revocation(chain, make_revocation(RevocationKind.LEAF_REVOKE, chain.leaf, key, SignerRole.OWN_KEY))
    log.run_update()
    tcrl = build_tcrl(log, vendor, now=log.last_update_time)
    unsigned = replace(tcrl, entries=tcrl.entries[::-1], vendor_signature=None)
    reversed_ = replace(unsigned, vendor_signature=vendor.sign(TAG_TCRL, unsigned.signing_bytes()))
    with pytest.raises(ValueError, match="canonical order"):
        commit_tcrl(log, reversed_)
    reversed_ = replace(reversed_, log_commitment=log.submit_tcrl_hash(reversed_.tcrl_hash))
    assert not verify_tcrl(reversed_, vendor.public_bytes, log_key.public_bytes)

    tcrl = commit_tcrl(log, tcrl)
    assert verify_tcrl(tcrl, vendor.public_bytes, log_key.public_bytes)
    for (chain, _), cc in zip(chains, ccs):
        result = validate_with_tcrl(
            chain, cc, tcrl, chain.leaf.subject_name, now=log.last_update_time + 5,
            trust_roots=log.config.trust_roots, vendor_pub=vendor.public_bytes,
            log_pub=log_key.public_bytes,
        )
        assert result.reason == Reason.LEAF_REVOKED
