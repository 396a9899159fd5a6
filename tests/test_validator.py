from dataclasses import replace

import pytest

from pkisn.certs import CertChain, RevocationKind, SignerRole, make_revocation
from pkisn.crypto import TAG_CHAIN_COMMITMENT, TAG_REVOCATION_COMMITMENT, KeyPair, KeyRole
from pkisn.log import LogConfig, LogServer, PendingRevocation, RevocationCommitment
from pkisn.revtree import cert_id_hash
from pkisn.validation import (
    Cause,
    LegitimacyPeriod,
    Reason,
    ValidationInput,
    determine_lp_ca,
    determine_lp_leaf,
    is_valid,
    validate_with_tcrl,
    verify_proofs,
)
from pkisn.tcrl import build_tcrl

from helpers import T0, YEAR, ChainFixture, make_leaf
from scenario_gen import KeyPool, run_random_scenario

PERIOD = 3600
DAY = 86400


@pytest.fixture(scope="module")
def pool():
    return KeyPool()


def make_env(fx: ChainFixture, period=PERIOD):
    vendor = KeyPair.generate(KeyRole.VENDOR)
    log_key = KeyPair.generate(KeyRole.LOG)
    config = LogConfig(
        scheduling_period=period,
        trust_roots=frozenset({fx.root.cert_hash}),
        vendor_public_key=vendor.public_bytes,
    )
    return LogServer(config, log_key, start_time=T0), vendor, log_key, config


def query_for(chain, cc):
    return [
        cert_id_hash(c.canonical_bytes, t)
        for c, t in zip(chain.certs, reversed(cc.timestamps))
    ]


def validation_input(log, chain, cc, vendor, log_key, now, name=None, max_root_age=4 * PERIOD):
    proof, sr, pending = log.get_proof(query_for(chain, cc))
    return ValidationInput(
        chain=chain,
        cc=cc,
        proof=proof,
        signed_root=sr,
        pending_revocations=pending,
        name=name or chain.leaf.subject_name,
        now=now,
        trust_roots=log.config.trust_roots,
        log_pub=log_key.public_bytes,
        vendor_pub=vendor.public_bytes,
        max_root_age=max_root_age,
    )


# --- legitimacy period unit behavior ----------------------------------------

def test_lp_unrevoked():
    fx = ChainFixture()
    lp = determine_lp_ca(fx.inter, T0 + 10, [], [fx.root], [LegitimacyPeriod(T0, T0 + YEAR, Cause.UNREVOKED)], b"\x00" * 32)
    assert (lp.begin, lp.end, lp.cause) == (T0 + 10, fx.inter.not_after, Cause.UNREVOKED)


def test_lp_rk_beats_later_parent_revocation():
    fx = ChainFixture()
    t_att = T0 + 100 * DAY
    root_lp = LegitimacyPeriod(T0, fx.root.not_after, Cause.UNREVOKED)
    rk_rev = make_revocation(
        RevocationKind.CA_REVOKE_FROM, fx.inter, fx.inter_rk,
        SignerRole.REVOCATION_KEY, rev_timestamp=t_att,
    )
    parent_rev = make_revocation(
        RevocationKind.CA_REVOKE_FROM, fx.inter, fx.root_key,
        SignerRole.PARENT_CA, rev_timestamp=T0 + 200 * DAY, signer_depth=0,
    )
    lp = determine_lp_ca(
        fx.inter, T0 + 10,
        [(rk_rev, t_att + 5), (parent_rev, t_att + 50)],
        [fx.root], [root_lp], b"\x00" * 32,
    )
    assert lp.end == t_att and lp.cause == Cause.RK_REV


def test_lp_parent_revocation_outside_parent_lp_ignored():
    fx = ChainFixture()
    t_att = T0 + 100 * DAY
    root_lp = LegitimacyPeriod(T0, t_att, Cause.RK_REV)  # root already cut off
    parent_rev = make_revocation(
        RevocationKind.CA_REVOKE_FROM, fx.inter, fx.root_key,
        SignerRole.PARENT_CA, rev_timestamp=T0 + 1, signer_depth=0,
    )
    # Registered after the root's cut-off: no force.
    lp = determine_lp_ca(fx.inter, T0 + 10, [(parent_rev, t_att + 60)], [fx.root], [root_lp], b"\x00" * 32)
    assert lp.end == fx.inter.not_after and lp.cause == Cause.UNREVOKED
    # Registered inside the root's period: applies.
    lp2 = determine_lp_ca(fx.inter, T0 + 10, [(parent_rev, t_att - 60)], [fx.root], [root_lp], b"\x00" * 32)
    assert lp2.end == T0 + 1 and lp2.cause == Cause.PARENT_REV


def test_lp_vendor_overrides_rk_cutoff_entirely():
    fx = ChainFixture()
    rk_rev = make_revocation(
        RevocationKind.CA_REVOKE_FROM, fx.inter, fx.inter_rk,
        SignerRole.REVOCATION_KEY, rev_timestamp=T0 + 10 * DAY,
    )
    vendor = KeyPair.generate(KeyRole.VENDOR)
    vendor_rev = make_revocation(
        RevocationKind.CA_REVOKE_FROM, fx.inter, vendor,
        SignerRole.VENDOR, rev_timestamp=T0 + 300 * DAY,
    )
    lp = determine_lp_ca(
        fx.inter, T0, [(rk_rev, T0 + 11 * DAY), (vendor_rev, T0 + 12 * DAY)],
        [fx.root], [LegitimacyPeriod(T0, fx.root.not_after, Cause.UNREVOKED)],
        vendor.public_bytes,
    )
    assert lp.end == T0 + 300 * DAY and lp.cause == Cause.VENDOR_REV


def test_lp_leaf_owner_revocation():
    fx = ChainFixture()
    rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    t_rev = T0 + 30 * DAY
    lp = determine_lp_leaf(
        fx.leaf, T0 + 10, [(rev, t_rev)],
        [fx.root, fx.inter],
        [LegitimacyPeriod(T0, fx.root.not_after, Cause.UNREVOKED),
         LegitimacyPeriod(T0, fx.inter.not_after, Cause.UNREVOKED)],
        b"\x00" * 32,
    )
    assert lp.end == t_rev and lp.cause == Cause.OWN_REV
    assert not lp.contains(t_rev)
    assert lp.contains(t_rev - 1)


def test_lp_leaf_parent_rev_after_parent_cutoff_ignored():
    fx = ChainFixture()
    cutoff = T0 + 50 * DAY
    inter_lp = LegitimacyPeriod(T0, cutoff, Cause.RK_REV)
    rev = make_revocation(
        RevocationKind.LEAF_REVOKE, fx.leaf, fx.inter_key, SignerRole.PARENT_CA, signer_depth=1
    )
    lp = determine_lp_leaf(
        fx.leaf, T0 + 10, [(rev, cutoff + DAY)],
        [fx.root, fx.inter],
        [LegitimacyPeriod(T0, fx.root.not_after, Cause.UNREVOKED), inter_lp],
        b"\x00" * 32,
    )
    assert lp.end == fx.leaf.not_after and lp.cause == Cause.UNREVOKED


def test_priority_dominance_exhaustive():
    # Once a higher class bounds the period, adding any lower-priority
    # revocation at any timestamp leaves the period unchanged.
    fx = ChainFixture()
    vendor = KeyPair.generate(KeyRole.VENDOR)
    root_lp = LegitimacyPeriod(T0, fx.root.not_after, Cause.UNREVOKED)
    vendor_rev = make_revocation(
        RevocationKind.CA_REVOKE_FROM, fx.inter, vendor, SignerRole.VENDOR,
        rev_timestamp=T0 + 100 * DAY,
    )
    base = determine_lp_ca(fx.inter, T0, [(vendor_rev, T0 + DAY)], [fx.root], [root_lp], vendor.public_bytes)
    for cut_days in (1, 50, 99, 101, 200):
        for reg_days in (1, 150):
            rk_rev = make_revocation(
                RevocationKind.CA_REVOKE_FROM, fx.inter, fx.inter_rk,
                SignerRole.REVOCATION_KEY, rev_timestamp=T0 + cut_days * DAY,
            )
            parent_rev = make_revocation(
                RevocationKind.CA_REVOKE_FROM, fx.inter, fx.root_key,
                SignerRole.PARENT_CA, rev_timestamp=T0 + cut_days * DAY, signer_depth=0,
            )
            lp = determine_lp_ca(
                fx.inter, T0,
                [(vendor_rev, T0 + DAY), (rk_rev, T0 + reg_days * DAY), (parent_rev, T0 + reg_days * DAY)],
                [fx.root], [root_lp], vendor.public_bytes,
            )
            assert (lp.begin, lp.end, lp.cause) == (base.begin, base.end, base.cause)


# --- full validation ----------------------------------------------------------

def test_honest_chain_validates():
    fx = ChainFixture()
    log, vendor, log_key, _ = make_env(fx)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    inp = validation_input(log, fx.chain, cc, vendor, log_key, now=T0 + PERIOD + 60)
    result = is_valid(inp)
    assert result.success, result.reason
    assert [v.lp.cause for v in result.per_cert] == [Cause.UNREVOKED] * 3


def test_attack_timeline_backward_availability():
    """Root key compromised; adversary maliciously revokes the intermediate;
    the root's offline-key cut-off at attack time restores the leaf."""
    fx = ChainFixture()
    log, vendor, log_key, _ = make_env(fx)
    cc = log.submit_chain(fx.chain)
    log.run_update()  # registration at T0 + PERIOD

    # Time passes; the adversary (holding the root standard key) revokes the
    # intermediate retroactively.
    for _ in range(9):
        log.run_update()
    malicious = make_revocation(
        RevocationKind.CA_REVOKE_FROM, fx.inter, fx.root_key,
        SignerRole.PARENT_CA, rev_timestamp=T0 + PERIOD, signer_depth=0,
    )
    log.submit_revocation(CertChain((fx.root, fx.inter)), malicious)
    t_att = log.next_update_time()  # instant the malicious action is logged
    log.run_update()

    mid = validation_input(log, fx.chain, cc, vendor, log_key, now=t_att + 10)
    assert not is_valid(mid).success  # attack temporarily effective

    # Detection: the root revokes itself from the attack instant.
    rk_rev = make_revocation(
        RevocationKind.CA_REVOKE_FROM, fx.root, fx.root_rk,
        SignerRole.REVOCATION_KEY, rev_timestamp=t_att,
    )
    log.submit_revocation(CertChain((fx.root,)), rk_rev)
    log.run_update()

    inp = validation_input(log, fx.chain, cc, vendor, log_key, now=log.last_update_time + 10)
    result = is_valid(inp)
    assert result.success, result.reason
    # The malicious revocation is visible in the proof yet has no force.
    assert result.per_cert[1].lp.end == fx.inter.not_after


def test_child_registered_after_attack_fails():
    fx = ChainFixture()
    log, vendor, log_key, _ = make_env(fx)
    # Register only the root first.
    root_only = make_leaf("placeholder.example.com", KeyPair.generate(KeyRole.STANDARD_LEAF), fx.root_key, serial=41)
    log.submit_chain(CertChain((fx.root, root_only)))
    log.run_update()
    t_att = T0 + PERIOD * 5
    while log.last_update_time < t_att:
        log.run_update()
    cc = log.submit_chain(fx.chain)  # intermediate registered after t_att
    log.run_update()
    rk_rev = make_revocation(
        RevocationKind.CA_REVOKE_FROM, fx.root, fx.root_rk,
        SignerRole.REVOCATION_KEY, rev_timestamp=t_att,
    )
    log.submit_revocation(CertChain((fx.root,)), rk_rev)
    log.run_update()
    inp = validation_input(log, fx.chain, cc, vendor, log_key, now=log.last_update_time + 10)
    result = is_valid(inp)
    assert not result.success
    assert result.reason == Reason.REG_OUTSIDE_PARENT_LP


def test_pending_leaf_revocation_fails_immediately():
    fx = ChainFixture()
    log, vendor, log_key, _ = make_env(fx)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    log.submit_revocation(fx.chain, rev)
    # No update yet: the revocation rides along as pending.
    inp = validation_input(log, fx.chain, cc, vendor, log_key, now=log.last_update_time + 30)
    result = is_valid(inp)
    assert not result.success
    assert result.reason == Reason.LEAF_REVOKED
    assert result.per_cert[2].lp.from_pending


def test_stale_root_rejected():
    fx = ChainFixture()
    log, vendor, log_key, _ = make_env(fx)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    # max_root_age = 2 periods; validate 3 periods after the root was signed.
    now = log.last_update_time + 3 * PERIOD
    inp = validation_input(log, fx.chain, cc, vendor, log_key, now=now, max_root_age=2 * PERIOD)
    result = is_valid(inp)
    assert result.reason == Reason.STALE_ROOT
    assert verify_proofs(inp.signed_root, inp.proof, inp.chain, inp.cc, inp.log_pub, 4 * PERIOD, now)


def test_cc_for_other_leaf_rejected():
    fx = ChainFixture()
    other_leaf = make_leaf("other.example.com", KeyPair.generate(KeyRole.STANDARD_LEAF), fx.inter_key, serial=71)
    other_chain = CertChain((fx.root, fx.inter, other_leaf))
    log, vendor, log_key, _ = make_env(fx)
    log.submit_chain(fx.chain)
    cc_other = log.submit_chain(other_chain)
    log.run_update()
    proof, sr, pending = log.get_proof(query_for(fx.chain, log.submit_chain(fx.chain)))
    inp = ValidationInput(
        chain=fx.chain, cc=cc_other, proof=proof, signed_root=sr,
        pending_revocations=pending, name=fx.domain, now=T0 + PERIOD + 1,
        trust_roots=log.config.trust_roots, log_pub=log_key.public_bytes,
        vendor_pub=vendor.public_bytes, max_root_age=4 * PERIOD,
    )
    result = is_valid(inp)
    assert result.reason == Reason.PROOF_MISMATCH


def test_forged_signed_root_rejected():
    fx = ChainFixture()
    log, vendor, log_key, _ = make_env(fx)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    inp = validation_input(log, fx.chain, cc, vendor, log_key, now=T0 + PERIOD + 1)
    rogue = KeyPair.generate(KeyRole.LOG)
    forged = replace(
        inp.signed_root,
        log_signature=rogue.sign(0x04, inp.signed_root.payload()),
    )
    inp.signed_root = forged
    assert is_valid(inp).reason == Reason.BAD_SIGNATURE


def test_decision_monotone_in_now():
    fx = ChainFixture()
    log, vendor, log_key, _ = make_env(fx)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    log.submit_revocation(fx.chain, rev)
    t_rev = log.next_update_time()
    log.run_update()
    proof, sr, pending = log.get_proof(query_for(fx.chain, cc))
    outcomes = []
    for now in range(t_rev - 3, t_rev + 3):
        inp = ValidationInput(
            chain=fx.chain, cc=cc, proof=proof, signed_root=sr,
            pending_revocations=pending, name=fx.domain, now=now,
            trust_roots=log.config.trust_roots, log_pub=log_key.public_bytes,
            vendor_pub=vendor.public_bytes, max_root_age=10 * PERIOD,
        )
        outcomes.append(is_valid(inp).success)
    # Success holds on a contiguous prefix here, then flips exactly once.
    assert outcomes == sorted(outcomes, reverse=True)
    assert outcomes[0] and not outcomes[-1]


def test_determinism():
    fx = ChainFixture()
    log, vendor, log_key, _ = make_env(fx)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    inp = validation_input(log, fx.chain, cc, vendor, log_key, now=T0 + PERIOD + 9)
    r1 = is_valid(inp)
    r2 = is_valid(inp)
    assert r1 == r2


def test_oracle_equivalence_sample(pool):
    mismatches = []
    for seed in range(500):
        impl, oracle, _, _, _ = run_random_scenario(seed, pool)
        got = (impl.decision, impl.reason.value if impl.reason else None)
        if got != oracle:
            mismatches.append((seed, got, oracle))
    assert not mismatches, mismatches[:5]


def test_pending_revocation_needs_the_logs_commitment():
    # A revocation the log never saw counts only with a commitment the log
    # signed for exactly that message.
    fx = ChainFixture()
    log, vendor, log_key, _ = make_env(fx)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    now = log.last_update_time + 30
    rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    other = make_revocation(
        RevocationKind.LEAF_REVOKE, fx.leaf, fx.inter_key, SignerRole.PARENT_CA, signer_depth=1
    )

    def committed(signer, rev_hash):
        unsigned = RevocationCommitment(rev_hash, log.next_update_time(), None)
        return replace(unsigned, log_signature=signer.sign(TAG_REVOCATION_COMMITMENT, unsigned.payload()))

    rogue = KeyPair.generate(KeyRole.LOG)
    for commitment in (committed(rogue, rev.rev_hash), committed(log_key, other.rev_hash)):
        inp = validation_input(log, fx.chain, cc, vendor, log_key, now=now)
        inp.pending_revocations = [PendingRevocation(rev, commitment)]
        assert is_valid(inp).success
    inp.pending_revocations = [PendingRevocation(rev, committed(log_key, rev.rev_hash))]
    assert is_valid(inp).reason == Reason.LEAF_REVOKED


def test_misordered_commitment_is_a_proof_mismatch_on_both_paths():
    fx = ChainFixture()
    log, vendor, log_key, _ = make_env(fx)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    now = log.last_update_time + 30
    t = cc.timestamps[0]
    # The log signs timestamps that increase from leaf to root.
    bad = replace(cc, timestamps=(t, t, t + 1))
    bad = replace(bad, log_signature=log_key.sign(TAG_CHAIN_COMMITMENT, bad.payload()))
    assert bad.verify(log_key.public_bytes)
    inp = validation_input(log, fx.chain, cc, vendor, log_key, now=now)
    inp.cc = bad
    assert is_valid(inp).reason == Reason.PROOF_MISMATCH
    bundle = build_tcrl(log, vendor, now=now)
    result = validate_with_tcrl(
        fx.chain, bad, bundle, fx.domain, now,
        log.config.trust_roots, vendor.public_bytes, log_key.public_bytes,
    )
    assert result.reason == Reason.PROOF_MISMATCH
