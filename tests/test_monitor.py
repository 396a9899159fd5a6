import json
import os
from dataclasses import replace
from types import SimpleNamespace

import pytest

from pkisn.certs import CertChain, RevocationKind, SignerRole, make_revocation
from pkisn.crypto import TAG_CERT_ISSUE, KeyPair, KeyRole, hash_leaf
from pkisn.log import LogConfig, LogServer, SignedRoot
from pkisn.monitor import (
    ITEM_FULL,
    REPORT_FORKED_ROOTS,
    REPORT_INCORRECT_CC,
    REPORT_INVALID_ENTRY,
    REPORT_ROOT_MISMATCH,
    REPORT_SUPPRESSED_REVOCATION,
    DeltaItem,
    FullMonitor,
    GapInDelta,
    MinimizedTimeTree,
    MonitorError,
    RootMismatch,
    UnknownTimestamp,
    build_delta,
    load_full_monitor,
    load_minimized,
    save_full_monitor,
    save_minimized,
    verify_fork_report,
)
from pkisn.revtree import cert_id_hash
from pkisn.timetree import EntryKind, TimeTreeEntry
from pkisn.wire import b64e

from helpers import T0, YEAR, ChainFixture, ca_keys, make_leaf, make_root

PERIOD = 3600


def make_env(fx, period=PERIOD):
    vendor = KeyPair.generate(KeyRole.VENDOR)
    log_key = KeyPair.generate(KeyRole.LOG)
    config = LogConfig(
        scheduling_period=period,
        trust_roots=frozenset({fx.root.cert_hash}),
        vendor_public_key=vendor.public_bytes,
    )
    log = LogServer(config, log_key, start_time=T0)
    monitor = FullMonitor(config.trust_roots, log_key.public_bytes, vendor.public_bytes)
    return log, monitor, vendor, log_key


def test_honest_log_syncs_clean():
    fx = ChainFixture()
    log, monitor, vendor, _ = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    res1 = monitor.sync_from(log)
    assert res1.ok and res1.reports == []
    rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    log.submit_revocation(fx.chain, rev)
    log.run_update()
    res2 = monitor.sync_from(log)
    assert res2.ok
    assert monitor.tree.root() == log.tree.root()
    assert monitor.forest.top_root() == log.forest.top_root()


def test_unverifiable_revocation_entry_reported():
    fx = ChainFixture()
    log, monitor, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    monitor.sync_from(log)
    # The log (misbehaving) appends a revocation signed by a stranger.
    stranger = KeyPair.generate(KeyRole.STANDARD_CA)
    bogus = make_revocation(
        RevocationKind.LEAF_REVOKE, fx.leaf, stranger, SignerRole.PARENT_CA, signer_depth=0
    )
    log.pending_revs.append(bogus)
    log.run_update()
    res = monitor.sync_from(log)
    kinds = [r.kind for r in res.reports]
    assert REPORT_INVALID_ENTRY in kinds
    # The tree root still matches: the content is bad, not the hashing.
    assert monitor.tree.root() == log.tree.root()


def test_root_mismatch_reported():
    fx = ChainFixture()
    log, monitor, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    sr = log.run_update()
    # Log signs a root that does not correspond to its entries.
    forged = SignedRoot(
        root=hash_leaf(b"not the real root"),
        timestamp=sr.timestamp,
        log_signature=log_key.sign(0x04, hash_leaf(b"not the real root").value + sr.timestamp.to_bytes(8, "big")),
    )
    res = monitor.full_sync(log.get_entries(0), forged)
    assert not res.ok
    assert any(r.kind == REPORT_ROOT_MISMATCH for r in res.reports)


def test_forest_root_entry_checked():
    fx = ChainFixture()
    log, monitor, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    entries = log.get_entries(0)
    # Tamper the forest-root entry, then re-sign the (now different) tree.
    bad = TimeTreeEntry(EntryKind.REV_TREE_ROOT, hash_leaf(b"wrong forest").value, entries[-1].reg_timestamp)
    tampered = entries[:-1] + [bad]
    from pkisn.timetree import TimeTree

    shadow = TimeTree()
    shadow.append(tampered)
    forged = SignedRoot(
        root=shadow.root(),
        timestamp=bad.reg_timestamp,
        log_signature=log_key.sign(0x04, shadow.root().value + bad.reg_timestamp.to_bytes(8, "big")),
    )
    res = monitor.full_sync(tampered, forged)
    assert any(
        r.kind == REPORT_INVALID_ENTRY and "forest root" in r.evidence["why"]
        for r in res.reports
    )


def test_check_root_consistent_fork_unknown():
    fx = ChainFixture()
    log, monitor, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    sr = log.run_update()
    monitor.sync_from(log)
    verdict, report = monitor.check_root(sr)
    assert verdict == "consistent" and report is None

    other_root = hash_leaf(b"split view")
    fork = SignedRoot(
        root=other_root,
        timestamp=sr.timestamp,
        log_signature=log_key.sign(0x04, other_root.value + sr.timestamp.to_bytes(8, "big")),
    )
    verdict, report = monitor.check_root(fork)
    assert verdict == "fork"
    assert report.kind == REPORT_FORKED_ROOTS
    assert verify_fork_report(report, log_key.public_bytes)
    # Tampered evidence must not verify.
    bad = replace(report, evidence={**report.evidence, "root_b": report.evidence["root_a"]})
    assert not verify_fork_report(bad, log_key.public_bytes)

    unknown = SignedRoot(
        root=other_root,
        timestamp=sr.timestamp + 999,
        log_signature=log_key.sign(0x04, other_root.value + (sr.timestamp + 999).to_bytes(8, "big")),
    )
    with pytest.raises(UnknownTimestamp):
        monitor.check_root(unknown)


def test_incorrect_cc_detected():
    fx = ChainFixture()
    log, monitor, vendor, log_key = make_env(fx)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    monitor.sync_from(log)
    assert monitor.check_chain_commitment(cc, fx.chain) is None
    # Forge a commitment promising an earlier registration.
    forged_ts = tuple(t - PERIOD for t in cc.timestamps)
    payload = cc.leaf_cert_hash.value + bytes([len(forged_ts)])
    for t in forged_ts:
        payload += t.to_bytes(8, "big")
    forged = type(cc)(
        leaf_cert_hash=cc.leaf_cert_hash,
        timestamps=forged_ts,
        log_signature=log_key.sign(0x03, payload),
    )
    report = monitor.check_chain_commitment(forged, fx.chain)
    assert report is not None and report.kind == REPORT_INCORRECT_CC
    assert report.evidence["promised_ts"] != report.evidence["observed_ts"]


def test_suppressed_revocation_detected():
    fx = ChainFixture()
    log, monitor, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    rc = log.submit_revocation(fx.chain, rev)
    # The log "loses" the revocation, then updates past the promised time.
    log.pending_revs.clear()
    log.run_update()
    monitor.sync_from(log)
    report = monitor.check_revocation_commitment(rc)
    assert report is not None and report.kind == REPORT_SUPPRESSED_REVOCATION
    # Honest case: nothing to report.
    rc2 = log.submit_revocation(fx.chain, rev)
    log.run_update()
    monitor.sync_from(log)
    assert monitor.check_revocation_commitment(rc2) is None


def resigned(log_key, entries):
    """A root the log signs over an arbitrary entry stream."""
    from pkisn.timetree import TimeTree

    shadow = TimeTree()
    shadow.append(entries)
    ts = entries[-1].reg_timestamp
    return SignedRoot(
        root=shadow.root(),
        timestamp=ts,
        log_signature=log_key.sign(0x04, shadow.root().value + ts.to_bytes(8, "big")),
    )


def test_backwards_timestamps_fail_closed():
    fx = ChainFixture()
    log, monitor, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    entries = log.get_entries(0)
    # The second entry is five seconds earlier than the first.
    hostile = [entries[0], replace(entries[1], reg_timestamp=entries[0].reg_timestamp - 5)] + entries[2:]
    res = monitor.full_sync(hostile, log.latest.signed_root)
    assert not res.ok
    assert [r.kind for r in res.reports] == [REPORT_INVALID_ENTRY]
    assert monitor.tree.size == 0 and monitor.registry == {}  # nothing applied

    # Against the replica's last entry: a new batch dated before it.
    assert monitor.sync_from(log).ok
    size = monitor.tree.size
    stale = TimeTreeEntry(EntryKind.TCRL, hash_leaf(b"bundle").value, entries[-1].reg_timestamp - 1)
    res = monitor.full_sync([stale], log.latest.signed_root)
    assert not res.ok
    assert [r.kind for r in res.reports] == [REPORT_INVALID_ENTRY]
    assert monitor.tree.size == size


def test_non_canonical_certificate_entry_reported():
    from pkisn.wire import lp

    fx = ChainFixture()
    log, monitor, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    entries = log.get_entries(0)
    leaf = fx.leaf
    # The is_ca byte of a leaf, written as 2 instead of 0, still decodes.
    at = 8 + len(lp(leaf.subject_name.encode())) + 32 + len(lp(leaf.subject_public_key))
    raw = bytearray(leaf.canonical_bytes)
    assert raw[at] == 0
    raw[at] = 2
    idx = next(i for i, e in enumerate(entries) if e.payload == leaf.canonical_bytes)
    hostile = list(entries)
    hostile[idx] = replace(entries[idx], payload=bytes(raw))
    res = monitor.full_sync(hostile, resigned(log_key, hostile))
    assert not res.ok
    assert any(
        r.kind == REPORT_INVALID_ENTRY and r.evidence["why"] == "non-canonical certificate encoding"
        for r in res.reports
    )


def test_quiet_period_costs_no_forest_rebuild(monkeypatch):
    from pkisn.revtree import RevForest

    fx = ChainFixture()
    log, monitor, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    assert monitor.sync_from(log).ok
    calls = []
    rebuild = RevForest.rebuild
    monkeypatch.setattr(RevForest, "rebuild", lambda self, *a, **k: calls.append(1) or rebuild(self, *a, **k))
    log.run_update()  # no new certificates or revocations
    res = monitor.sync_from(log)
    assert res.ok and res.reports == []
    assert calls == []
    assert monitor.forest.top_root() == log.forest.top_root()
    assert monitor.tree.root() == log.tree.root()


# --- lightweight monitoring ---------------------------------------------------

def leaves_fixture(n_live=4, n_expired=6, period=PERIOD):
    """Log with a mix of long-lived and already-expired leaves."""
    fx = ChainFixture()
    log, monitor, vendor, log_key = make_env(fx, period=period)
    expired = []
    live = []
    for i in range(n_expired):
        key = KeyPair.generate(KeyRole.STANDARD_LEAF)
        cert = make_leaf(
            f"old{i}.example.com", key, fx.inter_key, serial=2000 + i,
            not_before=T0 - YEAR, not_after=T0 + period,  # dies after first update
        )
        log.submit_chain(CertChain((fx.root, fx.inter, cert)))
        expired.append(cert)
    log.run_update()
    for i in range(n_live):
        key = KeyPair.generate(KeyRole.STANDARD_LEAF)
        cert = make_leaf(f"new{i}.example.com", key, fx.inter_key, serial=3000 + i)
        log.submit_chain(CertChain((fx.root, fx.inter, cert)))
        live.append(cert)
    log.run_update()
    return fx, log, vendor, log_key, expired, live


def test_delta_apply_reaches_log_root():
    fx, log, vendor, log_key, expired, live = leaves_fixture()
    now = log.last_update_time + 10 * PERIOD
    delta = build_delta(log, 0, now)
    state = MinimizedTimeTree(log_key.public_bytes)
    state.apply_delta(delta)
    assert state.root() == log.tree.root()
    assert state.size == log.tree.size


def test_delta_prunes_only_dead_regions():
    fx, log, vendor, log_key, expired, live = leaves_fixture()
    far = log.last_update_time + 10 * PERIOD
    delta = build_delta(log, 0, far)
    covers = [i for b in delta.batches for i in b.items if i.kind == "cover"]
    assert covers, "expired region should be covered"
    state = MinimizedTimeTree(log_key.public_bytes)
    state.apply_delta(delta)
    # Live certificates stay individually addressable; expired ones may not.
    for cert in live:
        entry_ts = log.registry[cert.cert_hash].reg_ts
        entry = TimeTreeEntry(EntryKind.CERT, cert.canonical_bytes, entry_ts)
        assert state.has_entry(entry.encode())


def test_nothing_expired_no_covers():
    fx, log, vendor, log_key, expired, live = leaves_fixture(n_expired=0)
    delta = build_delta(log, 0, log.last_update_time)
    assert all(i.kind != "cover" for b in delta.batches for i in b.items)


def test_revocations_travel_full_and_answer_queries():
    fx, log, vendor, log_key, expired, live = leaves_fixture()
    target = live[0]
    key_rev = make_revocation(
        RevocationKind.LEAF_REVOKE, target, fx.inter_key, SignerRole.PARENT_CA, signer_depth=1
    )
    log.submit_revocation(CertChain((fx.root, fx.inter, target)), key_rev)
    log.run_update()
    now = log.last_update_time + 10 * PERIOD
    delta = build_delta(log, 0, now)
    fulls = [i for b in delta.batches for i in b.items if i.kind == "full"]
    assert len(fulls) == 1
    state = MinimizedTimeTree(log_key.public_bytes)
    state.apply_delta(delta)
    revs = state.revocations_for(target.cert_hash)
    assert len(revs) == 1 and revs[0][0] == key_rev.canonical_bytes


def test_incremental_deltas_match_full_sync():
    fx = ChainFixture()
    log, monitor, vendor, log_key = make_env(fx)
    state = MinimizedTimeTree(log_key.public_bytes)
    log.submit_chain(fx.chain)
    log.run_update()
    state.apply_delta(build_delta(log, 0, log.last_update_time))
    assert state.root() == log.tree.root()
    for i in range(4):
        key = KeyPair.generate(KeyRole.STANDARD_LEAF)
        cert = make_leaf(f"d{i}.example.com", key, fx.inter_key, serial=4000 + i)
        log.submit_chain(CertChain((fx.root, fx.inter, cert)))
        log.run_update()
        state.apply_delta(build_delta(log, state.size, log.last_update_time))
        assert state.root() == log.tree.root(), i


def test_delta_gap_rejected():
    fx, log, vendor, log_key, _, _ = leaves_fixture()
    delta = build_delta(log, 4, log.last_update_time)
    state = MinimizedTimeTree(log_key.public_bytes)
    with pytest.raises(GapInDelta):
        state.apply_delta(delta)


def test_tampered_delta_hash_rejected():
    fx, log, vendor, log_key, _, _ = leaves_fixture()
    delta = build_delta(log, 0, log.last_update_time + 10 * PERIOD)
    bad_batches = list(delta.batches)
    items = list(bad_batches[0].items)
    victim = items[0]
    items[0] = DeltaItem(victim.kind, victim.level, victim.index, hash_leaf(b"tampered").value)
    bad_batches[0] = replace(bad_batches[0], items=tuple(items))
    bad = replace(delta, batches=tuple(bad_batches))
    state = MinimizedTimeTree(log_key.public_bytes)
    with pytest.raises(RootMismatch):
        state.apply_delta(bad)
    assert state.size == 0  # nothing committed


def test_client_proof_verifies_against_minimized_state():
    fx, log, vendor, log_key, expired, live = leaves_fixture()
    state = MinimizedTimeTree(log_key.public_bytes)
    state.apply_delta(build_delta(log, 0, log.last_update_time + 10 * PERIOD))
    cc = log.submit_chain(CertChain((fx.root, fx.inter, live[0])))
    chain = CertChain((fx.root, fx.inter, live[0]))
    query = [
        cert_id_hash(c.canonical_bytes, t) for c, t in zip(chain.certs, reversed(cc.timestamps))
    ]
    proof, sr, _ = log.get_proof(query)
    assert state.verify_client_proof(chain, list(cc.timestamps), proof, sr)
    # A root the monitor has never computed is not vouched for.
    rogue_sr = replace(sr, timestamp=sr.timestamp + 1)
    assert not state.verify_client_proof(chain, list(cc.timestamps), proof, rogue_sr)


def test_pruning_never_removes_required_hashes():
    fx, log, vendor, log_key, expired, live = leaves_fixture(n_live=3, n_expired=5)
    now = log.last_update_time + 10 * PERIOD
    delta = build_delta(log, 0, now)
    retained_level0 = set()
    covered = []
    for b in delta.batches:
        for item in b.items:
            if item.kind == "cover":
                covered.append(item.span())
            else:
                retained_level0.add(item.span()[0])
    entries = log.get_entries(0)
    for idx, entry in enumerate(entries):
        must_keep = entry.kind in (EntryKind.REV_TREE_ROOT, EntryKind.REVOCATION, EntryKind.TCRL)
        if entry.kind == EntryKind.CERT:
            h = hash_leaf(entry.payload)
            if log.registry[h].not_after + PERIOD > now:
                must_keep = True
        if must_keep:
            assert idx in retained_level0, idx
            assert not any(lo <= idx < hi for lo, hi in covered), idx


def test_load_minimized_rejects_a_gap(tmp_path):
    fx, log, vendor, log_key, _, _ = leaves_fixture()
    state = MinimizedTimeTree(log_key.public_bytes)
    state.apply_delta(build_delta(log, 0, log.last_update_time))
    path = tmp_path / "light.json"
    save_minimized(path, state)
    assert load_minimized(path, log_key.public_bytes).root() == log.tree.root()
    obj = json.loads(path.read_text())
    del obj["tiles"][1]
    path.write_text(json.dumps(obj))
    with pytest.raises(GapInDelta):
        load_minimized(path, log_key.public_bytes)


def test_root_mismatch_applies_nothing():
    fx = ChainFixture()
    log, monitor, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    sr = log.run_update()
    forged_root = hash_leaf(b"not the real root")
    forged = SignedRoot(
        root=forged_root,
        timestamp=sr.timestamp,
        log_signature=log_key.sign(0x04, forged_root.value + sr.timestamp.to_bytes(8, "big")),
    )
    res = monitor.full_sync(log.get_entries(0), forged)
    assert not res.ok
    assert [r.kind for r in res.reports] == [REPORT_ROOT_MISMATCH]
    assert monitor.tree.size == 0 and monitor.registry == {}
    res = monitor.sync_from(log)
    assert res.ok and res.reports == []
    assert res.new_size == monitor.tree.size == log.tree.size


def test_sync_racing_an_update_stops_at_the_signed_root():
    fx = ChainFixture()
    log, monitor, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    first = log.run_update()
    first_size = log.tree.size
    leaf = make_leaf("race.example.com", KeyPair.generate(KeyRole.STANDARD_LEAF), fx.inter_key, serial=5000)
    log.submit_chain(CertChain((fx.root, fx.inter, leaf)))
    log.run_update()
    # Update 2 lands between the read of the signed root and the read of entries.
    racing = SimpleNamespace(latest_signed_root=lambda: first, get_entries=log.get_entries)
    res = monitor.sync_from(racing)
    assert res.ok and res.reports == []
    assert res.new_size == monitor.tree.size == first_size
    res = monitor.sync_from(log)
    assert res.ok and res.reports == []
    assert monitor.tree.size == log.tree.size


UNDECODABLE_ENTRY = b"\x09" + bytes(12)  # entry kind 9 does not exist


@pytest.mark.parametrize(
    "change",
    [{"level": -1}, {"level": 64}, {"index": -1}, {"payload": bytes(31)},
     {"kind": ITEM_FULL, "payload": UNDECODABLE_ENTRY}],
    ids=["level-1", "level64", "index-1", "short-digest", "undecodable-entry"],
)
def test_malformed_item_fails_closed(change, tmp_path):
    # A delta item and a stored tile alike fail with a monitor error, and
    # nothing of a bad delta is committed.
    fx, log, vendor, log_key, _, _ = leaves_fixture()
    delta = build_delta(log, 0, log.last_update_time)
    batches = list(delta.batches)
    items = list(batches[0].items)
    assert (items[0].level, items[0].index) == (0, 0)
    items[0] = replace(items[0], **change)
    batches[0] = replace(batches[0], items=tuple(items))
    state = MinimizedTimeTree(log_key.public_bytes)
    with pytest.raises(MonitorError):
        state.apply_delta(replace(delta, batches=tuple(batches)))
    assert state.size == 0 and state.frontier == []

    state.apply_delta(delta)
    path = tmp_path / "light.json"
    save_minimized(path, state)
    obj = json.loads(path.read_text())
    if "kind" in change:
        obj["full"].append({"index": 0, "b64": b64e(change["payload"])})
    elif "payload" in change:
        obj["tiles"][0]["digest"] = change["payload"].hex()
    else:
        obj["tiles"][0].update(change)
    path.write_text(json.dumps(obj))
    with pytest.raises(MonitorError):
        load_minimized(path, log_key.public_bytes)


def _rogue_certs(fx):
    """Certificates a misbehaving log might append, by the fault the full
    monitor must name."""
    stranger, stranger_rk = ca_keys()
    leaf_key = KeyPair.generate(KeyRole.STANDARD_LEAF)
    well_signed = make_leaf("forged.example.com", leaf_key, fx.inter_key, serial=51)
    return {
        "issuer is not a CA": make_leaf("below.example.com", leaf_key, fx.leaf_key, serial=50),
        "issuer signature does not verify": replace(
            well_signed, issuer_signature=stranger.sign(TAG_CERT_ISSUE, well_signed.tbs_bytes)
        ),
        "self-signed root outside the trust set": make_root("Rogue Root", stranger, stranger_rk, serial=52),
        "issuer key unknown to the log": make_leaf("orphan.example.com", leaf_key, stranger, serial=53),
    }


@pytest.mark.parametrize("why", [
    "issuer is not a CA", "issuer signature does not verify",
    "self-signed root outside the trust set", "issuer key unknown to the log",
])
def test_full_monitor_names_each_certificate_fault(why):
    fx = ChainFixture()
    log, monitor, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    assert monitor.sync_from(log).ok
    log._queue_cert(_rogue_certs(fx)[why])  # the log skips its admission checks
    log.run_update()
    res = monitor.sync_from(log)
    assert not res.ok
    assert [r.evidence["why"] for r in res.reports] == [why]


def synced_monitor_dir(tmp_path):
    fx = ChainFixture()
    log, monitor, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    log.submit_revocation(fx.chain, rev)
    log.run_update()
    assert monitor.sync_from(log).ok
    save_full_monitor(tmp_path, monitor)
    return log, monitor, (monitor.trust_roots, log_key.public_bytes, vendor.public_bytes)


@pytest.mark.parametrize(
    "damage",
    [("entries.bin", lambda raw: raw[:-7]), ("entries.bin", lambda raw: raw[:-1]),
     ("entries.bin", lambda raw: raw + b"\x00\x00"), ("roots.json", lambda raw: b"{}\n"),
     ("roots.json", lambda raw: raw[: len(raw) // 2]), ("roots.json", lambda raw: b"[]\n")],
    ids=["entries-cut-7", "entries-cut-1", "entries-torn-prefix", "roots-empty", "roots-torn", "roots-list"],
)
def test_damaged_full_monitor_state_fails_closed(damage, tmp_path):
    log, monitor, keys = synced_monitor_dir(tmp_path)
    assert load_full_monitor(tmp_path, *keys).tree.root() == monitor.tree.root()
    name, cut = damage
    path = tmp_path / name
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(MonitorError):
        load_full_monitor(tmp_path, *keys)


def test_interrupted_save_keeps_the_previous_state(tmp_path, monkeypatch):
    log, monitor, keys = synced_monitor_dir(tmp_path)
    saved_root = monitor.tree.root()
    log.run_update()
    assert monitor.sync_from(log).ok and monitor.tree.root() != saved_root

    def crash(src, dst):
        raise OSError("crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
        save_full_monitor(tmp_path, monitor)
    monkeypatch.undo()
    assert load_full_monitor(tmp_path, *keys).tree.root() == saved_root
    save_full_monitor(tmp_path, monitor)
    assert load_full_monitor(tmp_path, *keys).tree.root() == monitor.tree.root()


def twice_synced_monitor_dir(tmp_path):
    log, monitor, keys = synced_monitor_dir(tmp_path)
    log.run_update()
    assert monitor.sync_from(log).ok and len(monitor.signed_roots) == 2
    save_full_monitor(tmp_path, monitor)
    return log, monitor, keys


@pytest.mark.parametrize("forgery", ["other-root-hash", "filed-under-another-time"])
def test_every_stored_signed_root_is_checked_on_load(forgery, tmp_path):
    # An older stored root that the log never signed would make the monitor
    # call the log's honest root for that update a fork.
    log, monitor, keys = twice_synced_monitor_dir(tmp_path)
    path = tmp_path / "roots.json"
    stored = json.loads(path.read_text())
    older = min(stored, key=int)
    if forgery == "other-root-hash":
        stored[older]["root"] = hash_leaf(b"a root the log never signed").hex
    else:
        stored[str(int(older) + 1)] = stored.pop(older)
    path.write_text(json.dumps(stored))
    with pytest.raises(MonitorError):
        load_full_monitor(tmp_path, *keys)


def saved_light_state(tmp_path):
    fx, log, vendor, log_key, _, _ = leaves_fixture()
    state = MinimizedTimeTree(log_key.public_bytes)
    state.apply_delta(build_delta(log, 0, log.last_update_time))
    path = tmp_path / "light.json"
    save_minimized(path, state)
    return log, log_key, state, path


def _without_tile_index(obj):
    del obj["tiles"][0]["index"]


def _one_byte_root(obj):
    obj["roots"][0]["root"] = "00"


def _unsigned_older_root(obj):
    # Only the latest root must recompute from the tiles; an older one must verify.
    obj["roots"].insert(0, dict(obj["roots"][0], timestamp=obj["roots"][0]["timestamp"] - 1))


@pytest.mark.parametrize(
    "damage",
    ["{}", "{not json", _without_tile_index, _one_byte_root, _unsigned_older_root],
    ids=["empty-object", "not-json", "tile-without-index", "one-byte-root-hash", "unsigned-older-root"],
)
def test_damaged_light_monitor_state_fails_closed(damage, tmp_path):
    log, log_key, state, path = saved_light_state(tmp_path)
    if isinstance(damage, str):
        path.write_text(damage)
    else:
        obj = json.loads(path.read_text())
        damage(obj)
        path.write_text(json.dumps(obj))
    with pytest.raises(MonitorError):
        load_minimized(path, log_key.public_bytes)


def test_interrupted_light_save_keeps_the_previous_state(tmp_path, monkeypatch):
    log, log_key, state, path = saved_light_state(tmp_path)
    saved_root = state.root()
    log.run_update()
    state.apply_delta(build_delta(log, state.size, log.last_update_time))
    assert state.root() != saved_root

    def crash(src, dst):
        raise OSError("crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
        save_minimized(path, state)
    monkeypatch.undo()
    assert load_minimized(path, log_key.public_bytes).root() == saved_root
    save_minimized(path, state)
    assert load_minimized(path, log_key.public_bytes).root() == state.root()


def test_relabelled_revocation_entry_reported():
    fx = ChainFixture()
    log, monitor, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    log.submit_revocation(fx.chain, rev)
    log.run_update()
    assert monitor.sync_from(log).ok
    log.pending_revs.append(replace(rev, signer_depth=7))  # the log skips its admission checks
    log.run_update()
    res = monitor.sync_from(log)
    assert not res.ok
    assert [r.evidence["why"] for r in res.reports] == ["revocation already logged under other bytes"]


def test_leaf_parent_stream_is_judged_from_logged_bytes():
    # A misbehaving log hangs a certificate under a leaf, which then revokes
    # it as its parent; the monitor holds no decoded leaves and reads both
    # from their logged bytes.
    fx = ChainFixture()
    log, monitor, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    assert monitor.sync_from(log).ok
    below = _rogue_certs(fx)["issuer is not a CA"]
    log._queue_cert(below)  # the log skips its admission checks
    log.run_update()
    assert [r.evidence["why"] for r in monitor.sync_from(log).reports] == ["issuer is not a CA"]
    rev = make_revocation(RevocationKind.LEAF_REVOKE, below, fx.leaf_key, SignerRole.PARENT_CA, signer_depth=2)
    log.pending_revs.append(rev)
    log.run_update()
    assert monitor.sync_from(log).reports == []
    assert monitor.forest.top_root() == log.forest.top_root()


def test_full_monitor_keeps_decoded_cas_only():
    fx = ChainFixture()
    log, monitor, vendor, log_key = make_env(fx)
    log.submit_chain(fx.chain)
    log.run_update()
    log.submit_revocation(fx.chain, make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY))
    log.run_update()
    assert monitor.sync_from(log).ok
    assert set(monitor.certs) == {fx.root.cert_hash, fx.inter.cert_hash}
