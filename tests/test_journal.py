from itertools import accumulate, count

import pytest

from pkisn.certs import CertChain, RevocationKind, SignerRole, make_revocation
from pkisn.crypto import TAG_SIGNED_ROOT, KeyPair, KeyRole, hash_leaf
from pkisn.journal import REC_UPDATE, Journal
from pkisn.log import LogConfig, LogServer, ReplayMismatch
from pkisn.revtree import RevForest
from pkisn.timetree import verify_consistency

from helpers import T0, ChainFixture, make_leaf

PERIOD = 600


def open_log(fx, vendor, log_key, path):
    config = LogConfig(
        scheduling_period=PERIOD,
        trust_roots=frozenset({fx.root.cert_hash}),
        vendor_public_key=vendor.public_bytes,
    )
    return LogServer(config, log_key, start_time=T0, journal=Journal(path, fsync=False))


def recover_log(fx, vendor, log_key, path):
    config = LogConfig(
        scheduling_period=PERIOD,
        trust_roots=frozenset({fx.root.cert_hash}),
        vendor_public_key=vendor.public_bytes,
    )
    return LogServer.recover(config, log_key, start_time=T0, journal_path=path)


def test_recovery_reproduces_state(tmp_path):
    fx = ChainFixture()
    vendor = KeyPair.generate(KeyRole.VENDOR)
    log_key = KeyPair.generate(KeyRole.LOG)
    path = tmp_path / "journal.bin"

    log = open_log(fx, vendor, log_key, path)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    rc = log.submit_revocation(fx.chain, rev)
    sr_before = log.run_update()
    # A submission still pending at crash time.
    leaf2 = make_leaf("pending.example.com", KeyPair.generate(KeyRole.STANDARD_LEAF), fx.inter_key, serial=77)
    cc_pending = log.submit_chain(CertChain((fx.root, fx.inter, leaf2)))

    recovered = recover_log(fx, vendor, log_key, path)
    assert recovered.tree.size == log.tree.size
    assert recovered.tree.root() == log.tree.root()
    assert recovered.latest.signed_root == sr_before
    # Resubmitting yields byte-identical commitments (deterministic signatures).
    assert recovered.submit_chain(fx.chain) == cc
    assert recovered.submit_revocation(fx.chain, rev) == rc
    assert recovered.submit_chain(CertChain((fx.root, fx.inter, leaf2))) == cc_pending
    # The pending submission still lands at its promised time.
    recovered.run_update()
    assert recovered.registry[leaf2.cert_hash].reg_ts == cc_pending.timestamps[0]


def test_recovery_consistency_across_crash(tmp_path):
    fx = ChainFixture()
    vendor = KeyPair.generate(KeyRole.VENDOR)
    log_key = KeyPair.generate(KeyRole.LOG)
    path = tmp_path / "journal.bin"

    log = open_log(fx, vendor, log_key, path)
    log.submit_chain(fx.chain)
    sr_old = log.run_update()
    old_size = log.tree.size

    recovered = recover_log(fx, vendor, log_key, path)
    leaf2 = make_leaf("post-crash.example.com", KeyPair.generate(KeyRole.STANDARD_LEAF), fx.inter_key, serial=88)
    recovered.submit_chain(CertChain((fx.root, fx.inter, leaf2)))
    sr_new = recovered.run_update()
    proof = recovered.get_consistency(old_size, recovered.tree.size)
    assert verify_consistency(sr_old.root, sr_new.root, proof)


def test_truncated_tail_ignored(tmp_path):
    fx = ChainFixture()
    vendor = KeyPair.generate(KeyRole.VENDOR)
    log_key = KeyPair.generate(KeyRole.LOG)
    path = tmp_path / "journal.bin"

    log = open_log(fx, vendor, log_key, path)
    log.submit_chain(fx.chain)
    log.run_update()
    intact = Journal.replay(path)

    # Simulate a torn write: append garbage / cut bytes off the end.
    data = path.read_bytes()
    path.write_bytes(data + b"\x01\x00\x00\x00\xff")  # header promising more than exists
    assert Journal.replay(path) == intact
    path.write_bytes(data[:-3])
    assert len(Journal.replay(path)) == len(intact) - 1


def test_corrupt_crc_stops_replay(tmp_path):
    path = tmp_path / "journal.bin"
    j = Journal(path, fsync=False)
    j.append(1, b"first")
    j.append(2, b"second")
    j.close()
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF  # flip a CRC byte of the second record
    path.write_bytes(bytes(data))
    records = Journal.replay(path)
    assert [r.kind for r in records] == [1]


def journaled_history(tmp_path):
    """A journal of 2 updates, 1 revocation and 1 bundle, the last three
    frames being a revocation, a bundle hash and an update."""
    fx = ChainFixture()
    vendor = KeyPair.generate(KeyRole.VENDOR)
    log_key = KeyPair.generate(KeyRole.LOG)
    path = tmp_path / "journal.bin"
    log = open_log(fx, vendor, log_key, path)
    log.submit_chain(fx.chain)
    log.run_update()
    rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    log.submit_revocation(fx.chain, rev)
    log.submit_tcrl_hash(hash_leaf(b"bundle"))
    log.run_update()
    log._journal.close()
    return fx, vendor, log_key, path, log


def test_recovery_signs_only_the_roots_it_keeps(tmp_path, monkeypatch):
    fx, vendor, log_key, path, log = journaled_history(tmp_path)
    tags = []
    sign = KeyPair.sign

    def spy(key, tag, payload):
        tags.append(tag)
        return sign(key, tag, payload)

    monkeypatch.setattr(KeyPair, "sign", spy)
    recovered = recover_log(fx, vendor, log_key, path)
    assert tags == [TAG_SIGNED_ROOT, TAG_SIGNED_ROOT]
    assert [u.signed_root for u in recovered.updates] == [u.signed_root for u in log.updates]
    recovered._journal.close()


def test_torn_tail_is_cut_before_the_next_write(tmp_path):
    fx, vendor, log_key, path, _ = journaled_history(tmp_path)
    data = path.read_bytes()
    ends = [0] + list(accumulate(9 + len(r.payload) for r in Journal.replay(path)))
    assert ends[-1] == len(data)

    def recover_update_recover(journal):
        log = recover_log(fx, vendor, log_key, journal)
        log.run_update()
        log._journal.close()
        log = recover_log(fx, vendor, log_key, journal)
        log._journal.close()
        return log.tree.size, log.tree.root(), [u.signed_root for u in log.updates]

    expected = {}
    copy = tmp_path / "copy.bin"
    for cut in range(ends[-4], len(data)):
        intact = max(e for e in ends if e <= cut)
        if intact not in expected:
            copy.write_bytes(data[:intact])
            expected[intact] = recover_update_recover(copy)
        copy.write_bytes(data[:cut])
        assert recover_update_recover(copy) == expected[intact], cut


def four_updates(tmp_path):
    """A journal of 4 updates: a chain; a revocation and a bundle; a second
    leaf; nothing."""
    fx, vendor, log_key, path, log = journaled_history(tmp_path)
    log = recover_log(fx, vendor, log_key, path)
    leaf2 = make_leaf("second.example.com", KeyPair.generate(KeyRole.STANDARD_LEAF), fx.inter_key, serial=90)
    log.submit_chain(CertChain((fx.root, fx.inter, leaf2)))
    log.run_update()
    log.run_update()
    log._journal.close()
    return fx, vendor, log_key, path, log


def rewrite_updates(path, change):
    """Write path's records again, each update payload passed through
    change(update index, payload), with fresh CRCs."""
    records = Journal.replay(path)
    path.unlink()
    j = Journal(path, fsync=False)
    n = count()
    j.append_all([(r.kind, change(next(n), r.payload) if r.kind == REC_UPDATE else r.payload) for r in records])
    j.close()


def recovered_state(log):
    return log.tree.size, log.tree.root(), log.forest.top_root(), [u.signed_root for u in log.updates]


@pytest.mark.parametrize("legacy", [{0, 1, 2, 3}, {0, 1}, {2, 3}, {1, 3}],
                         ids=["legacy", "legacy-then-new", "new-then-legacy", "alternating"])
def test_legacy_update_records_recover_the_same_roots(tmp_path, legacy):
    fx, vendor, log_key, path, log = four_updates(tmp_path)
    assert {len(r.payload) for r in Journal.replay(path) if r.kind == REC_UPDATE} == {72}
    rewrite_updates(path, lambda i, payload: payload[:8] if i in legacy else payload)
    recovered = recover_log(fx, vendor, log_key, path)
    recovered._journal.close()
    assert recovered_state(recovered) == recovered_state(log)


@pytest.mark.parametrize("update", [0, 1, 3])
@pytest.mark.parametrize("field", [slice(8, 40), slice(40, 72)], ids=["forest-root", "tree-root"])
def test_altered_journaled_root_is_never_signed(tmp_path, monkeypatch, field, update):
    fx, vendor, log_key, path, log = four_updates(tmp_path)

    def alter(i, payload):
        if i != update:
            return payload
        raw = bytearray(payload)
        raw[field.start] ^= 1
        return bytes(raw)

    rewrite_updates(path, alter)
    signed = []
    sign = KeyPair.sign

    def spy(key, tag, payload):
        signed.append(payload)
        return sign(key, tag, payload)

    monkeypatch.setattr(KeyPair, "sign", spy)
    with pytest.raises(ReplayMismatch) as e:
        recover_log(fx, vendor, log_key, path)
    assert e.value.update_time == log.updates[update].timestamp
    assert signed == [u.signed_root.payload() for u in log.updates[:update]]


@pytest.mark.parametrize("length", [0, 7, 9, 40, 73])
def test_update_record_of_another_length_is_refused(tmp_path, length):
    fx, vendor, log_key, path, log = four_updates(tmp_path)
    rewrite_updates(path, lambda i, payload: (payload * 2)[:length] if i == 2 else payload)
    with pytest.raises(ReplayMismatch, match="update record of"):
        recover_log(fx, vendor, log_key, path)


def test_recovery_rebuilds_the_forest_once(tmp_path, monkeypatch):
    fx, vendor, log_key, path, log = four_updates(tmp_path)
    calls = []
    rebuild = RevForest.rebuild

    def spy(forest, *args, **kwargs):
        calls.append(1)
        return rebuild(forest, *args, **kwargs)

    monkeypatch.setattr(RevForest, "rebuild", spy)
    recovered = recover_log(fx, vendor, log_key, path)
    recovered._journal.close()
    assert len(calls) == 1
    assert recovered_state(recovered) == recovered_state(log)


def test_recovery_reads_the_journal_once(tmp_path, monkeypatch):
    import pkisn.journal

    fx, vendor, log_key, path, log = four_updates(tmp_path)
    intact = Journal.replay(path)
    path.write_bytes(path.read_bytes() + b"\x01\x00")  # a torn tail
    scans = []
    frames = pkisn.journal._frames

    def spy(data):
        scans.append(len(data))
        return frames(data)

    monkeypatch.setattr(pkisn.journal, "_frames", spy)
    recovered = recover_log(fx, vendor, log_key, path)
    assert len(scans) == 1
    recovered.run_update()  # written after the intact frames
    recovered._journal.close()
    assert Journal.replay(path)[:-1] == intact
