from itertools import accumulate

from pkisn.certs import CertChain, RevocationKind, SignerRole, make_revocation
from pkisn.crypto import TAG_SIGNED_ROOT, KeyPair, KeyRole, hash_leaf
from pkisn.journal import Journal
from pkisn.log import LogConfig, LogServer
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
