import json
import os
import signal
import socket
import stat
import subprocess
import sys
import time

import pytest

from pkisn.certs import RevocationKind, SignerRole, make_revocation
from pkisn.crypto import KeyPair, KeyRole
from pkisn.monitor import FullMonitor, MinimizedTimeTree
from pkisn.service import (
    MAX_BODY_BYTES,
    HandshakeBundle,
    HttpLogClient,
    LogHTTPService,
    RemoteLogError,
    ServerSession,
    ServiceConfig,
    handshake_sim,
    load_key,
    open_log_from_config,
    save_key,
    save_public_key,
    save_trust_roots,
)
from pkisn.timetree import verify_consistency
from pkisn.validation import Reason

from helpers import T0, ChainFixture

PERIOD = 600


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@pytest.fixture
def env(tmp_path):
    fx = ChainFixture()
    vendor = KeyPair.generate(KeyRole.VENDOR)
    log_key = KeyPair.generate(KeyRole.LOG)
    save_key(tmp_path / "log.key", log_key)
    save_public_key(tmp_path / "vendor.pub", vendor.public_bytes)
    save_trust_roots(tmp_path / "roots.json", [fx.root])
    config = ServiceConfig(
        listen_address=f"127.0.0.1:{free_port()}",
        data_dir=str(tmp_path / "data"),
        scheduling_period=PERIOD,
        log_key_path=str(tmp_path / "log.key"),
        trust_roots_path=str(tmp_path / "roots.json"),
        vendor_pub_path=str(tmp_path / "vendor.pub"),
        clock="virtual",
        start_time=T0,
    )
    config.save(tmp_path / "config.json")
    return fx, vendor, log_key, config, tmp_path


def start_service(config) -> LogHTTPService:
    log = open_log_from_config(config)
    service = LogHTTPService(log, config)
    service.serve()
    return service


def test_http_round_trip(env):
    fx, vendor, log_key, config, tmp = env
    service = start_service(config)
    try:
        client = HttpLogClient(f"http://{config.listen_address}")
        cc = client.submit_chain(fx.chain)
        assert cc.verify(log_key.public_bytes)
        client.run_update()
        session = ServerSession(fx.chain, cc)
        session.refresh(client)
        verdict = handshake_sim(
            session.bundle(),
            name=fx.domain,
            now=T0 + PERIOD + 5,
            trust_roots=frozenset({fx.root.cert_hash}),
            log_pub=log_key.public_bytes,
            vendor_pub=vendor.public_bytes,
            max_root_age=2 * PERIOD,
        )
        assert verdict.success, verdict.reason
    finally:
        service.shutdown()


def test_http_error_mapping(env):
    fx, vendor, log_key, config, tmp = env
    service = start_service(config)
    try:
        client = HttpLogClient(f"http://{config.listen_address}")
        other = ChainFixture()
        with pytest.raises(RemoteLogError) as err:
            client.submit_chain(other.chain)
        assert err.value.detail["error"] == "UntrustedRoot"
    finally:
        service.shutdown()


def test_http_get_errors_raise_remote_log_error(env):
    fx, vendor, log_key, config, tmp = env
    service = start_service(config)
    try:
        client = HttpLogClient(f"http://{config.listen_address}")
        with pytest.raises(RemoteLogError) as err:
            client.latest_signed_root()  # no update has run yet
        assert err.value.status == 409 and err.value.detail["error"] == "NoUpdateYet"
        client.submit_chain(fx.chain)
        client.run_update()
        with pytest.raises(RemoteLogError) as err:
            client.get_entries(5, 10**9)
        assert err.value.status == 400
    finally:
        service.shutdown()


def test_http_revocation_monitor_and_delta(env):
    fx, vendor, log_key, config, tmp = env
    service = start_service(config)
    try:
        client = HttpLogClient(f"http://{config.listen_address}")
        client.submit_chain(fx.chain)
        client.run_update()
        rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
        out = client.submit_revocation(fx.chain, rev)
        assert "commitment" in out
        client.run_update()

        monitor = FullMonitor(frozenset({fx.root.cert_hash}), log_key.public_bytes, vendor.public_bytes)
        result = monitor.sync_from(client)
        assert result.ok and monitor.tree.size == 6

        state = MinimizedTimeTree(log_key.public_bytes)
        state.apply_delta(client.get_delta(0))
        assert state.root() == monitor.tree.root()
        assert state.revocations_for(fx.leaf.cert_hash)
    finally:
        service.shutdown()


def test_handshake_without_refresh_is_stale(env):
    fx, vendor, log_key, config, tmp = env
    log = open_log_from_config(config)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    session = ServerSession(fx.chain, cc)  # never refreshed
    verdict = handshake_sim(
        session.bundle(), fx.domain, T0 + PERIOD + 1,
        frozenset({fx.root.cert_hash}), log_key.public_bytes, vendor.public_bytes, 2 * PERIOD,
    )
    assert not verdict.success and verdict.reason == Reason.STALE_ROOT


def test_server_never_refreshed_across_periods(env):
    fx, vendor, log_key, config, tmp = env
    log = open_log_from_config(config)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    session = ServerSession(fx.chain, cc)
    session.refresh(log)
    for _ in range(3):
        log.run_update()
    verdict = handshake_sim(
        session.bundle(), fx.domain, now=log.last_update_time + 1,
        trust_roots=frozenset({fx.root.cert_hash}), log_pub=log_key.public_bytes,
        vendor_pub=vendor.public_bytes, max_root_age=2 * PERIOD,
    )
    assert verdict.reason == Reason.STALE_ROOT
    # After a refresh the same session validates again.
    session.refresh(log)
    verdict = handshake_sim(
        session.bundle(), fx.domain, now=log.last_update_time + 1,
        trust_roots=frozenset({fx.root.cert_hash}), log_pub=log_key.public_bytes,
        vendor_pub=vendor.public_bytes, max_root_age=2 * PERIOD,
    )
    assert verdict.success


def test_pending_revocation_fails_mid_period(env):
    fx, vendor, log_key, config, tmp = env
    log = open_log_from_config(config)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    session = ServerSession(fx.chain, cc)
    rev = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
    log.submit_revocation(fx.chain, rev)
    session.refresh(log)  # picks up the pending revocation
    verdict = handshake_sim(
        session.bundle(), fx.domain, now=log.last_update_time + 10,
        trust_roots=frozenset({fx.root.cert_hash}), log_pub=log_key.public_bytes,
        vendor_pub=vendor.public_bytes, max_root_age=2 * PERIOD,
    )
    assert not verdict.success and verdict.reason == Reason.LEAF_REVOKED


def test_bundle_json_round_trip(env):
    fx, vendor, log_key, config, tmp = env
    log = open_log_from_config(config)
    cc = log.submit_chain(fx.chain)
    log.run_update()
    session = ServerSession(fx.chain, cc)
    session.refresh(log)
    bundle = session.bundle()
    again = HandshakeBundle.from_json(json.loads(json.dumps(bundle.to_json())))
    assert again.cc == bundle.cc
    assert again.proof == bundle.proof
    assert again.signed_root == bundle.signed_root


def test_concurrent_submitters_identical_cc(env):
    import threading

    fx, vendor, log_key, config, tmp = env
    service = start_service(config)
    try:
        client = HttpLogClient(f"http://{config.listen_address}")
        results = []
        def go():
            results.append(client.submit_chain(fx.chain))
        threads = [threading.Thread(target=go) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)
    finally:
        service.shutdown()


def test_in_process_crash_recovery(env):
    fx, vendor, log_key, config, tmp = env
    log = open_log_from_config(config)
    cc = log.submit_chain(fx.chain)
    sr1 = log.run_update()
    size1 = log.tree.size
    del log  # "crash": all in-memory state gone

    recovered = open_log_from_config(config)
    assert recovered.latest.signed_root == sr1
    assert recovered.submit_chain(fx.chain) == cc
    recovered.run_update()
    proof = recovered.get_consistency(size1, recovered.tree.size)
    assert verify_consistency(sr1.root, recovered.latest.signed_root.root, proof)


@pytest.mark.slow
def test_subprocess_sigkill_recovery(env):
    fx, vendor, log_key, config, tmp = env

    def spawn():
        proc = subprocess.Popen(
            [sys.executable, "-m", "pkisn.cli", "--config", str(tmp / "config.json"), "serve"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        deadline = time.time() + 10
        url = f"http://{config.listen_address}"
        client = HttpLogClient(url)
        while time.time() < deadline:
            try:
                client._get("/v1/entries?from=0")
                return proc, client
            except Exception:
                time.sleep(0.05)
        proc.kill()
        raise RuntimeError("service did not come up")

    proc, client = spawn()
    try:
        cc = client.submit_chain(fx.chain)
        sr1 = client.run_update(T0 + PERIOD)
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()

    proc, client = spawn()
    try:
        assert client.latest_signed_root() == sr1
        assert client.submit_chain(fx.chain) == cc  # commitments survived
        sr2 = client.run_update(T0 + 2 * PERIOD)
        proof = client.get_consistency(4, 5)
        assert verify_consistency(sr1.root, sr2.root, proof)
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()


def raw_post(address: str, headers: bytes, body: bytes = b"") -> tuple[int, dict]:
    """POST /v1/submit-chain with hand-written headers; the status and JSON answer."""
    host, port = address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as s:
        s.sendall(b"POST /v1/submit-chain HTTP/1.1\r\nHost: " + host.encode() + b"\r\n" + headers + b"\r\n" + body)
        data = b""
        while chunk := s.recv(65536):
            data += chunk
    head, _, payload = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(payload)


def test_malformed_request_bodies_get_a_typed_answer(env):
    fx, vendor, log_key, config, tmp = env
    service = start_service(config)
    try:
        status, err = raw_post(config.listen_address, b"Content-Length: 9\r\n", b"{not json")
        assert (status, err["error"]) == (400, "JSONDecodeError")
        for header in [b"", b"Content-Length: -1\r\n", b"Content-Length: ten\r\n"]:
            status, err = raw_post(config.listen_address, header)
            assert (status, err["error"]) == (400, "MalformedRequest"), header
        # Above the cap the answer comes without the body being read.
        status, err = raw_post(config.listen_address, b"Content-Length: %d\r\n" % (MAX_BODY_BYTES + 1))
        assert (status, err["error"]) == (413, "RequestTooLarge")
        cc = HttpLogClient(f"http://{config.listen_address}").submit_chain(fx.chain)
        assert cc.verify(log_key.public_bytes)
    finally:
        service.shutdown()


def test_full_queue_refuses_a_new_revocation_with_409(env):
    fx, vendor, log_key, config, tmp = env
    log = open_log_from_config(config)
    service = LogHTTPService(log, config)
    service.serve()
    try:
        client = HttpLogClient(f"http://{config.listen_address}")
        client.submit_chain(fx.chain)
        client.run_update()
        log.config.max_pending = 1
        own = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY)
        by_vendor = make_revocation(RevocationKind.LEAF_REVOKE, fx.leaf, vendor, SignerRole.VENDOR)
        first = client.submit_revocation(fx.chain, own)
        with pytest.raises(RemoteLogError) as err:
            client.submit_revocation(fx.chain, by_vendor)
        assert (err.value.status, err.value.detail["error"]) == (409, "QueueFull")
        assert client.submit_revocation(fx.chain, own) == first
    finally:
        service.shutdown()


def test_private_key_files_are_owner_only(tmp_path):
    key = KeyPair.generate(KeyRole.LOG)
    stale = tmp_path / "stale.key"
    stale.write_text("{}\n")
    stale.chmod(0o644)
    umask = os.umask(0o022)
    try:
        save_key(tmp_path / "fresh.key", key)
        save_key(stale, key)
        save_public_key(tmp_path / "log.pub", key.public_bytes)
    finally:
        os.umask(umask)

    def mode(name):
        return stat.S_IMODE((tmp_path / name).stat().st_mode)

    assert (mode("fresh.key"), mode("stale.key"), mode("log.pub")) == (0o600, 0o600, 0o644)
    assert load_key(stale).seed == key.seed
