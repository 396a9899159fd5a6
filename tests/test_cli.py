"""End-to-end exercise of the operator CLI against a temp data directory."""

import json
import subprocess
import sys

import pytest

from helpers import T0

PERIOD = 600


def run_cli(args, env=None, expect_rc=0):
    proc = subprocess.run(
        [sys.executable, "-m", "pkisn.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == expect_rc, proc.stdout + proc.stderr
    return json.loads(proc.stdout) if proc.stdout.strip().startswith("{") else proc.stdout


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")

    def cli(*args, expect_rc=0):
        return run_cli([*args], expect_rc=expect_rc)

    # Keys for every role.
    for name, role in [
        ("root", "ca"), ("inter", "ca"), ("leaf", "leaf"),
        ("root_rk", "revocation"), ("inter_rk", "revocation"),
    ]:
        cli("keygen", "--role", role, "--out", str(tmp / f"{name}.key"))
    cli("keygen", "--role", "vendor", "--out", str(tmp / "vendor.key"),
        "--pub-out", str(tmp / "vendor.pub"))
    cli("keygen", "--role", "log", "--out", str(tmp / "log.key"),
        "--pub-out", str(tmp / "log.pub"))

    # Certificates.
    nb, na = T0 - 1000, T0 + 10 * 365 * 86400
    cli("ca", "init", "--key", str(tmp / "root.key"), "--rk", str(tmp / "root_rk.key"),
        "--subject", "CLI Root CA", "--serial", "1",
        "--not-before", str(nb), "--not-after", str(na), "--out", str(tmp / "root.crt"))
    cli("ca", "issue", "--issuer-key", str(tmp / "root.key"), "--key", str(tmp / "inter.key"),
        "--rk", str(tmp / "inter_rk.key"), "--ca", "--subject", "CLI Intermediate",
        "--serial", "2", "--not-before", str(nb), "--not-after", str(na),
        "--out", str(tmp / "inter.crt"))
    cli("ca", "issue", "--issuer-key", str(tmp / "inter.key"), "--key", str(tmp / "leaf.key"),
        "--subject", "cli.example.com", "--serial", "3",
        "--not-before", str(nb), "--not-after", str(na), "--out", str(tmp / "leaf.crt"))

    # Trust roots file.
    from pkisn.service import load_cert, save_trust_roots

    save_trust_roots(tmp / "roots.json", [load_cert(tmp / "root.crt")])

    config = {
        "listen_address": "127.0.0.1:0",
        "data_dir": str(tmp / "data"),
        "scheduling_period": PERIOD,
        "log_key_path": str(tmp / "log.key"),
        "trust_roots_path": str(tmp / "roots.json"),
        "vendor_pub_path": str(tmp / "vendor.pub"),
        "clock": "virtual",
        "start_time": T0,
    }
    (tmp / "config.json").write_text(json.dumps(config))
    return tmp


def cfg_args(tmp):
    return ["--config", str(tmp / "config.json")]


def chain_args(tmp):
    return [str(tmp / "root.crt"), str(tmp / "inter.crt"), str(tmp / "leaf.crt")]


def test_submit_update_proof_validate(workspace):
    tmp = workspace
    out = run_cli([*cfg_args(tmp), "submit", "--chain", *chain_args(tmp)])
    assert out["cc"]["timestamps"] == [T0 + PERIOD] * 3
    run_cli([*cfg_args(tmp), "update"])
    run_cli([*cfg_args(tmp), "proof", "--chain", *chain_args(tmp),
             "--out", str(tmp / "bundle.json")])
    verdict = run_cli([
        "validate", "--bundle", str(tmp / "bundle.json"), "--name", "cli.example.com",
        "--now", str(T0 + PERIOD + 30), "--trust-roots", str(tmp / "roots.json"),
        "--log-pub", str(tmp / "log.pub"), "--vendor-pub", str(tmp / "vendor.pub"),
        "--max-root-age", str(2 * PERIOD),
    ])
    assert verdict["decision"] == "SUCCESS"


def test_revoke_then_validation_fails(workspace):
    tmp = workspace
    run_cli([*cfg_args(tmp), "revoke", "--chain", *chain_args(tmp), "--kind", "leaf",
             "--role", "own", "--signer-key", str(tmp / "leaf.key")])
    run_cli([*cfg_args(tmp), "update"])
    run_cli([*cfg_args(tmp), "proof", "--chain", *chain_args(tmp),
             "--out", str(tmp / "bundle2.json")])
    verdict = run_cli([
        "validate", "--bundle", str(tmp / "bundle2.json"), "--name", "cli.example.com",
        "--now", str(T0 + 2 * PERIOD + 30), "--trust-roots", str(tmp / "roots.json"),
        "--log-pub", str(tmp / "log.pub"), "--vendor-pub", str(tmp / "vendor.pub"),
        "--max-root-age", str(2 * PERIOD),
    ], expect_rc=1)
    assert verdict["decision"] == "FAIL"
    assert verdict["reason"] == "LeafRevoked"


def test_tcrl_build_and_verify(workspace):
    tmp = workspace
    out = run_cli([*cfg_args(tmp), "tcrl", "build", "--vendor-key", str(tmp / "vendor.key"),
                   "--commit", "--out", str(tmp / "bundle.tcrl")])
    assert out["entries"] == 1
    run_cli(["tcrl", "verify", "--tcrl", str(tmp / "bundle.tcrl"),
             "--vendor-pub", str(tmp / "vendor.pub"), "--log-pub", str(tmp / "log.pub")])


def test_scenario_run_bundled(workspace):
    out = run_cli(["scenario", "run", "compromised_root_recovery"])
    assert out["passed"] is True


def test_scenario_run_from_file(workspace, tmp_path):
    from pkisn.scenario import revocation_spike

    path = tmp_path / "spike.json"
    path.write_text(json.dumps(revocation_spike(n_sites=6, n_revoked=2)))
    out = run_cli(["scenario", "run", str(path)])
    assert out["passed"] is True


def test_monitor_sync_and_delta_apply(workspace):
    tmp = workspace
    # Serve over HTTP for the monitor commands.
    import socket as s

    with s.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    config = json.loads((tmp / "config.json").read_text())
    config["listen_address"] = f"127.0.0.1:{port}"
    (tmp / "config_http.json").write_text(json.dumps(config))

    proc = subprocess.Popen(
        [sys.executable, "-m", "pkisn.cli", "--config", str(tmp / "config_http.json"), "serve"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    import time
    import urllib.request

    try:
        url = f"http://127.0.0.1:{port}"
        deadline = time.time() + 10
        while time.time() < deadline:
            try:
                urllib.request.urlopen(url + "/v1/entries?from=0")
                break
            except Exception:
                time.sleep(0.05)
        out = run_cli(["monitor", "sync", "--url", url, "--state", str(tmp / "monitor"),
                       "--trust-roots", str(tmp / "roots.json"),
                       "--log-pub", str(tmp / "log.pub"), "--vendor-pub", str(tmp / "vendor.pub")])
        assert out["ok"] is True and out["size"] > 0
        out2 = run_cli(["monitor", "delta-apply", "--state", str(tmp / "light.json"),
                        "--log-pub", str(tmp / "log.pub"), "--url", url])
        assert out2["root"] == out["root"]
        # Root check against the live service's current root.
        root_json = json.loads(urllib.request.urlopen(url + "/v1/root").read())["signed_root"]
        (tmp / "client_root.json").write_text(json.dumps(root_json))
        out3 = run_cli(["monitor", "check-root", "--state", str(tmp / "monitor"),
                        "--root", str(tmp / "client_root.json"),
                        "--trust-roots", str(tmp / "roots.json"),
                        "--log-pub", str(tmp / "log.pub"), "--vendor-pub", str(tmp / "vendor.pub")])
        assert out3["verdict"] == "consistent"
    finally:
        proc.kill()
        proc.wait()


def test_bench_smoke(workspace):
    out = run_cli(["bench", "--registrations", "50", "--update-chains", "60", "--validations", "20"])
    assert out["registrations_per_second"] > 0
    assert out["update_seconds"] >= 0
    assert out["validation_ms_mean"] > 0
    assert out["log_bytes_per_leaf"] > 0


def test_bench_log_bytes_per_leaf_stays_bounded(workspace):
    # 1,734 B per leaf when a hash was a dataclass around bytes and each
    # certificate cached its tbs_bytes; 1,333 B with Digest a bytes subclass.
    out = run_cli(["bench", "--registrations", "2000", "--update-chains", "10", "--validations", "5"])
    assert out["registration_count"] == 2000
    assert 0 < out["log_bytes_per_leaf"] < 1_500


def test_second_monitor_sync_resumes_from_saved_state(workspace):
    # The second sync loads the replica the first one saved, re-verifies it,
    # and extends it with the update made in between.
    tmp = workspace
    import socket
    import time
    import urllib.request

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    config = json.loads((tmp / "config.json").read_text())
    config["listen_address"] = f"127.0.0.1:{port}"
    (tmp / "config_resync.json").write_text(json.dumps(config))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pkisn.cli", "--config", str(tmp / "config_resync.json"), "serve"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    url = f"http://127.0.0.1:{port}"
    sync = ["monitor", "sync", "--url", url, "--state", str(tmp / "resync"),
            "--trust-roots", str(tmp / "roots.json"),
            "--log-pub", str(tmp / "log.pub"), "--vendor-pub", str(tmp / "vendor.pub")]
    try:
        deadline = time.time() + 10
        while time.time() < deadline:
            try:
                urllib.request.urlopen(url + "/v1/entries?from=0")
                break
            except Exception:
                time.sleep(0.05)
        first = run_cli(sync)
        assert first["ok"] is True and first["size"] > 0
        run_cli(["update", "--url", url])
        second = run_cli(sync)
        assert second["ok"] is True and second["size"] > first["size"]
        assert run_cli(sync)["size"] == second["size"]
    finally:
        proc.kill()
        proc.wait()
