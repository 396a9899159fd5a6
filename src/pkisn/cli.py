"""Operator command line: key and certificate management, log operations,
monitors, vendor bundles, scenario replay, and benchmarks.

Most commands work against a local data directory described by a config
file (--config or the PKISN_CONFIG environment variable); submission and
query commands accept --url to talk to a running service instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .bench import run_bench
from .certs import RevocationKind, SignerRole, make_certificate, make_revocation
from .crypto import KeyPair, KeyRole
from .monitor import (
    FullMonitor,
    MinimizedTimeTree,
    DeltaUpdate,
    load_full_monitor,
    load_minimized,
    save_full_monitor,
    save_minimized,
)
from .scenario import BUNDLED, load_script, run_scenario
from .service import (
    HandshakeBundle,
    HttpLogClient,
    ServiceConfig,
    handshake_sim,
    load_chain,
    load_key,
    load_public_key,
    load_trust_roots,
    open_log_from_config,
    save_cert,
    save_key,
    save_public_key,
    serve,
)
from .tcrl import Tcrl, build_tcrl, verify_tcrl

ROLE_CHOICES = {
    "ca": KeyRole.STANDARD_CA,
    "leaf": KeyRole.STANDARD_LEAF,
    "revocation": KeyRole.REVOCATION,
    "vendor": KeyRole.VENDOR,
    "log": KeyRole.LOG,
}

SIGNER_CHOICES = {
    "own": SignerRole.OWN_KEY,
    "parent": SignerRole.PARENT_CA,
    "rk": SignerRole.REVOCATION_KEY,
    "vendor": SignerRole.VENDOR,
}


def _config(args) -> ServiceConfig:
    path = args.config or os.environ.get("PKISN_CONFIG")
    if not path:
        sys.exit("no config: pass --config or set PKISN_CONFIG")
    return ServiceConfig.load(path)


def _log_or_client(args):
    if getattr(args, "url", None):
        return HttpLogClient(args.url), None
    config = _config(args)
    log = open_log_from_config(config)
    return log, config


def _print(obj) -> None:
    print(json.dumps(obj, indent=2))


# -- commands -------------------------------------------------------------------

def cmd_keygen(args):
    key = KeyPair.generate(ROLE_CHOICES[args.role])
    save_key(args.out, key)
    if args.pub_out:
        save_public_key(args.pub_out, key.public_bytes)
    _print({"out": args.out, "role": args.role, "key_id": key.key_id.hex})


def cmd_ca_init(args):
    key = load_key(args.key)
    rk = load_key(args.rk)
    cert = make_certificate(
        serial=args.serial,
        subject_name=args.subject,
        subject_public_key=key.public_bytes,
        is_ca=True,
        not_before=args.not_before,
        not_after=args.not_after,
        issuer_key=key,
        revocation_public_key=rk.public_bytes,
    )
    save_cert(args.out, cert)
    _print({"out": args.out, "cert_hash": cert.cert_hash.hex})


def cmd_ca_issue(args):
    issuer_key = load_key(args.issuer_key)
    subject_key = load_key(args.key)
    rk = load_key(args.rk) if args.rk else None
    if args.ca and rk is None:
        sys.exit("issuing a CA certificate requires --rk")
    cert = make_certificate(
        serial=args.serial,
        subject_name=args.subject,
        subject_public_key=subject_key.public_bytes,
        is_ca=args.ca,
        not_before=args.not_before,
        not_after=args.not_after,
        issuer_key=issuer_key,
        revocation_public_key=rk.public_bytes if rk else None,
    )
    save_cert(args.out, cert)
    _print({"out": args.out, "cert_hash": cert.cert_hash.hex, "ca": args.ca})


def cmd_submit(args):
    chain = load_chain(args.chain)
    target, _ = _log_or_client(args)
    cc = target.submit_chain(chain)
    _print({"cc": cc.to_json()})


def cmd_revoke(args):
    chain = load_chain(args.chain)
    target_cert = chain.certs[-1]
    signer = load_key(args.signer_key)
    rev = make_revocation(
        kind=RevocationKind.LEAF_REVOKE if args.kind == "leaf" else RevocationKind.CA_REVOKE_FROM,
        target=target_cert,
        signer_key=signer,
        signer_role=SIGNER_CHOICES[args.role],
        rev_timestamp=args.rev_timestamp,
        signer_depth=args.depth,
    )
    target, _ = _log_or_client(args)
    out = target.submit_revocation(chain, rev)
    body = out if isinstance(out, dict) else {"commitment": out.to_json()}
    _print(body)


def cmd_proof(args):
    chain = load_chain(args.chain)
    target, _ = _log_or_client(args)
    cc = target.submit_chain(chain)  # idempotent; returns historical times
    from .service import ServerSession

    session = ServerSession(chain, cc)
    session.refresh(target)
    bundle = session.bundle()
    Path(args.out).write_text(json.dumps(bundle.to_json(), indent=2) + "\n")
    _print({"out": args.out, "tree_size": bundle.proof.root_entry_proof.tree_size})


def cmd_validate(args):
    bundle = HandshakeBundle.from_json(json.loads(Path(args.bundle).read_text()))
    trust_roots, _ = load_trust_roots(args.trust_roots)
    result = handshake_sim(
        bundle,
        name=args.name,
        now=args.now if args.now is not None else int(time.time()),
        trust_roots=trust_roots,
        log_pub=load_public_key(args.log_pub),
        vendor_pub=load_public_key(args.vendor_pub),
        max_root_age=args.max_root_age,
    )
    _print(result.to_json())
    sys.exit(0 if result.success else 1)


def cmd_update(args):
    target, _ = _log_or_client(args)
    _print({"signed_root": target.run_update(args.now).to_json()})


def cmd_monitor_sync(args):
    client = HttpLogClient(args.url)
    trust_roots, _ = load_trust_roots(args.trust_roots)
    log_pub = load_public_key(args.log_pub)
    vendor_pub = load_public_key(args.vendor_pub)
    state_dir = Path(args.state)
    if (state_dir / "entries.bin").exists():
        monitor = load_full_monitor(state_dir, trust_roots, log_pub, vendor_pub)
    else:
        monitor = FullMonitor(trust_roots, log_pub, vendor_pub)
    result = monitor.sync_from(client)
    save_full_monitor(state_dir, monitor)
    _print(
        {
            "ok": result.ok,
            "size": result.new_size,
            "root": monitor.tree.root().hex,
            "reports": [r.to_json() for r in result.reports],
        }
    )
    sys.exit(0 if result.ok else 2)


def cmd_monitor_check_root(args):
    trust_roots, _ = load_trust_roots(args.trust_roots)
    log_pub = load_public_key(args.log_pub)
    vendor_pub = load_public_key(args.vendor_pub)
    monitor = load_full_monitor(Path(args.state), trust_roots, log_pub, vendor_pub)
    from .log import SignedRoot

    client_root = SignedRoot.from_json(json.loads(Path(args.root).read_text()))
    verdict, report = monitor.check_root(client_root)
    _print({"verdict": verdict, "report": report.to_json() if report else None})
    sys.exit(0 if verdict == "consistent" else 2)


def cmd_monitor_delta_apply(args):
    log_pub = load_public_key(args.log_pub)
    state_path = Path(args.state)
    state = load_minimized(state_path, log_pub) if state_path.exists() else MinimizedTimeTree(log_pub)
    if args.delta:
        delta = DeltaUpdate.from_json(json.loads(Path(args.delta).read_text()))
    else:
        client = HttpLogClient(args.url)
        delta = client.get_delta(state.size, args.now)
    state.apply_delta(delta)
    save_minimized(state_path, state)
    _print({"size": state.size, "root": state.root().hex, "storage_bytes": state.storage_bytes()})


def cmd_tcrl_build(args):
    config = _config(args)
    log = open_log_from_config(config)
    vendor_key = load_key(args.vendor_key)
    now = args.now if args.now is not None else log.last_update_time
    tcrl = build_tcrl(log, vendor_key, now=now, version=args.version)
    if args.commit:
        from .tcrl import commit_tcrl

        tcrl = commit_tcrl(log, tcrl)
    Path(args.out).write_text(tcrl.dump() + "\n")
    _print({"out": args.out, "entries": len(tcrl.entries), "version": tcrl.version})


def cmd_tcrl_verify(args):
    tcrl = Tcrl.load(Path(args.tcrl).read_text())
    ok = verify_tcrl(
        tcrl,
        vendor_pub=load_public_key(args.vendor_pub),
        log_pub=load_public_key(args.log_pub),
        require_inclusion=args.require_inclusion,
    )
    _print({"ok": ok, "entries": len(tcrl.entries)})
    sys.exit(0 if ok else 1)


def cmd_scenario_run(args):
    if args.script in BUNDLED:
        script = BUNDLED[args.script]()
    else:
        script = load_script(args.script)
    report = run_scenario(script)
    _print(report.to_json())
    sys.exit(0 if report.passed else 1)


def cmd_bench(args):
    report = run_bench(
        registration_chains=args.registrations,
        update_chains=args.update_chains,
        validations=args.validations,
    )
    _print(report.to_json())


def cmd_serve(args):
    config = _config(args)
    service = serve(config)
    addr = service.config.listen_address
    print(f"log service on {addr} (data: {config.data_dir})", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        service.shutdown()


# -- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pkisn", description=__doc__)
    p.add_argument("--config", help="service config file (or set PKISN_CONFIG)")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("keygen", help="generate a keypair")
    sp.add_argument("--role", choices=ROLE_CHOICES, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--pub-out", help="also write the bare public key")
    sp.set_defaults(fn=cmd_keygen)

    ca = sub.add_parser("ca", help="certificate authority operations").add_subparsers(
        dest="ca_cmd", required=True
    )
    sp = ca.add_parser("init", help="create a self-signed root certificate")
    sp.add_argument("--key", required=True)
    sp.add_argument("--rk", required=True, help="revocation keypair file")
    sp.add_argument("--subject", required=True)
    sp.add_argument("--serial", type=int, required=True)
    sp.add_argument("--not-before", type=int, required=True)
    sp.add_argument("--not-after", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_ca_init)
    sp = ca.add_parser("issue", help="issue a certificate")
    sp.add_argument("--issuer-key", required=True)
    sp.add_argument("--key", required=True, help="subject keypair file")
    sp.add_argument("--rk", help="revocation keypair file (CA certificates)")
    sp.add_argument("--ca", action="store_true")
    sp.add_argument("--subject", required=True)
    sp.add_argument("--serial", type=int, required=True)
    sp.add_argument("--not-before", type=int, required=True)
    sp.add_argument("--not-after", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_ca_issue)

    sp = sub.add_parser("submit", help="submit a certificate chain")
    sp.add_argument("--chain", nargs="+", required=True, help="cert files, root first")
    sp.add_argument("--url")
    sp.set_defaults(fn=cmd_submit)

    sp = sub.add_parser("revoke", help="create and submit a revocation")
    sp.add_argument("--chain", nargs="+", required=True, help="chain ending at the target")
    sp.add_argument("--kind", choices=["leaf", "ca"], required=True)
    sp.add_argument("--role", choices=SIGNER_CHOICES, required=True)
    sp.add_argument("--signer-key", required=True)
    sp.add_argument("--rev-timestamp", type=int)
    sp.add_argument("--depth", type=int, default=0)
    sp.add_argument("--url")
    sp.set_defaults(fn=cmd_revoke)

    sp = sub.add_parser("proof", help="fetch a presence proof bundle")
    sp.add_argument("--chain", nargs="+", required=True)
    sp.add_argument("--url")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_proof)

    sp = sub.add_parser("validate", help="run complete validation on a bundle")
    sp.add_argument("--bundle", required=True)
    sp.add_argument("--name", required=True)
    sp.add_argument("--now", type=int)
    sp.add_argument("--trust-roots", required=True)
    sp.add_argument("--log-pub", required=True)
    sp.add_argument("--vendor-pub", required=True)
    sp.add_argument("--max-root-age", type=int, default=7200)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("update", help="run one scheduled update")
    sp.add_argument("--now", type=int)
    sp.add_argument("--url")
    sp.set_defaults(fn=cmd_update)

    mon = sub.add_parser("monitor", help="monitor operations").add_subparsers(
        dest="mon_cmd", required=True
    )
    sp = mon.add_parser("sync", help="full replica sync and verification")
    sp.add_argument("--url", required=True)
    sp.add_argument("--state", required=True)
    sp.add_argument("--trust-roots", required=True)
    sp.add_argument("--log-pub", required=True)
    sp.add_argument("--vendor-pub", required=True)
    sp.set_defaults(fn=cmd_monitor_sync)
    sp = mon.add_parser("check-root", help="compare a client root with the replica")
    sp.add_argument("--state", required=True)
    sp.add_argument("--root", required=True, help="signed root JSON file")
    sp.add_argument("--trust-roots", required=True)
    sp.add_argument("--log-pub", required=True)
    sp.add_argument("--vendor-pub", required=True)
    sp.set_defaults(fn=cmd_monitor_check_root)
    sp = mon.add_parser("delta-apply", help="extend a minimized view by one delta")
    sp.add_argument("--state", required=True)
    sp.add_argument("--log-pub", required=True)
    sp.add_argument("--delta", help="delta JSON file; otherwise fetch from --url")
    sp.add_argument("--url")
    sp.add_argument("--now", type=int)
    sp.set_defaults(fn=cmd_monitor_delta_apply)

    tc = sub.add_parser("tcrl", help="vendor revocation bundles").add_subparsers(
        dest="tcrl_cmd", required=True
    )
    sp = tc.add_parser("build", help="build (and optionally commit) a bundle")
    sp.add_argument("--vendor-key", required=True)
    sp.add_argument("--now", type=int)
    sp.add_argument("--version", type=int, default=1)
    sp.add_argument("--commit", action="store_true")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_tcrl_build)
    sp = tc.add_parser("verify", help="verify a bundle")
    sp.add_argument("--tcrl", required=True)
    sp.add_argument("--vendor-pub", required=True)
    sp.add_argument("--log-pub", required=True)
    sp.add_argument("--require-inclusion", action="store_true")
    sp.set_defaults(fn=cmd_tcrl_verify)

    sc = sub.add_parser("scenario", help="deterministic timeline replay").add_subparsers(
        dest="sc_cmd", required=True
    )
    sp = sc.add_parser("run", help="run a script file or a bundled scenario name")
    sp.add_argument("script", help=f"path or one of: {', '.join(sorted(BUNDLED))}")
    sp.set_defaults(fn=cmd_scenario_run)

    sp = sub.add_parser("bench", help="throughput and latency report")
    sp.add_argument("--registrations", type=int, default=2000)
    sp.add_argument("--update-chains", type=int, default=10_000)
    sp.add_argument("--validations", type=int, default=500)
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("serve", help="run the HTTP log service")
    sp.set_defaults(fn=cmd_serve)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
