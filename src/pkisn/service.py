"""Networked log service and the simulated certificate-status exchange.

The wire protocol is JSON over HTTP for inspectability: hashes travel as
lowercase hex, byte blobs as base64. A server-side session models the host
that periodically refreshes its proof from the log and staples everything a
client needs (chain, commitment, proof, signed root, pending revocations)
into a single handshake message.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from .certs import CertChain, Certificate, decode_certificate, decode_revocation
from .crypto import Digest, KeyPair, KeyRole
from .log import (
    ChainCommitment,
    LogConfig,
    LogError,
    LogServer,
    PendingRevocation,
    SignedRoot,
    UnknownLeaf,
)
from .monitor import DeltaUpdate, build_delta
from .revtree import ChainPresenceProof, chain_id_hashes
from .tcrl import Tcrl, commit_tcrl
from .timetree import ConsistencyProof, TimeTreeEntry, entry_from_json, entry_to_json
from .validation import Reason, ValidationInput, ValidationResult, is_valid
from .wire import b64d, b64e


# -- file formats -------------------------------------------------------------

def save_key(path: str | Path, key: KeyPair) -> None:
    """Write a private key that only its owner can read: the file is
    created with mode 0600, and an existing file is narrowed before the seed
    is written."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with open(fd, "w") as f:
        os.fchmod(fd, 0o600)  # os.open leaves an existing file's mode as it was
        f.write(json.dumps({"role": key.role.value, "seed": b64e(key.seed)}) + "\n")


def load_key(path: str | Path) -> KeyPair:
    obj = json.loads(Path(path).read_text())
    return KeyPair(role=KeyRole(obj["role"]), seed=b64d(obj["seed"]))


def save_cert(path: str | Path, cert: Certificate) -> None:
    Path(path).write_bytes(cert.canonical_bytes)


def load_cert(path: str | Path) -> Certificate:
    return decode_certificate(Path(path).read_bytes())


def load_chain(paths: list[str]) -> CertChain:
    return CertChain(tuple(load_cert(p) for p in paths))


def save_trust_roots(path: str | Path, roots: list[Certificate]) -> None:
    Path(path).write_text(json.dumps([b64e(c.canonical_bytes) for c in roots]) + "\n")


def load_trust_roots(path: str | Path) -> tuple[frozenset[Digest], list[Certificate]]:
    certs = [decode_certificate(b64d(b)) for b in json.loads(Path(path).read_text())]
    return frozenset(c.cert_hash for c in certs), certs


def chain_to_json(chain: CertChain) -> list[str]:
    return [b64e(c.canonical_bytes) for c in chain.certs]


def chain_from_json(items: list[str]) -> CertChain:
    return CertChain(tuple(decode_certificate(b64d(b)) for b in items))


@dataclass
class ServiceConfig:
    listen_address: str
    data_dir: str
    scheduling_period: int
    log_key_path: str
    trust_roots_path: str
    vendor_pub_path: str
    max_root_age: int = 0  # 0 -> 2 * scheduling_period
    clock: str = "wall"  # "wall" or "virtual"
    start_time: int | None = None

    def __post_init__(self):
        if self.max_root_age == 0:
            self.max_root_age = 2 * self.scheduling_period

    @classmethod
    def load(cls, path: str | Path) -> "ServiceConfig":
        return cls(**json.loads(Path(path).read_text()))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.__dict__, indent=2) + "\n")


def open_log_from_config(config: ServiceConfig) -> LogServer:
    """Recover (or start) the log described by a service config."""
    data_dir = Path(config.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    log_key = load_key(config.log_key_path)
    trust_roots, _ = load_trust_roots(config.trust_roots_path)
    log_config = LogConfig(
        scheduling_period=config.scheduling_period,
        trust_roots=trust_roots,
        vendor_public_key=load_public_key(config.vendor_pub_path),
    )
    start = config.start_time if config.start_time is not None else int(time.time())
    return LogServer.recover(log_config, log_key, start_time=start, journal_path=data_dir / "journal.bin")


def save_public_key(path: str | Path, public_bytes: bytes) -> None:
    Path(path).write_text(json.dumps({"public": b64e(public_bytes)}) + "\n")


def load_public_key(path: str | Path) -> bytes:
    return b64d(json.loads(Path(path).read_text())["public"])


# -- HTTP service --------------------------------------------------------------

MAX_BODY_BYTES = 16 << 20  # a request body above this answers 413 unread


class MalformedRequest(Exception):
    """A request the service cannot read: answered 400."""


class RequestTooLarge(Exception):
    """A request body above MAX_BODY_BYTES: answered 413."""


class LogHTTPService:
    """Thin JSON facade over a LogServer; one lock serializes every request's
    work on the log, reads included."""

    def __init__(self, log: LogServer, config: ServiceConfig):
        self.log = log
        self.config = config
        self.lock = threading.Lock()
        self._server: ThreadingHTTPServer | None = None
        self._update_thread: threading.Thread | None = None
        self._stop = threading.Event()

    # request handlers, dispatched by (method, path) ------------------------

    def handle(self, method: str, path: str, query: dict, body: dict | None):
        if method == "POST" and path == "/v1/submit-chain":
            chain = chain_from_json(body["chain"])
            with self.lock:
                cc = self.log.submit_chain(chain)
            return {"cc": cc.to_json()}
        if method == "POST" and path == "/v1/submit-revocation":
            chain = chain_from_json(body["chain"])
            rev = decode_revocation(b64d(body["revocation"]))
            with self.lock:
                commitment = self.log.submit_revocation(chain, rev)
            return {"commitment": commitment.to_json()}
        if method == "POST" and path == "/v1/proof":
            query_hashes = [Digest.from_hex(h) for h in body["id_hashes"]]
            with self.lock:
                proof, signed_root, pending = self.log.get_proof(query_hashes)
            return {
                "proof": proof.to_json(),
                "signed_root": signed_root.to_json(),
                "pending": [p.to_json() for p in pending],
            }
        if method == "GET" and path == "/v1/root":
            with self.lock:
                return {"signed_root": self.log.latest.signed_root.to_json()}
        if method == "GET" and path == "/v1/consistency":
            old = int(query["old"][0])
            new = int(query["new"][0])
            with self.lock:
                proof = self.log.get_consistency(old, new)
            return {"proof": proof.to_json()}
        if method == "GET" and path == "/v1/delta":
            start = int(query["from"][0])
            now = int(query.get("now", [self.log.last_update_time])[0])
            with self.lock:
                delta = build_delta(self.log, start, now)
            return {"delta": delta.to_json()}
        if method == "POST" and path == "/v1/tcrl":
            tcrl = Tcrl.from_json(body["tcrl"])
            with self.lock:
                committed = commit_tcrl(self.log, tcrl)
            return {"commitment": committed.log_commitment.to_json()}
        if method == "GET" and path == "/v1/entries":
            start = int(query["from"][0])
            end = int(query["to"][0]) if "to" in query else None
            with self.lock:
                entries = self.log.get_entries(start, end)
            return {"entries": [entry_to_json(e) for e in entries]}
        if method == "POST" and path == "/v1/update":
            now = body.get("now") if body else None
            with self.lock:
                signed = self.log.run_update(now)
            return {"signed_root": signed.to_json()}
        raise FileNotFoundError(path)

    # plumbing ---------------------------------------------------------------

    def serve(self) -> str:
        """Start listening; returns the bound address."""
        host, port = self.config.listen_address.rsplit(":", 1)
        service = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _read_body(self):
                text = self.headers.get("Content-Length")
                try:
                    length = int(text)
                except (TypeError, ValueError):
                    raise MalformedRequest(f"Content-Length must be a number, got {text!r}") from None
                if length < 0:
                    raise MalformedRequest(f"negative Content-Length {length}")
                if length > MAX_BODY_BYTES:
                    raise RequestTooLarge(f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
                return json.loads(self.rfile.read(length) or b"{}")

            def _run(self, method):
                parsed = urlparse(self.path)
                try:
                    body = self._read_body() if method == "POST" else None
                    out = service.handle(method, parsed.path, parse_qs(parsed.query), body)
                    payload = json.dumps(out).encode()
                    self.send_response(200)
                except UnknownLeaf as e:
                    payload = json.dumps(
                        {
                            "error": "UnknownLeaf",
                            "level": e.level,
                            "absence": e.absence.to_json(),
                            "signed_root": e.signed_root.to_json(),
                        }
                    ).encode()
                    self.send_response(404)
                except FileNotFoundError:
                    payload = json.dumps({"error": "NotFound"}).encode()
                    self.send_response(404)
                except RequestTooLarge as e:  # the body is left unread; HTTP/1.0 closes the connection
                    payload = json.dumps({"error": type(e).__name__, "message": str(e)}).encode()
                    self.send_response(413)
                except LogError as e:
                    payload = json.dumps({"error": type(e).__name__, "message": str(e)}).encode()
                    self.send_response(409)
                except Exception as e:  # malformed input and the like
                    payload = json.dumps({"error": type(e).__name__, "message": str(e)}).encode()
                    self.send_response(400)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self):
                self._run("GET")

            def do_POST(self):
                self._run("POST")

        self._server = ThreadingHTTPServer((host, int(port)), Handler)
        threading.Thread(target=self._server.serve_forever, daemon=True).start()
        if self.config.clock == "wall":
            self._update_thread = threading.Thread(target=self._update_loop, daemon=True)
            self._update_thread.start()
        return f"{host}:{self._server.server_address[1]}"

    def _update_loop(self):
        while not self._stop.is_set():
            due = self.log.next_update_time()
            now = int(time.time())
            if now >= due:
                with self.lock:
                    self.log.run_update(due)
                continue
            self._stop.wait(min(1.0, due - now))

    def shutdown(self):
        self._stop.set()
        if self._server:
            self._server.shutdown()


def serve(config: ServiceConfig) -> LogHTTPService:
    log = open_log_from_config(config)
    service = LogHTTPService(log, config)
    service.serve()
    return service


class HttpLogClient:
    """Client mirroring the LogServer query surface over the wire."""

    def __init__(self, base_url: str):
        self.base = base_url.rstrip("/")

    def _get(self, path: str) -> dict:
        return self._open(self.base + path)

    def _post(self, path: str, body: dict) -> dict:
        req = urllib.request.Request(
            self.base + path,
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        return self._open(req)

    @staticmethod
    def _open(req: str | urllib.request.Request) -> dict:
        """The decoded JSON reply; an error status raises RemoteLogError."""
        try:
            with urllib.request.urlopen(req) as resp:
                return json.loads(resp.read())
        except urllib.error.HTTPError as e:
            detail = json.loads(e.read())
            raise RemoteLogError(e.code, detail) from None

    def submit_chain(self, chain: CertChain) -> ChainCommitment:
        out = self._post("/v1/submit-chain", {"chain": chain_to_json(chain)})
        return ChainCommitment.from_json(out["cc"])

    def submit_revocation(self, chain: CertChain, rev) -> dict:
        return self._post(
            "/v1/submit-revocation",
            {"chain": chain_to_json(chain), "revocation": b64e(rev.canonical_bytes)},
        )

    def get_proof(self, id_hashes: list[Digest]):
        out = self._post("/v1/proof", {"id_hashes": [h.hex for h in id_hashes]})
        return (
            ChainPresenceProof.from_json(out["proof"]),
            SignedRoot.from_json(out["signed_root"]),
            [PendingRevocation.from_json(p) for p in out["pending"]],
        )

    def latest_signed_root(self) -> SignedRoot:
        return SignedRoot.from_json(self._get("/v1/root")["signed_root"])

    def get_consistency(self, old: int, new: int) -> ConsistencyProof:
        return ConsistencyProof.from_json(self._get(f"/v1/consistency?old={old}&new={new}")["proof"])

    def get_entries(self, start: int, end: int | None = None) -> list[TimeTreeEntry]:
        path = f"/v1/entries?from={start}" + (f"&to={end}" if end is not None else "")
        return [entry_from_json(e) for e in self._get(path)["entries"]]

    def get_delta(self, start: int, now: int | None = None) -> DeltaUpdate:
        path = f"/v1/delta?from={start}" + (f"&now={now}" if now is not None else "")
        return DeltaUpdate.from_json(self._get(path)["delta"])

    def submit_tcrl(self, tcrl: Tcrl) -> dict:
        return self._post("/v1/tcrl", {"tcrl": tcrl.to_json()})

    def run_update(self, now: int | None = None) -> SignedRoot:
        out = self._post("/v1/update", {"now": now} if now is not None else {})
        return SignedRoot.from_json(out["signed_root"])


class RemoteLogError(Exception):
    def __init__(self, status: int, detail: dict):
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.detail = detail


# -- server session and simulated handshake ------------------------------------

@dataclass
class HandshakeBundle:
    """Everything the server staples into one status message."""

    chain: CertChain
    cc: ChainCommitment
    proof: ChainPresenceProof | None
    signed_root: SignedRoot | None
    pending: list[PendingRevocation] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "chain": chain_to_json(self.chain),
            "cc": self.cc.to_json(),
            "proof": self.proof.to_json() if self.proof else None,
            "signed_root": self.signed_root.to_json() if self.signed_root else None,
            "pending": [p.to_json() for p in self.pending],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "HandshakeBundle":
        return cls(
            chain=chain_from_json(obj["chain"]),
            cc=ChainCommitment.from_json(obj["cc"]),
            proof=ChainPresenceProof.from_json(obj["proof"]) if obj.get("proof") else None,
            signed_root=SignedRoot.from_json(obj["signed_root"]) if obj.get("signed_root") else None,
            pending=[PendingRevocation.from_json(p) for p in obj.get("pending", [])],
        )


class ServerSession:
    """The domain's side: holds the chain and commitment, refreshes its proof
    from the log at least once per scheduling period."""

    def __init__(self, chain: CertChain, cc: ChainCommitment):
        self.chain = chain
        self.cc = cc
        self.proof: ChainPresenceProof | None = None
        self.signed_root: SignedRoot | None = None
        self.pending: list[PendingRevocation] = []

    def refresh(self, log_access) -> None:
        query = chain_id_hashes(self.chain, self.cc.timestamps)
        self.proof, self.signed_root, self.pending = log_access.get_proof(query)

    def bundle(self) -> HandshakeBundle:
        return HandshakeBundle(
            chain=self.chain,
            cc=self.cc,
            proof=self.proof,
            signed_root=self.signed_root,
            pending=list(self.pending),
        )


def handshake_sim(
    bundle: HandshakeBundle,
    name: str,
    now: int,
    trust_roots: frozenset[Digest],
    log_pub: bytes,
    vendor_pub: bytes,
    max_root_age: int,
) -> ValidationResult:
    """One simulated status exchange: the client receives the bundle and runs
    the complete validation."""
    if bundle.proof is None or bundle.signed_root is None:
        return ValidationResult(False, Reason.STALE_ROOT)
    return is_valid(
        ValidationInput(
            chain=bundle.chain,
            cc=bundle.cc,
            proof=bundle.proof,
            signed_root=bundle.signed_root,
            pending_revocations=bundle.pending,
            name=name,
            now=now,
            trust_roots=trust_roots,
            log_pub=log_pub,
            vendor_pub=vendor_pub,
            max_root_age=max_root_age,
        )
    )
