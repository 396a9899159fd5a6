"""Throughput and latency measurements on the host machine.

Reports chain registrations per second (verification plus signed
commitment), the wall time of one update merging ten thousand chains, the
mean latency of a complete client validation whose proof carries two
revocation messages, and the memory the log holds per logged leaf.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass

from .certs import CertChain, RevocationKind, SignerRole, make_certificate, make_revocation
from .crypto import KeyPair, KeyRole
from .log import LogConfig, LogServer
from .revtree import chain_id_hashes
from .validation import ValidationInput, is_valid

T0 = 1_600_000_000
PERIOD = 3600
YEAR = 365 * 86400


@dataclass
class BenchReport:
    registrations_per_second: float
    registration_count: int
    update_seconds: float
    update_chain_count: int
    validation_ms_mean: float
    validation_count: int
    log_bytes_per_leaf: float

    def to_json(self) -> dict:
        return {
            "registrations_per_second": round(self.registrations_per_second, 1),
            "registration_count": self.registration_count,
            "update_seconds": round(self.update_seconds, 3),
            "update_chain_count": self.update_chain_count,
            "validation_ms_mean": round(self.validation_ms_mean, 3),
            "validation_count": self.validation_count,
            "log_bytes_per_leaf": round(self.log_bytes_per_leaf),
        }


def _env():
    root_key = KeyPair.generate(KeyRole.STANDARD_CA)
    root_rk = KeyPair.generate(KeyRole.REVOCATION)
    inter_key = KeyPair.generate(KeyRole.STANDARD_CA)
    inter_rk = KeyPair.generate(KeyRole.REVOCATION)
    leaf_key = KeyPair.generate(KeyRole.STANDARD_LEAF)
    vendor = KeyPair.generate(KeyRole.VENDOR)
    log_key = KeyPair.generate(KeyRole.LOG)
    root = make_certificate(
        serial=1, subject_name="Bench Root", subject_public_key=root_key.public_bytes,
        is_ca=True, not_before=T0 - 10, not_after=T0 + 30 * YEAR,
        issuer_key=root_key, revocation_public_key=root_rk.public_bytes,
    )
    inter = make_certificate(
        serial=2, subject_name="Bench CA", subject_public_key=inter_key.public_bytes,
        is_ca=True, not_before=T0 - 10, not_after=T0 + 20 * YEAR,
        issuer_key=root_key, revocation_public_key=inter_rk.public_bytes,
    )
    return root_key, inter_key, inter_rk, leaf_key, vendor, log_key, root, inter


def _chains(n: int, root, inter, inter_key, leaf_key) -> list[CertChain]:
    out = []
    for i in range(n):
        leaf = make_certificate(
            serial=10_000 + i, subject_name=f"bench{i}.example",
            subject_public_key=leaf_key.public_bytes, is_ca=False,
            not_before=T0 - 10, not_after=T0 + 3 * YEAR, issuer_key=inter_key,
        )
        out.append(CertChain((root, inter, leaf)))
    return out


def run_bench(
    registration_chains: int = 2000,
    update_chains: int = 10_000,
    validations: int = 500,
) -> BenchReport:
    root_key, inter_key, inter_rk, leaf_key, vendor, log_key, root, inter = _env()

    def fresh_log():
        config = LogConfig(
            scheduling_period=PERIOD,
            trust_roots=frozenset({root.cert_hash}),
            vendor_public_key=vendor.public_bytes,
            max_pending=10_000_000,
        )
        return LogServer(config, log_key, start_time=T0)

    # Registration throughput: verification + signed commitment per chain.
    log = fresh_log()
    chains = _chains(registration_chains, root, inter, inter_key, leaf_key)
    t0 = time.perf_counter()
    for chain in chains:
        log.submit_chain(chain)
    reg_elapsed = time.perf_counter() - t0
    reg_rate = registration_chains / reg_elapsed

    # Update cost: merge ten thousand fresh chains in a single period.
    log = fresh_log()
    for chain in _chains(update_chains, root, inter, inter_key, leaf_key):
        log.submit_chain(chain)
    t0 = time.perf_counter()
    log.run_update()
    update_elapsed = time.perf_counter() - t0

    # Validation latency over a proof carrying two revocation messages.
    log = fresh_log()
    chain = _chains(1, root, inter, inter_key, leaf_key)[0]
    cc = log.submit_chain(chain)
    log.run_update()
    far = T0 + 19 * YEAR
    for rev in (
        make_revocation(RevocationKind.CA_REVOKE_FROM, inter, vendor, SignerRole.VENDOR, rev_timestamp=far),
        make_revocation(RevocationKind.CA_REVOKE_FROM, inter, inter_rk, SignerRole.REVOCATION_KEY, rev_timestamp=far),
    ):
        log.submit_revocation(CertChain((root, inter)), rev)
    log.run_update()
    proof, signed_root, pending = log.get_proof(chain_id_hashes(chain, cc.timestamps))
    now = log.last_update_time + 1
    inp = ValidationInput(
        chain=chain, cc=cc, proof=proof, signed_root=signed_root,
        pending_revocations=pending, name=chain.leaf.subject_name, now=now,
        trust_roots=log.config.trust_roots, log_pub=log_key.public_bytes,
        vendor_pub=vendor.public_bytes, max_root_age=4 * PERIOD,
    )
    result = is_valid(inp)
    assert result.success, result.reason
    t0 = time.perf_counter()
    for _ in range(validations):
        is_valid(inp)
    val_elapsed = time.perf_counter() - t0

    # Memory the log holds per leaf, in a pass of its own so that tracing
    # slows no timed figure. The chains are built before tracing starts, so
    # the figure counts what the log adds to each submitted certificate.
    chains = _chains(registration_chains, root, inter, inter_key, leaf_key)
    tracemalloc.start()
    try:
        log = fresh_log()
        for chain in chains:
            log.submit_chain(chain)
        log.run_update()
        del chains
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()

    return BenchReport(
        registrations_per_second=reg_rate,
        registration_count=registration_chains,
        update_seconds=update_elapsed,
        update_chain_count=update_chains,
        validation_ms_mean=val_elapsed / validations * 1000.0,
        validation_count=validations,
        log_bytes_per_leaf=held / registration_chains,
    )
