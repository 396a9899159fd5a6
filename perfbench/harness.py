"""The pipeline every workload runs, against the real log service.

Set-up (repeated; the last one is kept): seeded keys and certificates, the
seed journal, and the first start of the log server in its own process,
which recovers from that journal.

Then a few rounds, each a slice of the head followed by a tail round, so
that every figure is sampled across the whole run rather than in one burst
that a moment of machine noise could cover.

Head slice: one client, one request at a time. Each period it submits the
period's chains and revocations over HTTP, runs ``POST /v1/update``, fetches
the light monitor's delta, and then asks for a fixed number of presence and
absence proofs; the answers are kept. Presence reads are spread over every
chain whose verdict stays fixed through the head, the seeded ones included.
Nothing runs beside a timed request, so each figure measures the program
rather than how two vCPUs and two GILs interleave concurrent clients.

Tail round: the kept answers are validated; in some rounds a fresh full
monitor syncs from zero (in the first, the vendor then builds a TCRL from
it, commits it, the log runs an update, and its journal is copied); fresh
lightweight monitors apply every recorded delta; clients validate recorded
chains offline against the bundle; in some rounds a second server recovers
that journal copy.

The amount of work is fixed by the workload and ``seconds`` alone, so a seed
fixes every count; a faster program finishes the same work sooner.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from pkisn import journal, monitor, revtree, service, tcrl, validation
from pkisn.log import LogConfig, LogServer, RevocationCommitment, SignedRoot
from pkisn.monitor import DeltaUpdate, FullMonitor, MinimizedTimeTree
from pkisn.revtree import AbsenceProof
from pkisn.wire import u64

import inputs
from inputs import PERIOD, T0, YEAR, ChainInfo, Pki

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launcher.py"
MAX_ROOT_AGE = 2 * PERIOD
READS_PER_PERIOD = 50  # proof requests after each update
ABSENCE_SHARE = 0.1  # share of the reads asking for an identity hash nobody has
ROUNDS = 5
SETUPS = 2  # set-ups per run; setup_s is their median
FULL_SYNCS = 2  # rounds that start with a full sync, spread evenly, the first included
RECOVERIES = 3  # rounds that end with a recovery, spread evenly, the last included
TCRL_CHECKS = 2000  # offline validate_with_tcrl calls per run
LIGHT_MIN_APPLIES = 30  # delta applications per run, at least


@dataclass(frozen=True)
class Workload:
    name: str
    inters: int
    seed_leaves: int = 0  # leaves written straight into the seed journal
    history_periods: int = 0  # periods of in-process history before the server starts
    history_chains: int = 0
    history_revocations: int = 0
    leaf_periods: int | None = None  # leaf lifetime in periods; None: three years
    chains_per_period: int = 20
    revocations_per_period: int = 2
    periods_per_s: float = 1.0  # head periods per second of --seconds

    def head_periods(self, seconds: float) -> int:
        return max(ROUNDS, round(seconds * self.periods_per_s))

    def scaled(self, f: float) -> Workload:
        """The same workload with every count of certificates and revocations
        multiplied by ``f`` (a count that is not 0 stays at least 1). The
        periods and leaf lifetimes keep their lengths. The benchmark's own
        tests run these."""

        def size(n: int) -> int:
            return max(1, round(n * f)) if n else 0

        return replace(
            self, seed_leaves=size(self.seed_leaves), history_chains=size(self.history_chains),
            history_revocations=size(self.history_revocations),
            chains_per_period=size(self.chains_per_period),
            revocations_per_period=size(self.revocations_per_period),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("flat-incremental", inters=1, seed_leaves=20_000, chains_per_period=20,
                 revocations_per_period=2, periods_per_s=2.0),
        Workload("monitor-catchup", inters=10, history_periods=60, history_chains=70,
                 history_revocations=5, leaf_periods=30, chains_per_period=100,
                 revocations_per_period=5, periods_per_s=1.5),
    )
}


def spaced(k: int, n: int) -> set[int]:
    """``k`` of the rounds 0..n-1, spread evenly, the first included."""
    return {n * i // k for i in range(k)}


def slices(n: int, parts: int) -> list[range]:
    """[0, n) cut into ``parts`` contiguous, nearly equal ranges."""
    bounds = [n * k // parts for k in range(parts + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


class Checks:
    """Every correctness check the run makes; failures feed failed_ops_ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q / 100 * len(ordered) + 0.5) - 1))]


# -- the log server process --------------------------------------------------------

class LogProcess:
    """One run of the launcher."""

    def __init__(self, config_path: Path, spans_path: Path | None):
        self.config_path = config_path
        self.spans_path = spans_path
        self.proc: subprocess.Popen | None = None
        self.client: service.HttpLogClient | None = None
        self.peak_rss_kb = 0

    def start(self) -> None:
        cmd = [sys.executable, str(LAUNCHER), str(self.config_path)]
        if self.spans_path is not None:
            cmd.append(str(self.spans_path))
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("log server exited before listening")
        self.client = service.HttpLogClient("http://" + json.loads(line)["address"])

    def stop(self) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        try:
            proc.stdin.close()
            for line in proc.stdout:
                self.peak_rss_kb = max(self.peak_rss_kb, json.loads(line).get("peak_rss_kb", 0))
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()


# -- set-up -----------------------------------------------------------------------

@dataclass
class Plan:
    """Everything the run will send, generated before it starts."""

    pki: Pki
    base_updates: int  # updates in the log before the head
    bundle_after: int  # head periods before the bundle's update
    journaled: set[int] = field(default_factory=set)  # serials written straight into the journal
    periods: list[list[ChainInfo]] = field(default_factory=list)
    revocations: list[list[ChainInfo]] = field(default_factory=list)
    reader_pool: list[ChainInfo] = field(default_factory=list)
    history_deltas: list[DeltaUpdate] = field(default_factory=list)
    setup_root: SignedRoot | None = None

    def update_time(self, period: int) -> int:
        """When head period ``period`` is merged; the bundle's update takes
        one slot after the first round."""
        bundle = 1 if period >= self.bundle_after else 0
        return T0 + (self.base_updates + period + bundle + 1) * PERIOD

    @property
    def bundle_time(self) -> int:
        return T0 + (self.base_updates + self.bundle_after + 1) * PERIOD


def _leaf_validity(w: Workload, registered: int) -> tuple[int, int]:
    """(not_before, not_after) of a leaf registered at ``registered``."""
    if w.leaf_periods is None:
        return T0 - 10, T0 + 3 * YEAR
    return registered - 2 * PERIOD, registered + (w.leaf_periods - 1) * PERIOD


def _write_service_files(pki: Pki, work: Path) -> Path:
    keys = work / "keys"
    keys.mkdir(parents=True)
    service.save_key(keys / "log.key", pki.log_key)
    service.save_trust_roots(keys / "roots.json", [pki.root])
    service.save_public_key(keys / "vendor.pub", pki.vendor_key.public_bytes)
    config = service.ServiceConfig(
        listen_address="127.0.0.1:0",
        data_dir=str(work / "log"),
        scheduling_period=PERIOD,
        log_key_path=str(keys / "log.key"),
        trust_roots_path=str(keys / "roots.json"),
        vendor_pub_path=str(keys / "vendor.pub"),
        clock="virtual",
        start_time=T0,
    )
    path = work / "service.json"
    config.save(path)
    return path


def _seed_journal(pki: Pki, work: Path, seed_chains: list[ChainInfo]) -> None:
    """Flat seed: the certificates and one update, written as journal records."""
    j = journal.Journal(work / "log" / "journal.bin")
    try:
        records = [(journal.REC_CERT, pki.root.canonical_bytes)]
        records += [(journal.REC_CERT, c.canonical_bytes) for c in pki.inters]
        records += [(journal.REC_CERT, info.chain.leaf.canonical_bytes) for info in seed_chains]
        records.append((journal.REC_UPDATE, u64(T0 + PERIOD)))
        j.append_all(records)
    finally:
        j.close()


def _build_history(w: Workload, pki: Pki, work: Path, serials, rng: random.Random):
    """Catch-up seed: periods of chains and revocations run through an
    in-process log with its journal on; each update's delta is recorded."""
    config = LogConfig(scheduling_period=PERIOD, trust_roots=pki.trust_roots,
                       vendor_public_key=pki.vendor_key.public_bytes)
    j = journal.Journal(work / "log" / "journal.bin", fsync=False)
    log = LogServer(config, pki.log_key, start_time=T0, journal=j)
    chains: list[ChainInfo] = []
    deltas: list[DeltaUpdate] = []
    size = 0
    try:
        for p in range(w.history_periods):
            now = T0 + (p + 1) * PERIOD
            nb, na = _leaf_validity(w, now)
            batch = [inputs.make_chain(pki, next(serials), (len(chains) + i) % w.inters, nb, na)
                     for i in range(w.history_chains)]
            for info in batch:
                info.cc = log.submit_chain(info.chain)
            live = [c for c in chains if c.revoked_at is None and c.chain.leaf.not_after > now]
            for info in rng.sample(live, min(len(live), w.history_revocations)):
                log.submit_revocation(info.chain, inputs.revoke_by_issuer(pki, info))
                info.revoked_at = now
            log.run_update()
            delta = monitor.build_delta(log, size, now)
            size = delta.to_size
            deltas.append(delta)
            chains.extend(batch)
    finally:
        j.close()
    return chains, deltas, log.latest.signed_root


def make_plan(w: Workload, seed: int, periods: int, work: Path) -> Plan:
    """Keys, certificates and the seed journal for one run."""
    pki = inputs.make_pki(seed, w.inters)
    rng = random.Random(f"{seed}/{w.name}/plan")
    (work / "log").mkdir(parents=True)
    serials = iter(range(1000, 10**9))
    plan = Plan(pki, base_updates=0, bundle_after=len(slices(periods, ROUNDS)[0]))
    seeded: list[ChainInfo] = []
    if w.seed_leaves:
        nb, na = _leaf_validity(w, T0 + PERIOD)
        seeded = [inputs.make_chain(pki, next(serials), i % w.inters, nb, na) for i in range(w.seed_leaves)]
        _seed_journal(pki, work, seeded)
        plan.base_updates = 1
        plan.journaled = {c.serial for c in seeded}
    if w.history_periods:
        seeded, plan.history_deltas, plan.setup_root = _build_history(w, pki, work, serials, rng)
        plan.base_updates = w.history_periods

    candidates = list(seeded)
    targeted: set[int] = {c.serial for c in seeded if c.revoked_at is not None}
    for p in range(periods):
        now = plan.update_time(p)
        nb, na = _leaf_validity(w, now)
        chains = [inputs.make_chain(pki, next(serials), (len(candidates) + i) % w.inters, nb, na)
                  for i in range(w.chains_per_period)]
        eligible = [c for c in candidates if c.serial not in targeted and c.chain.leaf.not_after > now]
        revs = rng.sample(eligible, min(len(eligible), w.revocations_per_period))
        targeted.update(c.serial for c in revs)
        plan.periods.append(chains)
        plan.revocations.append(revs)
        candidates.extend(chains)

    # Reads only touch chains whose verdict stays fixed through the head:
    # never targeted by a head revocation, and not expiring inside it.
    first_now, last_now = plan.update_time(0) + 1, plan.update_time(periods - 1) + 1
    targeted_in_head = {c.serial for revs in plan.revocations for c in revs}

    def steady(c: ChainInfo) -> bool:
        na = c.chain.leaf.not_after
        return c.serial not in targeted_in_head and (na < first_now or na >= last_now)

    plan.reader_pool = [c for c in plan.periods[0] + seeded if steady(c)]
    return plan


# -- the head ---------------------------------------------------------------------

@dataclass
class Samples:
    """What the run measured, over all its rounds."""

    setup_s: list[float] = field(default_factory=list)
    submit_ms: list[float] = field(default_factory=list)
    revoke_ms: list[float] = field(default_factory=list)
    update_s: list[float] = field(default_factory=list)
    proof_ms: list[float] = field(default_factory=list)
    absence_ms: list[float] = field(default_factory=list)
    validate_ms: list[float] = field(default_factory=list)
    full_sync_rates: list[float] = field(default_factory=list)
    full_sync_entries: int = 0
    delta_ms: list[float] = field(default_factory=list)
    tcrl_ms: list[float] = field(default_factory=list)
    recover_s: list[float] = field(default_factory=list)


class Head:
    def __init__(self, w: Workload, plan: Plan, client: service.HttpLogClient,
                 checks: Checks, samples: Samples, seed: int):
        self.plan = plan
        self.client = client
        self.checks = checks
        self.samples = samples
        self.seed = seed
        self.log_pub = plan.pki.log_key.public_bytes
        self.deltas: list[DeltaUpdate] = list(plan.history_deltas)
        self.delta_from = self.deltas[-1].to_size if self.deltas else 0
        self.roots: list[SignedRoot] = []
        self.answers: list[tuple] = []  # (index, absent, chain, query, reply or error)
        self.revocations = {info.serial: inputs.revoke_by_issuer(plan.pki, info)
                            for revs in plan.revocations for info in revs}
        rng = random.Random(f"{seed}/{w.name}/reader")
        pool = plan.reader_pool
        n = READS_PER_PERIOD * len(plan.periods)
        self.requests = [(rng.random() < ABSENCE_SHARE, pool[rng.randrange(len(pool))]) for _ in range(n)]
        for _, info in self.requests:
            if info.cc is None and info.serial in plan.journaled:
                info.cc = inputs.seed_commitment(plan.pki, info, T0 + PERIOD)

    def run_slice(self, periods: range) -> None:
        """Each period: its writes, the update, then its reads."""
        plan = self.plan
        for p in periods:
            self._submit(plan.periods[p])
            self._revoke(p, plan.revocations[p])
            self._update(p)
            for i in range(p * READS_PER_PERIOD, (p + 1) * READS_PER_PERIOD):
                self._ask(i)

    # writes ----------------------------------------------------------------

    def _submit(self, chains: list[ChainInfo]) -> None:
        client = self.client
        for info in chains:
            t0 = time.perf_counter()
            try:
                info.cc = client.submit_chain(info.chain)
            except Exception as e:  # counted, and the run goes on
                self.checks.check(False, f"submit-chain {info.serial}: {e}")
                continue
            self.samples.submit_ms.append((time.perf_counter() - t0) * 1000)

    def _revoke(self, period: int, targets: list[ChainInfo]) -> None:
        client = self.client
        for info in targets:
            t0 = time.perf_counter()
            try:
                out = client.submit_revocation(info.chain, self.revocations[info.serial])
            except Exception as e:
                self.checks.check(False, f"submit-revocation {info.serial}: {e}")
                continue
            self.samples.revoke_ms.append((time.perf_counter() - t0) * 1000)
            rc = RevocationCommitment.from_json(out["commitment"])
            self.checks.check(rc.verify(self.log_pub) and rc.timestamp == self.plan.update_time(period),
                              f"revocation commitment in period {period}")

    def _update(self, p: int) -> None:
        client, plan = self.client, self.plan
        t0 = time.perf_counter()
        try:
            root = client.run_update()
        except Exception as e:
            self.checks.check(False, f"update {p}: {e}")
            return
        self.samples.update_s.append(time.perf_counter() - t0)
        self.checks.check(root.verify(self.log_pub) and root.timestamp == plan.update_time(p),
                          f"update {p}: signed root")
        self.roots.append(root)
        for info in plan.revocations[p]:
            info.revoked_at = root.timestamp
        try:
            delta = client.get_delta(self.delta_from)
            self.delta_from = delta.to_size
            self.deltas.append(delta)
        except Exception as e:
            self.checks.check(False, f"delta after update {p}: {e}")
        for info in plan.periods[p]:
            cc = info.cc
            self.checks.check(
                cc is not None and cc.verify(self.log_pub) and cc.timestamps[0] == root.timestamp
                and all(a >= b for a, b in zip(cc.timestamps, cc.timestamps[1:])),
                f"chain commitment {info.serial}",
            )

    # reads -----------------------------------------------------------------

    def _ask(self, i: int) -> None:
        absent, info = self.requests[i]
        if info.cc is None:
            self.checks.check(False, f"proof {i}: chain {info.serial} was never committed")
            return
        query = [revtree.cert_id_hash(c.canonical_bytes, t)
                 for c, t in zip(info.chain.certs, reversed(info.cc.timestamps))]
        if absent:
            query = query[:2] + [inputs.absent_id(self.seed, i)]
        t0 = time.perf_counter()
        try:
            reply = self.client.get_proof(query)
        except service.RemoteLogError as e:
            reply = e
        except Exception as e:  # counted, and the run goes on
            self.checks.check(False, f"proof {i}: {e}")
            return
        latency_ms = (time.perf_counter() - t0) * 1000
        (self.samples.absence_ms if absent else self.samples.proof_ms).append(latency_ms)
        self.answers.append((i, absent, info, query, reply))

    def check_answers(self) -> None:
        """Check the answers kept since the last call, outside the timed head.
        Validation is timed on this thread's CPU clock."""
        answers, self.answers = self.answers, []
        checks, pki = self.checks, self.plan.pki
        for i, absent, info, query, reply in answers:
            failed = isinstance(reply, service.RemoteLogError)
            if absent:
                checks.check(failed and self._absence_ok(query, reply), f"absence {i}")
                continue
            if not checks.check(not failed, f"proof {i}: {reply}"):
                continue
            proof, root, pending = reply
            now = root.timestamp + 1
            inp = validation.ValidationInput(
                chain=info.chain, cc=info.cc, proof=proof, signed_root=root,
                pending_revocations=pending, name=info.name, now=now,
                trust_roots=pki.trust_roots, log_pub=self.log_pub,
                vendor_pub=pki.vendor_key.public_bytes, max_root_age=MAX_ROOT_AGE,
            )
            t0 = time.thread_time()
            result = validation.is_valid(inp)
            self.samples.validate_ms.append((time.thread_time() - t0) * 1000)
            checks.check(result.reason == inputs.expected_reason(info, now), f"verdict {i}: {result.reason}")

    def _absence_ok(self, query, error: service.RemoteLogError) -> bool:
        detail = error.detail
        if error.status != 404 or detail.get("error") != "UnknownLeaf" or detail.get("level") != 2:
            return False
        root = SignedRoot.from_json(detail["signed_root"])
        proof = AbsenceProof.from_json(detail["absence"])
        return root.verify(self.log_pub) and revtree.verify_absence(query[:2], query[2], proof, root)


# -- the tail ---------------------------------------------------------------------

class Tail:
    """Monitors, the vendor bundle and recoveries from the journal."""

    def __init__(self, w: Workload, plan: Plan, head: Head, server: LogProcess, servers: list,
                 work: Path, trace: bool, checks: Checks, samples: Samples, seed: int):
        self.plan, self.head = plan, head
        self.server, self.servers = server, servers
        self.work, self.trace = work, trace
        self.checks, self.samples = checks, samples
        self.pki = plan.pki
        self.log_pub = plan.pki.log_key.public_bytes
        self.rng = random.Random(f"{seed}/{w.name}/tcrl")
        self.bundle: tcrl.Tcrl | None = None
        self.bundle_root: SignedRoot | None = None
        self.known: list[ChainInfo] = []
        self.light: MinimizedTimeTree | None = None

    @property
    def latest_root(self) -> SignedRoot:
        roots = self.head.roots + ([self.bundle_root] if self.bundle_root else [])
        return max(roots, key=lambda r: r.timestamp)

    def round(self, r: int) -> None:
        gc.collect()
        self.head.check_answers()
        if r in spaced(FULL_SYNCS, ROUNDS):
            full = self.full_sync(self.latest_root)
            if r == 0:
                self.commit_bundle(full)
        passes = -(-LIGHT_MIN_APPLIES // (ROUNDS * len(self.head.deltas)))
        for _ in range(passes):
            self.light = self.light_pass()
        self.bundle_checks(TCRL_CHECKS // ROUNDS)
        if ROUNDS - 1 - r in spaced(RECOVERIES, ROUNDS):
            self.recover_snapshot(r)

    def full_sync(self, root: SignedRoot) -> FullMonitor:
        """A fresh full monitor syncs from zero."""
        gc.collect()
        full = FullMonitor(self.pki.trust_roots, self.log_pub, self.pki.vendor_key.public_bytes)
        t0 = time.perf_counter()
        result = full.sync_from(self.server.client)
        elapsed = time.perf_counter() - t0
        self.samples.full_sync_rates.append(full.tree.size / elapsed)
        self.samples.full_sync_entries = self.samples.full_sync_entries or full.tree.size
        self.checks.check(result.ok and not result.reports and full.tree.root() == root.root,
                          f"full monitor: ok={result.ok} reports={len(result.reports)}")
        return full

    def commit_bundle(self, full: FullMonitor) -> None:
        """The vendor builds a bundle from the full monitor and commits it;
        the log runs an update. Clients check chains registered so far."""
        client, pki = self.server.client, self.pki
        now = self.latest_root.timestamp + 1
        bundle = tcrl.build_tcrl(full, pki.vendor_key, now)
        commitment = client.submit_tcrl(bundle)["commitment"]
        self.bundle = replace(bundle, log_commitment=RevocationCommitment.from_json(commitment))
        self.checks.check(tcrl.verify_tcrl(self.bundle, pki.vendor_key.public_bytes, self.log_pub),
                          "bundle verifies")
        root = client.run_update()
        self.checks.check(root.verify(self.log_pub) and root.timestamp == self.plan.bundle_time,
                          "update after the bundle")
        self.bundle_root = root
        shutil.copytree(self.work / "log", self.work / "snapshot")
        registered = self.plan.reader_pool + [
            c for chains in self.plan.periods[: self.plan.bundle_after] for c in chains]
        self.known = [c for c in registered if c.cc is not None]

    def light_pass(self) -> MinimizedTimeTree:
        """A fresh lightweight monitor applies every recorded delta in order."""
        light = MinimizedTimeTree(self.log_pub)
        for i, delta in enumerate(self.head.deltas):
            t0 = time.perf_counter()
            try:
                light.apply_delta(delta)
                error = None
            except monitor.MonitorError as e:
                error = e
            self.samples.delta_ms.append((time.perf_counter() - t0) * 1000)
            self.checks.check(error is None, f"delta {i}: {error}")
        last = self.head.deltas[-1].signed_root
        self.checks.check(light.latest_root is not None and light.latest_root.root == last.root,
                          "light monitor root equals the signed root")
        return light

    def bundle_checks(self, n: int) -> None:
        """Clients validate recorded chains offline against the bundle."""
        pki, now = self.pki, self.bundle.issued_at
        for _ in range(n):
            info = self.known[self.rng.randrange(len(self.known))]
            t0 = time.perf_counter()
            verdict = validation.validate_with_tcrl(
                info.chain, info.cc, self.bundle, info.name, now, pki.trust_roots,
                pki.vendor_key.public_bytes, self.log_pub)
            self.samples.tcrl_ms.append((time.perf_counter() - t0) * 1000)
            self.checks.check(verdict.reason == inputs.expected_reason(info, now),
                              f"tcrl verdict {info.serial}")

    def recover_snapshot(self, r: int) -> None:
        """Start a second server on a copy of the journal taken after the
        bundle's update, timed from launch until /v1/root answers with the
        root of that update. Every round recovers the same journal."""
        copy = self.work / "recovering"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.work / "snapshot", copy / "log")
        config = service.ServiceConfig.load(self.server.config_path)
        config.data_dir = str(copy / "log")
        config.save(copy / "service.json")
        spans = self.work / f"spans-recover-{r}.json" if self.trace else None
        server = LogProcess(copy / "service.json", spans)
        self.servers.append(server)
        t0 = time.perf_counter()
        server.start()
        recovered = server.client.latest_signed_root()
        self.samples.recover_s.append(time.perf_counter() - t0)
        self.checks.check(recovered == self.bundle_root, "recovered root equals the snapshot's root")
        server.stop()


# -- the whole run ----------------------------------------------------------------

@dataclass
class RunResult:
    samples: Samples
    checks: Checks
    final_root: str
    light_tiles: int
    light_storage_bytes: int
    peak_rss_kb: int
    periods: int
    client_spans: dict | None = None
    server_spans: list[dict] = field(default_factory=list)  # set-up server first, then recoveries


def _setup_once(w: Workload, seed: int, periods: int, work: Path, trace: bool, checks: Checks,
                servers: list):
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    plan = make_plan(w, seed, periods, work)
    config_path = _write_service_files(plan.pki, work)
    server = LogProcess(config_path, work / "spans-0.json" if trace else None)
    servers.append(server)
    server.start()
    if plan.base_updates:
        root = server.client.latest_signed_root()
        elapsed = time.perf_counter() - t0
        ok = root.verify(plan.pki.log_key.public_bytes) and root.timestamp == T0 + plan.base_updates * PERIOD
        if plan.setup_root is not None:
            ok = ok and root == plan.setup_root
        checks.check(ok, "set-up: recovered root")
    else:
        elapsed = time.perf_counter() - t0
    return plan, server, elapsed


def run(w: Workload, seed: int, seconds: float, work: Path, trace: bool = False,
        periods: int | None = None) -> RunResult:
    periods = max(ROUNDS, periods or w.head_periods(seconds))
    checks, samples = Checks(), Samples()
    servers: list[LogProcess] = []
    uninstall = None
    work = work / "run"
    try:
        for _ in range(SETUPS):
            for s in servers:
                s.stop()
            servers.clear()
            plan, server, elapsed = _setup_once(w, seed, periods, work, trace, checks, servers)
            samples.setup_s.append(elapsed)

        head = Head(w, plan, server.client, checks, samples, seed)
        if w.seed_leaves:
            head.deltas.append(server.client.get_delta(0))
            head.delta_from = head.deltas[-1].to_size
        # The benchmark's own inputs stay alive all run; keep them out of the
        # collector's way so the program's collections cost the same in every run.
        gc.collect()
        gc.freeze()
        tracer = None
        if trace:
            import tracing

            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)

        tail = Tail(w, plan, head, server, servers, work, trace, checks, samples, seed)
        for r, ps in enumerate(slices(periods, ROUNDS)):
            head.run_slice(ps)
            tail.round(r)
        for s in servers:
            s.stop()

        if uninstall is not None:
            uninstall()
            uninstall = None
        out = RunResult(samples, checks, tail.latest_root.root.hex, len(tail.light.tiles),
                        tail.light.storage_bytes(), max(s.peak_rss_kb for s in servers), periods)
        if tracer is not None:
            out.client_spans = tracer.to_json()
            out.server_spans = [json.loads(s.spans_path.read_text()) for s in servers]
        return out
    finally:
        gc.unfreeze()
        if uninstall is not None:
            uninstall()
        for s in servers:
            s.stop()


def end_to_end(r: RunResult) -> dict[str, float]:
    """Each figure is taken over every sample of the run, so a moment of
    machine noise moves it less than it would move one round."""
    s = r.samples
    median = statistics.median
    return {
        "setup_s": median(s.setup_s),
        "submit_p50_ms": median(s.submit_ms),
        "revoke_p50_ms": median(s.revoke_ms),
        "update_p50_s": median(s.update_s),
        "proof_p50_ms": median(s.proof_ms),
        "absence_p50_ms": median(s.absence_ms),
        "validate_p50_ms": median(s.validate_ms),
        "full_sync_entries_per_s": median(s.full_sync_rates),
        "delta_apply_p50_ms": median(s.delta_ms),
        "recover_s": median(s.recover_s),
        "tcrl_check_p50_ms": median(s.tcrl_ms),
        "server_peak_rss_mb": r.peak_rss_kb / 1024,
    }
