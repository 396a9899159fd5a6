"""Per-layer metrics from a traced run.

Spans come from the benchmark process (clients, monitors, loader) and from
every server process: the one the set-up started and each recovery from
a copy of its journal.
Counts named ``*_per_*`` are read from fixed operations (the first head
update, every submitted chain, the full sync), so a seed fixes them exactly.
"""

from __future__ import annotations

import statistics

from harness import RunResult, pct
from tracing import SpanSet, durations

LAYERS = ["log", "revtree", "timetree", "crypto", "certs", "journal",
          "service", "client", "monitor", "validation", "tcrl"]
ROUTES = ["submit-chain", "submit-revocation", "proof", "update", "delta", "entries"]

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("revtree.rebuild_s", "s"),
    ("revtree.leaf_hashes_per_update", "count"),
    ("revtree.prove_chain_p50_ms", "ms"),
    ("revtree.prove_absence_p50_ms", "ms"),
    ("crypto.hash_node_per_update", "count"),
    ("crypto.hash_node_per_delta", "count"),
    ("crypto.verify_per_chain", "count"),
    ("crypto.sign_per_chain", "count"),
    ("crypto.verify_per_entry", "count"),
    ("certs.verify_structure_p50_ms", "ms"),
    ("journal.append_p50_ms", "ms"),
    ("journal.records_per_chain", "count"),
    ("journal.replay_s", "s"),
    ("log.submit_chain_p50_ms", "ms"),
    ("log.submit_revocation_p50_ms", "ms"),
    ("log.run_update_s", "s"),
    ("log.get_proof_p50_ms", "ms"),
    ("log.prove_absence_p50_ms", "ms"),
    ("log.recover_s", "s"),
    ("timetree.append_calls_per_sync", "count"),
    ("timetree.append_p50_ms", "ms"),
    ("timetree.inclusion_proof_p50_ms", "ms"),
    ("service.lock_wait_p99_ms", "ms"),
    *[(f"service.handle.{r}.p50_ms", "ms") for r in ROUTES],
    ("client.transport_p50_ms", "ms"),
    ("monitor.full_sync_s", "s"),
    ("monitor.apply_delta_p50_ms", "ms"),
    ("monitor.light_tiles", "count"),
    ("monitor.light_storage_bytes", "bytes"),
    ("validation.is_valid_p50_ms", "ms"),
    ("validation.verify_proofs_p50_ms", "ms"),
    ("tcrl.build_ms", "ms"),
    ("tcrl.lookup_p50_us", "us"),
    *[(f"{layer}.{what}", unit) for layer in LAYERS
      for what, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))],
    ("service.wait_s", "s"),
    ("client.wait_s", "s"),
]


def _p50(spans: list[tuple], scale: float) -> float:
    return statistics.median(durations(spans, scale))


def _per_call(outer: list[tuple[SpanSet, tuple]], name: str) -> float:
    return sum(spans.inclusive(s, name) for spans, s in outer) / len(outer)


class Servers:
    """Spans of several server processes, queried together."""

    def __init__(self, dumps: list[dict]):
        self.sets = [SpanSet(d) for d in dumps]

    def named(self, name: str, **kwargs) -> list[tuple]:
        return [s for spans in self.sets for s in spans.named(name, **kwargs)]

    def with_set(self, name: str) -> list[tuple[SpanSet, tuple]]:
        return [(spans, s) for spans in self.sets for s in spans.named(name)]


def per_layer(r: RunResult) -> dict[str, tuple[float, str]]:
    client = SpanSet(r.client_spans)
    head = Servers(r.server_spans)
    restart = Servers(r.server_spans[1:])  # the recoveries
    first = head.sets[0]
    first_update = first.named("log.run_update")[0]
    submits = head.with_set("log.submit_chain")
    full_sync = client.named("monitor.full_sync")
    deltas = [(client, s) for s in client.named("monitor.apply_delta")]

    m: dict[str, float] = {
        "revtree.rebuild_s": _p50(head.named("revtree.rebuild", under="log.run_update"), 1),
        "revtree.leaf_hashes_per_update": first.inclusive(first_update, "revtree.rev_leaf_hash"),
        "revtree.prove_chain_p50_ms": _p50(head.named("revtree.prove_chain", under="log.get_proof"), 1e3),
        "revtree.prove_absence_p50_ms": _p50(head.named("revtree.prove_absence_records"), 1e3),
        "crypto.hash_node_per_update": first.inclusive(first_update, "crypto.hash_node"),
        "crypto.hash_node_per_delta": _per_call(deltas, "crypto.hash_node"),
        "crypto.verify_per_chain": _per_call(submits, "crypto.verify"),
        "crypto.sign_per_chain": _per_call(submits, "crypto.sign"),
        "crypto.verify_per_entry": client.inclusive(full_sync[0], "crypto.verify") / r.samples.full_sync_entries,
        "certs.verify_structure_p50_ms": _p50(head.named("certs.verify_structure"), 1e3),
        "journal.append_p50_ms": _p50(head.named("journal.append_all"), 1e3),
        "journal.records_per_chain": _per_call(submits, "journal.records"),
        "journal.replay_s": _p50(restart.named("journal.replay"), 1),
        "log.submit_chain_p50_ms": _p50([s for _, s in submits], 1e3),
        "log.submit_revocation_p50_ms": _p50(head.named("log.submit_revocation"), 1e3),
        "log.run_update_s": _p50(head.named("log.run_update"), 1),
        "log.get_proof_p50_ms": _p50(head.named("log.get_proof", ok_only=True), 1e3),
        "log.prove_absence_p50_ms": _p50(head.named("log.prove_absence"), 1e3),
        "log.recover_s": _p50(restart.named("log.recover"), 1),
        "timetree.append_calls_per_sync": client.inclusive(full_sync[0], "timetree.append"),
        "timetree.append_p50_ms": _p50(client.named("timetree.append", under="monitor.full_sync"), 1e3),
        "timetree.inclusion_proof_p50_ms": _p50(head.named("timetree.inclusion_proof"), 1e3),
        "service.lock_wait_p99_ms": pct(durations(head.named("service.lock_wait"), 1e3), 99),
        "client.transport_p50_ms": statistics.median(_transport_ms(client, head)),
        "monitor.full_sync_s": _p50(full_sync, 1),
        "monitor.apply_delta_p50_ms": _p50([s for _, s in deltas], 1e3),
        "monitor.light_tiles": r.light_tiles,
        "monitor.light_storage_bytes": r.light_storage_bytes,
        "validation.is_valid_p50_ms": _p50(client.named("validation.is_valid"), 1e3),
        "validation.verify_proofs_p50_ms": _p50(client.named("validation.verify_proofs"), 1e3),
        "tcrl.build_ms": _p50(client.named("tcrl.build_tcrl"), 1e3),
        "tcrl.lookup_p50_us": _p50(client.named("tcrl.lookup"), 1e6),
    }
    for route in ROUTES:
        m[f"service.handle.{route}.p50_ms"] = _p50(head.named(f"service.handle:{route}"), 1e3)
    totals: dict[str, dict[str, float]] = {}
    for spans in [client, *head.sets]:
        for layer, row in spans.layer_times().items():
            acc = totals.setdefault(layer, dict.fromkeys(row, 0.0))
            for k, v in row.items():
                acc[k] += v
    for layer in LAYERS:
        row = totals.get(layer, {})
        for what in ("calls", "busy_s", "self_s"):
            m[f"{layer}.{what}"] = row.get(what, 0)
    m["service.wait_s"] = totals.get("service", {}).get("wait_s", 0.0)
    m["client.wait_s"] = sum(_transport_ms(client, head)) / 1e3
    units = dict(PER_LAYER)
    return {name: (m[name], units[name]) for name, _ in PER_LAYER}


def _transport_ms(client: SpanSet, head: Servers) -> list[float]:
    """Round trip seen by the client minus the server's handling time of the
    same request."""
    handled = {s[5]: s[4] - s[3] for spans in head.sets for s in spans.spans
               if s[2].startswith("service.handle:") and s[5]}
    return [((s[4] - s[3]) - handled[s[5]]) * 1e3
            for s in client.spans if s[2].startswith("client.request:") and s[5] in handled]

