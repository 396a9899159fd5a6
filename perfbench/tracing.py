"""Spans and counts around the public functions of each pkisn module.

The hooks live in the benchmark, not in the program: ``install`` replaces
each function where it is looked up (a ``from .crypto import verify`` binds
its own name in every importing module, so every such binding is replaced)
and each method on its class. A span holds name, start, end, parent and the
request id; hash functions are counted only. Every call, span or count,
also bumps a per-name counter on the enclosing span, so counts can be read
per operation (for example hash_node calls inside one update).
"""

from __future__ import annotations

import http.server
import itertools
import json
import sys
import threading
import time
import urllib.request
from collections import defaultdict
from pathlib import Path

REQUEST_HEADER = "X-Bench-Request"


class Tracer:
    def __init__(self):
        # (id, parent, name, start, end, request id, ok, counts of direct calls)
        self.spans: list[tuple] = []
        self.loose: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._loose_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _bump(self, stack: list, name: str, n: int = 1) -> None:
        if stack:
            counts = stack[-1][1]
            counts[name] = counts.get(name, 0) + n
        else:
            with self._loose_lock:
                self.loose[name] += n

    def span(self, fn, name, name_of_call=None):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name_of_call(args) if name_of_call else name
            stack = tracer._stack()
            tracer._bump(stack, span_name)
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            frame = (sid, {})
            stack.append(frame)
            ok = False
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                rid = getattr(tracer._local, "rid", None)
                tracer.spans.append((sid, parent, span_name, start, end, rid, ok, frame[1]))

        traced.__wrapped__ = fn
        return traced

    def count(self, fn, name, weight=None):
        tracer = self

        def counted(*args, **kwargs):
            tracer._bump(tracer._stack(), name, weight(args) if weight else 1)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def timed_lock(self, lock) -> "TimedLock":
        return TimedLock(lock, self)

    def to_json(self) -> dict:
        return {"spans": self.spans, "loose": dict(self.loose)}

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json()))


class TimedLock:
    """Stands in for LogHTTPService.lock; each acquisition is a
    ``service.lock_wait`` span covering only the wait."""

    def __init__(self, lock, tracer: Tracer):
        self._lock = lock
        self._wait = tracer.span(lock.acquire, "service.lock_wait")

    def acquire(self, *args, **kwargs):
        return self._wait(*args, **kwargs)

    def release(self):
        self._lock.release()

    def __enter__(self):
        self._wait()
        return self

    def __exit__(self, *exc):
        self._lock.release()


def _route(args) -> str:
    # LogHTTPService.handle(self, method, path, query, body)
    return "service.handle:" + args[2].rsplit("/", 1)[-1]


def _client_route(args) -> str:
    # HttpLogClient._get(self, path) / _post(self, path, body)
    return "client.request:" + args[1].split("?", 1)[0].rsplit("/", 1)[-1]


def install(tracer: Tracer) -> callable:
    """Patch every hook; returns a function that restores the originals."""
    from pkisn import certs, crypto, journal, log, monitor, revtree, service, tcrl, timetree, validation

    undo: list[tuple[object, str, object]] = []

    def replace_attr(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    # Module-level functions, replaced in every module that bound them.
    functions = [
        (crypto.verify, "crypto.verify", "span"),
        (crypto.sign, "crypto.sign", "span"),
        (crypto.hash_node, "crypto.hash_node", "count"),
        (revtree.rev_leaf_hash, "revtree.rev_leaf_hash", "count"),
        (revtree.verify_chain, "revtree.verify_chain", "span"),
        (revtree.verify_absence, "revtree.verify_absence", "span"),
        (certs.verify_revocation, "certs.verify_revocation", "span"),
        (monitor.build_delta, "monitor.build_delta", "span"),
        (validation.is_valid, "validation.is_valid", "span"),
        (validation._verify_proofs_reason, "validation.verify_proofs", "span"),
        (validation.validate_with_tcrl, "validation.validate_with_tcrl", "span"),
        (tcrl.build_tcrl, "tcrl.build_tcrl", "span"),
        (tcrl.commit_tcrl, "tcrl.commit_tcrl", "span"),
        (tcrl.verify_tcrl, "tcrl.verify_tcrl", "span"),
    ]
    modules = [m for n, m in list(sys.modules.items()) if n == "pkisn" or n.startswith("pkisn.")]
    for original, name, kind in functions:
        wrapped = tracer.span(original, name) if kind == "span" else tracer.count(original, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    replace_attr(module, attr, wrapped)

    methods = [
        (log.LogServer, ["submit_chain", "submit_revocation", "run_update", "get_proof",
                         "prove_absence", "get_entries", "recover"]),
        (revtree.RevForest, ["rebuild", "prove_chain", "prove_absence_records"]),
        (timetree.TimeTree, ["append", "inclusion_proof", "consistency_proof"]),
        (journal.Journal, ["append_all", "replay"]),
        (certs.CertChain, ["verify_structure"]),
        (monitor.FullMonitor, ["sync_from", "full_sync"]),
        (monitor.MinimizedTimeTree, ["apply_delta"]),
        (tcrl.Tcrl, ["lookup"]),
    ]
    for cls, names in methods:
        layer = cls.__module__.rsplit(".", 1)[-1]
        for attr in names:
            raw = cls.__dict__[attr]
            name = f"{layer}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(tracer.span(raw.__func__, name))
            elif attr == "append_all":
                new = tracer.span(tracer.count(raw, "journal.records", lambda a: len(a[1])), name)
            else:
                new = tracer.span(raw, name)
            replace_attr(cls, attr, new)

    replace_attr(service.LogHTTPService, "handle", tracer.span(service.LogHTTPService.handle, "", _route))

    # Request ids: the client sends one per request, the server reads it
    # back into the handling thread so both sides' spans can be paired.
    ids = itertools.count(1)

    def with_request_id(fn):
        def call(*args, **kwargs):
            tracer._local.rid = str(next(ids))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._local.rid = None
        return call

    for attr in ("_get", "_post"):
        raw = service.HttpLogClient.__dict__[attr]
        replace_attr(service.HttpLogClient, attr, with_request_id(tracer.span(raw, "", _client_route)))

    urlopen = urllib.request.urlopen

    def urlopen_with_id(url, *args, **kwargs):
        rid = getattr(tracer._local, "rid", None)
        if rid is not None:
            if isinstance(url, str):
                url = urllib.request.Request(url)
            url.add_header(REQUEST_HEADER, rid)
        return urlopen(url, *args, **kwargs)

    replace_attr(urllib.request, "urlopen", urlopen_with_id)

    parse_request = http.server.BaseHTTPRequestHandler.parse_request

    def parse_request_with_id(handler):
        ok = parse_request(handler)
        tracer._local.rid = handler.headers.get(REQUEST_HEADER) if ok else None
        return ok

    replace_attr(http.server.BaseHTTPRequestHandler, "parse_request", parse_request_with_id)

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


# -- summaries -------------------------------------------------------------------

class SpanSet:
    """The spans of one process, with parent links resolved."""

    def __init__(self, dumped: dict):
        self.spans = [tuple(s) for s in dumped["spans"]]
        self.by_id = {s[0]: s for s in self.spans}
        self.children: dict[int, list[tuple]] = defaultdict(list)
        for s in self.spans:
            self.children[s[1]].append(s)

    def named(self, name: str, under: str | None = None, ok_only: bool = False) -> list[tuple]:
        out = [s for s in self.spans if s[2] == name and (s[6] or not ok_only)]
        if under is not None:
            out = [s for s in out if self.has_ancestor(s, under)]
        return sorted(out, key=lambda s: s[3])

    def has_ancestor(self, span: tuple, name: str) -> bool:
        parent = self.by_id.get(span[1])
        while parent is not None:
            if parent[2] == name:
                return True
            parent = self.by_id.get(parent[1])
        return False

    def inclusive(self, span: tuple, name: str) -> int:
        """Calls of ``name`` made inside ``span``, at any depth."""
        total = 0
        todo = [span]
        while todo:
            s = todo.pop()
            total += s[7].get(name, 0)
            todo.extend(self.children.get(s[0], ()))
        return total

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per layer: spans, busy time (outermost spans of the layer) and
        self time (span time not covered by child spans)."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "wait_s": 0.0})
        for s in self.spans:
            layer = s[2].split(".", 1)[0]
            row = out[layer]
            duration = s[4] - s[3]
            if s[2] == "service.lock_wait":
                row["wait_s"] += duration
                continue
            row["calls"] += 1
            row["self_s"] += duration - sum(c[4] - c[3] for c in self.children.get(s[0], ()))
            parent = self.by_id.get(s[1])
            while parent is not None and parent[2].split(".", 1)[0] != layer:
                parent = self.by_id.get(parent[1])
            if parent is None:
                row["busy_s"] += duration
        return out


def durations(spans: list[tuple], scale: float = 1.0) -> list[float]:
    return [(s[4] - s[3]) * scale for s in spans]
