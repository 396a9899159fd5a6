"""Monitors: full log replicas and the minimized-tree lightweight variant.

A full monitor replays the entry stream, re-validates every certificate and
revocation, rebuilds the revocation forest per batch, and compares its own
computed roots against what the log signed. It is a LogState, like the log,
so it applies entries with the log's own placement and forest code. Any
divergence yields a misbehavior report built from signed artifacts.

A lightweight monitor never stores certificate bodies. It holds leaf hashes
for live entries, covering hashes for whole expired regions, and full bytes
only for revocation entries, maintained through delta updates. Beside that
tiling it keeps a frontier, the complete subtrees along the right edge, so
each delta costs only its own items plus O(log n) to recompute the exact
tree root. The monitor can therefore vouch for roots, extend its view,
answer membership and revocation-status queries, and verify client proofs.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import takewhile
from pathlib import Path

from .certs import (
    CertChain,
    Certificate,
    SignerRole,
    decode_certificate,
    decode_revocation,
    issuance_problem,
    revocation_signer,
)
from .crypto import Digest, hash_leaf
from .log import ChainCommitment, LogState, RevocationCommitment, SignedRoot
from .merkle import Node, fold, push
from .timetree import EntryKind, TimeTreeEntry
from .wire import DecodeError, b64d, b64e


class MonitorError(Exception):
    pass


class UnknownTimestamp(MonitorError):
    pass


class GapInDelta(MonitorError):
    pass


class RootMismatch(MonitorError):
    def __init__(self, message: str, report: "MisbehaviorReport | None" = None):
        super().__init__(message)
        self.report = report


REPORT_INCORRECT_CC = "incorrect_cc"
REPORT_SUPPRESSED_REVOCATION = "suppressed_revocation"
REPORT_FORKED_ROOTS = "forked_roots"
REPORT_INVALID_ENTRY = "invalid_entry"
REPORT_ROOT_MISMATCH = "root_mismatch"


@dataclass(frozen=True)
class MisbehaviorReport:
    kind: str
    evidence: dict

    def to_json(self) -> dict:
        return {"kind": self.kind, "evidence": self.evidence}


def verify_fork_report(report: MisbehaviorReport, log_pub: bytes) -> bool:
    """A third party accepts a fork report iff both roots are validly signed
    for the same instant yet differ."""
    if report.kind != REPORT_FORKED_ROOTS:
        return False
    try:
        a = SignedRoot.from_json(report.evidence["root_a"])
        b = SignedRoot.from_json(report.evidence["root_b"])
    except (KeyError, ValueError):
        return False
    return (
        a.verify(log_pub)
        and b.verify(log_pub)
        and a.timestamp == b.timestamp
        and a.root != b.root
    )


@dataclass
class SyncResult:
    ok: bool
    new_size: int
    reports: list[MisbehaviorReport]


class FullMonitor(LogState):
    """Complete replica of the log with continuous re-validation. Like the
    log, it keeps decoded CAs only, and decodes a leaf from its logged bytes
    in the rare check that reads one (see _cert)."""

    def __init__(self, trust_roots: frozenset[Digest], log_pub: bytes, vendor_pub: bytes):
        super().__init__()
        self.trust_roots = trust_roots
        self.log_pub = log_pub
        self.vendor_pub = vendor_pub
        self.rk_used: set[Digest] = set()
        self.entry_index: dict[Digest, int] = {}  # cert hash -> entry index
        self.rev_entry_hashes: set[Digest] = set()
        self.signed_roots: dict[int, SignedRoot] = {}
        self.last_update_time: int | None = None

    # -- synchronization ----------------------------------------------------

    def sync_from(self, source) -> SyncResult:
        """Pull everything new from a log (or a client mirroring its API)."""
        signed_root = source.latest_signed_root()
        entries = source.get_entries(self.tree.size)
        # An update may land between the two reads. Every entry of an update
        # carries its time, so the signed root covers exactly this prefix.
        covered = takewhile(lambda e: e.reg_timestamp <= signed_root.timestamp, entries)
        return self.full_sync(list(covered), signed_root)

    def full_sync(self, new_entries: list[TimeTreeEntry], signed_root: SignedRoot) -> SyncResult:
        """Compare the tree root over the new entries with what the log signed,
        then check and apply each entry as the log applied it, comparing every
        forest root with the one the log logged."""
        if not signed_root.verify(self.log_pub):
            return SyncResult(False, self.tree.size, [
                MisbehaviorReport(REPORT_ROOT_MISMATCH, {"why": "unverifiable signed root",
                                                         "claimed": signed_root.to_json()})
            ])
        start = self.tree.size
        # Fail closed before applying anything: the tree only grows forward in time.
        last_ts = self.tree.entry(start - 1).reg_timestamp if start else 0
        for i, entry in enumerate(new_entries):
            if entry.reg_timestamp < last_ts:
                return SyncResult(False, start, [
                    self._invalid(entry, start + i, "timestamp precedes the previous entry")
                ])
            last_ts = entry.reg_timestamp
        # The tree root depends on the entry bytes alone: check it before
        # applying anything, so a replica never holds entries no root signs.
        frontier = self.tree.cover(0, start)
        for i, entry in enumerate(new_entries):
            push(frontier, (0, start + i, entry.leaf_hash))
        computed = fold(frontier)
        if computed != signed_root.root:
            evidence = {"claimed": signed_root.to_json(), "computed_root": computed.hex,
                        "tree_size": start + len(new_entries)}
            return SyncResult(False, start, [MisbehaviorReport(REPORT_ROOT_MISMATCH, evidence)])
        self.tree.append(new_entries)
        reports: list[MisbehaviorReport] = []
        for i, entry in enumerate(new_entries):
            problem = self._check_and_apply(entry, start + i)
            if problem is not None:
                reports.append(problem)
        self.signed_roots[signed_root.timestamp] = signed_root
        self.last_update_time = signed_root.timestamp
        return SyncResult(not reports, self.tree.size, reports)

    def _check_and_apply(self, entry: TimeTreeEntry, index: int) -> MisbehaviorReport | None:
        """Apply one entry to the replica, even an invalid one, since the log
        applied it too; reports it if it is invalid."""
        why = None
        if entry.kind == EntryKind.CERT:
            try:
                cert = decode_certificate(entry.payload)
            except Exception as e:
                return self._invalid(entry, index, f"undecodable certificate: {e}")
            if self.register(cert, entry.reg_timestamp):
                self.entry_index[cert.cert_hash] = index
            if cert.canonical_bytes != entry.payload:
                why = "non-canonical certificate encoding"
            else:
                why = self._cert_problem(cert)
        elif entry.kind == EntryKind.REVOCATION:
            self.rev_entry_hashes.add(hash_leaf(entry.payload))
            try:
                rev = decode_revocation(entry.payload)
            except Exception as e:
                return self._invalid(entry, index, f"undecodable revocation: {e}")
            target = rev.target_cert_hash
            if target not in self.registry:
                return self._invalid(entry, index, "revocation of an unlogged certificate")
            if revocation_signer(rev, self._cert(target), self._ancestors(target), self.vendor_pub) is None:
                why = "revocation fails verification"
            elif self.logged_under_other_bytes(rev):
                why = "revocation already logged under other bytes"
            elif rev.signer_role == SignerRole.REVOCATION_KEY and target in self.rk_used:
                why = "second use of a single-use revocation key"
            self.add_revocation(target, entry.payload, entry.reg_timestamp)
            if rev.signer_role == SignerRole.REVOCATION_KEY:
                self.rk_used.add(target)
        elif entry.kind == EntryKind.REV_TREE_ROOT:
            # Our own forest over everything seen so far must summarize to
            # what the log claims.
            forest_root = self.forest_root()
            if forest_root != entry.payload:
                return self._invalid(entry, index, "forest root does not match the logged objects",
                                     computed=forest_root.hex)
        return None if why is None else self._invalid(entry, index, why)

    def _cert_problem(self, cert: Certificate) -> str | None:
        """Why a registered certificate should not have been logged, or None."""
        parent_hash = self.registry[cert.cert_hash].parent
        if parent_hash is None:  # placed at the top: only trust roots belong there
            if cert.cert_hash in self.trust_roots:
                return None
            if cert.is_self_signed:
                return "self-signed root outside the trust set"
            return "issuer key unknown to the log"
        return issuance_problem(cert, self._cert(parent_hash))

    def _invalid(self, entry: TimeTreeEntry, index: int, why: str, **extra) -> MisbehaviorReport:
        return MisbehaviorReport(
            REPORT_INVALID_ENTRY,
            {"entry": b64e(entry.encode()), "why": why, "at_index": index, **extra},
        )

    def _cert(self, h: Digest) -> Certificate:
        """The kept CA, or else a leaf decoded from its logged bytes: a
        revocation target, or an issuer on a misbehaving stream, since
        key_owner files leaf keys too."""
        cert = self.certs.get(h)
        return cert if cert is not None else decode_certificate(self.registry[h].cert_bytes)

    def _ancestors(self, cert_hash: Digest) -> list[Certificate]:
        """The certificates a registered one hangs under, root first."""
        out: list[Certificate] = []
        parent = self.registry[cert_hash].parent
        while parent is not None:
            out.append(self._cert(parent))
            parent = self.registry[parent].parent
        return out[::-1]

    # -- checks serving clients ---------------------------------------------

    def check_root(self, client_root: SignedRoot):
        """Compare a root a client obtained during a handshake with our view."""
        if not client_root.verify(self.log_pub):
            raise MonitorError("presented root is not validly signed")
        ours = self.signed_roots.get(client_root.timestamp)
        if ours is None:
            raise UnknownTimestamp(f"no view of update at {client_root.timestamp}")
        if ours.root == client_root.root:
            return "consistent", None
        report = MisbehaviorReport(
            REPORT_FORKED_ROOTS,
            {"root_a": ours.to_json(), "root_b": client_root.to_json()},
        )
        return "fork", report

    def check_chain_commitment(self, cc: ChainCommitment, chain: CertChain) -> MisbehaviorReport | None:
        """Flag a commitment whose promised registration times the log broke."""
        if not cc.verify(self.log_pub):
            return None  # not the log's signature; nothing to report
        if self.last_update_time is None:
            return None
        ts_root_first = list(reversed(cc.timestamps))
        for cert, promised in zip(chain.certs, ts_root_first):
            if promised > self.last_update_time:
                continue  # still in the future; judge later
            rec = self.registry.get(cert.cert_hash)
            observed = rec.reg_ts if rec is not None else None
            if observed == promised:
                continue
            evidence = {
                "cc": cc.to_json(),
                "cert": b64e(cert.canonical_bytes),
                "promised_ts": promised,
                "observed_ts": observed,
                "signed_root": self.signed_roots[self.last_update_time].to_json(),
            }
            if rec is not None:
                idx = self.entry_index[cert.cert_hash]
                evidence["entry_inclusion"] = self.tree.inclusion_proof(idx).to_json()
                evidence["entry"] = b64e(self.tree.entry(idx).encode())
            return MisbehaviorReport(REPORT_INCORRECT_CC, evidence)
        return None

    def check_revocation_commitment(self, rc: RevocationCommitment) -> MisbehaviorReport | None:
        """Flag a revocation the log promised but never appended."""
        if not rc.verify(self.log_pub):
            return None
        if self.last_update_time is None or rc.timestamp > self.last_update_time:
            return None
        if rc.rev_hash in self.rev_entry_hashes:
            return None
        return MisbehaviorReport(
            REPORT_SUPPRESSED_REVOCATION,
            {
                "commitment": rc.to_json(),
                "synced_through": self.last_update_time,
                "signed_root": self.signed_roots[self.last_update_time].to_json(),
            },
        )


# ---------------------------------------------------------------------------
# Lightweight monitoring
# ---------------------------------------------------------------------------

ITEM_COVER = "cover"
ITEM_HASH = "hash"
ITEM_FULL = "full"


@dataclass(frozen=True, slots=True)
class DeltaItem:
    kind: str
    level: int
    index: int
    payload: bytes  # 32-byte digest for cover/hash, full entry bytes for full

    def span(self) -> tuple[int, int]:
        lo = self.index << self.level
        return lo, lo + (1 << self.level)

    def to_json(self) -> dict:
        return {"kind": self.kind, "level": self.level, "index": self.index, "payload": b64e(self.payload)}

    @classmethod
    def from_json(cls, obj: dict) -> "DeltaItem":
        return cls(obj["kind"], obj["level"], obj["index"], b64d(obj["payload"]))


@dataclass(frozen=True)
class DeltaBatch:
    ts: int
    items: tuple[DeltaItem, ...]

    def to_json(self) -> dict:
        return {"ts": self.ts, "items": [i.to_json() for i in self.items]}

    @classmethod
    def from_json(cls, obj: dict) -> "DeltaBatch":
        return cls(obj["ts"], tuple(DeltaItem.from_json(i) for i in obj["items"]))


@dataclass(frozen=True)
class DeltaUpdate:
    from_size: int
    to_size: int
    batches: tuple[DeltaBatch, ...]
    signed_root: SignedRoot

    def to_json(self) -> dict:
        return {
            "from_size": self.from_size,
            "to_size": self.to_size,
            "batches": [b.to_json() for b in self.batches],
            "signed_root": self.signed_root.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DeltaUpdate":
        return cls(
            from_size=obj["from_size"],
            to_size=obj["to_size"],
            batches=tuple(DeltaBatch.from_json(b) for b in obj["batches"]),
            signed_root=SignedRoot.from_json(obj["signed_root"]),
        )


def build_delta(log, from_size: int, now: int) -> DeltaUpdate:
    """Log-side construction of the next delta for a lightweight monitor.

    Certificates expired (with one scheduling period of grace) and carrying no
    live descendants are declared prunable; maximal complete subtrees of
    prunable entries collapse to one covering hash each. Revocation entries
    always travel in full; forest-root and bundle entries stay as single leaf
    hashes. The monitor verifies the declaration only through root equality,
    so a mislabeled leaf can cost availability but never integrity.
    """
    to_size = log.tree.size
    entries = log.get_entries(from_size, to_size)

    live_memo: dict[Digest, bool] = {}

    def subtree_live(h: Digest) -> bool:
        if h in live_memo:
            return live_memo[h]
        rec = log.registry[h]
        alive = rec.not_after + log.config.scheduling_period > now or any(
            subtree_live(ch) for ch in log.children.get(h, [])
        )
        live_memo[h] = alive
        return alive

    def prunable(entry: TimeTreeEntry) -> bool:
        if entry.kind != EntryKind.CERT:
            return False
        h = hash_leaf(entry.payload)
        if h not in log.registry:
            return False
        return not subtree_live(h)

    batches: list[DeltaBatch] = []
    i = 0
    while i < len(entries):
        ts = entries[i].reg_timestamp
        j = i
        while j < len(entries) and entries[j].reg_timestamp == ts:
            j += 1
        items: list[DeltaItem] = []
        k = i
        while k < j:
            entry = entries[k]
            abs_idx = from_size + k
            if prunable(entry):
                run_end = k
                while run_end < j and prunable(entries[run_end]):
                    run_end += 1
                items.extend(
                    DeltaItem(ITEM_COVER if level else ITEM_HASH, level, index, digest)
                    for level, index, digest in log.tree.cover(from_size + k, from_size + run_end)
                )
                k = run_end
                continue
            if entry.kind == EntryKind.REVOCATION:
                items.append(DeltaItem(ITEM_FULL, 0, abs_idx, entry.encode()))
            else:
                items.append(DeltaItem(ITEM_HASH, 0, abs_idx, entry.leaf_hash))
            k += 1
        batches.append(DeltaBatch(ts=ts, items=tuple(items)))
        i = j
    return DeltaUpdate(
        from_size=from_size,
        to_size=to_size,
        batches=tuple(batches),
        signed_root=log.latest.signed_root,
    )


class MinimizedTimeTree:
    """The lightweight monitor's state: a tiling of the leaf range by tree
    nodes, its right-edge frontier, and full revocation payloads for status
    queries."""

    def __init__(self, log_pub: bytes):
        self.log_pub = log_pub
        self.tiles: list[Node] = []
        self.frontier: list[Node] = []
        self.size = 0
        self.full_entries: dict[int, TimeTreeEntry] = {}
        self.leaf_index: dict[Digest, int] = {}  # retained leaf hash -> position
        self.revs_by_target: dict[Digest, list[tuple[bytes, int]]] = {}
        self.signed_roots: dict[int, SignedRoot] = {}
        self.latest_root: SignedRoot | None = None

    def root(self) -> Digest:
        if self.size == 0:
            raise MonitorError("empty state has no root")
        return fold(self.frontier)

    def apply_delta(self, delta: DeltaUpdate) -> None:
        """Extend the minimized view; commits only if the recomputed root
        matches the signed root carried by the delta."""
        if delta.from_size != self.size:
            raise GapInDelta(f"state at {self.size}, delta starts at {delta.from_size}")
        if not delta.signed_root.verify(self.log_pub):
            raise RootMismatch("delta carries an unverifiable signed root")
        new_tiles: list[Node] = []
        new_full: dict[int, TimeTreeEntry] = {}
        try:
            for batch in delta.batches:
                for item in batch.items:
                    if item.kind == ITEM_FULL:
                        entry = TimeTreeEntry.decode(item.payload)
                        new_tiles.append((item.level, item.index, entry.leaf_hash))
                        new_full[item.index] = entry
                    elif item.kind in (ITEM_HASH, ITEM_COVER):
                        new_tiles.append((item.level, item.index, Digest(item.payload)))
                    else:
                        raise MonitorError(f"unknown delta item kind {item.kind!r}")
        except (ValueError, DecodeError) as e:
            raise MonitorError(f"malformed delta item: {e}") from e
        frontier = list(self.frontier)
        end = _extend(frontier, self.size, new_tiles)
        if end != delta.to_size:
            raise GapInDelta(f"delta items end at {end}, declared {delta.to_size}")
        computed = fold(frontier)
        if computed != delta.signed_root.root:
            raise RootMismatch(
                f"recomputed root {computed.hex[:12]} != signed {delta.signed_root.root.hex[:12]}",
                MisbehaviorReport(
                    REPORT_ROOT_MISMATCH,
                    {"claimed": delta.signed_root.to_json(), "computed_root": computed.hex},
                ),
            )
        self.tiles.extend(new_tiles)
        self.frontier = frontier
        self.size = end
        self.full_entries.update(new_full)
        self._index(new_tiles, new_full.values())
        self.signed_roots[delta.signed_root.timestamp] = delta.signed_root
        self.latest_root = delta.signed_root

    def _index(self, tiles: list[Node], full: Iterable[TimeTreeEntry]) -> None:
        """Make retained leaves and revocation payloads answer queries."""
        for entry in full:
            try:
                rev = decode_revocation(entry.payload)
            except Exception:
                continue
            self.revs_by_target.setdefault(rev.target_cert_hash, []).append(
                (entry.payload, entry.reg_timestamp)
            )
        for level, index, digest in tiles:
            if level == 0:
                self.leaf_index[digest] = index

    # -- queries -------------------------------------------------------------

    def has_entry(self, entry_bytes: bytes) -> bool:
        """Membership of a retained (non-pruned) entry."""
        return hash_leaf(entry_bytes) in self.leaf_index

    def revocations_for(self, cert_hash: Digest) -> list[tuple[bytes, int]]:
        return list(self.revs_by_target.get(cert_hash, []))

    def vouch_root(self, signed_root: SignedRoot) -> bool:
        ours = self.signed_roots.get(signed_root.timestamp)
        return ours is not None and ours.root == signed_root.root

    def verify_client_proof(self, chain, cc_timestamps, proof, signed_root) -> bool:
        """A client's presence proof checks out iff the root it hangs from is
        one we computed ourselves and the proof verifies against it."""
        from .revtree import verify_chain

        if not self.vouch_root(signed_root):
            return False
        return verify_chain(chain, cc_timestamps, proof, signed_root)

    def storage_bytes(self) -> int:
        total = 0
        for level, index, _ in self.tiles:
            if level == 0 and index in self.full_entries:
                total += len(self.full_entries[index].encode())
            else:
                total += 32
        return total


def _extend(frontier: list[Node], start: int, tiles: list[Node]) -> int:
    """Push tiles that must continue the range [0, start) onto a frontier;
    returns the end of the range they reach."""
    pos = start
    for level, index, digest in tiles:
        # The level is bounded before any shift: no tree holds 2**64 leaves.
        if not 0 <= level < 64 or index << level != pos:
            raise GapInDelta(f"tile ({level}, {index}), expected one at {pos}")
        push(frontier, (level, index, digest))
        pos += 1 << level
    return pos


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _write_atomically(path: Path, data: bytes) -> None:
    """Replace path with data; a crash leaves the old file or the new one."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _check_roots(roots: dict[int, SignedRoot], log_pub: bytes) -> None:
    """Fail closed unless every stored signed root verifies under the log's
    key and is filed under its own timestamp."""
    for ts, sr in roots.items():
        if sr.timestamp != ts or not sr.verify(log_pub):
            raise MonitorError(f"stored signed root for {ts} does not verify")


_MALFORMED = (AttributeError, KeyError, TypeError, ValueError, DecodeError)


def save_full_monitor(state_dir: Path, monitor: FullMonitor) -> None:
    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    frames = bytearray()
    for entry in monitor.tree.entries(0):
        raw = entry.encode()
        frames += len(raw).to_bytes(4, "big") + raw
    _write_atomically(state_dir / "entries.bin", bytes(frames))
    roots = {str(ts): sr.to_json() for ts, sr in monitor.signed_roots.items()}
    _write_atomically(state_dir / "roots.json", (json.dumps(roots) + "\n").encode())


def load_full_monitor(
    state_dir: Path,
    trust_roots: frozenset[Digest],
    log_pub: bytes,
    vendor_pub: bytes,
) -> FullMonitor:
    """Rebuild a replica from disk, re-running the full verification pass;
    a torn or malformed state, or a stored signed root that does not verify,
    fails with MonitorError."""
    state_dir = Path(state_dir)
    monitor = FullMonitor(trust_roots, log_pub, vendor_pub)
    entries: list[TimeTreeEntry] = []
    try:
        stored = json.loads((state_dir / "roots.json").read_text())
        roots = {int(k): SignedRoot.from_json(v) for k, v in stored.items()}
        data = (state_dir / "entries.bin").read_bytes()
        off = 0
        while off < len(data):
            end = off + 4 + int.from_bytes(data[off : off + 4], "big")
            entries.append(TimeTreeEntry.decode(data[off + 4 : end]))
            off = end
    except _MALFORMED as e:
        raise MonitorError(f"malformed monitor state: {e}") from e
    _check_roots(roots, log_pub)
    if entries:
        if not roots:
            raise MonitorError("stored replica has no signed root")
        latest = roots[max(roots)]
        monitor.full_sync(entries, latest)
        if monitor.tree.root() != latest.root:
            raise MonitorError("stored replica does not recompute its signed root")
        monitor.signed_roots.update(roots)
    return monitor


def save_minimized(path: Path, state: MinimizedTimeTree) -> None:
    payload = {
        "size": state.size,
        "tiles": [
            {"level": level, "index": index, "digest": digest.hex} for level, index, digest in state.tiles
        ],
        "full": [{"index": i, "b64": b64e(e.encode())} for i, e in sorted(state.full_entries.items())],
        "roots": [sr.to_json() for _, sr in sorted(state.signed_roots.items())],
    }
    _write_atomically(Path(path), (json.dumps(payload) + "\n").encode())


def load_minimized(path: Path, log_pub: bytes) -> MinimizedTimeTree:
    """Load a lightweight monitor's state; a torn or malformed file, or a
    stored signed root that does not verify, fails with MonitorError."""
    state = MinimizedTimeTree(log_pub)
    try:
        obj = json.loads(Path(path).read_text())
        state.tiles = [(t["level"], t["index"], Digest.from_hex(t["digest"])) for t in obj["tiles"]]
        for f in obj["full"]:
            state.full_entries[f["index"]] = TimeTreeEntry.decode(b64d(f["b64"]))
        state.size = _extend(state.frontier, 0, state.tiles)
        if state.size != obj["size"]:
            raise GapInDelta(f"stored tiles end at {state.size}, declared {obj['size']}")
        state._index(state.tiles, state.full_entries.values())
        for r in obj["roots"]:
            sr = SignedRoot.from_json(r)
            state.signed_roots[sr.timestamp] = sr
            state.latest_root = sr
    except _MALFORMED as e:
        raise MonitorError(f"malformed stored state: {e}") from e
    _check_roots(state.signed_roots, log_pub)
    if state.size and state.latest_root is not None:
        if state.root() != state.latest_root.root:
            raise RootMismatch("stored state does not recompute its signed root")
    return state
