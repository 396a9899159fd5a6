"""Append-only journal backing the log's durability guarantees.

Every accepted submission is written and fsynced before its commitment is
returned, so a crash between any two API calls loses nothing the caller was
promised. Records carry a CRC so a torn tail from a crash is detected and
ignored on replay, and cut off before the next write.

A frame is kind (u8) ‖ payload length (u32) ‖ payload ‖ CRC-32 of the rest
(u32). The payload of each kind:

- REC_CERT: a certificate's canonical bytes;
- REC_REVOCATION: a revocation message's canonical bytes;
- REC_TCRL: a vendor bundle's 32-byte hash;
- REC_UPDATE: the update time (u64) ‖ the forest root ‖ the tree root the
  log signed (32 bytes each), 72 bytes in all. Journals written before the
  roots were recorded hold the 8-byte legacy form, the update time alone;
  recovery rebuilds the forest at such a record to get its root.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from pathlib import Path

from .crypto import DIGEST_LEN, Digest
from .wire import u8, u32, u64

REC_CERT = 1
REC_REVOCATION = 2
REC_TCRL = 3
REC_UPDATE = 4

FRAME_OVERHEAD = 9  # kind, length and CRC around each payload
LEGACY_UPDATE_LEN = 8
UPDATE_LEN = 8 + 2 * DIGEST_LEN


@dataclass(frozen=True)
class JournalRecord:
    kind: int
    payload: bytes


def encode_update(now: int, forest_root: Digest, tree_root: Digest) -> bytes:
    return u64(now) + forest_root + tree_root


def decode_update(payload: bytes) -> tuple[int, tuple[Digest, Digest] | None]:
    """The update time and its journaled (forest root, tree root), or None
    for the legacy 8-byte form. Raises ValueError on any other length."""
    if len(payload) not in (LEGACY_UPDATE_LEN, UPDATE_LEN):
        raise ValueError(f"update record of {len(payload)} bytes")
    now = int.from_bytes(payload[:8], "big")
    if len(payload) == LEGACY_UPDATE_LEN:
        return now, None
    return now, (Digest(payload[8 : 8 + DIGEST_LEN]), Digest(payload[8 + DIGEST_LEN :]))


class Journal:
    def __init__(self, path: str | Path, fsync: bool = True):
        self._open(path, fsync)

    @classmethod
    def open(cls, path: str | Path, fsync: bool = True) -> tuple["Journal", list[JournalRecord]]:
        """Open for appending and return the intact records, reading and
        checking the file once."""
        journal = cls.__new__(cls)
        return journal, journal._open(path, fsync)

    def _open(self, path: str | Path, fsync: bool) -> list[JournalRecord]:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        records = self.replay(self.path)
        self._fh = open(self.path, "ab")
        intact = sum(FRAME_OVERHEAD + len(r.payload) for r in records)
        if intact < os.fstat(self._fh.fileno()).st_size:
            self._fh.truncate(intact)  # replay stops at a torn frame: write before it
        return records

    def append(self, kind: int, payload: bytes) -> None:
        self.append_all([(kind, payload)])

    def append_all(self, records: list[tuple[int, bytes]]) -> None:
        """Write several records with a single flush and fsync."""
        for kind, payload in records:
            frame = u8(kind) + u32(len(payload)) + payload
            frame += u32(zlib.crc32(frame))
            self._fh.write(frame)
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()

    @staticmethod
    def replay(path: str | Path) -> list[JournalRecord]:
        """Read every intact record; stop silently at a truncated or corrupt tail."""
        p = Path(path)
        if not p.exists():
            return []
        return list(_frames(p.read_bytes()))


def _frames(data: bytes):
    """Yield each intact frame's record, up to the first truncated or corrupt one."""
    off = 0
    while off + 5 <= len(data):
        length = int.from_bytes(data[off + 1 : off + 5], "big")
        end = off + 5 + length + 4
        if end > len(data):
            return
        if zlib.crc32(data[off : off + 5 + length]) != int.from_bytes(data[end - 4 : end], "big"):
            return
        yield JournalRecord(data[off], data[off + 5 : end - 4])
        off = end
