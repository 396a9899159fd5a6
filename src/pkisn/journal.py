"""Append-only journal backing the log's durability guarantees.

Every accepted submission is written and fsynced before its commitment is
returned, so a crash between any two API calls loses nothing the caller was
promised. Records carry a CRC so a torn tail from a crash is detected and
ignored on replay, and cut off before the next write.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from pathlib import Path

from .wire import u8, u32

REC_CERT = 1
REC_REVOCATION = 2
REC_TCRL = 3
REC_UPDATE = 4


@dataclass(frozen=True)
class JournalRecord:
    kind: int
    payload: bytes


class Journal:
    def __init__(self, path: str | Path, fsync: bool = True):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._fh = open(self.path, "ab")
        data = self.path.read_bytes()
        intact = max((end for _, _, end in _frames(data)), default=0)
        if intact < len(data):
            self._fh.truncate(intact)  # replay stops at a torn frame: write before it

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
        return [JournalRecord(kind, payload) for kind, payload, _ in _frames(p.read_bytes())]


def _frames(data: bytes):
    """Yield (kind, payload, end offset) of each intact frame, up to the first
    truncated or corrupt one."""
    off = 0
    while off + 5 <= len(data):
        length = int.from_bytes(data[off + 1 : off + 5], "big")
        end = off + 5 + length + 4
        if end > len(data):
            return
        if zlib.crc32(data[off : off + 5 + length]) != int.from_bytes(data[end - 4 : end], "big"):
            return
        yield data[off], data[off + 5 : end - 4], end
        off = end
