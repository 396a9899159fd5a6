"""Byte-level encoding helpers.

All integers are unsigned big-endian with a fixed width; all variable-length
byte fields carry a 4-byte big-endian length prefix. Every structure that is
hashed or signed anywhere in the system is serialized through these helpers,
so two encoders can never disagree about a byte.
"""

from __future__ import annotations

import base64
import struct


class DecodeError(Exception):
    """Malformed canonical bytes."""


def u8(v: int) -> bytes:
    return struct.pack(">B", v)


def u16(v: int) -> bytes:
    return struct.pack(">H", v)


def u32(v: int) -> bytes:
    return struct.pack(">I", v)


def u64(v: int) -> bytes:
    return struct.pack(">Q", v)


def lp(data: bytes) -> bytes:
    """Length-prefixed byte field."""
    return struct.pack(">I", len(data)) + data


class Reader:
    """Sequential reader over canonical bytes, raising DecodeError on underrun."""

    def __init__(self, data: bytes):
        self._data = data
        self._off = 0

    @property
    def offset(self) -> int:
        return self._off

    def take(self, n: int) -> bytes:
        if self._off + n > len(self._data):
            raise DecodeError(f"need {n} bytes at offset {self._off}, have {len(self._data) - self._off}")
        out = self._data[self._off : self._off + n]
        self._off += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def lp(self) -> bytes:
        return self.take(self.u32())

    def done(self) -> None:
        if self._off != len(self._data):
            raise DecodeError(f"{len(self._data) - self._off} trailing bytes")


def b64e(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def b64d(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))
