"""Little-endian primitives shared by the ``.mrfl`` and ``.adpk`` formats.

Both formats store strings as a u32 byte length followed by UTF-8 bytes.
:class:`Reader` turns every short read and every undecodable string into a
:class:`~emodub.errors.FormatError` that names the file.
"""

from __future__ import annotations

import struct
from pathlib import Path

from .errors import FormatError


def pack_string(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class Reader:
    """Sequential bounds-checked reader over a whole file's bytes."""

    def __init__(self, path):
        self.path = path
        self.data = Path(path).read_bytes()
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(f"{self.path}: truncated payload while reading {what}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def string(self, what: str) -> str:
        (n,) = self.unpack("<I", f"{what} length")
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.path}: {what} is not valid UTF-8 ({exc.reason})") from None

    @property
    def remaining(self) -> int:
        return len(self.data) - self.pos
