"""Binary container helpers shared by the basis and checkpoint formats.

All on-disk artifacts use the same skeleton: a 4-byte ASCII magic, a u32
format version, format-specific header fields, raw little-endian tensor
payloads, and a trailing CRC32 (zlib) over everything after the magic.
Multi-byte integers are little-endian throughout.  Writes are atomic
(temp file in the same directory, then ``os.replace``) so a crashed writer
can never leave a half-written artifact behind, and streamed: a container
goes to the file as its parts, so no whole-container blob is built.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
import tempfile
import zlib
from typing import Any, Iterable

import numpy as np

from .errors import ArtifactError

__all__ = [
    "Reader",
    "Writer",
    "atomic_write",
    "canonical_json",
    "crc32",
    "map_file",
]


def crc32(data, value: int = 0) -> int:
    """CRC32 of any contiguous buffer, continuing from the running ``value``."""
    return zlib.crc32(data, value) & 0xFFFFFFFF


def canonical_json(obj: Any) -> str:
    """Canonical JSON: sorted keys, compact separators, UTF-8, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def atomic_write(path: str | os.PathLike, parts: Iterable) -> None:
    """Write the buffers ``parts`` back to back to ``path`` via a
    same-directory temp file + rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def map_file(path: str | os.PathLike) -> mmap.mmap | bytes:
    """The file's bytes, mapped read-only, so only the pages a reader touches
    are read; ``b""`` for an empty file, which cannot be mapped.  The map is
    released with its last reference, so a tensor must be copied out of it
    (``Reader.array`` does)."""
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:
            return b""
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


class Writer:
    """Accumulates one container as a list of buffers; tracks the CRC region
    automatically.

    Everything appended after the magic participates in the trailing CRC32.
    A tensor is held as a view of its array, not a copy, so the arrays must
    not change before :meth:`parts` or :meth:`finish` is called.
    """

    def __init__(self, magic: bytes):
        if len(magic) != 4:
            raise ValueError("magic must be exactly 4 bytes")
        self._parts: list[bytes] = [magic]

    def u32(self, value: int) -> "Writer":
        self._parts.append(struct.pack("<I", value))
        return self

    def u64(self, value: int) -> "Writer":
        self._parts.append(struct.pack("<Q", value))
        return self

    def raw(self, data: bytes) -> "Writer":
        self._parts.append(data)
        return self

    def json_block(self, obj: Any) -> "Writer":
        """u32 byte length followed by canonical JSON."""
        blob = canonical_json(obj).encode("utf-8")
        self.u32(len(blob))
        self.raw(blob)
        return self

    def array(self, arr: np.ndarray, dtype: str) -> "Writer":
        """Raw little-endian C-order bytes of ``arr`` cast to ``dtype``."""
        a = np.ascontiguousarray(arr, dtype=np.dtype(dtype).newbyteorder("<"))
        self.raw(memoryview(a.reshape(-1).view(np.uint8)))
        return self

    def parts(self) -> list:
        """The container as buffers: the parts, then the CRC32 of everything
        after the magic, computed as a running value over the parts."""
        crc = 0
        for part in self._parts[1:]:
            crc = crc32(part, crc)
        return self._parts + [struct.pack("<I", crc)]

    def finish(self) -> bytes:
        """The whole container as one blob."""
        return b"".join(self.parts())


class Reader:
    """Sequential reader over a ``memoryview`` of ``data``, which starts with
    the container: only :meth:`array` copies, once per tensor.

    The container's end is found by reading it, so ``data`` may carry more
    bytes after it.  :meth:`end` checks the trailing CRC32 against
    everything read since the magic; a caller returns nothing it read until
    that check has passed.
    """

    def __init__(self, data: bytes | memoryview, magic: bytes, what: str = "artifact"):
        self._what = what
        data = memoryview(data)
        if len(data) < 8:
            raise ArtifactError(f"{what}: file truncated ({len(data)} bytes)")
        if data[:4] != magic:
            raise ArtifactError(
                f"{what}: bad magic {bytes(data[:4])!r}, expected {magic!r}"
            )
        self._buf = data
        self._pos = 4

    def _take(self, n: int) -> memoryview:
        if self._pos + n > len(self._buf):
            raise ArtifactError(
                f"{self._what}: truncated payload (wanted {n} bytes at offset "
                f"{self._pos}, {len(self._buf) - self._pos} available)"
            )
        out = self._buf[self._pos : self._pos + n]
        self._pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def json_block(self) -> Any:
        n = self.u32()
        blob = self._take(n)
        try:
            return json.loads(str(blob, "utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArtifactError(f"{self._what}: corrupt JSON block: {exc}") from exc

    def array(self, shape: tuple[int, ...], dtype: str) -> np.ndarray:
        dt = np.dtype(dtype).newbyteorder("<")
        # Python ints: a corrupt header's huge shape cannot wrap past _take
        raw = self._take(math.prod(shape) * dt.itemsize)
        return np.frombuffer(raw, dtype=dt).reshape(shape).astype(dtype)

    def end(self) -> int:
        """Read the trailing CRC32 and check it against everything read
        since the magic; returns the offset just past the container."""
        actual = crc32(self._buf[4 : self._pos])
        stored = self.u32()
        if stored != actual:
            raise ArtifactError(
                f"{self._what}: checksum mismatch (stored 0x{stored:08x}, "
                f"computed 0x{actual:08x})"
            )
        return self._pos

    def expect_end(self) -> None:
        """:meth:`end`, for a container that must fill all of ``data``."""
        if self.end() != len(self._buf):
            raise ArtifactError(
                f"{self._what}: {len(self._buf) - self._pos} trailing bytes"
            )

    def expect_version(self, version: int) -> int:
        got = self.u32()
        if got != version:
            raise ArtifactError(
                f"{self._what}: unsupported format version {got} "
                f"(this build reads version {version})"
            )
        return got
