"""Hierarchical parameter collections and their on-disk container.

``ModuleParams`` is an ordered tree of named trainable tensors; dotted paths
(e.g. ``cru.focal.s3.g1.psi.weight``) identify every leaf uniquely.  The
container format is a flat little-endian binary file:

    magic "LFDP" | u32 version=1 | u32 entry-count | entries
    entry = u16 name-length | UTF-8 name | u8 rank | u32 extents[rank]
            | f64 data[product(extents)]

Round-trips are bit-exact.  A reader may leave chosen entries on disk
(``DiskEntry``) and read them back later with ``read_entries``.
"""

from __future__ import annotations

import io
import math
import struct
import zlib
from typing import BinaryIO, Iterator, NamedTuple

import numpy as np

from .errors import FormatError, UsageError
from .tensor import Tensor

MAGIC = b"LFDP"
VERSION = 1
# bytes of a left-on-disk entry that read_container checks at a time
_STREAM_CHUNK = 1 << 16


class ModuleParams:
    """Ordered map of name -> trainable tensor plus named sub-modules."""

    def __init__(self):
        self._entries: dict[str, Tensor] = {}
        self._children: dict[str, ModuleParams] = {}

    def add(self, name: str, data) -> Tensor:
        """Register a new trainable leaf tensor made from ``data`` under ``name``
        and return it; a float32 ``data`` is a UsageError."""
        self._check_name(name)
        t = self._entries[name] = Tensor(data, requires_grad=True)
        return t

    def child(self, name: str) -> "ModuleParams":
        """Return the sub-module ``name``, creating it if needed."""
        if name in self._children:
            return self._children[name]
        self._check_name(name)
        sub = ModuleParams()
        self._children[name] = sub
        return sub

    def _check_name(self, name: str) -> None:
        if not name or "." in name:
            raise UsageError(f"invalid parameter name {name!r}")
        if name in self._entries or name in self._children:
            raise UsageError(f"duplicate parameter name {name!r}")

    def named(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """Yield (dotted path, tensor) pairs in registration order."""
        for name, t in self._entries.items():
            yield prefix + name, t
        for name, sub in self._children.items():
            yield from sub.named(prefix + name + ".")

    def tensors(self) -> list[tuple[str, Tensor]]:
        """All (path, tensor) pairs; each ``add`` made its own tensor, so none sits at two paths."""
        return list(self.named())

    def get(self, path: str) -> Tensor:
        node = self
        parts = path.split(".")
        for part in parts[:-1]:
            if part not in node._children:
                raise UsageError(f"unknown parameter path {path!r}")
            node = node._children[part]
        if parts[-1] not in node._entries:
            raise UsageError(f"unknown parameter path {path!r}")
        return node._entries[parts[-1]]

    def count(self) -> int:
        return sum(t.size for _, t in self.tensors())

    def zero_grad(self) -> None:
        for _, t in self.tensors():
            t.grad = None

    def gradients(self) -> dict[str, np.ndarray]:
        """Gradient map for every leaf that received one in the last backward."""
        return {path: t.grad for path, t in self.tensors() if t.grad is not None}

    def state(self) -> dict[str, np.ndarray]:
        return {path: t.data for path, t in self.tensors()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Assign arrays by path; the key sets and shapes must match.

        The tree takes ownership: an array that is already writable C-contiguous
        float64 (as ``read_container`` returns them) becomes its tensor's data
        without a copy, so the caller must not keep using it.  Pass copies to
        load another tree's ``state()``, whose arrays are that tree's own.
        """
        own = dict(self.tensors())
        missing = sorted(set(own) - set(state))
        extra = sorted(set(state) - set(own))
        if missing or extra:
            raise FormatError(
                f"parameter set mismatch: missing {missing[:4]}, unexpected {extra[:4]}"
            )
        for path, arr in state.items():
            t = own[path]
            if arr.shape != t.shape:
                raise FormatError(f"shape mismatch for {path!r}: {arr.shape} vs {t.shape}")
            t.data = np.require(arr, np.float64, "CW")


# -- container IO -------------------------------------------------------------


def write_container(fh: BinaryIO, entries: dict[str, np.ndarray]) -> None:
    fh.write(MAGIC)
    fh.write(struct.pack("<I", VERSION))
    fh.write(struct.pack("<I", len(entries)))
    for name, arr in entries.items():
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise UsageError(f"parameter name too long: {name[:32]!r}...")
        # np.ascontiguousarray would promote rank-0 arrays to rank 1
        arr = np.asarray(arr, dtype="<f8")
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        if arr.ndim > 0xFF:
            raise UsageError(f"rank {arr.ndim} exceeds container limit")
        fh.write(struct.pack("<H", len(raw)))
        fh.write(raw)
        fh.write(struct.pack("<B", arr.ndim))
        for n in arr.shape:
            fh.write(struct.pack("<I", n))
        fh.write(arr)  # the array's own buffer, not a bytes copy


class DiskEntry(NamedTuple):
    """An entry ``read_container`` left on disk: where its data starts, its
    shape, and the CRC-32 of its data bytes."""

    offset: int
    shape: tuple[int, ...]
    crc: int


def read_container(fh: BinaryIO, defer: tuple[str, ...] = ()) -> dict[str, np.ndarray | DiskEntry]:
    """Parse a container from a seekable stream; malformed bytes raise FormatError.

    Each entry's data is read straight into a fresh writable float64 array,
    which the returned map holds as its only reference.  An entry whose name
    starts with one of the ``defer`` prefixes is not kept: its data streams
    through one small reused buffer, which checks that it is all there and
    finite (a FormatError otherwise), and the map holds its ``DiskEntry``.
    """
    start = fh.tell()
    end = fh.seek(0, io.SEEK_END)
    fh.seek(start)
    chunk = np.empty(_STREAM_CHUNK // 8, dtype="<f8")

    def take(n: int, what: str, shape=None):
        """The next ``n`` bytes, or with ``shape`` a new float64 array read from
        them; a stream that ends first is a truncation FormatError."""
        offset = fh.tell()
        if n > end - offset:  # checked before anything of size n is allocated
            raise FormatError(f"truncated container: {what} at offset {offset}")
        buf = bytearray(n) if shape is None else np.empty(shape, dtype="<f8")
        if fh.readinto(buf) != n:
            raise FormatError(f"truncated container: {what} at offset {offset}")
        return buf

    def stream(name: str, shape) -> DiskEntry:
        offset = fh.tell()
        what = f"data of {name!r}"
        left = 8 * math.prod(shape)
        if left > end - offset:
            raise FormatError(f"truncated container: {what} at offset {offset}")
        crc = 0
        while left:
            part = chunk[: min(left, _STREAM_CHUNK) // 8]
            if fh.readinto(part) != part.nbytes:
                raise FormatError(f"truncated container: {what} at offset {offset}")
            if not np.all(np.isfinite(part)):
                raise FormatError(f"entry {name!r} holds non-finite values")
            crc = zlib.crc32(part, crc)
            left -= part.nbytes
        return DiskEntry(offset, shape, crc)

    if take(4, "magic") != MAGIC:
        raise FormatError("bad magic: not a parameter container")
    version = struct.unpack("<I", take(4, "version"))[0]
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    count = struct.unpack("<I", take(4, "entry count"))[0]
    entries: dict[str, np.ndarray | DiskEntry] = {}
    for _ in range(count):
        name_len = struct.unpack("<H", take(2, "name length"))[0]
        offset = fh.tell()
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"parameter name at offset {offset} is not UTF-8") from None
        rank = struct.unpack("<B", take(1, "rank"))[0]
        shape = tuple(
            struct.unpack("<I", take(4, f"extent of {name!r}"))[0] for _ in range(rank)
        )
        if name in entries:
            raise FormatError(f"duplicate entry {name!r} in container")
        if name.startswith(defer):
            entries[name] = stream(name, shape)
        else:
            entries[name] = take(8 * math.prod(shape), f"data of {name!r}", shape)
    return entries


def read_entries(path, records: dict[str, DiskEntry]) -> dict[str, np.ndarray]:
    """Read entries that ``read_container`` left on disk back from the file at
    ``path``, each into a fresh writable float64 array.

    A file that is gone, ends early or whose bytes no longer match an entry's
    CRC-32 is a FormatError naming the file and the entry.
    """
    out = {}
    if not records:
        return out
    name = next(iter(records))
    try:
        with open(path, "rb") as fh:
            for name, rec in records.items():
                arr = np.empty(rec.shape, dtype="<f8")
                fh.seek(rec.offset)
                if fh.readinto(arr) != arr.nbytes or zlib.crc32(arr) != rec.crc:
                    raise FormatError(f"{path}: entry {name!r} changed on disk since it was loaded")
                out[name] = arr
    except OSError as err:
        raise FormatError(f"{path}: cannot read entry {name!r} back ({err.strerror})") from None
    return out


def save_params(path, entries: dict[str, np.ndarray]) -> None:
    """Write a {path: array} map (e.g. ``ModuleParams.state()``) to ``path``."""
    with open(path, "wb") as fh:
        write_container(fh, entries)


def load_params(path, defer: tuple[str, ...] = ()) -> dict[str, np.ndarray | DiskEntry]:
    """``read_container`` of the file at ``path``."""
    with open(path, "rb") as fh:
        return read_container(fh, defer)
