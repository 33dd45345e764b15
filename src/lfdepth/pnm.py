"""Binary PPM (P6) and PGM (P5) readers and writers.

Deliberately strict: headers are ASCII tokens separated by whitespace, with
'#' comments allowed; anything malformed raises FormatError naming the file
and the byte offset where parsing stopped.  P6 carries 8-bit RGB; P5 here is
16-bit big-endian (the PNM convention for maxval > 255).
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError, UsageError


def _read_tokens(blob: bytes, count: int, path: str) -> tuple[list[bytes], int]:
    """Read ``count`` whitespace-separated header tokens; returns (tokens, offset)."""
    tokens: list[bytes] = []
    i = 0
    n = len(blob)
    while len(tokens) < count:
        while i < n and blob[i : i + 1].isspace():
            i += 1
        if i < n and blob[i : i + 1] == b"#":
            while i < n and blob[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < n and not blob[i : i + 1].isspace():
            i += 1
        if i == start:
            raise FormatError(f"{path}: truncated header at offset {start}")
        tokens.append(blob[start:i])
    if i >= n:
        raise FormatError(f"{path}: header ends without pixel data at offset {i}")
    return tokens, i + 1  # single whitespace byte ends the header


def _int_token(tok: bytes, what: str, path: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"{path}: bad {what} token {tok!r}") from None


def _write(path, magic: str, maxval: int, h: int, w: int, pixels: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n{maxval}\n".encode("ascii"))
        fh.write(pixels.tobytes())


def _read(path, magic: bytes, maxval: int, depth: int) -> tuple[bytes, int, int]:
    """The pixel bytes, height and width of a ``magic`` file of ``depth`` bytes per pixel."""
    with open(path, "rb") as fh:
        blob = fh.read()
    spath = str(path)
    tokens, offset = _read_tokens(blob, 4, spath)
    if tokens[0] != magic:
        raise FormatError(
            f"{spath}: expected {magic.decode()} magic, got {tokens[0]!r} at offset 0"
        )
    w = _int_token(tokens[1], "width", spath)
    h = _int_token(tokens[2], "height", spath)
    got = _int_token(tokens[3], "maxval", spath)
    if got != maxval:
        raise FormatError(f"{spath}: only maxval {maxval} supported, got {got}")
    if w < 1 or h < 1:
        raise FormatError(f"{spath}: bad image size {w}x{h}")
    need = depth * w * h
    data = blob[offset : offset + need]
    if len(data) != need:
        raise FormatError(
            f"{spath}: short pixel data at offset {offset + len(data)} "
            f"(expected {need} bytes)"
        )
    return data, h, w


def write_ppm(path, pixels: np.ndarray) -> None:
    """pixels: uint8 [3,H,W]."""
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[0] != 3:
        raise UsageError(f"write_ppm wants uint8 [3,H,W], got {pixels.dtype} {pixels.shape}")
    _write(path, "P6", 255, *pixels.shape[1:], pixels.transpose(1, 2, 0))


def read_ppm(path) -> np.ndarray:
    """Returns uint8 [3,H,W]."""
    data, h, w = _read(path, b"P6", 255, 3)
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3).transpose(2, 0, 1).copy()


def write_pgm16(path, values: np.ndarray) -> None:
    """values: uint16 [H,W], stored big-endian with maxval 65535."""
    if values.dtype != np.uint16 or values.ndim != 2:
        raise UsageError(f"write_pgm16 wants uint16 [H,W], got {values.dtype} {values.shape}")
    _write(path, "P5", 65535, *values.shape, values.astype(">u2"))


def read_pgm16(path) -> np.ndarray:
    """Returns uint16 [H,W]."""
    data, h, w = _read(path, b"P5", 65535, 2)
    return np.frombuffer(data, dtype=">u2").reshape(h, w).astype(np.uint16)
