"""FPLT: a bit-exact little-endian container for latent tensors.

Layout: 4-byte magic ``FPLT``, u32 version (1), u32 flags (bit 0 marks a
codebook), four u32 dims (T, H, W, C), then T*H*W*C IEEE-754 float32
values in C order (t-major, row-major, channel-last). Total size is
exactly 28 + 4*T*H*W*C bytes.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .codebook import Codebook
from .errors import FpltFormatError
from .packing import LatentVideo

MAGIC = b"FPLT"
VERSION = 1
FLAG_CODEBOOK = 1
_HEADER = struct.Struct("<4sII4I")


def write_tensor(path: str | Path, array: np.ndarray, *, flags: int = 0) -> None:
    """Write a 4-D array as FPLT atomically.

    A little-endian float32 array is written from its own buffer; any
    other dtype is converted one frame at a time, so no copy of the whole
    payload is made.
    """
    arr = np.asarray(array)
    if arr.ndim != 4:
        raise FpltFormatError(f"tensor must be 4D (T,H,W,C), got shape {arr.shape}")
    header = _HEADER.pack(MAGIC, VERSION, flags, *arr.shape)
    parts = (arr,) if arr.dtype == np.dtype("<f4") else arr
    with _replacing(path) as fh:
        fh.write(header)
        for part in parts:
            fh.write(np.ascontiguousarray(part, dtype="<f4"))


def write_atomic(path: str | Path, *chunks: bytes | np.ndarray) -> None:
    """Replace ``path`` with the concatenated ``chunks`` in one step.

    The bytes go to a fresh temp file in the target's directory, which is
    then renamed over the target, so a reader sees the old file or the
    new one, never a partial write. The temp file is removed on failure.
    Each chunk is written from its own buffer, without a joined copy.
    """
    with _replacing(path) as fh:
        for chunk in chunks:
            fh.write(chunk)


@contextmanager
def _replacing(path: str | Path) -> Iterator[BinaryIO]:
    """An open temp file that replaces ``path`` when the block exits
    cleanly, and is removed when it raises."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with tmp.open("xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _header(fh: BinaryIO, path: str | Path, *, video: bool = False) -> tuple[int, tuple[int, ...]]:
    """Flags and (T, H, W, C) of an open file, checked before any payload
    is read: magic, version, the file's size against the header and, for
    a video, the codebook flag."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise FpltFormatError(f"{path}: truncated header ({size} bytes)")
    magic, version, flags, *shape = _HEADER.unpack(head)
    if magic != MAGIC:
        raise FpltFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FpltFormatError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + 4 * math.prod(shape)
    if size != expected:
        raise FpltFormatError(f"{path}: expected {expected} bytes, found {size}")
    if video and flags & FLAG_CODEBOOK:
        raise FpltFormatError(f"{path}: holds a codebook, not a latent video")
    return flags, tuple(shape)


def _short_payload(path: str | Path, got: int, count: int) -> FpltFormatError:
    return FpltFormatError(f"{path}: payload ended after {got} of {count} values")


def read_tensor(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a tensor and its flags, checking the header against the file
    size before the payload is read into one array."""
    with open(path, "rb") as fh:
        flags, shape = _header(fh, path)
        count = math.prod(shape)
        payload = np.fromfile(fh, dtype="<f4", count=count)
    if payload.size != count:
        raise _short_payload(path, payload.size, count)
    return payload.reshape(shape), flags


def write_video(path: str | Path, video: LatentVideo) -> None:
    write_tensor(path, video.array)


def read_video(path: str | Path) -> LatentVideo:
    """Read a latent video straight into its read-only float32 snapshot.

    After the header check, the payload is read into the one array the
    returned video keeps, a few frames at a time, and each piece is
    checked for finiteness as it arrives. A NaN or infinite value raises
    ``ValueError``, as ``LatentVideo`` does.
    """
    with open(path, "rb") as fh:
        _, shape = _header(fh, path, video=True)
        frame_values = math.prod(shape[1:])

        def read(piece: np.ndarray, frames: slice) -> None:
            got = fh.readinto(piece)
            if got != piece.nbytes:
                done = frames.start * frame_values + got // 4
                raise _short_payload(path, done, shape[0] * frame_values)

        return LatentVideo._filled(shape, np.dtype("<f4"), read)


def write_codebook(path: str | Path, codebook: Codebook) -> None:
    k, c = codebook.centroids.shape
    write_tensor(path, codebook.centroids.reshape(1, 1, k, c), flags=FLAG_CODEBOOK)


def read_codebook(path: str | Path) -> Codebook:
    array, flags = read_tensor(path)
    if not flags & FLAG_CODEBOOK:
        raise FpltFormatError(f"{path}: not flagged as a codebook")
    if array.shape[0] != 1 or array.shape[1] != 1:
        raise FpltFormatError(f"{path}: codebook tensors must be 1x1xKxC, got {array.shape}")
    return Codebook(array.reshape(array.shape[2], array.shape[3]))
