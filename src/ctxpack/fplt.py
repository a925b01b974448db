"""FPLT: a bit-exact little-endian container for latent tensors.

Layout: 4-byte magic ``FPLT``, u32 version (1), u32 flags (bit 0 marks a
codebook), four u32 dims (T, H, W, C), then T*H*W*C IEEE-754 float32
values in C order (t-major, row-major, channel-last). Total size is
exactly 28 + 4*T*H*W*C bytes.
"""

from __future__ import annotations

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


def read_tensor(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a tensor and its flags, checking the header against the file
    size before the payload is read into one array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FpltFormatError(f"{path}: truncated header ({size} bytes)")
        magic, version, flags, t, h, w, c = _HEADER.unpack(head)
        if magic != MAGIC:
            raise FpltFormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise FpltFormatError(f"{path}: unsupported version {version}")
        count = t * h * w * c
        expected = _HEADER.size + 4 * count
        if size != expected:
            raise FpltFormatError(f"{path}: expected {expected} bytes, found {size}")
        payload = np.fromfile(fh, dtype="<f4", count=count)
    if payload.size != count:
        raise FpltFormatError(f"{path}: payload ended after {payload.size} of {count} values")
    return payload.reshape(t, h, w, c), flags


def write_video(path: str | Path, video: LatentVideo) -> None:
    write_tensor(path, video.array)


def read_video(path: str | Path) -> LatentVideo:
    array, flags = read_tensor(path)
    if flags & FLAG_CODEBOOK:
        raise FpltFormatError(f"{path}: holds a codebook, not a latent video")
    return LatentVideo(array)


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
