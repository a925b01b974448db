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
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .codebook import Codebook
from .errors import FpltFormatError
from .packing import LatentVideo, _check_shape

MAGIC = b"FPLT"
VERSION = 1
FLAG_CODEBOOK = 1
_HEADER = struct.Struct("<4sII4I")


def write_tensor(path: str | Path, array: np.ndarray, *, flags: int = 0) -> None:
    """Write a 4-D array as FPLT atomically, one frame at a time."""
    arr = np.asarray(array)
    if arr.ndim != 4:
        raise FpltFormatError(f"tensor must be 4D (T,H,W,C), got shape {arr.shape}")
    _write(path, arr.shape, arr, flags=flags)


def _write(
    path: str | Path, shape: tuple[int, ...], runs: Iterable[np.ndarray], *, flags: int = 0
) -> None:
    """Write an FPLT file atomically from its (T, H, W, C) ``shape`` and its
    payload as ``runs`` of whole frames, in order.

    Each run is written as it arrives: a contiguous little-endian float32
    run from its own buffer, any other from a float32 copy of that run
    alone, so no copy of the whole payload is made. ``runs`` may compute
    each run as the write goes; if it raises, no file is kept.
    """
    with _replacing(path) as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, flags, *shape))
        for run in runs:
            fh.write(np.ascontiguousarray(run, "<f4"))


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
    a video, the codebook flag and then the shape, as ``LatentVideo``
    checks it, so a read of some frames names the whole file's shape."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise FpltFormatError(f"{path}: truncated header ({size} bytes)")
    magic, version, flags, *dims = _HEADER.unpack(head)
    shape = tuple(dims)
    if magic != MAGIC:
        raise FpltFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FpltFormatError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + 4 * math.prod(shape)
    if size != expected:
        raise FpltFormatError(f"{path}: expected {expected} bytes, found {size}")
    if video:
        if flags & FLAG_CODEBOOK:
            raise FpltFormatError(f"{path}: holds a codebook, not a latent video")
        _check_shape(shape)
    return flags, shape


def _read_payload(
    fh: BinaryIO, path: str | Path, shape: tuple[int, ...], piece: np.ndarray, start: int
) -> None:
    """Read the payload's frames from ``start`` on into ``piece``, raising if
    the file ends first. Both readers fill their arrays through this one step."""
    got = fh.readinto(piece)
    if got != piece.nbytes:
        frame_values = math.prod(shape[1:])
        done = start * frame_values + got // 4
        count = shape[0] * frame_values
        raise FpltFormatError(f"{path}: payload ended after {done} of {count} values")


def read_tensor(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a tensor and its flags, checking the header against the file
    size before the payload is read into one array."""
    with open(path, "rb") as fh:
        flags, shape = _header(fh, path)
        payload = np.empty(shape, "<f4")
        _read_payload(fh, path, shape, payload, 0)
    return payload, flags


def write_video(path: str | Path, video: LatentVideo) -> None:
    write_tensor(path, video.array)


def read_video(path: str | Path) -> LatentVideo:
    """Read a latent video straight into its read-only float32 snapshot.

    After the header check, the payload is read into the one array the
    returned video keeps, a few frames at a time, and each piece is
    checked for finiteness as it arrives. A NaN or infinite value raises
    ``ValueError``, as ``LatentVideo`` does.
    """
    return _read_frames(path, lambda total: (0, total))[1]


def _read_frames(
    path: str | Path, reach: Callable[[int], tuple[int, int]]
) -> tuple[int, LatentVideo]:
    """A latent video's frame count T and its frames ``start .. stop``,
    where ``(start, stop) = reach(T)``, read and checked as ``read_video``
    reads and checks the whole, after the same header check. Only the
    range's bytes are read: the read starts at the range's first frame."""
    with open(path, "rb") as fh:
        _, shape = _header(fh, path, video=True)
        start, stop = reach(shape[0])
        fh.seek(_HEADER.size + 4 * start * math.prod(shape[1:]))
        return shape[0], _snapshot(fh, path, shape, start, stop - start)


@contextmanager
def _video_runs(
    path: str | Path, pixels: int
) -> Iterator[tuple[tuple[int, ...], Iterator[LatentVideo]]]:
    """A latent video's (T, H, W, C), checked as ``read_video`` checks it
    before any payload is read, and its frames as consecutive snapshots,
    each of as many whole frames as ``pixels`` pixels hold (at least one),
    read and checked as ``read_video`` reads and checks the whole. A video
    of no frames is one empty run, so what checks each run still runs."""
    with open(path, "rb") as fh:
        _, shape = _header(fh, path, video=True)
        frames = shape[0]
        step = max(1, pixels // (shape[1] * shape[2]))
        yield shape, (
            _snapshot(fh, path, shape, t, min(step, frames - t))
            for t in range(0, max(frames, 1), step)
        )


def _snapshot(
    fh: BinaryIO, path: str | Path, shape: tuple[int, ...], start: int, count: int
) -> LatentVideo:
    """The ``count`` frames from ``start`` on of the video whose payload
    ``fh`` reads next, as a video over a new checked float32 array."""

    def read(piece: np.ndarray, frames: slice) -> None:
        _read_payload(fh, path, shape, piece, start + frames.start)

    return LatentVideo._filled((count, *shape[1:]), np.dtype("<f4"), read)


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
