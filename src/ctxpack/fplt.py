"""FPLT: a bit-exact little-endian container for latent tensors.

Layout: 4-byte magic ``FPLT``, u32 version (1), u32 flags (bit 0 marks a
codebook), four u32 dims (T, H, W, C), then T*H*W*C IEEE-754 float32
values in C order (t-major, row-major, channel-last). Total size is
exactly 28 + 4*T*H*W*C bytes.

Every write goes through one atomic-replace step (``_replacing``), which
reserves each output's size first and renames a command's outputs only
once all are written, and every latent video read through one reader of
frame ranges (``_open_video``).
"""

from __future__ import annotations

import errno
import math
import os
import struct
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .codebook import Codebook
from .errors import FpltFormatError
from .packing import LatentVideo, _check_shape, _fill_checked

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
    path: str | Path,
    shape: tuple[int, ...],
    runs: Iterable[np.ndarray],
    *,
    flags: int = 0,
    sidecars: Sequence[tuple[Path, bytes]] = (),
) -> None:
    """Write an FPLT file atomically from its (T, H, W, C) ``shape`` and its
    payload as ``runs`` of whole frames, in order, with each ``(path,
    bytes)`` of ``sidecars``, all replaced in one ``_replacing`` step.

    Each run is written as it arrives: a contiguous little-endian float32
    run from its own buffer, any other from a float32 copy of that run
    alone, so no copy of the whole payload is made. ``runs`` may compute
    each run as the write goes; if it raises, or its runs do not fill
    ``shape`` exactly, no file is kept.
    """
    sizes = [(path, _HEADER.size + 4 * math.prod(shape))] + [(p, len(b)) for p, b in sidecars]
    with _replacing(*sizes) as (fh, *others):
        for other, (_, data) in zip(others, sidecars):
            other.write(data)
        fh.write(_HEADER.pack(MAGIC, VERSION, flags, *shape))
        for run in runs:
            fh.write(np.ascontiguousarray(run, "<f4"))


@contextmanager
def _replacing(*outputs: tuple[str | Path, int]) -> Iterator[list[BinaryIO]]:
    """One open temp file per ``(path, size)`` output, which replace their
    paths when the block exits cleanly having written exactly each
    ``size`` bytes; every temp file is removed, and every path kept, when
    the block raises or writes any other count.

    Every temp file's ``size`` bytes are reserved before the block runs, so
    a full disk fails before anything is made, and so that ext4 (with its
    default ``auto_da_alloc``) has no delayed blocks to allocate and flush
    inside the rename over an old file. A file system that cannot reserve
    (``EOPNOTSUPP``, or ``EINVAL`` from older ZFS), or an ``os`` without
    ``posix_fallocate``, writes the same bytes unreserved. The renames run
    in order once every output is written and checked, but are not one
    atomic step, and nothing is fsynced.
    """
    temps = []
    try:
        with ExitStack() as stack:
            handles = []
            for path, size in outputs:
                path = Path(path)
                tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
                temps.append((tmp, path, size))
                handles.append(stack.enter_context(tmp.open("xb")))
                _reserve(handles[-1].fileno(), size)
            yield handles
            written = [fh.tell() for fh in handles]
        for (tmp, path, size), count in zip(temps, written):
            if count != size:
                raise FpltFormatError(f"{path}: wrote {count} bytes, reserved {size}")
        for tmp, path, _ in temps:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _, _ in temps:
            tmp.unlink(missing_ok=True)
        raise


def _reserve(fd: int, size: int) -> None:
    """Allocate ``size`` bytes from offset 0 of ``fd`` where the platform
    and file system can; any other failure, such as ``ENOSPC``, raises."""
    fallocate = getattr(os, "posix_fallocate", None)
    if fallocate is None:
        return
    try:
        fallocate(fd, 0, size)
    except OSError as exc:
        # offset 0 and a positive size are valid, so EINVAL here is a file
        # system that cannot reserve, as older ZFS reports it
        if exc.errno not in (errno.EOPNOTSUPP, errno.EINVAL):
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
    the file ends first; ``read_tensor`` and ``_open_video`` read through it."""
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


@contextmanager
def _open_video(
    path: str | Path,
) -> Iterator[tuple[tuple[int, ...], Callable[[int, int], np.ndarray]]]:
    """A video file's (T, H, W, C), checked before any payload is read, and
    ``read(start, stop)``: frames ``start .. stop`` as a new read-only, checked
    float32 array, read from frame ``start`` on. Ranges may come in any order."""
    with open(path, "rb") as fh:
        _, shape = _header(fh, path, video=True)

        def read(start: int, stop: int) -> np.ndarray:
            fh.seek(_HEADER.size + 4 * start * math.prod(shape[1:]))

            def fill(piece: np.ndarray, frames: slice) -> None:
                _read_payload(fh, path, shape, piece, start + frames.start)

            return _fill_checked((stop - start, *shape[1:]), np.dtype("<f4"), fill)

        yield shape, read


def read_video(path: str | Path) -> LatentVideo:
    """Read a latent video through one ``_open_video`` read of all its
    frames, whose checked float32 array the returned video keeps: after the
    header check, the payload is read a few frames at a time, and each piece
    is checked for finiteness as it arrives. A NaN or infinite value raises
    ``ValueError``, as ``LatentVideo`` does."""
    with _open_video(path) as (shape, read):
        return LatentVideo._over(read(0, shape[0]))


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
