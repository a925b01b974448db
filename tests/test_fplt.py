import errno
import math
import os
import re
import struct
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxpack import codebook as codebook_module
from ctxpack import fplt, packing
from ctxpack.cli import main
from ctxpack.codebook import Codebook
from ctxpack.errors import FpltFormatError
from ctxpack.fplt import (
    read_codebook,
    read_tensor,
    read_video,
    write_codebook,
    write_tensor,
    write_video,
)
from ctxpack.packing import _CHECK_BYTES, LatentVideo


def rng(seed=0):
    return np.random.default_rng(seed)


class TestRoundTrip:
    def test_values_and_bytes(self, tmp_path):
        arr = rng(1).normal(size=(3, 4, 5, 2)).astype(np.float32)
        first = tmp_path / "a.fplt"
        second = tmp_path / "b.fplt"
        write_tensor(first, arr)
        loaded, flags = read_tensor(first)
        assert flags == 0
        np.testing.assert_array_equal(loaded, arr)
        write_tensor(second, loaded)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (1, 8, 8, 3), (5, 2, 2, 1), (2, 60, 104, 4)])
    def test_degenerate_shapes(self, tmp_path, shape):
        arr = rng(2).normal(size=shape).astype(np.float32)
        path = tmp_path / "t.fplt"
        write_tensor(path, arr)
        loaded, _ = read_tensor(path)
        np.testing.assert_array_equal(loaded, arr)

    def test_header_layout(self, tmp_path):
        arr = np.arange(24, dtype=np.float32).reshape(2, 2, 3, 2)
        path = tmp_path / "t.fplt"
        write_tensor(path, arr)
        blob = path.read_bytes()
        assert len(blob) == 28 + 4 * 24
        assert blob[:4] == b"FPLT"
        assert struct.unpack_from("<I", blob, 4)[0] == 1  # version
        assert struct.unpack_from("<I", blob, 8)[0] == 0  # flags
        assert struct.unpack_from("<4I", blob, 12) == (2, 2, 3, 2)
        # payload is little-endian float32 in C order
        assert struct.unpack_from("<f", blob, 28)[0] == 0.0
        assert struct.unpack_from("<f", blob, 28 + 4 * 23)[0] == 23.0

    def test_video_round_trip(self, tmp_path):
        video = LatentVideo(rng(3).normal(size=(2, 4, 4, 3)).astype(np.float32))
        path = tmp_path / "v.fplt"
        write_video(path, video)
        loaded = read_video(path)
        np.testing.assert_array_equal(loaded.data, video.data)

    def test_codebook_round_trip(self, tmp_path):
        cb = Codebook(rng(4).normal(size=(7, 3)).astype(np.float32))
        path = tmp_path / "cb.fplt"
        write_codebook(path, cb)
        loaded = read_codebook(path)
        np.testing.assert_array_equal(loaded.centroids, cb.centroids)


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fplt"
        arr = np.zeros((1, 1, 1, 1), dtype=np.float32)
        write_tensor(path, arr)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FpltFormatError):
            read_tensor(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.fplt"
        write_tensor(path, np.zeros((1, 1, 1, 1), dtype=np.float32))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FpltFormatError):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.fplt"
        write_tensor(path, np.zeros((1, 2, 2, 1), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FpltFormatError):
            read_tensor(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.fplt"
        path.write_bytes(b"FPLT\x01")
        with pytest.raises(FpltFormatError):
            read_tensor(path)

    def test_video_reader_rejects_codebook(self, tmp_path):
        path = tmp_path / "cb.fplt"
        write_codebook(path, Codebook(np.ones((2, 2))))
        with pytest.raises(FpltFormatError):
            read_video(path)

    def test_codebook_reader_rejects_video(self, tmp_path):
        path = tmp_path / "v.fplt"
        write_tensor(path, np.zeros((1, 1, 2, 2), dtype=np.float32))
        with pytest.raises(FpltFormatError):
            read_codebook(path)

    def test_codebook_reader_rejects_non_1x1_tensor(self, tmp_path):
        path = tmp_path / "cb.fplt"
        write_tensor(path, np.zeros((2, 1, 2, 2), dtype=np.float32), flags=fplt.FLAG_CODEBOOK)
        with pytest.raises(FpltFormatError, match=r"must be 1x1xKxC, got \(2, 1, 2, 2\)"):
            read_codebook(path)

    def test_non_4d_rejected(self, tmp_path):
        with pytest.raises(FpltFormatError):
            write_tensor(tmp_path / "x.fplt", np.zeros((2, 2), dtype=np.float32))


class TestAtomicWrite:
    def test_no_temp_file_left(self, tmp_path):
        path = tmp_path / "t.fplt"
        write_tensor(path, np.zeros((1, 1, 2, 2)))
        write_tensor(path, np.ones((1, 1, 3, 2)))
        assert [p.name for p in tmp_path.iterdir()] == ["t.fplt"]
        assert read_tensor(path)[0].shape == (1, 1, 3, 2)

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "t.fplt"
        write_tensor(path, np.zeros((1, 1, 2, 2)))
        old = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_tensor(path, np.ones((1, 1, 3, 2)))
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["t.fplt"]

    @pytest.mark.parametrize("frames", [1, 2, 4])
    @pytest.mark.parametrize("fallocate", ["reserved", "absent"])
    def test_runs_not_filling_the_shape_keep_the_old_file(
        self, tmp_path, monkeypatch, frames, fallocate
    ):
        # without the size check, one frame of a (3, 2, 2, 1) shape replaces
        # a valid file with 44 bytes whose header says 76, or, reserved,
        # with 76 bytes zero-padded past the one frame
        if fallocate == "absent":
            monkeypatch.delattr(os, "posix_fallocate", raising=False)
        path = tmp_path / "t.fplt"
        write_tensor(path, rng(11).normal(size=(3, 2, 2, 1)).astype(np.float32))
        old = path.read_bytes()
        runs = iter([np.ones((1, 2, 2, 1), np.float32)] * frames)
        message = f"^{re.escape(str(path))}: wrote {28 + 16 * frames} bytes, reserved 76$"
        with pytest.raises(FpltFormatError, match=message):
            fplt._write(path, (3, 2, 2, 1), runs)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["t.fplt"]


class _SpyFile:
    """A temp file opened by ``fplt._replacing``, recording each write."""

    def __init__(self, fh, events):
        self._fh, self._events = fh, events

    def write(self, data):
        self._events.append(("write", self._fh.name, memoryview(data).nbytes))
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


@pytest.fixture
def file_events(monkeypatch):
    """Every reservation and every write to a file opened ``xb``, in order,
    as ``(kind, temp path, ...)``: ``("reserve", tmp, offset, length)`` and
    ``("write", tmp, nbytes)``. Reservations reach the real call."""
    events, names = [], {}
    real_open, real_fallocate = Path.open, os.posix_fallocate

    def spy_open(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        if mode != "xb":
            return fh
        names[fh.fileno()] = fh.name
        return _SpyFile(fh, events)

    def spy_fallocate(fd, offset, length):
        events.append(("reserve", names[fd], offset, length))
        real_fallocate(fd, offset, length)

    monkeypatch.setattr(Path, "open", spy_open)
    monkeypatch.setattr(os, "posix_fallocate", spy_fallocate)
    return events


def _target_name(tmp):
    """``t.fplt`` for a temp file ``.t.fplt.<16 hex digits>.tmp``."""
    name = Path(tmp).name
    assert name.startswith(".") and name.endswith(".tmp")
    return name[1:-4].rsplit(".", 1)[0]


def _commands(tmp_path):
    """A 19-frame input in ``tmp_path`` and the argv of each command that
    writes a file, in an order where every command's inputs exist."""
    video = tmp_path / "v.fplt"
    write_tensor(video, rng(12).normal(size=(19, 8, 8, 2)).astype(np.float32))
    return [
        ["pack", "td_f16k4f2k2f1k1_g9", str(video), "-o", str(tmp_path / "p.pack")],
        ["codebook", "fit", str(video), "--k", "4", "--seed", "0", "-o", str(tmp_path / "cb.fplt")],
        ["quantize", str(video), "--codebook", str(tmp_path / "cb.fplt"),
         "-o", str(tmp_path / "q.fplt")],
    ]


class TestReservation:
    """Each write reserves its final size at offset 0 once, before its
    first byte; a reservation that fails for want of space fails the
    write before anything is made, and one the file system cannot make
    writes the same bytes unreserved."""

    def check_reserved(self, events, tmp_path, names):
        by_temp = {}
        for kind, tmp, *rest in events:
            by_temp.setdefault(tmp, []).append((kind, *rest))
        assert sorted(_target_name(t) for t in by_temp) == sorted(names)
        for tmp, log in by_temp.items():
            size = (tmp_path / _target_name(tmp)).stat().st_size
            assert log[0] == ("reserve", 0, size)
            assert [entry[0] for entry in log[1:]] == ["write"] * (len(log) - 1)
            assert sum(entry[1] for entry in log[1:]) == size

    def test_write_tensor_and_codebook(self, tmp_path, file_events):
        write_tensor(tmp_path / "t.fplt", rng(13).normal(size=(3, 4, 5, 2)))  # one run per frame
        write_codebook(tmp_path / "cb.fplt", Codebook(rng(14).normal(size=(6, 3))))
        self.check_reserved(file_events, tmp_path, ["t.fplt", "cb.fplt"])

    def test_commands(self, tmp_path, capsys, monkeypatch, file_events):
        commands = _commands(tmp_path)
        # quantize in runs of one frame: a run holds 4 * 2 * 64 / (4 * 4) pixels
        monkeypatch.setattr(codebook_module, "_SCORE_BYTES", 4 * 2 * 64)
        expected = [["p.pack", "p.pack.prov"], ["cb.fplt"], ["q.fplt"]]
        for argv, names in zip(commands, expected):
            file_events.clear()
            assert main(argv) == 0
            self.check_reserved(file_events, tmp_path, names)
        assert len(file_events) == 2 + 19  # q.fplt: reservation, header, 19 runs

    def test_no_space_keeps_old_outputs(self, tmp_path, capsys, monkeypatch, file_events):
        commands = _commands(tmp_path)
        for argv in commands:
            assert main(argv) == 0
        capsys.readouterr()
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def full(fd, offset, length):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        reads = []
        real_open_video = fplt._open_video

        @contextmanager
        def spy_open_video(path):
            with real_open_video(path) as (shape, read):
                yield shape, lambda a, b: reads.append((a, b)) or read(a, b)

        monkeypatch.setattr(os, "posix_fallocate", full)
        monkeypatch.setattr(fplt, "_open_video", spy_open_video)
        file_events.clear()
        with pytest.raises(OSError, match="No space left on device"):
            write_tensor(tmp_path / "q.fplt", np.zeros((1, 8, 8, 2), np.float32))
        for argv in commands:
            reads.clear()
            assert main(argv) == 3
            assert "No space left on device" in capsys.readouterr().err
        assert reads == []  # quantize, the last, fails before it reads a frame
        assert file_events == []  # no header, no payload run
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("unreserved", ["EOPNOTSUPP", "EINVAL", "absent"])
    def test_unreserved_writes_the_same_bytes(self, tmp_path, capsys, monkeypatch, unreserved):
        written = {}
        for mode in ("reserved", unreserved):
            work = tmp_path / mode
            work.mkdir()
            commands = _commands(work)
            if mode == "absent":
                monkeypatch.delattr(os, "posix_fallocate")
            elif mode != "reserved":
                code = getattr(errno, mode)

                def refuse(fd, offset, length, code=code):
                    raise OSError(code, os.strerror(code))

                monkeypatch.setattr(os, "posix_fallocate", refuse)
            for _ in range(2):  # new files, then over the old ones
                write_tensor(work / "t.fplt", rng(15).normal(size=(2, 3, 4, 2)))
                for argv in commands:
                    assert main(argv) == 0
            written[mode] = {p.name: p.read_bytes() for p in work.iterdir()}
        assert len(written["reserved"]) == 6
        assert written[unreserved] == written["reserved"]


class TestPackOutputsReplacedTogether:
    """A pack's features and ``.prov`` are replaced together or not at all:
    both temp files are reserved before either is written, and renamed only
    once both are written."""

    @pytest.mark.parametrize("failing", ["p.pack", "p.pack.prov"])
    @pytest.mark.parametrize("step", ["reserve", "write"])
    def test_failure_keeps_both_old_files(
        self, tmp_path, capsys, monkeypatch, file_events, step, failing
    ):
        old, new = tmp_path / "old.fplt", tmp_path / "new.fplt"
        write_tensor(old, rng(40).normal(size=(19, 8, 8, 2)).astype(np.float32))
        write_tensor(new, rng(41).normal(size=(19, 8, 8, 2)).astype(np.float32))
        argv = ["pack", "td_f16k4f2k2f1k1_g9", str(old), "-o", str(tmp_path / "p.pack")]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        code = {"reserve": errno.ENOSPC, "write": errno.EIO}[step]
        spy_fallocate, spy_write = os.posix_fallocate, _SpyFile.write
        nth = ["p.pack", "p.pack.prov"].index(failing) + 1  # the features are reserved first
        calls = []

        def fallocate(fd, offset, length):
            calls.append(fd)
            if step == "reserve" and len(calls) == nth:
                raise OSError(code, os.strerror(code))
            spy_fallocate(fd, offset, length)

        def write(spy, data):
            if step == "write" and _target_name(spy._fh.name) == failing:
                raise OSError(code, os.strerror(code))
            return spy_write(spy, data)

        monkeypatch.setattr(os, "posix_fallocate", fallocate)
        monkeypatch.setattr(_SpyFile, "write", write)
        capsys.readouterr()
        argv[2] = str(new)
        assert main(argv) == 3
        assert capsys.readouterr().err == f"ctxpack: [Errno {code}] {os.strerror(code)}\n"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_both_are_reserved_before_either_is_written(self, tmp_path, capsys, file_events):
        video = tmp_path / "v.fplt"
        write_tensor(video, rng(42).normal(size=(19, 8, 8, 2)).astype(np.float32))
        file_events.clear()
        assert main(["pack", "td_f16k4f2k2f1k1_g9", str(video), "-o", str(tmp_path / "p.pack")]) == 0
        events = [(kind, _target_name(tmp)) for kind, tmp, *_ in file_events]
        assert events[:2] == [("reserve", "p.pack"), ("reserve", "p.pack.prov")]
        assert {name for _, name in events[2:]} == {"p.pack", "p.pack.prov"}


class TestCopies:
    # 4 MB of float32: the writer hands the array's own buffer to the
    # file, and the reader fills one array straight from it
    ARRAY = np.arange(16 * 64 * 64 * 16, dtype=np.float32).reshape(16, 64, 64, 16)

    def traced_peak(self, fn):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_write_peak_below_payload(self, tmp_path):
        path = tmp_path / "t.fplt"
        _, peak = self.traced_peak(lambda: write_tensor(path, self.ARRAY))
        assert peak < self.ARRAY.nbytes
        assert path.stat().st_size == 28 + self.ARRAY.nbytes

    def test_float64_write_peak_below_two_frames(self, tmp_path):
        # a non-float32 array is converted one frame at a time
        path = tmp_path / "t.fplt"
        wide = self.ARRAY.astype(np.float64)
        _, peak = self.traced_peak(lambda: write_tensor(path, wide))
        assert peak < 2 * self.ARRAY[0].nbytes
        reference = tmp_path / "r.fplt"
        write_tensor(reference, self.ARRAY)
        assert path.read_bytes() == reference.read_bytes()

    def test_strided_view_writes_frame_by_frame(self, tmp_path):
        # every array goes through the one per-frame loop: a non-contiguous
        # float32 view is not copied whole, and it, its contiguous copy and
        # the same values as big-endian floats write the same bytes
        view = self.ARRAY[:, :, ::2]
        path = tmp_path / "t.fplt"
        _, peak = self.traced_peak(lambda: write_tensor(path, view))
        assert peak < 2 * view[0].nbytes
        for i, same in enumerate([np.ascontiguousarray(view), view.astype(">f4")]):
            reference = tmp_path / f"r{i}.fplt"
            write_tensor(reference, same)
            assert path.read_bytes() == reference.read_bytes()

    def test_read_peak_one_payload(self, tmp_path):
        path = tmp_path / "t.fplt"
        write_tensor(path, self.ARRAY)
        (loaded, _), peak = self.traced_peak(lambda: read_tensor(path))
        assert peak < 1.5 * self.ARRAY.nbytes
        np.testing.assert_array_equal(loaded, self.ARRAY)

    def test_read_video_peak_one_payload(self, tmp_path):
        # the payload is read straight into the video's snapshot; reading
        # an array and then copying it into a snapshot peaks at twice that
        path = tmp_path / "t.fplt"
        write_tensor(path, self.ARRAY)
        video, peak = self.traced_peak(lambda: read_video(path))
        assert peak < 1.5 * self.ARRAY.nbytes
        assert video.array.tobytes() == self.ARRAY.tobytes()


class TestReadVideo:
    # (T, H, W, C): no frames, one channel, a frame larger than one check
    # step, and T not a multiple of the step's frame count
    SHAPES = [(0, 3, 4, 2), (3, 4, 5, 1), (3, 128, 160, 4), (37, 16, 16, 8)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_read_tensor_then_snapshot(self, tmp_path, shape):
        if shape == (3, 128, 160, 4):
            assert 128 * 160 * 4 * 4 > _CHECK_BYTES
        if shape == (37, 16, 16, 8):
            assert 37 % (_CHECK_BYTES // (16 * 16 * 8 * 4)) != 0
        path = tmp_path / "v.fplt"
        write_tensor(path, rng(5).normal(size=shape).astype(np.float32))
        got = read_video(path).array
        expected = LatentVideo(read_tensor(path)[0]).array
        assert got.dtype == expected.dtype == np.float32
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_snapshot_is_read_only_and_unshared(self, tmp_path):
        path = tmp_path / "v.fplt"
        write_tensor(path, rng(6).normal(size=(4, 8, 8, 2)).astype(np.float32))
        video = read_video(path)
        assert not video.array.flags.writeable
        assert video.array.flags.owndata
        with pytest.raises(ValueError):
            video.array[0, 0, 0, 0] = 1.0
        assert not np.shares_memory(video.array, video.data)
        assert not np.shares_memory(video.array, read_video(path).array)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("frame", [-1, 33])
    def test_non_finite_rejected(self, tmp_path, bad, frame):
        # 8 KiB frames: one check step holds 32 of them, so frame 33 lies
        # past the first step and frame -1 in the last, partial one
        arr = rng(7).normal(size=(40, 16, 16, 8)).astype(np.float32)
        arr[frame, 15, 15, 7] = bad
        path = tmp_path / "v.fplt"
        write_tensor(path, arr)
        with pytest.raises(ValueError, match="only finite values"):
            read_video(path)

    @pytest.mark.parametrize(
        "command",
        [
            ["pack", "td_f1k1_g1", "{video}", "-o", "{out}"],
            ["drift", "{video}"],
            ["quantize", "{video}", "--codebook", "{codebook}", "-o", "{out}"],
            # the NaN frame is these schedules' tail, which is read
            ["pack", "f1k1_x_g1_f1k1_ta", "{video}", "-o", "{out}"],
            ["pack", "f1k1_x_g1_f1k1_tc", "{video}", "-o", "{out}"],
        ],
    )
    def test_non_finite_exits_3(self, tmp_path, capsys, monkeypatch, command):
        # quantize reads one frame per run here (a run holds at most
        # _SCORE_BYTES / (4 * max(K, C)) pixels), so the NaN lies in the
        # last of three runs, after two have gone to the output's temp file
        monkeypatch.setattr(codebook_module, "_SCORE_BYTES", 4 * 2 * 16)
        arr = rng(8).normal(size=(3, 4, 4, 2)).astype(np.float32)
        arr[-1, 3, 3, 1] = np.nan
        video, codebook, out = tmp_path / "v.fplt", tmp_path / "cb.fplt", tmp_path / "o.fplt"
        write_tensor(video, arr)
        write_codebook(codebook, Codebook(np.eye(2)))
        names = {"video": video, "codebook": codebook, "out": out}
        assert main([part.format(**names) for part in command]) == 3
        assert "only finite values" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cb.fplt", "v.fplt"]

    def test_codebook_rejected_before_payload(self, tmp_path):
        # the payload holds a NaN, so only a check made before reading it
        # gives the codebook message
        path = tmp_path / "cb.fplt"
        write_tensor(path, np.full((1, 1, 2, 2), np.nan, dtype=np.float32), flags=1)
        with pytest.raises(FpltFormatError, match="holds a codebook, not a latent video$"):
            read_video(path)

    @pytest.mark.parametrize("shape", [(2, 0, 3, 1), (2, 3, 0, 1), (2, 3, 1, 0)])
    def test_empty_frame_dims_rejected(self, tmp_path, shape):
        path = tmp_path / "v.fplt"
        write_tensor(path, np.zeros(shape, dtype=np.float32))
        message = "^" + re.escape(f"H, W, C must all be >= 1, got shape {shape}") + "$"
        with pytest.raises(ValueError, match=message):
            read_video(path)
        with pytest.raises(ValueError, match=message):
            LatentVideo(read_tensor(path)[0])

    def test_payload_shorter_than_its_size_check(self, tmp_path, capsys, monkeypatch):
        # a file that shrinks between the size check and the read
        arr = rng(9).normal(size=(40, 16, 16, 8)).astype(np.float32)
        path = tmp_path / "v.fplt"
        write_tensor(path, arr)
        path.write_bytes(path.read_bytes()[: 28 + 4 * 2048 * 33 + 8])
        # with K = 128, quantize reads runs of 8,192 pixels, 32 frames
        # here, so the file ends in the second and last run
        assert codebook_module._SCORE_BYTES // (4 * 128) == 32 * 16 * 16
        codebook, out = tmp_path / "cb.fplt", tmp_path / "o.fplt"
        write_codebook(codebook, Codebook(rng(10).normal(size=(128, 8))))
        fstat, short = os.fstat, path.stat().st_size

        def claimed(fd):
            real = fstat(fd)
            return SimpleNamespace(st_size=28 + arr.nbytes) if real.st_size == short else real

        monkeypatch.setattr(fplt.os, "fstat", claimed)
        message = f"payload ended after {2048 * 33 + 2} of {arr.size} values$"
        with pytest.raises(FpltFormatError, match=message):
            read_video(path)
        with pytest.raises(FpltFormatError, match=message):
            read_tensor(path)
        assert main(["quantize", str(path), "--codebook", str(codebook), "-o", str(out)]) == 3
        assert re.search(message, capsys.readouterr().err)
        # a td pack reads frames 21..40 from the 21st frame on; the file ends
        # inside them, and the count still runs from frame 0
        assert main(["pack", "td_f16k4f2k2f1k1_g9", str(path), "-o", str(out)]) == 3
        assert re.search(message, capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cb.fplt", "v.fplt"]


@st.composite
def video_reads(draw):
    """A float32 video (T from 0), frames per finiteness check, the
    ranges to read from one open file (runs in order, then ranges in any
    order, some empty) and a frame that may hold a NaN."""
    shape = (draw(st.integers(0, 7)), *(draw(st.integers(1, 3)) for _ in range(3)))
    total = shape[0]
    arr = draw(st.integers(0, 2**32 - 1).map(lambda s: rng(s).normal(size=shape)))
    step = draw(st.integers(1, 3))
    runs = [(t, min(t + step, total)) for t in range(0, total, step)]
    bound = st.integers(0, total)
    ranges = draw(st.lists(st.tuples(bound, bound).map(sorted), max_size=6))
    nan_frame = draw(st.none() | st.integers(0, total - 1)) if total else None
    return arr.astype(np.float32), draw(st.integers(1, 3)), runs + ranges, nan_frame


class TestOpenVideo:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(video_reads())
    def test_reads_equal_slices_of_the_whole(self, tmp_path_factory, case):
        arr, per_check, ranges, nan_frame = case
        if nan_frame is not None:
            arr[nan_frame, -1, -1, -1] = np.nan
        path = tmp_path_factory.mktemp("read") / "v.fplt"
        write_tensor(path, arr)
        whole = read_tensor(path)[0]
        reads = []
        check_bytes = per_check * 4 * math.prod(arr.shape[1:])
        with mock.patch.object(packing, "_CHECK_BYTES", check_bytes):
            with fplt._open_video(path) as (shape, read):
                assert shape == arr.shape
                for start, stop in ranges:
                    if nan_frame is not None and start <= nan_frame < stop:
                        with pytest.raises(ValueError, match="only finite values"):
                            read(start, stop)
                        continue
                    # a NaN outside the range is never read
                    got = read(start, stop)
                    assert type(got) is np.ndarray
                    assert got.dtype == np.float32
                    assert got.shape == (stop - start, *arr.shape[1:])
                    assert got.tobytes() == whole[start:stop].tobytes()
                    assert not got.flags.writeable
                    reads.append(got)
        for i, got in enumerate(reads):
            assert not any(np.shares_memory(got, other) for other in reads[:i])


@st.composite
def corruptions(draw):
    shape = tuple(draw(st.integers(1, 3)) for _ in range(4))
    flags = draw(st.integers(0, 1))
    edits = draw(st.lists(st.tuples(st.integers(0, 27), st.integers(0, 255)), max_size=3))
    cut = draw(st.one_of(st.none(), st.integers(0, 28 + 4 * int(np.prod(shape)) - 1)))
    extra = draw(st.binary(max_size=8))
    return shape, flags, edits, cut, extra


class TestCorruptHeaders:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(corruptions())
    def test_reads_back_or_raises(self, tmp_path_factory, case):
        shape, flags, edits, cut, extra = case
        arr = np.arange(np.prod(shape), dtype=np.float32).reshape(shape)
        path = tmp_path_factory.mktemp("fuzz") / "t.fplt"
        write_tensor(path, arr, flags=flags)
        blob = bytearray(path.read_bytes())
        for offset, value in edits:
            blob[offset] = value
        blob = blob[:cut] + extra if cut is not None else blob + extra
        path.write_bytes(bytes(blob))
        try:
            loaded, got_flags = read_tensor(path)
        except FpltFormatError:
            return
        # whatever reads back is the header's shape over the written
        # values, from a file of exactly the size the header implies
        header = struct.unpack_from("<4sII4I", blob)
        assert header[:2] == (b"FPLT", 1)
        assert len(blob) == 28 + 4 * int(np.prod(header[3:]))
        assert got_flags == header[2]
        assert loaded.shape == header[3:]
        assert loaded.tobytes() == arr.tobytes()


class TestCorruptVideos:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(corruptions())
    def test_read_video_agrees_with_read_tensor(self, tmp_path_factory, case):
        shape, flags, edits, cut, extra = case
        arr = np.arange(np.prod(shape), dtype=np.float32).reshape(shape)
        path = tmp_path_factory.mktemp("fuzz") / "t.fplt"
        write_tensor(path, arr, flags=flags)
        blob = bytearray(path.read_bytes())
        for offset, value in edits:
            blob[offset] = value
        blob = blob[:cut] + extra if cut is not None else blob + extra
        path.write_bytes(bytes(blob))
        try:
            tensor, got_flags = read_tensor(path)
        except FpltFormatError as exc:
            with pytest.raises(FpltFormatError, match=f"^{re.escape(str(exc))}$"):
                read_video(path)
            return
        if got_flags & 1:
            with pytest.raises(FpltFormatError, match="holds a codebook"):
                read_video(path)
            return
        try:
            expected = LatentVideo(tensor).array
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                read_video(path)
            return
        got = read_video(path).array
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
