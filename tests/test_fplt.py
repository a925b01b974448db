import os
import re
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxpack import codebook as codebook_module
from ctxpack import fplt
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
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cb.fplt", "v.fplt"]


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
