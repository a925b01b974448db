"""``cli.main`` keeps its exit-code contract on drawn command lines.

The module docstring of ``ctxpack.cli`` promises exit 0 on success, 2 on
usage or schedule errors and 3 on data errors. Each case draws an argv
from a small grammar per subcommand: valid and invalid schedule names;
sizes of 0, -1, huge, ``nan`` and the infinities; missing, empty,
truncated and codebook-for-video files; a directory or a path under a
missing directory as an output. Every case stays tiny: histories are at
most 3x4x6x2 and sizes at most 10^4 (``--k`` also draws 2^40, which no
k x C centroid array could hold). Kernels go up to k64: both videos have
two or more channels, whose windows pooling sums in place, without a
zero-padded copy of the kernel window.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxpack.cli import main
from ctxpack.codebook import Codebook
from ctxpack.fplt import write_codebook, write_video
from ctxpack.packing import LatentVideo


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    write_video(root / "video.fplt", LatentVideo(rng.normal(size=(3, 4, 6, 2)).astype(np.float32)))
    write_video(root / "one.fplt", LatentVideo(rng.normal(size=(1, 2, 2, 4)).astype(np.float32)))
    write_codebook(root / "codebook.fplt", Codebook(rng.normal(size=(2, 2))))
    (root / "empty.fplt").write_bytes(b"")
    (root / "truncated.fplt").write_bytes((root / "video.fplt").read_bytes()[:40])
    (root / "matches.csv").write_text("a,b,A\nb,c,D\nc,a,B\n")
    (root / "unknown.csv").write_text("a,b,Q\n")
    (root / "self.csv").write_text("a,a,A\n")
    (root / "short.csv").write_text("a,b\n")
    (root / "blank.csv").write_text("")
    (root / "dir").mkdir()
    (root / "out").mkdir()
    return root


def pick(good, bad):
    """Three times in four one of ``good``, else one of ``bad``."""
    good = st.sampled_from(good)
    return st.one_of(good, good, good, st.sampled_from(bad))


# stands for the directory that holds the test files
ROOT = "<root>"


def paths(*names):
    return [f"{ROOT}/{name}" for name in names]


VIDEOS = pick(
    paths("video.fplt", "one.fplt"),
    paths("codebook.fplt", "empty.fplt", "truncated.fplt", "dir", "missing.fplt"),
)
CODEBOOKS = pick(paths("codebook.fplt"), paths("video.fplt", "empty.fplt", "dir", "missing.fplt"))
OUTPUTS = pick(paths("out/o.fplt"), paths("dir", "missing/o.fplt"))
PROVENANCE = pick(paths("out/o.prov"), paths("dir", "missing/o.prov"))
LOGS = pick(
    paths("matches.csv"),
    paths("unknown.csv", "self.csv", "short.csv", "blank.csv", "dir", "missing.csv"),
)
BAD_SIZES = ["0", "-1", "10000", "nan", "inf", "-inf", "1.5", "x", ""]
SIZES = pick(["1", "2", "4", "8", "9", "64"], BAD_SIZES)
FLOATS = pick(["0", "1e-6", "0.5", "1500"], ["-0.5", "1e300", "nan", "inf", "-inf", "x", ""])
SPANS = pick(["0..9,27..36", "9..18,27..36"], ["5..3", "1..", "a..b", ",", ""])

NAMES = [
    "td_f1k1_g1",
    "ta_f1k1_g1",
    "tc_f2k2_g9",
    "td_f16k4f2k2f1k1_g9",
    "f1k1_x_g9_f1k1f4k2_td",
    "td_f2k2_g9_x_f1k1",
    "td_f16k4f2k2f1k1_g9_x_f1k1",
    "f32k32_g1",
    "tc_f64k64_g1",
]
BAD_NAMES = [
    "td_f1k1_g9+D",
    "f2k2h1w1_g1",
    "f1k1_g9_td",
    "td_f3k2_g1",
    "g9_g9",
    "td_f1k1_q9",
    "f0k1_g1",
    "td_f1k0_g1",
    "td_",
    "_",
    "",
    "g" + "9" * 5000,
]


@st.composite
def composed_names(draw):
    """A name built from a tail, entries of at most k32, a gap and ``+D``."""
    entry = st.builds(
        "f{}k{}{}".format,
        st.sampled_from([1, 2, 3, 16]),
        st.sampled_from([1, 2, 4, 8, 32]),
        st.sampled_from(["", "", "h1w1", "h4w2"]),
    )
    pre = "".join(draw(st.lists(entry, max_size=3)))
    post = "".join(draw(st.lists(entry, max_size=2)))
    gap = ["x"] if post and draw(st.booleans()) else []
    parts = [p for p in [pre, *gap, f"g{draw(st.sampled_from([1, 9]))}", post] if p]
    tail = draw(st.sampled_from(["", "td", "ta", "tc"]))
    if tail:
        parts = [tail, *parts] if draw(st.booleans()) else [*parts, tail]
    return "_".join(parts) + draw(st.sampled_from(["", "", "+D"]))


names = st.one_of(pick(NAMES, BAD_NAMES), composed_names())


def option(flag, values, *, required=False):
    """``[flag, value]`` or ``[flag=value]``; left out now and then when
    ``required``, else as often as given."""
    given = st.one_of(values.map(lambda v: [flag, v]), values.map(lambda v: [f"{flag}={v}"]))
    left_out = st.just([])
    return st.one_of(given, given, given, left_out) if required else st.one_of(given, left_out)


def flag(name):
    return st.sampled_from([[], [name]])


def argv(*parts):
    """One argv from strategies of single arguments or argument lists."""
    return st.tuples(*parts).map(
        lambda drawn: [a for p in drawn for a in (p if isinstance(p, list) else [p])]
    )


GRAMMARS = {
    "parse": argv(st.just("parse"), names),
    "budget": argv(
        st.just("budget"),
        names,
        option("--height", SIZES, required=True),
        option("--width", SIZES, required=True),
        option("--tail-frames", SIZES),
        flag("--pad"),
    ),
    "plan": argv(
        st.just("plan"),
        names,
        option("--total", SIZES, required=True),
        option("--section", SIZES, required=True),
        option("--user-frames", SIZES),
        option("--endpoints", SPANS),
    ),
    "pack": argv(
        st.just("pack"),
        names,
        VIDEOS,
        option("-o", OUTPUTS, required=True),
        option("--provenance", PROVENANCE),
        flag("--pad-history"),
        flag("--pad-spatial"),
    ),
    "codebook": argv(
        st.just("codebook"),
        st.just("fit"),
        st.lists(VIDEOS, min_size=1, max_size=2),
        option("--k", st.one_of(SIZES, st.just(str(2**40))), required=True),
        option("--seed", SIZES, required=True),
        option("--max-iters", SIZES),
        option("--tol", FLOATS),
        option("-o", OUTPUTS, required=True),
    ),
    "quantize": argv(
        st.just("quantize"),
        VIDEOS,
        option("--codebook", CODEBOOKS, required=True),
        option("-o", OUTPUTS, required=True),
    ),
    "drift": argv(st.just("drift"), VIDEOS, option("--metric", pick(["all", "mean-luminance"], ["bogus", ""]))),
    "elo": argv(st.just("elo"), LOGS, option("--initial", FLOATS), flag("--ranks")),
    "none": st.lists(st.sampled_from(["", "-x", "--bogus", "help", "pack"]), max_size=2),
}


def run(args):
    """Exit code, stdout and stderr of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", GRAMMARS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_exit_code_contract(files, command, data):
    args = [a.replace(ROOT, str(files)) for a in data.draw(GRAMMARS[command], label="argv")]
    code, out, err = run(args)
    assert code in (0, 2, 3), (args, code, err)
    assert "Traceback" not in out + err, args
    lines = err.splitlines()
    if code == 3:
        assert len(lines) == 1 and lines[0].startswith("ctxpack: "), (args, err)
    if code == 2:
        assert lines and lines[-1].startswith("ctxpack"), (args, err)
