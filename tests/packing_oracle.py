"""Reference packer: one ``PackedToken`` per token, built the direct way.

This is the per-token ``apply_schedule`` that the block packer replaced,
kept as an oracle. It pools every kernel group, every appended tail
frame window by window, and every generated frame token by token, and it
formats ``.prov`` one token at a time. Every mean is an ``in_order_sum``
divided by its pixel count.
"""

from __future__ import annotations

import numpy as np

from ctxpack.budget import TAIL_POOL
from ctxpack.errors import ExcessHistory, IndivisibleDims, ShortHistory
from ctxpack.packing import PackedToken
from ctxpack.planner import bind_backward, bind_forward
from ctxpack.schedule import BASE_KERNEL, KernelSpec, TailMode


def in_order_sum(values):
    """The float64 sum down axis 0, adding one value at a time in order,
    from +0.0. ``np.cumsum`` adds in order; ``.sum``, ``.mean`` and
    ``np.add.reduce`` sum a lone column pairwise."""
    return np.cumsum(np.asarray(values, np.float64), axis=0)[-1] + 0.0


def pool(block, kernel, pad_spatial):
    h, w = block.shape[1:3]
    if (h % kernel.p_h or w % kernel.p_w) and not pad_spatial:
        raise IndivisibleDims(f"latent dims {h}x{w} are not divisible by kernel {kernel.dims}")
    if h % kernel.p_h or w % kernel.p_w:
        block = np.pad(block, ((0, 0), (0, (-h) % kernel.p_h), (0, (-w) % kernel.p_w), (0, 0)))
    t, h, w, c = block.shape
    rows, cols = h // kernel.p_h, w // kernel.p_w
    windows = block.reshape(t, rows, kernel.p_h, cols, kernel.p_w, c)
    # each window's pixels in memory order: frame, row, column
    pixels = windows.transpose(0, 2, 4, 1, 3, 5).reshape(-1, rows, cols, c)
    return in_order_sum(pixels) / len(pixels)


def grid_tokens(grid, kernel, time_span, time_pos):
    tokens = []
    for r in range(grid.shape[0]):
        for c in range(grid.shape[1]):
            phase = (
                time_pos,
                r * kernel.p_h + (kernel.p_h - 1) / 2,
                c * kernel.p_w + (kernel.p_w - 1) / 2,
            )
            tokens.append(PackedToken(time_span, (r, c), kernel, grid[r, c], phase))
    return tokens


def tail_tokens(block, mode, coarsest, t_offset, pad_spatial):
    if mode is TailMode.DELETE or block.shape[0] == 0:
        return []
    if mode is TailMode.APPEND:
        kernel = KernelSpec(*TAIL_POOL)
        rows = [(lo, min(lo + TAIL_POOL[1], block.shape[1])) for lo in range(0, block.shape[1], TAIL_POOL[1])]
        cols = [(lo, min(lo + TAIL_POOL[2], block.shape[2])) for lo in range(0, block.shape[2], TAIL_POOL[2])]
        tokens = []
        for t in range(block.shape[0]):
            for r, (r0, r1) in enumerate(rows):
                for c, (c0, c1) in enumerate(cols):
                    pixels = block[t, r0:r1, c0:c1].reshape(-1, block.shape[3])
                    feature = in_order_sum(pixels) / len(pixels)
                    phase = (float(t_offset + t), (r0 + r1 - 1) / 2, (c0 + c1 - 1) / 2)
                    span = (t_offset + t, t_offset + t + 1)
                    tokens.append(PackedToken(span, (r, c), kernel, feature, phase))
        return tokens
    kernel = coarsest
    mean = in_order_sum(block) / block.shape[0]
    grid = pool(mean[None], kernel, pad_spatial)
    span = (t_offset, t_offset + block.shape[0])
    return grid_tokens(grid, kernel, span, t_offset + (block.shape[0] - 1) / 2)


def apply_schedule_oracle(history, schedule, *, pad_history=False, pad_spatial=False):
    """Return ``(tokens, generate_span, tail_span)`` for a history."""
    data = history.data
    h, w, channels = data.shape[1:]
    pre = schedule.entries_before_generate
    post = schedule.entries_after_generate
    cap_pre = sum(e.count for e in pre)
    cap_post = sum(e.count for e in post)
    total = data.shape[0]
    middle = max(0, total - cap_post) if schedule.tail_at_start else min(cap_pre, total)
    pre_spans = [b.span for b in bind_backward(pre, middle)]
    post_spans = [b.span for b in bind_forward(post, middle, total)]
    lo = pre_spans[0].start if pre_spans else middle
    hi = post_spans[-1].stop if post_spans else middle
    if schedule.tail_at_start:
        tail_block = data[:lo]
    elif schedule.tail_at_end:
        tail_block = data[hi:]
    elif hi < total:
        raise ExcessHistory("no tail marker")
    else:
        tail_block = data[:0]
    if hi - lo < cap_pre + cap_post and not pad_history:
        raise ShortHistory("short history")
    if (cap_pre and lo == middle) or (cap_post and hi == middle):
        raise ShortHistory("cannot pad from an empty history")

    tokens = []
    cursor = 0
    tail_span = None

    def emit_tail():
        nonlocal cursor, tail_span
        n = tail_block.shape[0]
        tail_span = (cursor, cursor + n)
        tokens.extend(
            tail_tokens(tail_block, schedule.tail.mode, schedule.coarsest_kernel, cursor, pad_spatial)
        )
        cursor += n

    def emit_entries(entries, spans, edge, at_start):
        nonlocal cursor
        for entry, span in zip(entries, spans):
            frames = data[span.start : span.stop]
            deficit = entry.count - span.length
            if deficit:
                pad = np.repeat(edge, deficit, axis=0)
                frames = np.concatenate([pad, frames] if at_start else [frames, pad])
            p_f = entry.kernel.p_f
            if frames.shape[0] % p_f:
                if not pad_history:
                    raise IndivisibleDims("entry not divisible by its kernel step")
                frames = np.concatenate(
                    [frames, np.repeat(frames[-1:], (-frames.shape[0]) % p_f, axis=0)]
                )
            for i in range(0, frames.shape[0], p_f):
                grid = pool(frames[i : i + p_f], entry.kernel, pad_spatial)
                span_i = (cursor, cursor + p_f)
                tokens.extend(grid_tokens(grid, entry.kernel, span_i, cursor + (p_f - 1) / 2))
                cursor += p_f

    if schedule.tail_at_start:
        emit_tail()
    emit_entries(pre, pre_spans, data[lo:middle][:1], at_start=True)
    generate_span = (cursor, cursor + schedule.generate.count)
    for t in range(*generate_span):
        zero = pool(np.zeros((1, h, w, channels)), BASE_KERNEL, pad_spatial)
        tokens.extend(grid_tokens(zero, BASE_KERNEL, (t, t + 1), float(t)))
    cursor = generate_span[1]
    emit_entries(post, post_spans, data[middle:hi][-1:], at_start=False)
    if schedule.tail_at_end:
        emit_tail()
    return tokens, generate_span, tail_span


def pack_outputs_oracle(name, tokens, generate_span, tail_span):
    """The ``pack`` tensor payload and ``.prov`` text, formatted per token."""
    features = np.stack([t.feature for t in tokens]).astype("<f4")
    tail_frames = 0 if tail_span is None else tail_span[1] - tail_span[0]
    lines = [
        f"schedule {name}",
        f"budget {len(tokens)}",
        f"generate_span {generate_span[0]}..{generate_span[1]}",
        f"tail_frames {tail_frames}",
    ]
    for i, tok in enumerate(tokens):
        lines.append(
            f"token {i} span={tok.time_span[0]}..{tok.time_span[1]}"
            f" cell={tok.cell[0]},{tok.cell[1]} kernel={tok.kernel.token}"
            f" phase={tok.phase[0]!r},{tok.phase[1]!r},{tok.phase[2]!r}"
        )
    return features.tobytes(), "\n".join(lines) + "\n"
