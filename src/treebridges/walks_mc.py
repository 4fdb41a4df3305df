"""Monte Carlo estimation for the stopped lazy walk.

The lazy walk steps +1 or -1 with probability 1/4 each and stays put
with probability 1/2, tracking the running area A_k = sum_{i<=k} Y_i.
It stops at the first k >= 1 with Y_k = 0 and A_k <= 0; the quantity of
interest is the probability that the stopping area is exactly zero.
Runs that never stop within the horizon are reported as capped, never
silently dropped: nothing here guarantees the stop comes in finite
time, and at horizon 10^6 roughly 1.8 percent of runs are still going,
which is why estimates carry the capped fraction alongside the
standard error.  The walks are split into shares, each on its own
substream, and the shares run concurrently on at most
min(workers, shares, CPU count) forked processes.  A share reads its
draws from its PCG64's raw 64-bit words, one byte per draw: the stream
is exactly the one numpy's Generator.integers makes for int8 draws in
[0, 4), at about a quarter of its cost: 1.1-1.2 against 4.5-4.8 ns per
draw (_draw; 2-core x86-64, numpy 2.4).  Each share reads its own
int8 block of at most 4 MB of draws in cache-sized tiles: a share of
250,000 walks peaks near 10 MiB of numpy memory (tracemalloc, horizon
16), and a process near 47 MB resident, most of it numpy itself
(Python 3.11, numpy 2.4, x86-64).  A tile is read in two levels: exact
sums over sub-blocks of 32 steps give the state at every sub-block
boundary, and only the sub-blocks that a certificate on those states
cannot rule out are stepped through one step at a time (proof in
_scan_block).
"""

from __future__ import annotations

import enum
import functools
import math
import os
import random
from typing import NamedTuple

# the exact sampler lives in bridges; the benchmark's sampler job
# (bench/job.py) and its tracer (bench/tracer.TRACED) still read it here
from .bridges import sample_uniform_graphical_bridge  # noqa: F401
from .numtheory import check_size

# numpy is imported inside the functions that use it, so that importing
# the package does not load it

# draws per block, and the fewest steps per block: they fix every stream's
# layout, so every count depends on them, and cap a share at 250,000 walks
_BLOCK_BUDGET = 4_000_000
_MIN_WIDTH = 16
# elements per tile of the block scan: its two int64 running sums take
# 1 MiB where a tile is stepped through whole
_TILE = 65_536
# steps per sub-block of the two-level tile scan in _scan_block, the
# fastest of 8, 16, 32 and 64
_SUB = 32
# raw 64-bit words read per chunk by _draw, 256 KiB
_RAW_WORDS = 1 << 15
# the increment of each of the four equally likely draws
_STEPS = (1, -1, 0, 0)


class WalkOutcome(enum.Enum):
    AREA_ZERO = "area_zero"
    AREA_NEGATIVE = "area_negative"
    CAPPED = "capped"


class McEstimate(NamedTuple):
    """Monte Carlo result: the estimate is the fraction of area-zero
    stops among non-capped runs; capped runs are excluded from the
    denominator but reported.  Nearly all of them would later stop at a
    negative area, so with c the capped fraction the estimate sits
    above the true probability rho by close to rho c / (1 - c), about
    half of c."""

    estimate: float
    samples: int
    std_error: float
    capped_fraction: float
    seed: int


def stop_time_outcome(increments, horizon: int) -> WalkOutcome:
    """Drive one walk from an increment iterable; mainly a test seam."""
    check_size("horizon", horizon, 1)
    y = 0
    area = 0
    steps = 0
    for inc in increments:
        y += inc
        area += y
        steps += 1
        if y == 0 and area <= 0:
            return WalkOutcome.AREA_ZERO if area == 0 else WalkOutcome.AREA_NEGATIVE
        if steps >= horizon:
            break
    return WalkOutcome.CAPPED


def simulate_stopped_walk(seed: int, horizon: int) -> WalkOutcome:
    """One lazy walk run with its own stdlib generator."""
    check_size("seed", seed, 0)
    rng = random.Random(seed)

    def stream():
        while True:
            yield _STEPS[rng.randrange(4)]

    return stop_time_outcome(stream(), horizon)


def _increments(u):
    """The int8 increments _STEPS[u] of an int8 array u of draws, read
    with two compares in place of a gather."""
    import numpy as np

    up = (u == _STEPS.index(1)).view(np.int8)
    up -= (u == _STEPS.index(-1)).view(np.int8)
    return up


def _draw(bit_gen, out):
    """Fill the C-contiguous int8 array out with the draws that
    Generator(bit_gen).integers makes for low 0, high 4, size out.shape
    and dtype int8, and leave bit_gen in the state that call leaves.

    For a range of 4, numpy's bounded int8 draw is Lemire's method on
    buffered bytes, with rejection threshold (255 - 3) % 4 = 0, so it
    never rejects: each draw is (4 byte) >> 8 = byte >> 6 of one byte.  One call reads ceil(n / 4) 32-bit
    halves, each low byte first, and each new 64-bit word gives its low
    half first, so the bytes of the raw words in little-endian order are
    the draws' bytes.  A call starts with the high half that the last
    one left unused (PCG64's has_uint32), and one that ends on a low
    half leaves the high half for the next.  The words are read in
    chunks of _RAW_WORDS and shifted straight into out.
    """
    import numpy as np

    flat = out.reshape(-1).view(np.uint8)
    n = flat.size
    if not n:
        return out
    state = bit_gen.state
    pos = 0
    if state["has_uint32"]:
        pos = min(4, n)
        half = np.array([state["uinteger"]], dtype="<u4").view(np.uint8)
        np.right_shift(half[:pos], 6, out=flat[:pos])
    left = n - pos
    words = -(-left // 8)
    for start in range(0, words, _RAW_WORDS):
        raw = bit_gen.random_raw(min(_RAW_WORDS, words - start))
        raw = raw.astype("<u8", copy=False).view(np.uint8)
        end = min(pos + raw.size, n)
        np.right_shift(raw[: end - pos], 6, out=flat[pos:end])
        pos = end
    # random_raw leaves has_uint32 alone, so set it as the buffered
    # draw would: numpy keeps the last new word's high half either way
    state = bit_gen.state
    state["has_uint32"] = int(0 < left % 8 <= 4)
    if words:
        state["uinteger"] = int(raw.view("<u4")[-1])
    bit_gen.state = state
    return out


def _step_scan(d, y, area):
    """Step the rows of the increments d (int8, or float32 holding
    integers) from the states (y, area); returns (hit, stop_area, y_end,
    area_end): which rows stop, the area of each stopping row's first
    stop in row order, and every row's state after the last column."""
    import numpy as np

    ypath = d.astype(np.int64)
    ypath[:, 0] += y
    np.cumsum(ypath, axis=1, out=ypath)
    apath = np.cumsum(ypath, axis=1)
    apath += area[:, None]
    stop = (ypath == 0) & (apath <= 0)
    first = stop.argmax(axis=1)
    hit = stop[np.arange(first.size), first]
    return hit, apath[hit, first[hit]], ypath[:, -1], apath[:, -1]


def _may_stop(y_start, y_end, a_start):
    """Which sub-blocks of at most _SUB steps, from the states (y_start,
    a_start) to the height y_end, can hold a stop; the certificate is
    proved in _scan_block's docstring."""
    import numpy as np

    maybe = np.abs(y_start) + np.abs(y_end) <= _SUB
    maybe &= a_start <= _SUB * (_SUB - 1) // 2
    return maybe


def _sub_block_scan(d, y, area):
    """_step_scan's result for int8 increments d at least _SUB columns
    wide, stepping only through the sub-blocks where a stop can fall
    (see _scan_block)."""
    import numpy as np

    rows, cols = d.shape
    pad = -cols % _SUB
    f = np.zeros((rows, cols + pad), dtype=np.float32)
    f[:, :cols] = d
    f = f.reshape(-1, _SUB)
    weights = np.ones((_SUB, 2), dtype=np.float32)
    weights[:, 1] = np.arange(_SUB, 0, -1)
    sums = (f @ weights).astype(np.int64).reshape(rows, -1, 2)
    y_end = np.cumsum(sums[..., 0], axis=1)
    y_end += y[:, None]
    y_start = y_end - sums[..., 0]
    # the area each sub-block adds
    rise = sums[..., 1] + _SUB * y_start
    a_end = np.cumsum(rise, axis=1)
    a_end += area[:, None]
    a_start = a_end - rise
    # the candidates' flat indices run in row order, then in column
    # order, so each stopping row's first stop comes first
    at = _may_stop(y_start, y_end, a_start).ravel().nonzero()[0]
    stops, stop_area, _, _ = _step_scan(f[at], y_start.ravel()[at], a_start.ravel()[at])
    r = at[stops] // sums.shape[1]
    first = np.ones(r.size, dtype=bool)
    first[1:] = r[1:] != r[:-1]
    hit = np.zeros(rows, dtype=bool)
    hit[r[first]] = True
    y_end = y_end[:, -1]
    # the padding added pad * y_end to the last area
    return hit, stop_area[first], y_end, a_end[:, -1] - pad * y_end


def _scan_block(u, y, area) -> tuple[int, int, int]:
    """Run the walks whose draws are the rows of the int8 block u from
    the states (y, area); returns (zero, negative, alive).

    The block is read in tiles of at most _TILE elements: row groups of
    max(1, _TILE // width) rows, each read in column chunks of
    _TILE // rows columns that carry every row's (height, area) to the
    next chunk.  A group of several rows fits in one chunk, so only a
    lone row is read in several, and the chunks after the one it stops
    in are never read.  The states of the alive rows, in row order, are
    written to the front of y and area.

    A tile is read in two levels by _sub_block_scan.  Its increments are
    cut into sub-blocks of B = _SUB steps, the last one padded with zero
    steps, and one float32 matmul against the (B, 2) matrix
    [1, ..., 1; B, B - 1, ..., 1] gives each sub-block's height change
    s = sum_j d_j and area term L = sum_j (B - j) d_j, for j = 0..B-1.
    Both are exact: every partial sum is an integer of size at most
    B (B + 1) / 2 = 528 < 2^24, which float32 holds exactly in any
    order of summation.  Two int64 running sums over the sub-blocks,
    1/B of the elements, then give the exact state at every boundary:
    y_e = y_s + s and A_e = A_s + B y_s + L, since the height after m
    steps is y_s plus the d_j with j < m.

    The certificate: a stop at step i of a sub-block has y_i = 0.
    Heights move by at most 1 per step, so |y_s| <= i and
    |y_e| <= B - i, that is |y_s| + |y_e| <= B.  The heights before it
    are y_m >= -(i - m), so 0 >= A_i = A_s + sum_{m <= i} y_m >=
    A_s - i (i - 1) / 2, that is A_s <= i (i - 1) / 2 <= B (B - 1) / 2.
    A sub-block that fails either test (_may_stop) holds no stop.  Only
    the candidates that pass both are stepped through by _step_scan, and
    a row's first stopping candidate decides its outcome.  Both bounds
    are tight: from y_s = -B and A_s = B (B - 1) / 2, B up-steps stop
    at area 0, and from one more area they do not stop.  The zero steps
    of the padding keep the last height, so a stop among them repeats a
    stop at the last real step, which comes first; the padded sub-block
    passes the tests whenever its real steps hold a stop.

    A share's first block starts every walker at (0, 0), where the
    candidates are dense and half the walkers stop at their first step,
    so a tile whose walkers all start there is stepped through whole, as
    is a tile narrower than one sub-block.  No alive walker is at
    (0, 0) after a step, since that state is a stop.
    """
    import numpy as np

    total, width = u.shape
    group = max(1, _TILE // width)
    chunk = _TILE // group
    zero = negative = alive = 0
    for g0 in range(0, total, group):
        yg = y[g0 : g0 + group]
        ag = area[g0 : g0 + group]
        for c0 in range(0, width, chunk):
            d = _increments(u[g0 : g0 + group, c0 : c0 + chunk])
            at_origin = not (yg.any() or ag.any())
            scan = _step_scan if at_origin or d.shape[1] < _SUB else _sub_block_scan
            hit, stop_area, y_end, a_end = scan(d, yg, ag)
            zero += int(np.count_nonzero(stop_area == 0))
            negative += int(np.count_nonzero(stop_area < 0))
            yg = y_end[~hit]
            ag = a_end[~hit]
            if not yg.size:
                break
        # the survivors go to the front: alive never passes g0, and this
        # group's states were read in its first chunk
        y[alive : alive + yg.size] = yg
        area[alive : alive + ag.size] = ag
        alive += yg.size
    return zero, negative, alive


def _run_worker(samples: int, horizon: int, seed_seq) -> tuple[int, int, int]:
    """Vectorized batch of walks; returns (zero, negative, capped).

    Same increment law as simulate_stopped_walk (a uniform draw from
    four values: one maps to +1, one to -1, two to 0), drawn in int8
    blocks whose width adapts so alive * width stays within budget, and
    read by _scan_block.  _draw fills each block from the raw words of
    a PCG64 on seed_seq: block by block, the draws that
    Generator(PCG64(seed_seq)).integers would give for int8 draws in
    [0, 4) of shape (alive, width).
    """
    import numpy as np

    bit_gen = np.random.PCG64(seed_seq)
    y = np.zeros(samples, dtype=np.int64)
    area = np.zeros(samples, dtype=np.int64)
    zero = negative = 0
    done = 0
    while y.size and done < horizon:
        width = min(max(_MIN_WIDTH, _BLOCK_BUDGET // y.size), horizon - done)
        u = _draw(bit_gen, np.empty((y.size, width), dtype=np.int8))
        z, ng, alive = _scan_block(u, y, area)
        zero += z
        negative += ng
        y = y[:alive]
        area = area[:alive]
        done += width
    return zero, negative, y.size


def _run_share(samples: int, shares: int, horizon: int, seed: int, w: int):
    """_run_worker's (zero, negative, capped) for share w of samples
    split into shares near-equal parts, on the substream spawned from
    (seed, w)."""
    import numpy as np

    ss = np.random.SeedSequence(entropy=seed, spawn_key=(w,))
    return _run_worker(samples // shares + (w < samples % shares), horizon, ss)


def estimate_zero_area_prob(
    samples: int, horizon: int, seed: int, workers: int = 1
) -> McEstimate:
    """Estimate the zero-area stopping probability.

    The estimate leaves the capped runs out, and nearly all of them
    would stop at a negative area later, so it is biased upward by
    close to rho c / (1 - c) for the capped fraction c (see McEstimate),
    which falls only like horizon^(-1/4).

    Deterministic for fixed (samples, horizon, seed, workers): the
    samples are split into min(samples, max(workers, ceil(_MIN_WIDTH *
    samples / _BLOCK_BUDGET))) near-equal shares, each small enough that
    its first block fits the budget, and share w runs on the substream
    spawned from (seed, w).  The shares run concurrently on procs =
    min(workers, shares, os.cpu_count()) processes forked from this
    one, each holding its own int8 block of at most 4 MB and
    peaking near 10 MiB of numpy memory; the counts are integer sums, so
    they do not depend on procs.  With one process, or where the fork
    start method does not exist, the shares run in this process.  A
    failing worker raises here.  Python 3.12+ may warn that forking a
    process with threads can deadlock: numpy's idle OpenBLAS threads
    exist.  The children's only BLAS call is the sub-block matmul of
    _scan_block, at most 4,096 x 32 by 32 x 2, which OpenBLAS runs on
    the calling thread, below its size for starting threads (measured:
    its threads gain no CPU time at 8,192 rows, OpenBLAS 0.3.31).
    """
    check_size("samples", samples, 1)
    check_size("horizon", horizon, 1)
    # numpy's SeedSequence rejects negative entropy
    check_size("seed", seed, 0)
    check_size("workers", workers, 1)
    shares = min(samples, max(workers, math.ceil(samples * _MIN_WIDTH / _BLOCK_BUDGET)))
    procs = min(workers, shares, os.cpu_count() or 1)
    if procs > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            procs = 1
    run = functools.partial(_run_share, samples, shares, horizon, seed)
    if procs == 1:
        counts = list(map(run, range(shares)))
    else:
        from concurrent.futures import ProcessPoolExecutor

        # loaded before the fork, so the children do not each load it
        import numpy  # noqa: F401

        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(procs, mp_context=ctx) as pool:
            counts = list(pool.map(run, range(shares), chunksize=-(-shares // procs)))
    zero, negative, capped = map(sum, zip(*counts))
    stopped = zero + negative
    if stopped:
        p = zero / stopped
        # p is a fraction of the stopped runs, not of all samples
        se = math.sqrt(p * (1 - p) / stopped)
    else:
        p = math.nan
        se = math.nan
    return McEstimate(
        estimate=p,
        samples=samples,
        std_error=se,
        capped_fraction=capped / samples,
        seed=seed,
    )

