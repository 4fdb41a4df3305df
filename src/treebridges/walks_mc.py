"""Monte Carlo estimation for the stopped lazy walk.

The lazy walk steps +1 or -1 with probability 1/4 each and stays put
with probability 1/2, tracking the running area A_k = sum_{i<=k} Y_i.
It stops at the first k >= 1 with Y_k = 0 and A_k <= 0; the quantity of
interest is the probability that the stopping area is exactly zero.
Runs that never stop within the horizon are reported as capped, never
silently dropped: nothing here guarantees the stop comes in finite
time, and at horizon 10^6 roughly 1.8 percent of runs are still going,
which is why estimates carry the capped fraction alongside the
standard error.  The walks are split into shares, and share w derives
its own substream from (seed, w); the shares run one after another,
each split by rows over min(the CPUs this process may run on, the
share's walks) processes.  A share reads its draws from its PCG64's raw
64-bit words, one byte per draw: the stream is exactly the one numpy's
Generator.integers makes for int8 draws in [0, 4), at about a fifth
of its cost: 0.4-0.7 against 2.3 ns per draw (_draw_at, median of 15
calls of 4e6 draws; 2-core x86-64, numpy 2.4.6).  Each part reads its
rows of the share's int8 block of at most 4 MB of draws in cache-sized
tiles: a share of 250,000 walks in one part peaks near 10 MiB of numpy
memory (tracemalloc, horizon 16), and a process near 47 MB resident,
most of it numpy itself (Python 3.11, numpy 2.4, x86-64).  Past the
first 32 steps from the origin, every tile is read in two levels: exact
sums over sub-blocks of 32 steps give the state at every sub-block
boundary, and only the sub-blocks that a certificate on those states
cannot rule out are stepped through one step at a time (proof in
_scan_block).

The row split rests on two facts.  The walkers of a block are
independent, and the block's width depends only on the share's total
alive count and the steps done.  Part p keeps the contiguous rows it
starts with, and after each block its survivors stay in place, in row
order; so the share's alive rows, in row order, are part 0's, then part
1's, and so on.  Before each block the parts swap their alive counts,
which gives each part the width and its offset, the rows alive before
it.

The byte-stream fact: block k, of n_k draws, holds the k-th of the
sequential calls Generator(PCG64(...)).integers(0, 4, size=n_j,
dtype=int8), j = 0, 1, ..., and these are the bytes [4 H_k, 4 H_k + n_k)
of the little-endian byte stream of the PCG64's raw words, each shifted
right by 6, where H_k = sum_{j<k} ceil(n_j / 4).  Proof: for a range of
4, numpy's bounded int8 draw is Lemire's method on buffered bytes, with
rejection threshold (255 - 3) % 4 = 0, so it never rejects: each draw
is (4 byte) >> 8 = byte >> 6 of one byte.  A call of n draws reads
ceil(n / 4) 32-bit halves and uses the first n of their bytes, low byte
first.  It reads the high half that the last call left unused, if
there is one, then the halves of new words, each word's low half before
its high half; a call that ends on a low half leaves the high half to
the next call.  So the calls read the words' halves in
stream order, none skipped and none read twice: block k's first half is
half H_k, whose first byte is byte 4 H_k.  A part whose rows start at
row offset o in block k therefore reads bytes from b = 4 H_k + o * width
on, and draws them alone: a PCG64 set to the share's start state and
advanced by b // 8 words starts at the word that holds byte b, and the
first b % 8 bytes of its words are dropped (_draw_at).  So every count
depends on (samples, horizon, seed, w) and not on the count of parts.
"""

from __future__ import annotations

import enum
import functools
import math
import os
import random
import sys
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
# steps per sub-block of the two-level tile scan in _scan_block, the
# fastest of 8, 16, 32 and 64
_SUB = 32
# sub-blocks per tile (the tile rule is in _scan_block), 1 MiB as
# float32, which keeps the sub-block matmul at most 8,192 rows (see
# estimate_zero_area_prob)
_TWO_LEVEL_SUBS = 8_192
# raw 64-bit words read per chunk by _draw_at, 256 KiB
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


@functools.cache
def _sub_weights():
    """The (_SUB, 2) matrix of the sub-block sums (see _scan_block)."""
    import numpy as np

    weights = np.ones((_SUB, 2), dtype=np.float32)
    weights[:, 1] = np.arange(_SUB, 0, -1)
    return weights


def _sub_block_scan(d, y, area):
    """_step_scan's result for int8 increments d of any width, stepping
    only through the sub-blocks where a stop can fall; the last
    sub-block is padded with zero steps (see _scan_block)."""
    import numpy as np

    rows, cols = d.shape
    pad = -cols % _SUB
    f = np.empty((rows, cols + pad), dtype=np.float32)
    f[:, :cols] = d
    f[:, cols:] = 0
    f = f.reshape(-1, _SUB)
    sums = (f @ _sub_weights()).astype(np.int64).reshape(rows, -1, 2)
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

    The block is read in tiles: row groups, each read in column chunks
    that carry every row's (height, area) to the next chunk.  The tile
    rule depends on the width alone: with S = _TWO_LEVEL_SUBS, a group
    has max(1, S // ceil(width / _SUB)) rows and a chunk S // rows
    sub-blocks, so a tile holds at most S sub-blocks, padding included.
    A group of several rows fits in one chunk, so only a lone row is
    read in several, and the chunks after the one it stops in are never
    read.  The states of the alive rows, in row order, are written to
    the front of y and area.

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
    so a group whose walkers all start there is stepped through for B
    steps, and its survivors, picked in row order, read the rest of the
    chunk in two levels: a stop in those steps comes first, so each row
    is counted at its first stop, and the survivors stay in row order.
    No alive walker is at (0, 0) after a step, since that state is a
    stop, so every other tile is read in two levels, whatever its
    width: the padding argument holds for a tile narrower than one
    sub-block too.
    """
    import numpy as np

    total, width = u.shape
    group = max(1, _TWO_LEVEL_SUBS // -(-width // _SUB))
    chunk = _TWO_LEVEL_SUBS // group * _SUB
    zero = negative = alive = 0
    for g0 in range(0, total, group):
        yg = y[g0 : g0 + group]
        ag = area[g0 : g0 + group]
        for c0 in range(0, width, chunk):
            d = _increments(u[g0 : g0 + group, c0 : c0 + chunk])
            if not (c0 or yg.any() or ag.any()):
                hit, stop_area, yg, ag = _step_scan(d[:, :_SUB], yg, ag)
                zero += int(np.count_nonzero(stop_area == 0))
                negative += int(np.count_nonzero(stop_area < 0))
                d = d[:, _SUB:]
                if hit.any():
                    live = np.flatnonzero(~hit)
                    d, yg, ag = d[live], yg[live], ag[live]
                if not (yg.size and d.shape[1]):
                    break
            hit, stop_area, y_end, a_end = _sub_block_scan(d, yg, ag)
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


def _draw_at(bit_gen, state, first, n):
    """The n int8 draws at bytes [first, first + n) of the raw words' byte
    stream from state (module docstring): bit_gen is set to state and
    advanced to the word that holds byte first, and its raw words are
    read in chunks of _RAW_WORDS, each byte shifted right by 6."""
    import numpy as np

    bit_gen.state = state
    bit_gen.advance(first // 8)
    skip = first % 8
    out = np.empty(skip + n, dtype=np.uint8)
    for pos in range(0, out.size, 8 * _RAW_WORDS):
        raw = bit_gen.random_raw(min(_RAW_WORDS, -(-(out.size - pos) // 8)))
        raw = raw.astype("<u8", copy=False).view(np.uint8)
        np.right_shift(raw[: out.size - pos], 6, out=out[pos : pos + raw.size])
    return out[skip:].view(np.int8)


def _receive(sock, parts):
    """Read parts (zero, negative, alive) triples of int64 from the socket
    sock; an end of the stream before them, from a part that died or
    raised, raises."""
    data = memoryview(bytearray(24 * parts))
    got = 0
    while got < data.nbytes:
        if not (n := sock.recv_into(data[got:])):
            raise RuntimeError("a Monte Carlo part ended without sending its counts")
        got += n
    return data.cast("q", (parts, 3)).tolist()


def _run_part(bit_gen, sizes, horizon, p, exchange):
    """(zero, negative, capped) of the share whose rows are split into
    parts of sizes[q] contiguous rows, running part p's rows from
    bit_gen's state.  exchange takes this part's running (zero,
    negative, alive) after each block and returns every part's, in part
    order: the next block's width depends on the share's alive count
    alone, and part p's rows of it follow the alive rows of the parts
    before it (module docstring)."""
    import numpy as np

    state = bit_gen.state
    y = np.zeros(sizes[p], dtype=np.int64)
    area = np.zeros(sizes[p], dtype=np.int64)
    counts = [(0, 0, size) for size in sizes]
    zero = negative = 0
    done = halves = 0
    while (total := sum(c[2] for c in counts)) and done < horizon:
        width = min(max(_MIN_WIDTH, _BLOCK_BUDGET // total), horizon - done)
        first = 4 * halves + width * sum(c[2] for c in counts[:p])
        u = _draw_at(bit_gen, state, first, y.size * width).reshape(y.size, width)
        z, ng, alive = _scan_block(u, y, area)
        zero += z
        negative += ng
        y = y[:alive]
        area = area[:alive]
        done += width
        # the 32-bit halves that one Generator.integers call of the whole
        # block reads
        halves += -(-total * width // 4)
        counts = exchange((zero, negative, alive))
    return tuple(map(sum, zip(*counts)))


def _run_child(part, sock, others, parts):
    """In a forked child: close others, the parent's socket ends that it
    inherited, then run part(exchange), sending this part's counts on
    sock and reading every part's from it.  It leaves only through
    os._exit, with code 0 once the part has sent its last counts, and
    with code 1 and no traceback once the parent's end has closed: the
    parent raised, and its error names the cause."""
    import numpy as np

    try:
        for other in others:
            other.close()

        def exchange(counts):
            try:
                sock.sendall(np.asarray([counts], dtype=np.int64))
                return _receive(sock, parts)
            except (RuntimeError, BrokenPipeError, ConnectionResetError):
                os._exit(1)

        part(exchange)
        os._exit(0)
    except Exception:
        # the parent raises for the missing counts; the cause shows here
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(1)


def _run_worker(samples: int, horizon: int, seed: int, w: int) -> tuple[int, int, int]:
    """(zero, negative, capped) of share w's samples walks, on the
    substream spawned from (seed, w): a PCG64 on
    SeedSequence(entropy=seed, spawn_key=(w,)).

    Same increment law as simulate_stopped_walk (a uniform draw from
    four values: one maps to +1, one to -1, two to 0), drawn in int8
    blocks whose width adapts so alive * width stays within budget, and
    read by _scan_block.  Block by block, the draws are those that
    Generator(PCG64(...)).integers would give for int8 draws in [0, 4)
    of shape (alive, width), read from the PCG64's raw words.

    The rows are split into P = min(the CPUs this process may run on,
    samples) near-equal contiguous parts, P = 1 without os.fork: the CPUs
    are os.sched_getaffinity's where the platform has it, and
    os.cpu_count() elsewhere.  This process runs part 0 and forks a
    child on a socket pair for each other part; after each block it reads
    each child's counts and sends them all to every child, and it reaps
    every child on return and on error.  The counts do not depend on P.
    """
    import numpy as np

    bit_gen = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(w,)))
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    parts = min(cpus, samples) if hasattr(os, "fork") else 1
    sizes = [samples // parts + (p < samples % parts) for p in range(parts)]
    part = functools.partial(_run_part, bit_gen, sizes, horizon)
    # this process's end of each child's socket pair
    socks = []
    pids = []
    try:
        for p in range(1, parts):
            import socket  # only a process that forks loads it
            sock, child_sock = socket.socketpair()
            socks.append(sock)
            with child_sock:
                pid = os.fork()
                if not pid:
                    _run_child(functools.partial(part, p), child_sock, socks, parts)
            pids.append(pid)

        def exchange(counts):
            counts = [counts, *(c for sock in socks for c in _receive(sock, 1))]
            for sock in socks:
                sock.sendall(np.asarray(counts, dtype=np.int64))
            return counts

        return part(0, exchange)
    finally:
        # the children's sockets end here, so a child still waiting for
        # counts leaves before it is reaped
        for sock in socks:
            sock.close()
        for pid in pids:
            os.waitpid(pid, 0)


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
    spawned from (seed, w).  workers counts substreams, not processes.
    The shares run one after another, each split by rows over P =
    min(the CPUs this process may run on, the share's walks) processes:
    this one and P - 1 forked from it, each holding only its own rows of
    the share's int8 block of at most 4 MB.  Each part reads its rows'
    bytes alone from an advanced PCG64, which gives every block exactly
    the draws of one sequential Generator.integers call (the byte-stream
    fact, proved in the module docstring), so the counts do not depend
    on P.  Without os.fork, P is
    1.  A part that raises, or a child that dies, makes this raise, and
    every child is reaped before it returns or raises.  Python 3.12+ may
    warn that forking a process with threads can deadlock: numpy's idle
    OpenBLAS threads exist.  The children's only BLAS call is the
    sub-block matmul of _scan_block, at most 8,192 x 32 by 32 x 2, which
    OpenBLAS runs on the calling thread, below its size for starting
    threads (measured: its threads gain no CPU time up to 12,288 rows
    and as much as the calling thread at 16,384, OpenBLAS 0.3.31).
    """
    check_size("samples", samples, 1)
    check_size("horizon", horizon, 1)
    # numpy's SeedSequence rejects negative entropy
    check_size("seed", seed, 0)
    check_size("workers", workers, 1)
    shares = min(samples, max(workers, math.ceil(samples * _MIN_WIDTH / _BLOCK_BUDGET)))
    sizes = [samples // shares + (w < samples % shares) for w in range(shares)]
    counts = map(_run_worker, sizes, [horizon] * shares, [seed] * shares, range(shares))
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

