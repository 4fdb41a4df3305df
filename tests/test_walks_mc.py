from __future__ import annotations

import contextlib
import math
import os
import random
import signal
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from treebridges import bridges, series, walks_mc
from treebridges.walks_mc import WalkOutcome


def _allow_cpus(monkeypatch, cpus):
    # the CPUs this process may run on, which fix a share's part count
    affinity = set(range(cpus))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)


def _generator(seed, w):
    # numpy's own Generator on substream (seed, w): the reference stream
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(w,))
    return np.random.Generator(np.random.PCG64(ss))


def test_forced_streams():
    assert walks_mc.stop_time_outcome([0], 10) == WalkOutcome.AREA_ZERO
    assert walks_mc.stop_time_outcome([-1, 1], 10) == WalkOutcome.AREA_NEGATIVE
    assert walks_mc.stop_time_outcome([1] * 50, 50) == WalkOutcome.CAPPED
    # a lazy step at time 1 stops immediately even at the minimal horizon
    assert walks_mc.stop_time_outcome([0], 1) == WalkOutcome.AREA_ZERO
    # the +1,-1 excursion returns to zero with positive area: not a stop
    assert walks_mc.stop_time_outcome([1, -1, 0], 3) == WalkOutcome.CAPPED


def test_irreducible_bridges_are_the_lazy_walks_first_stopping_at_area_zero():
    # each lazy step is the image of 1, 1 or 2 of the 4 increment pairs,
    # so this is the finite-n form of rho = sum_k irr_k 4^-k
    counts = []
    for n in range(1, 9):
        count = 0
        for b in bridges.enumerate_bridges(n):
            lazy = bridges.lazify(b)
            stops = walks_mc.stop_time_outcome(lazy, n) is WalkOutcome.AREA_ZERO
            if n >= 2:
                # and not before step n
                earlier = walks_mc.stop_time_outcome(lazy[: n - 1], n - 1)
                stops = stops and earlier is WalkOutcome.CAPPED
            assert bridges.is_irreducible_bridge(b) == stops, b
            count += stops
        counts.append(count)
    assert counts == [2, 0, 0, 1, 2, 8, 20, 66]


def test_simulate_stopped_walk_deterministic():
    outcomes = {walks_mc.simulate_stopped_walk(seed, 10_000) for seed in range(8)}
    assert outcomes <= {WalkOutcome.AREA_ZERO, WalkOutcome.AREA_NEGATIVE, WalkOutcome.CAPPED}
    for seed in range(8):
        a = walks_mc.simulate_stopped_walk(seed, 10_000)
        b = walks_mc.simulate_stopped_walk(seed, 10_000)
        assert a == b


def test_simulate_stopped_walk_outcomes_frozen():
    # the outcomes of the stream that mapped u = 0, 1, 2, 3 to 1, -1, 0, 0
    z, ng, cp = WalkOutcome.AREA_ZERO, WalkOutcome.AREA_NEGATIVE, WalkOutcome.CAPPED
    expected = (z, ng, ng, ng, ng, z, cp, z, ng, z, ng, z)
    assert tuple(walks_mc.simulate_stopped_walk(seed, 1000) for seed in range(12)) == expected


def test_simulate_stopped_walk_rejects_non_int_seed():
    # None would seed from OS entropy, so the run could not be repeated
    for bad in (True, 1.5, "abc", None):
        with pytest.raises(TypeError, match="seed must be an int"):
            walks_mc.simulate_stopped_walk(bad, 10)


def test_estimate_memory_stays_within_the_block_budget(monkeypatch):
    # a share runs at most 250,000 walks at a time, so the first block,
    # 16 steps wide, stays within _BLOCK_BUDGET elements: the run peaks
    # near 11 MiB, and near 33 MiB in one block of 1e6 walks; one CPU
    # keeps every share's rows in this process, where tracemalloc sees
    # them
    _allow_cpus(monkeypatch, 1)
    tracemalloc.start()
    try:
        est = walks_mc.estimate_zero_area_prob(1_000_000, 16, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.samples == 1_000_000
    assert 0.0 < est.capped_fraction < 1.0
    assert peak < 16 * 2**20


def test_one_share_peaks_at_its_block_state_and_one_tile(monkeypatch):
    # the int8 block is 3.8 MiB, the int64 height and area 3.8 MiB at
    # 250,000 walks and 1.9 MiB at 125,000, and the two int64 running sums
    # of the origin head, 8,192 rows by the first 16 or 32 steps, 1 MiB or
    # 2 MiB each, the widest head there is; 12 MiB leaves room for the
    # head's compares.  One CPU keeps the whole share in this process
    _allow_cpus(monkeypatch, 1)
    for samples, width in ((250_000, 16), (125_000, 32)):
        tracemalloc.start()
        try:
            walks_mc._run_worker(samples, width, 1, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, (samples, width)


def _whole_block_run_worker(samples, horizon, seed, w):
    # the scan that read each block whole from numpy's own int8 draws on
    # substream (seed, w), kept as the reference for the tiled one
    steps = np.array(walks_mc._STEPS, dtype=np.int64)
    rng = _generator(seed, w)
    y = np.zeros(samples, dtype=np.int64)
    area = np.zeros(samples, dtype=np.int64)
    zero = negative = 0
    done = 0
    while y.size and done < horizon:
        width = min(max(walks_mc._MIN_WIDTH, walks_mc._BLOCK_BUDGET // y.size), horizon - done)
        u = rng.integers(0, 4, size=(y.size, width), dtype=np.int8)
        ypath = steps[u]
        ypath[:, 0] += y
        np.cumsum(ypath, axis=1, out=ypath)
        apath = np.cumsum(ypath, axis=1)
        apath += area[:, None]
        stop = (ypath == 0) & (apath <= 0)
        hit = stop.any(axis=1)
        rows = np.flatnonzero(hit)
        stop_area = apath[rows, stop[rows].argmax(axis=1)]
        zero += int(np.count_nonzero(stop_area == 0))
        negative += int(np.count_nonzero(stop_area < 0))
        # boolean indexing copies, so the block's arrays can be freed
        alive = ~hit
        y = ypath[alive, -1]
        area = apath[alive, -1]
        done += width
    return zero, negative, y.size


def test_increment_map_is_the_step_table():
    u = np.arange(4, dtype=np.int8)
    inc = walks_mc._increments(u)
    assert inc.dtype == np.int8
    assert tuple(inc.tolist()) == walks_mc._STEPS


# sizes for the draw tests, in call order: n mod 8 = 0, 5, 6, 7, 1, 2, 3
# and 4 from a fresh word, each of 1, 2 and 3 right after a call that
# left a high half unused, 12 after one (the carried half, then one whole
# word), one size past a chunk of raw words, and blocks of the shapes
# _run_worker asks for, with and without a carried half; and two empty
# draws, one with a carried half and one without, which leave it alone
_DRAW_SIZES = (
    8, 5, 6, 7, 1, 1, 2, 2, 3, 3, 4, 12,
    8 * walks_mc._RAW_WORDS + 1, 3, 8 * walks_mc._RAW_WORDS + 4, 1,
    (3000, 16), (1545, 2589), (7, 571_428), (250_000, 16), 0, (1, 3), (0, 4),
)


RAW_BYTES = 8 * walks_mc._RAW_WORDS


def test_draw_is_generator_integers_call_by_call():
    # the module docstring's byte-stream fact, on numpy itself: each
    # Generator.integers call of _DRAW_SIZES has the shape asked for and
    # holds bytes [4 H, 4 H + n) of the raw words' little-endian bytes,
    # each shifted right by 6, for the H halves the calls before it read;
    # and it leaves the high half of a word unused exactly when H is odd
    counts = [math.prod(s) if isinstance(s, tuple) else s for s in _DRAW_SIZES]
    words = -(-sum(-(-n // 4) for n in counts) // 2)
    raw = _generator(21, 0).bit_generator.random_raw(words).astype("<u8")
    stream = (raw.view(np.uint8) >> 6).astype(np.int8)
    rng = _generator(21, 0)
    halves = 0
    for size, n in zip(_DRAW_SIZES, counts):
        got = rng.integers(0, 4, size=size, dtype=np.int8)
        assert got.shape == (size if isinstance(size, tuple) else (size,))
        want = stream[4 * halves : 4 * halves + n]
        assert np.array_equal(got.reshape(-1), want), size
        halves += -(-n // 4)
        assert rng.bit_generator.state["has_uint32"] == halves % 2, size


def test_draw_at_is_a_slice_of_one_sequential_draw():
    rng = _generator(21, 0)
    start = rng.bit_generator.state
    whole = rng.integers(0, 4, size=3 * RAW_BYTES, dtype=np.int8)
    # every start mod 8, in a word's low and high half, one word in or
    # not; ranges across the sequential draw's first chunk of raw words;
    # and ranges that read more than one chunk themselves
    cases = [(b, n) for b in range(16) for n in (1, 3, 4, 5, 8, 13)]
    cases += [(RAW_BYTES - b, 2 * b + 1) for b in (1, 4, 5, 8)]
    cases += [(3, RAW_BYTES + 6), (RAW_BYTES + 7, RAW_BYTES + 9)]
    for first, n in cases:
        got = walks_mc._draw_at(rng.bit_generator, start, first, n)
        assert got.dtype == np.int8
        assert np.array_equal(got, whole[first : first + n]), (first, n)


def test_draw_at_gives_every_call_of_a_sequential_draw():
    # each Generator.integers call of _DRAW_SIZES reads the bytes from
    # 4 H on, for the H halves the calls before it read, a carried high
    # half when H is odd
    rng = _generator(21, 0)
    start = rng.bit_generator.state
    bit_gen = np.random.PCG64()
    halves = 0
    carried = 0
    for size in _DRAW_SIZES:
        want = rng.integers(0, 4, size=size, dtype=np.int8).reshape(-1)
        got = walks_mc._draw_at(bit_gen, start, 4 * halves, want.size)
        assert np.array_equal(got, want), size
        carried += halves % 2
        halves += -(-want.size // 4)
    assert carried >= 5


def test_every_block_holds_the_draws_of_one_sequential_draw_call(monkeypatch):
    # the second and third blocks of this share, 23 x 173,913 and
    # 9 x 18,087 draws, end inside a 32-bit half, so the next block
    # starts at the next half; one CPU keeps every block in this process
    _allow_cpus(monkeypatch, 1)
    blocks = []
    scan = walks_mc._scan_block
    monkeypatch.setattr(
        walks_mc, "_scan_block", lambda u, *s: blocks.append(u.copy()) or scan(u, *s)
    )
    walks_mc._run_worker(500, 200_000, 2, 0)
    assert [u.size % 4 for u in blocks] == [0, 3, 3]
    rng = _generator(2, 0)
    for u in blocks:
        assert np.array_equal(u, rng.integers(0, 4, size=u.shape, dtype=np.int8)), u.shape


@pytest.mark.parametrize(
    "samples, horizon, seed",
    [(s, h, seed) for seed in range(20) for s, h in ((37, 300), (200, 40))]
    + [
        # blocks wider than a tile, read in column chunks: in each run a
        # lone row stops past its first chunk, and in the last two rows
        # are carried through every chunk to the horizon
        (12, 300_000, 9),
        (30, 400_000, 5),
        (30, 400_000, 0),
        # rows just past a row group, 8,192 rows at width 20 and 4,096 at
        # width 40: a short second row group; the first two fit in one
        (4097, 16, 2),
        (4100, 20, 3),
        (8200, 20, 3),
        (4097, 40, 2),
        # one walker
        (1, 100_000, 4),
        (1, 5, 5),
        # horizons below the 16-step minimum width
        (500, 7, 6),
        (3, 1, 7),
    ],
)
def test_tiled_scan_gives_the_whole_block_counts(samples, horizon, seed):
    want = _whole_block_run_worker(samples, horizon, seed, 0)
    assert walks_mc._run_worker(samples, horizon, seed, 0) == want


# elements per tile of a block read in two levels, the widest tile
TWO_LEVEL_TILE = walks_mc._TWO_LEVEL_SUBS * walks_mc._SUB


@pytest.fixture
def sub_block_calls(monkeypatch):
    # the shape of the increments of each _sub_block_scan call
    calls = []
    scan = walks_mc._sub_block_scan
    monkeypatch.setattr(
        walks_mc, "_sub_block_scan", lambda d, *s: calls.append(d.shape) or scan(d, *s)
    )
    return calls


@pytest.mark.parametrize("seed", range(8))
def test_lone_row_carries_its_state_across_chunks(seed, sub_block_calls):
    # a +1 step and lazy steps through the widest tile keep the row at
    # height 1, so it cannot stop there, and its stop or final state
    # depends on the (height, area) carried from chunk to chunk
    width = 3 * TWO_LEVEL_TILE
    u = np.random.default_rng(seed).integers(0, 4, size=(1, width), dtype=np.int8)
    u[0, 0] = walks_mc._STEPS.index(1)
    u[0, 1:TWO_LEVEL_TILE] = walks_mc._STEPS.index(0)
    incs = [walks_mc._STEPS[v] for v in u[0].tolist()]
    y = np.zeros(1, dtype=np.int64)
    area = np.zeros(1, dtype=np.int64)
    got = walks_mc._scan_block(u, y, area)
    outcome = walks_mc.stop_time_outcome(incs, width)
    assert got == (
        int(outcome is WalkOutcome.AREA_ZERO),
        int(outcome is WalkOutcome.AREA_NEGATIVE),
        int(outcome is WalkOutcome.CAPPED),
    )
    if outcome is WalkOutcome.CAPPED:
        heights = np.cumsum(incs)
        assert (y[0], area[0]) == (heights[-1], heights.sum())
    assert len(sub_block_calls) > 1


@pytest.mark.parametrize(
    "samples, horizon, seed, counts",
    [
        (3000, 5000, 0, (1545, 1258, 197)),
        (20_000, 200, 1, (10288, 6693, 3019)),
        (500, 200_000, 2, (262, 230, 8)),
    ],
)
def test_run_worker_stream_is_pinned(samples, horizon, seed, counts):
    # (zero, negative, capped) on substream (seed, 0), frozen so that a
    # rewrite of the block scan cannot change the draws or their reading
    assert walks_mc._run_worker(samples, horizon, seed, 0) == counts


@pytest.fixture
def deadline():
    # a part that waits for ever fails its test instead of stalling it
    def expire(signum, frame):
        raise TimeoutError("the Monte Carlo parts did not end within 60 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize(
    "samples, horizon, seed, counts",
    [
        (3000, 5000, 0, (1545, 1258, 197)),
        (20_000, 200, 1, (10288, 6693, 3019)),
        (500, 200_000, 2, (262, 230, 8)),
    ],
)
def test_the_count_of_parts_changes_no_count(
    samples, horizon, seed, counts, monkeypatch, deadline
):
    # the pinned streams split by rows over 1, 2 and 3 processes
    for cpus in (1, 2, 3):
        _allow_cpus(monkeypatch, cpus)
        assert walks_mc._run_worker(samples, horizon, seed, 0) == counts, cpus


@pytest.fixture
def forks(monkeypatch, deadline):
    # the processes this one forks
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


@pytest.fixture
def parent_block_rows(monkeypatch, deadline):
    # the rows of each block that this process, part 0, scans
    rows = []
    parent = os.getpid()
    scan = walks_mc._scan_block

    def spy(u, y, area):
        if os.getpid() == parent:
            rows.append(u.shape[0])
        return scan(u, y, area)

    monkeypatch.setattr(walks_mc, "_scan_block", spy)
    return rows


def test_a_part_with_no_rows_left_runs_on_with_the_others(parent_block_rows, monkeypatch):
    # at seed 0 part 0's three rows all stop in the first block while a
    # walker of another part lives on into the second, where part 0
    # draws and scans nothing
    _allow_cpus(monkeypatch, 3)
    got = walks_mc._run_worker(9, 1_000_000, 0, 0)
    assert parent_block_rows == [3, 0]
    _allow_cpus(monkeypatch, 1)
    assert walks_mc._run_worker(9, 1_000_000, 0, 0) == got


def test_a_share_with_fewer_walks_than_cpus_runs_one_part_per_walk(
    parent_block_rows, forks, monkeypatch
):
    for samples in (1, 2):
        _allow_cpus(monkeypatch, 1)
        want = [walks_mc._run_worker(samples, 300, seed, 1) for seed in range(6)]
        parent_block_rows.clear()
        forks.clear()
        _allow_cpus(monkeypatch, 3)
        assert [walks_mc._run_worker(samples, 300, seed, 1) for seed in range(6)] == want
        # one walk per part: this process scans at most one row
        assert set(parent_block_rows) <= {0, 1}
        assert len(forks) == 6 * (samples - 1)


B = walks_mc._SUB
# the largest start area from which a sub-block can hold a stop
EDGE_AREA = B * (B - 1) // 2
UP, LAZY = (walks_mc._STEPS.index(v) for v in (1, 0))


def _step_reference(u, y, area):
    # each row walked step by step in Python from its (height, area):
    # (zero, negative, the alive rows' states in row order)
    zero = negative = 0
    alive = []
    for row, h, a in zip(u.tolist(), list(y), list(area)):
        h, a = int(h), int(a)
        for v in row:
            h += walks_mc._STEPS[v]
            a += h
            if h == 0 and a <= 0:
                zero += a == 0
                negative += a < 0
                break
        else:
            alive.append((h, a))
    return zero, negative, alive


def _assert_scan_is_the_reference(u, y, area):
    zero, negative, alive = _step_reference(u, y, area)
    y = np.array(y, dtype=np.int64)
    area = np.array(area, dtype=np.int64)
    assert walks_mc._scan_block(u, y, area) == (zero, negative, len(alive))
    assert list(zip(y[: len(alive)].tolist(), area[: len(alive)].tolist())) == alive
    return zero + negative


def _near_edge_states(rng, rows):
    # around the certificate's edges, and every other row near the origin
    y = rng.integers(-B - 3, B + 4, size=rows)
    area = rng.integers(-40, EDGE_AREA + 40, size=rows)
    y[::2] = rng.integers(-3, 4, size=y[::2].size)
    area[::2] = rng.integers(-20, 21, size=y[::2].size)
    return y, area


@pytest.mark.parametrize("width", range(1, 3 * B + 2))
def test_two_level_scan_is_the_step_reference_at_every_width(width, sub_block_calls):
    # start states around the certificate's edges, where stops fall in
    # and next to the candidate sub-blocks; a tile off the origin is read
    # in two levels at every width, its last sub-block padded
    rng = np.random.default_rng(width)
    stopped = 0
    for _ in range(4):
        u = rng.integers(0, 4, size=(60, width), dtype=np.int8)
        stopped += _assert_scan_is_the_reference(u, *_near_edge_states(rng, 60))
    assert stopped
    assert sub_block_calls


def test_origin_scan_is_the_step_reference_at_every_width(sub_block_calls):
    # from (0, 0), as in a share's first block, a group is stepped
    # through for one sub-block, and its survivors, picked in row order,
    # read the rest of the chunk in two levels
    rng = np.random.default_rng(23)
    for width in range(1, 3 * B + 2):
        u = rng.integers(0, 4, size=(60, width), dtype=np.int8)
        _assert_scan_is_the_reference(u, [0] * 60, [0] * 60)
    # two row groups, the survivors of both written to the front; the
    # second group's five rows climb through the first sub-block, so
    # none stops there and both groups read the rest in two levels
    sub_block_calls.clear()
    width = 3 * B + 1
    rows = walks_mc._TWO_LEVEL_SUBS // -(-width // B) + 5
    u = rng.integers(0, 4, size=(rows, width), dtype=np.int8)
    u[-5:, :B] = UP
    _assert_scan_is_the_reference(u, [0] * rows, [0] * rows)
    assert [cols for _, cols in sub_block_calls] == [width - B] * 2
    assert sub_block_calls[-1] == (5, width - B)
    # lone rows one column past a tile's chunk, two of them kept at
    # height 1 into the second chunk
    sub_block_calls.clear()
    width = TWO_LEVEL_TILE + 1
    u = rng.integers(0, 4, size=(4, width), dtype=np.int8)
    u[::2, 0] = UP
    u[::2, 1 : width - 1] = LAZY
    _assert_scan_is_the_reference(u, [0] * 4, [0] * 4)
    assert sub_block_calls.count((1, 1)) == 2


def test_origin_scan_breaks_or_keeps_every_row_after_its_first_sub_block(sub_block_calls):
    rng = np.random.default_rng(29)
    u = rng.integers(0, 4, size=(50, 3 * B + 1), dtype=np.int8)
    # every row stops at area 0 at its first step: nothing is left
    u[:, 0] = LAZY
    assert walks_mc._scan_block(u, np.zeros(50, np.int64), np.zeros(50, np.int64)) == (50, 0, 0)
    assert not sub_block_calls
    # no row can stop while it climbs, so every row reads the rest
    u[:, :B] = UP
    _assert_scan_is_the_reference(u, [0] * 50, [0] * 50)
    assert sub_block_calls == [(50, 2 * B + 1)]


@pytest.mark.parametrize("seed", range(4))
def test_lone_rows_wider_than_a_tile_are_the_step_reference(seed, sub_block_calls):
    # a lazy first chunk below height 0 cannot stop and drives the area
    # far below 0, so the row stops or not in a later chunk, read in two
    # levels from the state carried across
    rng = np.random.default_rng(seed)
    width = 2 * TWO_LEVEL_TILE + 17
    u = rng.integers(0, 4, size=(1, width), dtype=np.int8)
    u[0, :TWO_LEVEL_TILE] = LAZY
    _assert_scan_is_the_reference(u, [-1 - seed], [5000])
    assert len(sub_block_calls) > 1
    for _ in range(3):
        u = rng.integers(0, 4, size=(1, width), dtype=np.int8)
        _assert_scan_is_the_reference(u, *_near_edge_states(rng, 1))


def test_scan_at_the_certificate_edges():
    # the first sub-block of each row is crafted: from y_s = -B, B - k
    # up-steps then k lazy steps give |y_s| + |y_e| = B + k, and the
    # start area is on the area bound or one past it
    rng = np.random.default_rng(7)
    edges = (EDGE_AREA, EDGE_AREA + 1)
    rows = [(k, a, s) for k in (0, 1, 2) for a in edges for s in (-1, 1)]
    u = rng.integers(0, 4, size=(len(rows), 3 * B + 5), dtype=np.int8)
    for i, (k, _, _) in enumerate(rows):
        u[i, : B - k] = UP
        u[i, B - k : B] = LAZY
    y = [s * B for _, _, s in rows]
    area = [a for _, a, _ in rows]
    assert _assert_scan_is_the_reference(u, y, area)
    # the same heights one step further out
    y = [s * (B + 1) for _, _, s in rows]
    _assert_scan_is_the_reference(u, y, area)


def test_scan_from_huge_states():
    # heights near 1e6 and areas near 1e12 are far past what float32
    # holds exactly; only the sub-block sums go through it
    rng = np.random.default_rng(3)
    u = rng.integers(0, 4, size=(8, 5 * B + 3), dtype=np.int8)
    big = 10**12
    y = [10**6, -(10**6), 10**6 + 1, -(10**6) + 7, 2, -3, 1, -1]
    area = [big, big, -big, -big, -big, -big - 1, big, big + 3]
    assert _assert_scan_is_the_reference(u, y, area)


@pytest.mark.parametrize("rows", [1, 5])
def test_tight_certificate_case(rows):
    # from y_s = -B and A_s = B (B - 1) / 2, B up-steps add
    # -B (B - 1) / 2 to the area and stop at area 0 at the last step;
    # from one more area they end at (0, 1), which is no stop
    u = np.full((rows, B), UP, dtype=np.int8)
    y = np.full(rows, -B, dtype=np.int64)
    area = np.full(rows, EDGE_AREA, dtype=np.int64)
    assert walks_mc._scan_block(u, y, area) == (rows, 0, 0)
    y = np.full(rows, -B, dtype=np.int64)
    area = np.full(rows, EDGE_AREA + 1, dtype=np.int64)
    assert walks_mc._scan_block(u, y, area) == (0, 0, rows)
    assert set(y.tolist()) == {0} and set(area.tolist()) == {1}
    edges = np.array([EDGE_AREA, EDGE_AREA + 1])
    maybe = walks_mc._may_stop(np.full(2, -B), np.zeros(2), edges)
    assert maybe.tolist() == [True, False]


def test_certificate_has_no_false_negatives():
    # random sub-blocks, biased toward up-runs by a per-row share, from
    # states around the edges: every one in which the per-step scan
    # finds a stop passes the certificate
    rng = np.random.default_rng(11)
    n = 50_000
    u = rng.integers(0, 4, size=(n, B), dtype=np.int8)
    u[rng.random((n, B)) < rng.random((n, 1))] = UP
    d = walks_mc._increments(u)
    y, area = _near_edge_states(rng, n)
    hit, _, y_end, _ = walks_mc._step_scan(d, y, area)
    maybe = walks_mc._may_stop(y, y_end, area)
    assert maybe[hit].all()
    # neither side is empty, so the check has teeth
    assert hit.sum() > 1000
    assert (~maybe).sum() > 1000


def test_estimate_deterministic_and_worker_stable():
    a = walks_mc.estimate_zero_area_prob(2000, 3000, seed=9)
    b = walks_mc.estimate_zero_area_prob(2000, 3000, seed=9)
    assert a == b
    c = walks_mc.estimate_zero_area_prob(2000, 3000, seed=9, workers=3)
    d = walks_mc.estimate_zero_area_prob(2000, 3000, seed=9, workers=3)
    assert c == d
    assert c.samples == 2000
    assert 0.0 <= c.capped_fraction <= 1.0


def test_estimate_workers_past_samples_makes_one_share_per_walk():
    # a share per walk, each on its own substream (seed, w), however many
    # workers are asked for; the loop must not visit the empty shares
    want = walks_mc.estimate_zero_area_prob(10, 50, 3, workers=10)
    assert walks_mc.estimate_zero_area_prob(10, 50, 3, workers=10**12) == want


def test_shares_split_the_samples_into_near_equal_parts(monkeypatch):
    # share w runs samples // shares walks, one more for each of the first
    # samples % shares shares, on the substream of (seed, w)
    ran = []

    def worker(samples, horizon, seed, w):
        ran.append((samples, horizon, seed, w))
        return samples, 0, 0

    monkeypatch.setattr(walks_mc, "_run_worker", worker)
    for samples, shares in ((1, 1), (10, 3), (7, 7), (1000, 6)):
        ran.clear()
        est = walks_mc.estimate_zero_area_prob(samples, 40, 9, workers=shares)
        sizes = [n for n, *_ in ran]
        assert sum(sizes) == samples and max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)
        assert [r[1:] for r in ran] == [(40, 9, w) for w in range(shares)]
        # the shares' counts are summed: every walk stopped at area zero
        assert est == walks_mc.McEstimate(1.0, samples, 0.0, 0.0, 9)


def test_two_share_stream_is_pinned(monkeypatch):
    # each share's (zero, negative, capped) on substreams (1, 0) and
    # (1, 1), and the record they sum to, frozen so that a slip in the
    # map from share to substream cannot pass; pooled where the host has
    # two CPUs, then in this process, where the spy sees each share
    want = walks_mc.McEstimate(0.6073529411764705, 20_000, 0.003745392039644584, 0.15, 1)
    assert walks_mc.estimate_zero_area_prob(20_000, 200, seed=1, workers=2) == want
    counts = []
    run_worker = walks_mc._run_worker
    monkeypatch.setattr(
        walks_mc, "_run_worker", lambda *a: counts.append(run_worker(*a)) or counts[-1]
    )
    _allow_cpus(monkeypatch, 1)
    assert walks_mc.estimate_zero_area_prob(20_000, 200, seed=1, workers=2) == want
    assert counts == [(5152, 3336, 1512), (5173, 3339, 1488)]


def _assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "samples, workers, cpus",
    [(10, 1, 3), (10, 2, 3), (10, 4, 3), (10, 10**12, 3), (3000, 1, 1)],
    ids=["1", "2", "4", "1000000000000", "one-cpu-of-three"],
)
def test_each_share_forks_one_child_per_other_part(samples, workers, cpus, forks, monkeypatch):
    # 10 walks in shares of 10, 5 + 5, 3 + 3 + 2 + 2 or 1 each, on three
    # CPUs: P - 1 forks for each share of P = min(3, its walks); and one
    # share of 3,000 walks on a host of three CPUs, of which this process
    # may run on one, forks nothing
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    _allow_cpus(monkeypatch, cpus)
    got = walks_mc.estimate_zero_area_prob(samples, 50, 3, workers)
    shares = min(samples, workers)
    sizes = [samples // shares + (w < samples % shares) for w in range(shares)]
    assert len(forks) == sum(min(cpus, n) - 1 for n in sizes)
    _assert_no_child_is_left()
    _allow_cpus(monkeypatch, 1)
    assert walks_mc.estimate_zero_area_prob(samples, 50, 3, workers) == got
    assert len(forks) == sum(min(cpus, n) - 1 for n in sizes)


def test_without_fork_a_share_runs_in_one_part(forks, monkeypatch):
    _allow_cpus(monkeypatch, 3)
    want = walks_mc._run_worker(3000, 5000, 0, 0)
    monkeypatch.delattr(os, "fork")
    assert walks_mc._run_worker(3000, 5000, 0, 0) == want == (1545, 1258, 197)
    assert len(forks) == 2


@pytest.fixture
def fail_in(monkeypatch, deadline):
    # make the block scan of the parent or of the children call fail()
    parent = os.getpid()
    scan = walks_mc._scan_block

    def patch(where, fail):
        def scan_or_fail(u, y, area):
            if (os.getpid() == parent) == (where == "parent"):
                fail()
            return scan(u, y, area)

        monkeypatch.setattr(walks_mc, "_scan_block", scan_or_fail)
        _allow_cpus(monkeypatch, 3)

    return patch


def _raise_value_error():
    raise ValueError("a failing part")


def test_a_child_that_raises_makes_the_estimate_raise(fail_in, capfd):
    fail_in("children", _raise_value_error)
    with pytest.raises(RuntimeError, match="ended without sending its counts"):
        walks_mc.estimate_zero_area_prob(1000, 100, 1)
    _assert_no_child_is_left()
    # each child shows its own cause
    assert capfd.readouterr().err.count("ValueError: a failing part") == 2


def test_a_child_that_dies_makes_the_estimate_raise(fail_in):
    fail_in("children", lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(RuntimeError, match="ended without sending its counts"):
        walks_mc.estimate_zero_area_prob(1000, 100, 1)
    _assert_no_child_is_left()


def test_a_parent_part_that_raises_reaps_every_child(fail_in, capfd):
    # the children, waiting for the counts, find their sockets closed
    fail_in("parent", _raise_value_error)
    with pytest.raises(ValueError, match="a failing part"):
        walks_mc.estimate_zero_area_prob(1000, 100, 1)
    _assert_no_child_is_left()
    # and leave without a word: the parent's error names the cause
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize(
    "where, fail, raises",
    [
        ("children", lambda: None, None),
        ("children", _raise_value_error, RuntimeError),
        ("children", lambda: os.kill(os.getpid(), signal.SIGKILL), RuntimeError),
        ("parent", _raise_value_error, ValueError),
    ],
    ids=["clean", "child-raises", "child-dies", "parent-raises"],
)
def test_no_descriptor_outlives_a_run(where, fail, raises, fail_in):
    # a share split over three processes closes every socket it opened
    fail_in(where, fail)
    before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(raises) if raises else contextlib.nullcontext():
        walks_mc.estimate_zero_area_prob(1000, 100, 1)
    assert sorted(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("exc", [SystemExit, KeyboardInterrupt])
def test_children_leave_only_through_os_exit(exc, fail_in, tmp_path):
    # a child that got out of its part with an exception would run on
    # from here, through the rest of this test
    parent = os.getpid()

    def raise_exc():
        raise exc

    fail_in("children", raise_exc)
    caught = None
    try:
        walks_mc.estimate_zero_area_prob(1000, 100, 1)
    except BaseException as e:
        caught = e
    if os.getpid() != parent:
        (tmp_path / f"escaped-{os.getpid()}").touch()
        os._exit(0)
    assert isinstance(caught, RuntimeError), caught
    assert not list(tmp_path.iterdir())
    _assert_no_child_is_left()


def test_estimate_single_sample():
    est = walks_mc.estimate_zero_area_prob(1, 10, seed=0)
    assert est.estimate in (0.0, 1.0) or (
        math.isnan(est.estimate) and est.capped_fraction == 1.0
    )
    # seed 1 caps its only run at horizon 1: no stopped runs to average
    capped = walks_mc.estimate_zero_area_prob(1, 1, seed=1)
    assert math.isnan(capped.estimate)
    assert math.isnan(capped.std_error)
    assert capped.capped_fraction == 1.0


def test_estimate_horizon_one_law():
    # at horizon 1 the only possible stop is a lazy first step, so every
    # stopped run has area zero and roughly half the runs stop
    est = walks_mc.estimate_zero_area_prob(20_000, 1, seed=3)
    assert est.estimate == 1.0
    assert abs(est.capped_fraction - 0.5) < 0.02


def test_estimate_horizon_two_law():
    # exact two-step law: stop-zero mass 1/2, stop-negative mass 1/16
    est = walks_mc.estimate_zero_area_prob(20_000, 2, seed=4)
    assert abs(est.estimate - 8 / 9) < 0.015
    assert abs(est.capped_fraction - 7 / 16) < 0.015


def test_zero_stop_probability_matches_exact_finite_horizon_law():
    # a zero-area stop at lazy step k is an irreducible graphical bridge
    # of length 2k, so P(zero stop by H) = sum_{k <= H} i_k / 4^k
    samples, horizon = 200_000, 300
    irr = series.irreducible_bridge_counts(series.bridge_counts_from_trees(horizon))
    exact = float(sum(Fraction(irr[k], 4**k) for k in range(1, horizon + 1)))
    est = walks_mc.estimate_zero_area_prob(samples, horizon, seed=20261018)
    zero_fraction = est.estimate * (1 - est.capped_fraction)
    sigma = math.sqrt(exact * (1 - exact) / samples)
    assert abs(zero_fraction - exact) <= 5 * sigma


def test_std_error_follows_stated_formula():
    est = walks_mc.estimate_zero_area_prob(5000, 2000, seed=6)
    # the estimate is a fraction of the stopped runs, so they set its error
    stopped = round(est.samples * (1 - est.capped_fraction))
    p = est.estimate
    assert est.std_error == pytest.approx(math.sqrt(p * (1 - p) / stopped))
    assert stopped > 0


def test_std_error_scales_with_samples():
    small = walks_mc.estimate_zero_area_prob(1000, 2000, seed=11)
    large = walks_mc.estimate_zero_area_prob(4000, 2000, seed=11)
    assert 1.6 < small.std_error / large.std_error < 2.5


def test_vectorized_engine_agrees_with_scalar_engine():
    horizon = 3000
    master = random.Random(2024)
    outcomes = Counter(
        walks_mc.simulate_stopped_walk(master.getrandbits(64), horizon)
        for _ in range(2500)
    )
    stopped = outcomes[WalkOutcome.AREA_ZERO] + outcomes[WalkOutcome.AREA_NEGATIVE]
    scalar_p = outcomes[WalkOutcome.AREA_ZERO] / stopped
    vector = walks_mc.estimate_zero_area_prob(2500, horizon, seed=2024)
    assert abs(scalar_p - vector.estimate) < 0.06
    assert abs(outcomes[WalkOutcome.CAPPED] / 2500 - vector.capped_fraction) < 0.06
