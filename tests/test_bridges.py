from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, product

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from treebridges import bijections, bridges, series, trees, walks_mc

even_walks = st.lists(st.sampled_from((1, -1)), min_size=0, max_size=30).map(
    lambda xs: tuple(xs[: len(xs) - len(xs) % 2])
)


def test_diamond_area_examples():
    assert bridges.diamond_area(()) == 0
    assert bridges.diamond_area((1, -1)) == 0
    assert bridges.diamond_area((1, 1, -1, -1)) == 1
    assert bridges.diamond_area((-1, -1, 1, 1)) == -1
    assert bridges.diamond_area((1, 1, 1, -1, -1, -1)) == 2


@given(even_walks)
def test_diamond_area_is_half_sum_of_even_positions(walk):
    positions = list(accumulate(walk))
    expected = Fraction(sum(positions[1::2]), 2)
    assert bridges.diamond_area(walk) == expected


@given(even_walks)
def test_diamond_area_equals_lazy_area(walk):
    lazy = bridges.lazify(walk)
    assert bridges.lazy_walk_area(lazy) == bridges.diamond_area(walk)
    assert len(lazy) == len(walk) // 2


def test_even_prefix_areas():
    assert bridges.even_prefix_areas((1, 1, 1, -1, -1, -1)) == [1, 2, 2]
    assert bridges.even_prefix_areas((-1, -1, 1, 1)) == [-1, -1]
    assert bridges.even_prefix_areas(()) == []


@given(even_walks)
def test_even_prefix_areas_end_at_total(walk):
    # each prefix's area recomputed as half the sum of its even positions,
    # independently of the scan that diamond_area also reads
    positions = list(accumulate(walk))
    expected = [
        Fraction(sum(positions[1 : 2 * j : 2]), 2) for j in range(1, len(walk) // 2 + 1)
    ]
    assert bridges.even_prefix_areas(walk) == expected


def test_is_graphical_bridge_basics():
    assert bridges.is_graphical_bridge(())
    assert bridges.is_graphical_bridge((1, -1))
    assert bridges.is_graphical_bridge((-1, 1))
    # area 1, not 0
    assert not bridges.is_graphical_bridge((1, 1, -1, -1))
    # dips to area -1 before recovering
    assert not bridges.is_graphical_bridge((-1, -1, 1, 1))


def test_enumerate_bridges_shape():
    out = list(bridges.enumerate_bridges(2))
    assert len(out) == 6
    assert out[0] == (1, 1, -1, -1)
    assert all(sum(b) == 0 and len(b) == 4 for b in out)
    assert list(bridges.enumerate_bridges(0)) == [()]


@pytest.mark.parametrize("n", [40, 23, 9])
def test_graphical_bridge_counts_prefix_consistent(n):
    # the prune depends on n_max, yet every shorter count must stay exact
    full = bridges.graphical_bridge_counts(n)
    for m in (0, 1, n // 3, n // 2, n - 1):
        assert bridges.graphical_bridge_counts(m) == full[: m + 1]


def test_graphical_bridge_counts_match_tree_formula_at_80():
    # independent route: b is the inverse log transform of 2T
    assert list(bridges.graphical_bridge_counts(80)) == series.bridge_counts_from_trees(80)


def _bridge_layers(n_max):
    """The dict view of bridges._packed_layers: layer k maps each
    (height, sigma) with a nonzero field to its count.  It reads the
    fields by shift and mask, not by the byte slices the sampler uses."""
    w = bridges.field_width(n_max)
    mask = (1 << w) - 1
    for vecs in bridges._packed_layers(n_max):
        layer = {}
        for a in range(-n_max, n_max + 1):
            v = vecs[a]
            sigma = 0
            while v:
                if v & mask:
                    layer[2 * a, sigma] = v & mask
                v >>= w
                sigma += 1
        yield layer


def test_bridge_layers_keep_only_states_a_bridge_visits():
    for n in range(1, 11):
        visited = [{(0, 0)}] + [set() for _ in range(n)]
        for b in bridges.enumerate_graphical_bridges(n):
            height = sigma = 0
            for k in range(1, n + 1):
                height += b[2 * k - 2] + b[2 * k - 1]
                sigma += height // 2
                visited[k].add((height, sigma))
        assert [set(layer) for layer in _bridge_layers(n)] == visited


def test_bridge_layers_state_total_frozen():
    assert sum(len(layer) for layer in _bridge_layers(45)) == 21_782


def _least_closing_area(a, r):
    """The least area over all 3^r half-height paths from a that end at 0
    (each step +1, -1 or 0, then the new half-height is added), or None."""
    areas = [
        sum(heights) - a
        for moves in product((1, -1, 0), repeat=r)
        for heights in [list(accumulate(moves, initial=a))]
        if heights[-1] == 0
    ]
    return min(areas, default=None)


def test_bridge_layers_prune_is_the_bruteforce_closing_bound():
    # a layer keeps exactly the reachable states whose area the cheapest
    # closing path brings back to <= 0 and which, below height 0, sit at or
    # above the area the climb back subtracts; least covers |a| <= r + 1,
    # and no r steps close from farther out
    least = {(a, r): _least_closing_area(a, r) for r in range(9) for a in range(-r - 1, r + 2)}
    for n_max in range(1, 18):
        reached = {(0, 0): 1}  # every prefix whose even-prefix areas are >= 0
        for k, layer in enumerate(_bridge_layers(n_max)):
            if k:
                nxt = {}
                for (height, sigma), ways in reached.items():
                    for dh, weight in ((2, 1), (-2, 1), (0, 2)):
                        key = (height + dh, sigma + (height + dh) // 2)
                        if key[1] >= 0:
                            nxt[key] = nxt.get(key, 0) + weight * ways
                reached = nxt
            r = n_max - k
            if r > 8:
                continue
            expected = {
                (h, s): ways
                for (h, s), ways in reached.items()
                if least.get((h // 2, r)) is not None
                and s + least[h // 2, r] <= 0
                and (h >= 0 or s >= (h // 2) * (h // 2 + 1) // 2)
            }
            assert layer == expected, (n_max, k)


# the per-entry forms of the packed bridge DPs, kept as their references:
# one dict entry per (height, sigma) state and one list entry per residue
_BLOCKS = ((2, 1), (-2, 1), (0, 2))


def _dict_bridge_layers(n_max):
    states = {(0, 0): 1}
    yield states
    for r in reversed(range(n_max)):  # r blocks left after this one
        # room[a + n_max]: the largest sigma at half-height a that can close, or -1
        room = [-1] * (2 * n_max + 1)
        for a in range(-r, r + 1):
            s = (r - a) % 2
            b = (a + s - r) // 2
            room[a + n_max] = b * b - s * b - a * (a - 1) // 2
        nxt = {}
        for (height, sigma), ways in states.items():
            for dh, weight in _BLOCKS:
                h2 = height + dh
                half = h2 // 2
                s2 = sigma + half
                if s2 < 0 or s2 > room[half + n_max]:
                    continue
                if half < 0 and s2 < half * (half + 1) // 2:
                    continue
                key = (h2, s2)
                nxt[key] = nxt.get(key, 0) + weight * ways
        states = nxt
        yield states


def _list_bridges_area_divisible(n):
    zero = [0] * n
    vecs = [[1] + zero[1:]]  # half-heights -top, ..., top
    for k in range(1, n + 1):
        top = min(k, n - k)
        pad = [zero] * (top - len(vecs) // 2 + 1)
        padded = pad + vecs + pad
        vecs = []
        for h in range(-top, top + 1):
            below, here, above = padded[h + top : h + top + 3]
            s = [a + 2 * b + c for a, b, c in zip(below, here, above)]
            vecs.append(s[-h % n :] + s[: -h % n])
    return vecs[0][0]


def test_bridge_layers_view_is_the_dict_dp():
    for n_max in range(31):
        reference = list(_dict_bridge_layers(n_max))
        assert list(_bridge_layers(n_max)) == reference, n_max
        assert bridges.graphical_bridge_counts(n_max) == tuple(
            layer.get((0, 0), 0) for layer in reference
        )


def _reference_draw(layers, n, seed):
    """The sampler's backward draw over dict layers built for n."""
    rng = random.Random(seed)
    pairs = []
    h = s = 0
    for k in range(n, 0, -1):
        s_prev = s - h // 2
        weights = [layers[k - 1].get((h - x - y, s_prev), 0) for x, y in bridges._DRAW_PAIRS]
        assert sum(weights) == layers[k][h, s]
        pick = rng.randrange(sum(weights))
        for pair, wt in zip(bridges._DRAW_PAIRS, weights):
            if pick < wt:
                pairs.append(pair)
                h -= pair[0] + pair[1]
                s = s_prev
                break
            pick -= wt
    return tuple(step for pair in reversed(pairs) for step in pair)


def test_sampler_draws_are_the_dict_dp_draws(monkeypatch):
    # an ascending session draws from tables built for n and past it,
    # and a second pass draws every n from its last table, built for 33
    monkeypatch.setattr(bridges, "_layers", ())
    seeds = (0, 1, 7, 2024)
    expected = {}
    for n in range(31):
        layers = list(_dict_bridge_layers(n))
        for seed in seeds:
            expected[n, seed] = _reference_draw(layers, n, seed)
            assert bridges.sample_uniform_graphical_bridge(n, seed) == expected[n, seed], (n, seed)
    assert len(bridges._layers) == 34
    for (n, seed), drawn in expected.items():
        assert bridges.sample_uniform_graphical_bridge(n, seed) == drawn, (n, seed)


def test_sampler_uniform_n1():
    counts = Counter(
        bridges.sample_uniform_graphical_bridge(1, seed) for seed in range(10_000)
    )
    assert set(counts) == {(1, -1), (-1, 1)}
    for c in counts.values():
        assert abs(c / 10_000 - 0.5) < 0.015  # 3 sigma


def test_sampler_uniform_n5_chi_square(graphical_bridges_by_n):
    rng = random.Random(31337)
    draws = 100_000
    counts = Counter(
        bridges.sample_uniform_graphical_bridge(5, rng.getrandbits(64))
        for _ in range(draws)
    )
    support = graphical_bridges_by_n[5]
    assert set(counts) == set(support)
    assert len(support) == 38
    observed = [counts[b] for b in support]
    result = stats.chisquare(observed)
    assert result.pvalue > 0.001


def test_sampler_support_n6_is_every_graphical_bridge():
    rng = random.Random(6)
    drawn = {
        bridges.sample_uniform_graphical_bridge(6, rng.getrandbits(64)) for _ in range(3000)
    }
    assert drawn == set(bridges.enumerate_graphical_bridges(6))


@pytest.mark.parametrize(
    "n, seed, drawn",
    [
        (5, 0, "DUDUUDDUDU"),
        (12, 7, "UDUUDDUDUUDUDDDDDUUDUUUD"),
        (20, 1, "UUUDDDUDUUUUDDDDDUUDDUDUDUUDDDDDUUDUDUUU"),
        (34, 123456, "DUUUDDUUDDUDUUDUDUUUUUUDDDDUDDUUDDUDDUDDDDUUDDDUDUDDDDUUDDUDUDUUUUUU"),
    ],
)
def test_sampler_stream_is_pinned(n, seed, drawn):
    # frozen so that a change to the sampler's checks or tables cannot
    # silently change which bridge a (n, seed) pair draws
    assert bridges.bridge_to_string(bridges.sample_uniform_graphical_bridge(n, seed)) == drawn


def test_sampler_draw_does_not_depend_on_table_size(monkeypatch):
    # layers built for a larger n hold the same weights for a smaller one
    monkeypatch.setattr(bridges, "_layers", ())
    own = [bridges.sample_uniform_graphical_bridge(14, seed) for seed in range(30)]
    assert len(bridges._layers) == 15
    bridges.sample_uniform_graphical_bridge(30, 0)
    assert len(bridges._layers) == 31
    assert [bridges.sample_uniform_graphical_bridge(14, seed) for seed in range(30)] == own


def _spy_on_table_builds(monkeypatch) -> list:
    builds = []
    real = bridges._packed_layers

    def spy(n_max):
        builds.append(n_max)
        return real(n_max)

    monkeypatch.setattr(bridges, "_layers", ())
    monkeypatch.setattr(bridges, "_packed_layers", spy)
    return builds


def test_ascending_sampler_session_grows_its_table(monkeypatch):
    builds = _spy_on_table_builds(monkeypatch)
    for n in range(20, 35):
        assert bridges.is_graphical_bridge(bridges.sample_uniform_graphical_bridge(n, n))
    # one table per n would be 15 builds
    assert builds == [20, 25, 31, 38]


def test_sampler_table_growth_stops_at_the_cap(monkeypatch):
    builds = _spy_on_table_builds(monkeypatch)
    monkeypatch.setattr(bridges, "SAMPLING_CAP", 30)
    bridges.sample_uniform_graphical_bridge(28, 0)
    bridges.sample_uniform_graphical_bridge(29, 0)
    bridges.sample_uniform_graphical_bridge(30, 0)
    assert builds == [28, 30]


@pytest.mark.parametrize("layer", [0, -1])
def test_sampler_self_check_catches_a_corrupt_count(layer, monkeypatch):
    # one more walk at (0, 0) in the first layer breaks the sum at a
    # draw's last step, in the last layer at its first
    real = bridges._packed_layers

    def corrupt(n_max):
        layers = list(real(n_max))
        layers[layer][0] += 1
        return layers

    monkeypatch.setattr(bridges, "_layers", ())
    monkeypatch.setattr(bridges, "_packed_layers", corrupt)
    for seed in range(5):
        with pytest.raises(AssertionError, match="weights do not sum"):
            bridges.sample_uniform_graphical_bridge(12, seed)


def test_sampler_output_always_graphical():
    for seed in range(200):
        b = bridges.sample_uniform_graphical_bridge(12, seed)
        assert len(b) == 24
        assert bridges.is_graphical_bridge(b)


def test_sampler_deterministic():
    assert bridges.sample_uniform_graphical_bridge(9, 77) == bridges.sample_uniform_graphical_bridge(9, 77)
    assert bridges.sample_uniform_graphical_bridge(0, 5) == ()


def test_sampler_part_counts_match_exact_distribution():
    n, draws = 20, 5000
    exact = series.parts_count_distribution(n)
    rng = random.Random(99)
    counts = Counter(
        len(bridges.irreducible_decomposition(bridges.sample_uniform_graphical_bridge(n, rng.getrandbits(64))))
        for _ in range(draws)
    )
    for m, p in exact.items():
        if p < 0.01:
            continue
        freq = counts[m] / draws
        sigma = math.sqrt(float(p) * (1 - float(p)) / draws)
        assert abs(freq - float(p)) <= 3 * sigma


def test_the_exact_sampler_and_counts_do_not_load_numpy(modules_loaded_by_step):
    # the sampler and the bridge DP run on Python ints alone
    assert modules_loaded_by_step["sampler"] == set()


def test_walks_mc_sampler_name_is_the_bridges_sampler():
    # an alias, not a wrapper: a tracer that rebinds the walks_mc name
    # wraps the one sampler
    assert walks_mc.sample_uniform_graphical_bridge is bridges.sample_uniform_graphical_bridge


def test_count_bridges_area_divisible_is_the_list_dp():
    for n in range(1, 61):
        assert bridges.count_bridges_area_divisible(n) == _list_bridges_area_divisible(n), n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 45, 100, bridges.BRIDGE_DP_CAP])
def test_field_width_holds_four_to_the_n(n, unpack):
    # 4^n bounds every count of the packed DPs at n; a width one bit
    # short of 2n + 1 would carry it into the next field
    w = bridges.field_width(n)
    fields = [4**n, 0, 4**n - 1, 1, 4**n]
    packed = sum(c << i * w for i, c in enumerate(fields))
    assert unpack(packed, w) == fields
    assert packed & (1 << w) - 1 == 4**n


def test_enumeration_is_the_filtered_bridge_list():
    # the depth-first walk against the definition, order included
    for n in range(10):
        assert list(bridges.enumerate_graphical_bridges(n)) == [
            b for b in bridges.enumerate_bridges(n) if bridges.is_graphical_bridge(b)
        ], n


def test_enumeration_counts_at_the_cap():
    counts = [sum(1 for _ in bridges.enumerate_graphical_bridges(n)) for n in range(11)]
    assert counts == list(bridges.graphical_bridge_counts(10))


def test_decomposition_parts_concatenate(graphical_bridges_by_n):
    for n in range(1, 7):
        for b in graphical_bridges_by_n[n]:
            parts = bridges.irreducible_decomposition(b)
            flat = tuple(x for p in parts for x in p)
            assert flat == b
            for p in parts:
                assert bridges.is_irreducible_bridge(p)


def test_irreducible_walk_matches_the_enumeration_and_the_inversion():
    cap = bridges.ENUMERATION_CAP
    walked = bridges.count_irreducible_bridges(cap)
    direct = [0] + [
        sum(map(bridges.is_irreducible_bridge, bridges.enumerate_graphical_bridges(n)))
        for n in range(1, cap + 1)
    ]
    assert walked == direct
    assert walked == series.irreducible_bridge_counts(list(bridges.graphical_bridge_counts(10)))
    # a smaller budget walks fewer lengths and counts them the same
    for n_max in range(1, cap):
        assert bridges.count_irreducible_bridges(n_max) == walked[: n_max + 1]


def test_renewal_scan_matches_the_even_prefix_areas():
    # the predicates and the part ends against an oracle read from the
    # even-prefix areas alone: graphical iff no area is negative and the
    # last is 0; a cut at 2j where sigma_j = sigma_{j-1} = 0 (sigma_0 = 0)
    for n in range(9):
        for b in bridges.enumerate_bridges(n):
            areas = [0] + bridges.even_prefix_areas(b)
            graphical = min(areas) >= 0 and areas[-1] == 0
            cuts = [2 * j for j in range(1, n + 1) if areas[j] == areas[j - 1] == 0]
            assert bridges.is_graphical_bridge(b) == graphical, b
            assert bridges.is_irreducible_bridge(b) == (graphical and cuts == [2 * n]), b
            if not graphical:
                with pytest.raises(ValueError, match="graphical bridge"):
                    bridges.irreducible_decomposition(b)
                with pytest.raises(ValueError, match="graphical bridge"):
                    bijections.first_irreducible_length(b)
                continue
            parts = bridges.irreducible_decomposition(b)
            assert list(accumulate(len(p) for p in parts)) == cuts, b
            if n:
                assert bijections.first_irreducible_length(b) == cuts[0], b


WALK_FUNCTIONS = {
    "even_prefix_areas": bridges.even_prefix_areas,
    "diamond_area": bridges.diamond_area,
    "lazify": bridges.lazify,
}
BRIDGE_FUNCTIONS = {
    "is_graphical_bridge": bridges.is_graphical_bridge,
    "is_irreducible_bridge": bridges.is_irreducible_bridge,
    "irreducible_decomposition": bridges.irreducible_decomposition,
    "bridge_to_string": bridges.bridge_to_string,
    "first_irreducible_length": bijections.first_irreducible_length,
    "ShiftedPair": lambda w: bijections.ShiftedPair(w, 0),
    "unshift_bridge": bijections.unshift_bridge,
    "bridge_to_path": bijections.bridge_to_path,
}
_INCREMENTS = r"^walk increments must be \+1 or -1$"
# (walk, the error every walk and bridge function raises on it): the
# first five have even length and sum to 0, so only their increments are wrong
BAD_WALKS = [
    ((2, -2), _INCREMENTS),
    ((3, -1, -1, -1), _INCREMENTS),
    ([1, 0, -1, 0], _INCREMENTS),
    ((1.0, -1.0), _INCREMENTS),
    ((True, -1), _INCREMENTS),
    ((1,), "^walk length must be even, got 1$"),
    ((1, -1, 1), "^walk length must be even, got 3$"),
]
_CHECKED = {**WALK_FUNCTIONS, **BRIDGE_FUNCTIONS}


@pytest.mark.parametrize("walk, match", BAD_WALKS, ids=[str(w) for w, _ in BAD_WALKS])
@pytest.mark.parametrize("fn", _CHECKED.values(), ids=_CHECKED.keys())
def test_walk_functions_reject_bad_walks(fn, walk, match):
    with pytest.raises(ValueError, match=match):
        fn(walk)


# lazy walks, of any length, whose steps are not all the ints -1, 0 and +1
BAD_LAZY_WALKS = [(5, 7), (2,), (1, -2, 0), (True,), (0.0,), [1, 0, -1.0]]


@pytest.mark.parametrize("lazy", BAD_LAZY_WALKS, ids=str)
def test_lazy_walk_area_rejects_bad_lazy_walks(lazy):
    with pytest.raises(ValueError, match=r"^lazy walk steps must be -1, 0 or \+1$"):
        bridges.lazy_walk_area(lazy)


@pytest.mark.parametrize("walk", [(1, 1), (-1, -1, -1, 1)], ids=str)
@pytest.mark.parametrize("fn", BRIDGE_FUNCTIONS.values(), ids=BRIDGE_FUNCTIONS.keys())
def test_bridge_functions_reject_non_bridges(fn, walk):
    with pytest.raises(ValueError, match="^not a bridge: increments do not sum to 0$"):
        fn(walk)


def test_count_bridges_area_divisible_matches_bruteforce():
    for n in range(1, 9):
        assert (
            bridges.count_bridges_area_divisible(n)
            == bridges.count_bridges_area_divisible_bruteforce(n)
        )


@pytest.mark.parametrize("n", [64, 101])
def test_count_bridges_area_divisible_doubles_tree_count(n):
    # N'(n) = 2 T(n), past the sizes verify and the brute force reach
    assert bridges.count_bridges_area_divisible(n) == 2 * trees.plane_tree_counts(n)[n]


def test_string_round_trip(graphical_bridges_by_n):
    for b in graphical_bridges_by_n[4]:
        text = bridges.bridge_to_string(b)
        assert set(text) <= {"U", "D"}
        assert tuple(1 if ch == "U" else -1 for ch in text) == b
