from __future__ import annotations

import pickle
import tracemalloc
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treebridges import bijections, bridges, constants, graphseq, series, trees, verify, walks_mc
from treebridges.numtheory import TRIAL_DIVISION_CAP, divisors, euler_phi


def test_euler_phi_small_values():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_euler_phi_prime_and_prime_power():
    assert euler_phi(97) == 96
    assert euler_phi(1024) == 512
    assert euler_phi(3**5) == 3**5 - 3**4


def test_euler_phi_divisor_sum():
    # totients of the divisors partition the n residues by denominator
    for n in range(1, 400):
        assert sum(euler_phi(d) for d in divisors(n)) == n


@given(st.integers(1, 300), st.integers(1, 300))
def test_euler_phi_multiplicative_on_coprime_pairs(a, b):
    if gcd(a, b) == 1:
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


def test_divisors_sorted_and_complete():
    for n in range(1, 200):
        assert divisors(n) == [k for k in range(1, n + 1) if n % k == 0]


def test_euler_phi_keeps_nothing_per_argument():
    # euler_phi takes any n up to the 10**12 cap, so an entry kept per
    # distinct argument would grow with every new one
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(10**6, 10**6 + 5000):
            euler_phi(n)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


# every public entry point whose integer argument is checked by check_size:
# (call with that argument set to v, argument name, least value, cap).  The
# cached DPs are called by keyword: an untyped cache would serve n=True the
# entry for n=1, while a lone positional bool never reaches a cached entry
BOUNDARY = {
    "enumerate_bridges": (lambda v: list(bridges.enumerate_bridges(v)), "n", 0, None),
    "enumerate_graphical_bridges": (
        lambda v: list(bridges.enumerate_graphical_bridges(v)),
        "n", 0, bridges.ENUMERATION_CAP,
    ),
    "count_irreducible_bridges": (
        bridges.count_irreducible_bridges, "n_max", 1, bridges.ENUMERATION_CAP,
    ),
    "count_bridges_area_divisible": (
        bridges.count_bridges_area_divisible, "n", 1, bridges.RESIDUE_DP_CAP,
    ),
    "count_bridges_area_divisible_bruteforce": (
        bridges.count_bridges_area_divisible_bruteforce, "n", 1, bridges.ENUMERATION_CAP,
    ),
    "graphical_bridge_counts": (
        lambda v: bridges.graphical_bridge_counts(n_max=v), "n_max", 0, bridges.BRIDGE_DP_CAP,
    ),
    "sample_uniform_graphical_bridge-n": (
        lambda v: bridges.sample_uniform_graphical_bridge(v, 0), "n", 0, bridges.SAMPLING_CAP,
    ),
    "sample_uniform_graphical_bridge-seed": (
        lambda v: bridges.sample_uniform_graphical_bridge(3, v), "seed", 0, None,
    ),
    "count_paths_area_divisible": (
        trees.count_paths_area_divisible, "n", 1, bridges.RESIDUE_DP_CAP,
    ),
    "count_paths_by_final_step": (
        lambda v: trees.count_paths_by_final_step(n=v), "n", 1, bridges.RESIDUE_DP_CAP,
    ),
    "count_paths_area_divisible_bruteforce": (
        trees.count_paths_area_divisible_bruteforce, "n", 1, trees.EXHAUSTIVE_PATH_CAP,
    ),
    "plane_tree_counts": (trees.plane_tree_counts, "n_max", 0, trees.TREE_TABLE_CAP),
    "plane_tree_count": (trees.plane_tree_count, "n", 1, trees.TREE_TABLE_CAP),
    "zero_sum_multisets-n": (
        lambda v: trees.zero_sum_multisets(v, 2), "n", 1, trees.TREE_TABLE_CAP,
    ),
    "zero_sum_multisets-k": (
        lambda v: trees.zero_sum_multisets(2, v), "k", 0, trees.TREE_TABLE_CAP,
    ),
    "zero_sum_multiset_row": (trees.zero_sum_multiset_row, "n", 1, trees.MULTISET_ROW_CAP),
    "zero_sum_multisets_bruteforce-n": (
        lambda v: trees.zero_sum_multisets_bruteforce(v, 2), "n", 1, trees.MULTISET_SCAN_CAP,
    ),
    "zero_sum_multisets_bruteforce-k": (
        lambda v: trees.zero_sum_multisets_bruteforce(2, v), "k", 0, trees.MULTISET_SCAN_CAP,
    ),
    "bridge_counts_from_trees": (
        series.bridge_counts_from_trees, "n_max", 0, series.BRIDGE_TABLE_CAP,
    ),
    "parts_count_table": (series.parts_count_table, "n_max", 0, series.PARTS_CAP),
    "parts_count_distribution": (series.parts_count_distribution, "n", 1, series.PARTS_CAP),
    "mean_inverse_parts": (series.mean_inverse_parts, "n", 1, series.PARTS_CAP),
    "parts_negbin_tv_distance": (series.parts_negbin_tv_distance, "n", 1, series.PARTS_CAP),
    "enumerate_shifted_pairs": (
        lambda v: list(bijections.enumerate_shifted_pairs(v)), "n", 0, bridges.ENUMERATION_CAP,
    ),
    "all_graph_degree_sequences": (
        graphseq.all_graph_degree_sequences, "n", 0, graphseq.ORACLE_CAP,
    ),
    "ratio_table": (graphseq.ratio_table, "n_max", 0, graphseq.COUNT_CAP),
    "count_graphical_sequences": (graphseq.count_graphical_sequences, "n", 1, graphseq.COUNT_CAP),
    "graphical_sequence_counts": (
        graphseq.graphical_sequence_counts, "n_max", 0, graphseq.COUNT_CAP,
    ),
    "is_graphical_sequence": (lambda v: graphseq.is_graphical_sequence((0, v)), "degree", 0, 1),
    "euler_phi": (euler_phi, "n", 1, TRIAL_DIVISION_CAP),
    "divisors": (divisors, "n", 1, TRIAL_DIVISION_CAP),
    "tree_series": (
        lambda v: constants.tree_series(terms=v), "terms", 1, trees.TREE_TABLE_CAP,
    ),
    "stop_time_outcome": (lambda v: walks_mc.stop_time_outcome([0], v), "horizon", 1, None),
    "estimate-samples": (lambda v: walks_mc.estimate_zero_area_prob(v, 1, 0), "samples", 1, None),
    "estimate-horizon": (lambda v: walks_mc.estimate_zero_area_prob(1, v, 0), "horizon", 1, None),
    "estimate-seed": (lambda v: walks_mc.estimate_zero_area_prob(1, 1, v), "seed", 0, None),
    "simulate_stopped_walk": (lambda v: walks_mc.simulate_stopped_walk(v, 10), "seed", 0, None),
    "estimate-workers": (
        lambda v: walks_mc.estimate_zero_area_prob(1, 1, 0, workers=v), "workers", 1, None,
    ),
    "run_suite": (lambda v: verify.run_suite("oracles", v), "n_max", 1, None),
    # j = 4: the bridge is its own first irreducible part
    "ShiftedPair-shift": (
        lambda v: bijections.ShiftedPair((1, 1, -1, -1, -1, -1, 1, 1), v), "shift", 0, 3,
    ),
}


@pytest.mark.parametrize("call, name, least, cap", BOUNDARY.values(), ids=BOUNDARY.keys())
def test_public_sizes_are_checked_at_the_boundary(call, name, least, cap):
    # the least value is accepted first, so a cached entry for 1 cannot
    # stand in for True or 2.0 below
    call(least)
    for bad in (True, 2.0, "3"):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            call(bad)
    with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {least - 1}$"):
        call(least - 1)
    if cap is not None:
        with pytest.raises(ValueError, match=f"^{name} is capped at {cap}, got {cap + 1}$"):
            call(cap + 1)


# each public record type: its fields by keyword, and one field changed
RECORDS = {
    "BoundedReal": (constants.BoundedReal, {"value": 1.5, "error_bound": 0.25}, ("value", 2.5)),
    "McEstimate": (
        walks_mc.McEstimate,
        {"estimate": 0.5, "samples": 10, "std_error": 0.1, "capped_fraction": 0.0, "seed": 3},
        ("seed", 4),
    ),
    # j = 4: shifts 0..3 are legal
    "ShiftedPair": (
        bijections.ShiftedPair, {"bridge": (1, 1, -1, -1, -1, -1, 1, 1), "shift": 2}, ("shift", 1),
    ),
}


@pytest.mark.parametrize("cls, fields, change", RECORDS.values(), ids=RECORDS.keys())
def test_records_are_immutable_values(cls, fields, change):
    rec = cls(**fields)
    same = cls(*fields.values())
    assert rec == same and hash(rec) == hash(same)
    assert {key: getattr(rec, key) for key in fields} == fields
    key, value = change
    assert rec != cls(**{**fields, key: value})
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls and back == rec


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_unpickling_revalidates_a_shifted_pair(monkeypatch, protocol):
    pair = bijections.ShiftedPair((1, 1, -1, -1, -1, -1, 1, 1), 2)
    data = pickle.dumps(pair, protocol)
    real = bijections.first_irreducible_length
    seen = []
    monkeypatch.setattr(
        bijections, "first_irreducible_length", lambda b: seen.append(b) or real(b)
    )
    assert pickle.loads(data) == pair
    assert seen == [pair.bridge]
