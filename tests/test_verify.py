from __future__ import annotations

import inspect
import re
import sys

import pytest

import treebridges
from treebridges import bijections, bridges, constants, graphseq, series, trees, verify

# suite -> [(check, depth ceiling)], in the order `verify --suite all` runs them
REGISTRY = {
    "logtransform": [
        ("check_log_transform_doubles_tree_counts", 200),
        ("check_mean_inverse_parts_identity", 80),
        ("check_irreducible_counts_match_enumeration", 10),
        ("check_parts_distribution_normalized", 60),
        ("check_negbin_distance_shrinks", 80),
    ],
    "bijections": [
        ("check_path_map_roundtrip", 9),
        ("check_shift_map_bijection", 8),
    ],
    "lemmas": [
        ("check_path_count_identity", 100),
        ("check_bridge_walk_counts_agree", 100),
        ("check_growth_constant_consistency", None),
    ],
    "oracles": [
        ("check_bridge_counts_match_enumeration", 9),
        ("check_degree_sequence_oracle", 6),
        ("check_multiset_formula", 9),
    ],
}


def test_suites_pin_each_check_and_ceiling():
    got = {
        suite: [(check.__name__, ceiling) for check, ceiling in entries]
        for suite, entries in verify.SUITES.items()
    }
    assert got == REGISTRY
    assert list(got) == list(REGISTRY)


def test_ceilings_at_a_library_cap_read_the_cap():
    ceiling = {check.__name__: c for entries in verify.SUITES.values() for check, c in entries}
    assert ceiling["check_log_transform_doubles_tree_counts"] == bridges.BRIDGE_DP_CAP
    assert ceiling["check_irreducible_counts_match_enumeration"] == bridges.ENUMERATION_CAP
    assert ceiling["check_degree_sequence_oracle"] == graphseq.ORACLE_CAP


def test_every_check_is_registered_once_in_definition_order():
    defined = [
        value
        for name, value in vars(verify).items()
        if name.startswith("check_")
        and inspect.isfunction(value)
        and value.__module__ == verify.__name__
    ]
    registered = [check for entries in verify.SUITES.values() for check, _ in entries]
    assert len(registered) == len(set(registered)) == len(defined)
    assert set(registered) == set(defined)
    lines = [inspect.getsourcelines(check)[1] for check in registered]
    assert lines == sorted(lines)


def test_run_suite_all_keeps_the_suite_order(monkeypatch):
    # stand-in checks record the order they run in and the depth they get
    calls = []

    def stand_in(name):
        def check(n_max=None):
            calls.append((name, n_max))
            return True, ""

        check.title = name
        return check

    for suite, entries in list(verify.SUITES.items()):
        stubs = tuple((stand_in(check.__name__), c) for check, c in entries)
        monkeypatch.setitem(verify.SUITES, suite, stubs)
    want = [(name, c) for entries in REGISTRY.values() for name, c in entries]
    titles = [title for title, _, _ in verify.run_suite("all", 10**6)]
    assert titles == [name for name, _ in want]
    assert calls == want
    calls.clear()
    verify.run_suite("oracles", 7)
    assert calls == [(name, None if c is None else min(7, c)) for name, c in REGISTRY["oracles"]]


def test_run_suite_rejects_an_unknown_suite():
    # the CLI's --suite choices stop this before it reaches run_suite
    want = "unknown suite 'nope', want one of " + str(sorted(REGISTRY)) + " or 'all'"
    with pytest.raises(ValueError, match=re.escape(want)):
        verify.run_suite("nope")


def _bump_at(n: int):
    """A sequence route whose entry n is one too high."""

    def wrap(real):
        def mutant(n_max):
            vals = real(n_max)
            if len(vals) <= n:
                return vals
            out = list(vals)
            out[n] += 1
            return type(vals)(out)

        return mutant

    return wrap


def _shifted_by(delta: float):
    """A BoundedReal route whose value is moved by delta."""
    return lambda real: lambda: constants.BoundedReal(real().value + delta, real().error_bound)


def _rotated_at_length(length: int):
    """A route returning a walk, one increment pair late for inputs of
    the given length."""

    def wrap(real):
        def mutant(arg):
            walk = real(arg)
            return walk[2:] + walk[:2] if len(walk) == length else walk

        return mutant

    return wrap


_GROWTH = "growth constant, stopping probability and gamma prefactor cohere"
_DEGREES = "graphical sequence counts match degree sequences of actual graphs"
_PATH_MAP = "path map round trips on every graphical bridge"

# id -> (module defining the route, its name, mutant from the real route,
# the verify line that must fail, and an xfail reason where none fails)
MUTANTS = {
    "plane_tree_counts-5": (
        trees, "plane_tree_counts", _bump_at(5),
        "log transform of bridge counts doubles tree counts", None,
    ),
    "bridge_counts_from_trees-5": (
        series, "bridge_counts_from_trees", _bump_at(5),
        "mean inverse part count times n B_n gives twice the tree count", None,
    ),
    "irreducible_bridge_counts-5": (
        series, "irreducible_bridge_counts", _bump_at(5),
        "irreducible counts from series inversion match enumeration", None,
    ),
    "parts_count_table-5": (
        series, "parts_count_table",
        lambda real: lambda n_max: [
            [c + (n == m == 5) for m, c in enumerate(row)] for n, row in enumerate(real(n_max))
        ],
        "mean inverse part count times n B_n gives twice the tree count", None,
    ),
    "graphical_bridge_counts-5": (
        bridges, "graphical_bridge_counts", _bump_at(5),
        "bridge counting recursion matches exhaustive enumeration", None,
    ),
    "graphical_sequence_counts-5": (
        graphseq, "graphical_sequence_counts", _bump_at(5), _DEGREES, None,
    ),
    "graphical_sequence_counts-40": (
        graphseq, "graphical_sequence_counts", _bump_at(40), _DEGREES,
        "ROADMAP items 10 and 13: the one verify line that reads G stops at n = 6",
    ),
    "zero_sum_multisets-5": (
        trees, "zero_sum_multisets", lambda real: lambda n, k: real(n, k) + (n == 5),
        "zero-sum multiset formula matches direct enumeration", None,
    ),
    "zero_sum_multiset_row-5": (
        trees, "zero_sum_multiset_row", lambda real: lambda n: tuple(v + (n == 5) for v in real(n)),
        "zero-sum multiset formula matches direct enumeration", None,
    ),
    "count_bridges_area_divisible-5": (
        bridges, "count_bridges_area_divisible", lambda real: lambda n: real(n) + (n == 5),
        "divisible-area walk counts match divisible-area path counts", None,
    ),
    "count_paths_by_final_step-5": (
        trees, "count_paths_by_final_step",
        lambda real: lambda n: (real(n)[0] + (n == 5), real(n)[1]),
        "divisible-area path counts equal tree counts by final step", None,
    ),
    "path_to_bridge-5": (bijections, "path_to_bridge", _rotated_at_length(10), _PATH_MAP, None),
    "path_area-5": (
        trees, "path_area", lambda real: lambda path: real(path) + (len(path) == 10),
        _PATH_MAP, None,
    ),
    "shift_bridge-5": (
        bijections, "shift_bridge", _rotated_at_length(10),
        "shift map is a bijection onto balanced divisible-area walks", None,
    ),
    "xi+0.05": (constants, "xi", _shifted_by(0.05), _GROWTH, None),
    "gamma_three_quarters+0.01": (
        constants, "gamma_three_quarters", _shifted_by(0.01), _GROWTH,
        "ROADMAP item 10: C and the prefactor read the same Gamma(3/4)",
    ),
}


def _clear_caches():
    for mod in _package_namespaces():
        for value in vars(mod).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _package_namespaces():
    return [mod for name, mod in list(sys.modules.items()) if name.split(".")[0] == "treebridges"]


@pytest.mark.parametrize(
    "home, name, make, line",
    [
        pytest.param(
            *case[:4],
            id=case_id,
            marks=[pytest.mark.xfail(raises=AssertionError, strict=True, reason=case[4])]
            if case[4]
            else [],
        )
        for case_id, case in MUTANTS.items()
    ],
)
def test_a_wrong_route_fails_its_verify_line(monkeypatch, home, name, make, line):
    real = getattr(home, name)
    mutant = make(real)
    bound = [mod for mod in _package_namespaces() if vars(mod).get(name) is real]
    assert home in bound and treebridges in bound
    _clear_caches()
    for mod in bound:
        monkeypatch.setattr(mod, name, mutant)
    try:
        results = verify.run_suite("all")
    finally:
        monkeypatch.undo()
        _clear_caches()
    passed = {title: ok for title, ok, _ in results}
    assert passed[line] is False


def test_a_wrong_xi_names_both_intervals(monkeypatch):
    # the passing detail is C sqrt(1 - rho); a wrong xi names what it missed
    _clear_caches()
    monkeypatch.setattr(constants, "xi", _shifted_by(0.05)(constants.xi))
    try:
        ok, detail = verify.check_growth_constant_consistency()
    finally:
        monkeypatch.undo()
        _clear_caches()
    assert ok is False
    interval = r"\[\d\.\d{12}, \d\.\d{12}\]"
    assert re.fullmatch(rf"xi {interval} misses tree_series\(500\) {interval}", detail)
