from __future__ import annotations

import inspect

from treebridges import bridges, graphseq, verify

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
