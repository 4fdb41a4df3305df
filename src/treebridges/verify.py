"""Self-contained consistency batteries.

Each check recomputes a fact two independent ways and compares.  They
are deliberately cheap enough to run from the command line; the test
suite runs the same batteries plus heavier one-off oracles.
"""

from __future__ import annotations

from fractions import Fraction

from . import bijections, bridges, constants, graphseq, series, trees
from .numtheory import check_size

Check = tuple[str, bool, str]


def check_log_transform_doubles_tree_counts(n_max: int = 24) -> Check:
    b = list(bridges.graphical_bridge_counts(n_max))
    star = series.log_transform(b)
    want = [2 * t for t in trees.plane_tree_counts(n_max)[1:]]
    ok = star == want
    return (
        "log transform of bridge counts doubles tree counts",
        ok,
        f"checked n <= {n_max}",
    )


def check_mean_inverse_parts_identity(n_max: int = 24) -> Check:
    b = bridges.graphical_bridge_counts(n_max)
    t = trees.plane_tree_counts(n_max)
    bad = [
        n
        for n in range(1, n_max + 1)
        if series.mean_inverse_parts(n) * n * b[n] != 2 * t[n]
    ]
    return (
        "mean inverse part count times n B_n gives twice the tree count",
        not bad,
        f"checked n <= {n_max}" + (f", failures at {bad}" if bad else ""),
    )


def check_irreducible_counts_match_enumeration(n_max: int = 8) -> Check:
    b = list(bridges.graphical_bridge_counts(n_max))
    fromseries = series.irreducible_bridge_counts(b)
    bad = []
    for n in range(1, n_max + 1):
        direct = sum(
            1
            for br in bridges.enumerate_graphical_bridges(n)
            if bridges.is_irreducible_bridge(br)
        )
        if direct != fromseries[n]:
            bad.append((n, direct, fromseries[n]))
    return (
        "irreducible counts from series inversion match enumeration",
        not bad,
        f"checked n <= {n_max}" + (f", failures {bad}" if bad else ""),
    )


def check_parts_distribution_normalized(n_max: int = 20) -> Check:
    bad = [
        n
        for n in range(1, n_max + 1)
        if sum(series.parts_count_distribution(n).values(), Fraction(0)) != 1
    ]
    return (
        "part count distribution sums to one exactly",
        not bad,
        f"checked n <= {n_max}" + (f", failures at {bad}" if bad else ""),
    )


def check_negbin_distance_shrinks(n_max: int = 40) -> Check:
    small = 10
    large = max(20, n_max)
    d_small = series.parts_negbin_tv_distance(small)
    d_large = series.parts_negbin_tv_distance(large)
    ok = d_large < d_small
    return (
        "distance from part counts to the shifted negative binomial shrinks",
        ok,
        f"tv({small}) = {d_small:.4f}, tv({large}) = {d_large:.4f}",
    )


def check_path_map_roundtrip(n_max: int = 6) -> Check:
    seen = 0
    for n in range(1, n_max + 1):
        for br in bridges.enumerate_graphical_bridges(n):
            path, ell = bijections.bridge_to_path(br)
            if bijections.path_to_bridge(path) != br:
                return (
                    "path map round trips on every graphical bridge",
                    False,
                    f"failed at {bridges.bridge_to_string(br)}",
                )
            area = trees.path_area(path)
            if area != bridges.diamond_area(br) + ell * n:
                return (
                    "path map round trips on every graphical bridge",
                    False,
                    f"area mismatch at {bridges.bridge_to_string(br)}",
                )
            seen += 1
    return (
        "path map round trips on every graphical bridge",
        True,
        f"{seen} bridges, n <= {n_max}, exact area bookkeeping",
    )


def check_shift_map_bijection(n_max: int = 6) -> Check:
    for n in range(1, n_max + 1):
        images = set()
        total = 0
        for pair in bijections.enumerate_shifted_pairs(n):
            w = bijections.shift_bridge(pair)
            if w in images:
                return (
                    "shift map is a bijection onto balanced divisible-area walks",
                    False,
                    f"collision at n = {n}",
                )
            images.add(w)
            if bijections.unshift_bridge(w) != pair:
                return (
                    "shift map is a bijection onto balanced divisible-area walks",
                    False,
                    f"inverse mismatch at n = {n}",
                )
            total += 1
        target = bridges.count_bridges_area_divisible(n)
        if total != target:
            return (
                "shift map is a bijection onto balanced divisible-area walks",
                False,
                f"n = {n}: {total} pairs vs {target} walks",
            )
    return (
        "shift map is a bijection onto balanced divisible-area walks",
        True,
        f"checked n <= {n_max} with explicit inverses",
    )


def check_path_count_identity(n_max: int = 30) -> Check:
    t = trees.plane_tree_counts(n_max)
    bad = [
        n
        for n in range(1, n_max + 1)
        if trees.count_paths_by_final_step(n) != (t[n], t[n])
    ]
    return (
        "divisible-area path counts equal tree counts by final step",
        not bad,
        f"checked n <= {n_max}" + (f", failures at {bad}" if bad else ""),
    )


def check_bridge_walk_counts_agree(n_max: int = 30) -> Check:
    bad = [
        n
        for n in range(1, n_max + 1)
        if bridges.count_bridges_area_divisible(n) != trees.count_paths_area_divisible(n)
    ]
    return (
        "divisible-area walk counts match divisible-area path counts",
        not bad,
        f"checked n <= {n_max}" + (f", failures at {bad}" if bad else ""),
    )


def check_growth_constant_consistency() -> Check:
    c = constants.count_growth_constant()
    rho = constants.exact_zero_area_prob()
    pref = constants.gamma_prefactor()
    lo = c.low * (1 - rho.high) ** 0.5
    hi = c.high * (1 - rho.low) ** 0.5
    ok = lo <= pref.high and pref.low <= hi
    return (
        "growth constant, stopping probability and gamma prefactor cohere",
        ok,
        f"C sqrt(1 - rho) in [{lo:.12f}, {hi:.12f}]",
    )


def check_bridge_counts_match_enumeration(n_max: int = 7) -> Check:
    counts = bridges.graphical_bridge_counts(n_max)
    bad = [
        n
        for n in range(n_max + 1)
        if counts[n] != sum(1 for _ in bridges.enumerate_graphical_bridges(n))
    ]
    return (
        "bridge counting recursion matches exhaustive enumeration",
        not bad,
        f"checked n <= {n_max}" + (f", failures at {bad}" if bad else ""),
    )


def check_degree_sequence_oracle(n_max: int = 6) -> Check:
    bad = [
        n
        for n in range(1, n_max + 1)
        if graphseq.count_graphical_sequences(n) != len(graphseq.all_graph_degree_sequences(n))
    ]
    return (
        "graphical sequence counts match degree sequences of actual graphs",
        not bad,
        f"checked n <= {n_max}" + (f", failures at {bad}" if bad else ""),
    )


def check_multiset_formula(n_max: int = 7) -> Check:
    k_max = 6
    bad = [
        (n, k)
        for n in range(1, n_max + 1)
        for k in range(k_max + 1)
        if trees.zero_sum_multisets(n, k) != trees.zero_sum_multisets_bruteforce(n, k)
    ]
    return (
        "zero-sum multiset formula matches direct enumeration",
        not bad,
        f"checked n <= {n_max}, k <= {k_max}" + (f", failures {bad}" if bad else ""),
    )


# (check, depth ceiling); None means the check takes no depth argument.
# The ceiling keeps a big --n-max from turning an exhaustive battery
# into an overnight job.
SUITES: dict[str, tuple] = {
    "logtransform": (
        (check_log_transform_doubles_tree_counts, 200),
        (check_mean_inverse_parts_identity, 80),
        (check_irreducible_counts_match_enumeration, 10),
        (check_parts_distribution_normalized, 60),
        (check_negbin_distance_shrinks, 80),
    ),
    "bijections": (
        (check_path_map_roundtrip, 9),
        (check_shift_map_bijection, 8),
    ),
    "lemmas": (
        (check_path_count_identity, 100),
        (check_bridge_walk_counts_agree, 100),
        (check_growth_constant_consistency, None),
    ),
    "oracles": (
        (check_bridge_counts_match_enumeration, 9),
        (check_degree_sequence_oracle, 6),
        (check_multiset_formula, 9),
    ),
}


def run_suite(name: str, n_max: int | None = None) -> list[Check]:
    """Run one battery (or all of them) and return its check results.

    n_max widens or narrows the depth of every check that takes one,
    clamped to the per-check ceiling; None keeps each check's default.
    """
    if name == "all":
        entries = [e for group in SUITES.values() for e in group]
    elif name in SUITES:
        entries = list(SUITES[name])
    else:
        raise ValueError(f"unknown suite {name!r}, want one of {sorted(SUITES)} or 'all'")
    if n_max is not None:
        check_size("n_max", n_max, 1)
    results = []
    for check, ceiling in entries:
        if ceiling is None or n_max is None:
            results.append(check())
        else:
            results.append(check(min(n_max, ceiling)))
    return results
