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


def _each_n(name: str, n_max: int, fails, start: int = 1, also: str = "") -> Check:
    """Run fails(n) for start <= n <= n_max and report the failing n."""
    bad = [n for n in range(start, n_max + 1) if fails(n)]
    detail = f"checked n <= {n_max}{also}" + (f", failures at {bad}" if bad else "")
    return name, not bad, detail


def check_log_transform_doubles_tree_counts(n_max: int = 24) -> Check:
    star = series.log_transform(list(bridges.graphical_bridge_counts(n_max)))
    t = trees.plane_tree_counts(n_max)
    return _each_n(
        "log transform of bridge counts doubles tree counts",
        n_max,
        lambda n: star[n - 1] != 2 * t[n],
    )


def check_mean_inverse_parts_identity(n_max: int = 24) -> Check:
    b = bridges.graphical_bridge_counts(n_max)
    t = trees.plane_tree_counts(n_max)
    return _each_n(
        "mean inverse part count times n B_n gives twice the tree count",
        n_max,
        lambda n: series.mean_inverse_parts(n) * n * b[n] != 2 * t[n],
    )


def check_irreducible_counts_match_enumeration(n_max: int = 8) -> Check:
    fromseries = series.irreducible_bridge_counts(list(bridges.graphical_bridge_counts(n_max)))
    return _each_n(
        "irreducible counts from series inversion match enumeration",
        n_max,
        lambda n: fromseries[n]
        != sum(
            1
            for br in bridges.enumerate_graphical_bridges(n)
            if bridges.is_irreducible_bridge(br)
        ),
    )


def check_parts_distribution_normalized(n_max: int = 20) -> Check:
    return _each_n(
        "part count distribution sums to one exactly",
        n_max,
        lambda n: sum(series.parts_count_distribution(n).values(), Fraction(0)) != 1,
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
    name = "path map round trips on every graphical bridge"
    seen = 0
    for n in range(1, n_max + 1):
        for br in bridges.enumerate_graphical_bridges(n):
            path, ell = bijections.bridge_to_path(br)
            if bijections.path_to_bridge(path) != br:
                return name, False, f"failed at {bridges.bridge_to_string(br)}"
            area = trees.path_area(path)
            if area != bridges.diamond_area(br) + ell * n:
                return name, False, f"area mismatch at {bridges.bridge_to_string(br)}"
            seen += 1
    return name, True, f"{seen} bridges, n <= {n_max}, exact area bookkeeping"


def check_shift_map_bijection(n_max: int = 6) -> Check:
    def fails(n: int) -> bool:
        images = set()
        for pair in bijections.enumerate_shifted_pairs(n):
            w = bijections.shift_bridge(pair)
            if w in images or bijections.unshift_bridge(w) != pair:
                return True
            images.add(w)
        return len(images) != bridges.count_bridges_area_divisible(n)

    return _each_n(
        "shift map is a bijection onto balanced divisible-area walks",
        n_max,
        fails,
        also=" with explicit inverses",
    )


def check_path_count_identity(n_max: int = 30) -> Check:
    t = trees.plane_tree_counts(n_max)
    return _each_n(
        "divisible-area path counts equal tree counts by final step",
        n_max,
        lambda n: trees.count_paths_by_final_step(n) != (t[n], t[n]),
    )


def check_bridge_walk_counts_agree(n_max: int = 30) -> Check:
    return _each_n(
        "divisible-area walk counts match divisible-area path counts",
        n_max,
        lambda n: bridges.count_bridges_area_divisible(n)
        != trees.count_paths_area_divisible(n),
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
    return _each_n(
        "bridge counting recursion matches exhaustive enumeration",
        n_max,
        lambda n: counts[n] != sum(1 for _ in bridges.enumerate_graphical_bridges(n)),
        start=0,
    )


def check_degree_sequence_oracle(n_max: int = 6) -> Check:
    return _each_n(
        "graphical sequence counts match degree sequences of actual graphs",
        n_max,
        lambda n: graphseq.count_graphical_sequences(n)
        != len(graphseq.all_graph_degree_sequences(n)),
    )


def check_multiset_formula(n_max: int = 7) -> Check:
    k_max = 6
    return _each_n(
        "zero-sum multiset formula matches direct enumeration",
        n_max,
        lambda n: any(
            trees.zero_sum_multisets(n, k) != trees.zero_sum_multisets_bruteforce(n, k)
            for k in range(k_max + 1)
        ),
        also=f", k <= {k_max}",
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
