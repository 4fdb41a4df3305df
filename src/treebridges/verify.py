"""Self-contained consistency batteries.

Most checks recompute a fact two independent ways and compare; the
growth-constant check tests that three constants built on the same xi
cohere, and that xi meets the tree series it rearranges.  They are
deliberately cheap enough to run from the command line; the test suite
runs the same batteries plus heavier one-off oracles.
"""

from __future__ import annotations

from fractions import Fraction

from . import bijections, bridges, constants, graphseq, series, trees
from .bridges import BRIDGE_DP_CAP, ENUMERATION_CAP
from .graphseq import ORACLE_CAP
from .numtheory import check_size

Check = tuple[str, bool, str]  # (title, passed, detail)
Outcome = tuple[bool, str]  # what a check returns: (passed, detail)

# suite name -> (check, depth ceiling) pairs, in definition order
SUITES: dict[str, tuple] = {}


def _check(suite: str, ceiling: int | None, title: str):
    """Add the check to a suite, after those defined above it.

    The check's line prints title, whether it passes, fails or raises.
    The ceiling clamps --n-max: the library cap the check meets, so that
    a big --n-max clamps instead of raising, or else a time budget; None
    if the check takes no depth argument."""

    def register(check):
        check.title = title
        SUITES[suite] = (*SUITES.get(suite, ()), (check, ceiling))
        return check

    return register


def _each_n(n_max: int, fails, start: int = 1, also: str = "") -> Outcome:
    """Run fails(n) for start <= n <= n_max and report the failing n."""
    bad = [n for n in range(start, n_max + 1) if fails(n)]
    detail = f"checked n <= {n_max}{also}" + (f", failures at {bad}" if bad else "")
    return not bad, detail


@_check("logtransform", BRIDGE_DP_CAP, "log transform of bridge counts doubles tree counts")
def check_log_transform_doubles_tree_counts(n_max: int = 24) -> Outcome:
    star = series.log_transform(list(bridges.graphical_bridge_counts(n_max)))
    t = trees.plane_tree_counts(n_max)
    return _each_n(n_max, lambda n: star[n - 1] != 2 * t[n])


@_check("logtransform", 80, "mean inverse part count times n B_n gives twice the tree count")
def check_mean_inverse_parts_identity(n_max: int = 24) -> Outcome:
    rows = series.parts_count_table(n_max)
    fromtrees = series.bridge_counts_from_trees(n_max)
    b = bridges.graphical_bridge_counts(n_max)
    t = trees.plane_tree_counts(n_max)

    def mean_inverse(n: int) -> Fraction:
        parts = enumerate(rows[n])
        return sum((Fraction(c, m * fromtrees[n]) for m, c in parts if c), Fraction(0))

    return _each_n(n_max, lambda n: mean_inverse(n) * n * b[n] != 2 * t[n])


@_check(
    "logtransform", ENUMERATION_CAP, "irreducible counts from series inversion match enumeration"
)
def check_irreducible_counts_match_enumeration(n_max: int = 8) -> Outcome:
    fromseries = series.irreducible_bridge_counts(list(bridges.graphical_bridge_counts(n_max)))
    walked = bridges.count_irreducible_bridges(n_max)
    return _each_n(n_max, lambda n: fromseries[n] != walked[n])


@_check("logtransform", 60, "part count distribution sums to one exactly")
def check_parts_distribution_normalized(n_max: int = 20) -> Outcome:
    rows = series.parts_count_table(n_max)
    fromtrees = series.bridge_counts_from_trees(n_max)
    return _each_n(
        n_max, lambda n: sum((Fraction(c, fromtrees[n]) for c in rows[n]), Fraction(0)) != 1
    )


@_check("logtransform", 80, "distance from part counts to the shifted negative binomial shrinks")
def check_negbin_distance_shrinks(n_max: int = 40) -> Outcome:
    small = 10
    large = max(20, n_max)
    d_small = series.parts_negbin_tv_distance(small)
    d_large = series.parts_negbin_tv_distance(large)
    ok = d_large < d_small
    return ok, f"tv({small}) = {d_small:.4f}, tv({large}) = {d_large:.4f}"


@_check("bijections", 9, "path map round trips on every graphical bridge")
def check_path_map_roundtrip(n_max: int = 6) -> Outcome:
    seen = 0
    for n in range(1, n_max + 1):
        for br in bridges.enumerate_graphical_bridges(n):
            path, ell = bijections.bridge_to_path(br)
            if bijections.path_to_bridge(path) != br:
                return False, f"failed at {bridges.bridge_to_string(br)}"
            area = trees.path_area(path)
            if area != bridges.diamond_area(br) + ell * n:
                return False, f"area mismatch at {bridges.bridge_to_string(br)}"
            seen += 1
    return True, f"{seen} bridges, n <= {n_max}, exact area bookkeeping"


@_check("bijections", 8, "shift map is a bijection onto balanced divisible-area walks")
def check_shift_map_bijection(n_max: int = 6) -> Outcome:
    def fails(n: int) -> bool:
        images = set()
        for pair in bijections.enumerate_shifted_pairs(n):
            w = bijections.shift_bridge(pair)
            if w in images or bijections.unshift_bridge(w) != pair:
                return True
            images.add(w)
        return len(images) != bridges.count_bridges_area_divisible(n)

    return _each_n(n_max, fails, also=" with explicit inverses")


@_check("lemmas", 100, "divisible-area path counts equal tree counts by final step")
def check_path_count_identity(n_max: int = 30) -> Outcome:
    t = trees.plane_tree_counts(n_max)
    return _each_n(n_max, lambda n: trees.count_paths_by_final_step(n) != (t[n], t[n]))


@_check("lemmas", 100, "divisible-area walk counts match divisible-area path counts")
def check_bridge_walk_counts_agree(n_max: int = 30) -> Outcome:
    return _each_n(
        n_max,
        lambda n: bridges.count_bridges_area_divisible(n)
        != trees.count_paths_area_divisible(n),
    )


@_check("lemmas", None, "growth constant, stopping probability and gamma prefactor cohere")
def check_growth_constant_consistency() -> Outcome:
    c = constants.count_growth_constant()
    rho = constants.exact_zero_area_prob()
    pref = constants.gamma_prefactor()
    lo = c.low * (1 - rho.high) ** 0.5
    hi = c.high * (1 - rho.low) ** 0.5
    # the xi that C and rho share, against the tree series it rearranges
    x, tree = constants.xi(), constants.tree_series(500)
    if x.high < tree.low or tree.high < x.low:
        span = "[{0.low:.12f}, {0.high:.12f}]".format
        return False, f"xi {span(x)} misses tree_series(500) {span(tree)}"
    ok = lo <= pref.high and pref.low <= hi
    return ok, f"C sqrt(1 - rho) in [{lo:.12f}, {hi:.12f}]"


@_check("oracles", 9, "bridge counting recursion matches exhaustive enumeration")
def check_bridge_counts_match_enumeration(n_max: int = 7) -> Outcome:
    counts = bridges.graphical_bridge_counts(n_max)
    return _each_n(
        n_max,
        lambda n: counts[n] != sum(1 for _ in bridges.enumerate_graphical_bridges(n)),
        start=0,
    )


@_check("oracles", ORACLE_CAP, "graphical sequence counts match degree sequences of actual graphs")
def check_degree_sequence_oracle(n_max: int = 6) -> Outcome:
    return _each_n(
        n_max,
        lambda n: graphseq.count_graphical_sequences(n)
        != len(graphseq.all_graph_degree_sequences(n)),
    )


@_check("oracles", 9, "zero-sum multiset formula matches direct enumeration")
def check_multiset_formula(n_max: int = 7) -> Outcome:
    # the row's ratio chains and the single values' divisor sums, each
    # against the scan
    k_max = 6

    def off(n: int) -> bool:
        row = trees.zero_sum_multiset_row(n)
        for k in range(k_max + 1):
            brute = trees.zero_sum_multisets_bruteforce(n, k)
            if trees.zero_sum_multisets(n, k) != brute or (k <= n and row[k] != brute):
                return True
        return False

    return _each_n(n_max, off, also=f", k <= {k_max}")


def run_suite(name: str, n_max: int | None = None) -> list[Check]:
    """Run one battery (or all of them) and return its check results.

    n_max widens or narrows the depth of every check that takes one,
    clamped to the per-check ceiling; None keeps each check's default.
    A check that raises is reported as failed, with the exception in its
    detail; a bad suite name or n_max raises before any check runs.
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
        try:
            if ceiling is None or n_max is None:
                passed, detail = check()
            else:
                passed, detail = check(min(n_max, ceiling))
        except Exception as exc:
            passed, detail = False, f"raised {exc!r}"
        results.append((check.title, passed, detail))
    return results
