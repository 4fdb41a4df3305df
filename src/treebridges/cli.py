"""Command line front end.

Four subcommands: exact sequence tables (CSV or JSON), consistency
batteries, high precision constants, and the Monte Carlo estimator.
Exit codes follow the usual contract: 0 clean, 1 a check failed,
2 bad usage such as a table past its cap.

Large integers are emitted as decimal strings in JSON because several
sequences outgrow 64 bits long before the caps bite.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import constants, graphseq, series, trees, verify, walks_mc

# json is imported inside the commands that print it, so that a cold
# command loads it only when its output needs it; CSV rows are joined here


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _by_n(vals, start: int = 1):
    """Header and rows of a table with one value per n >= start."""
    return ("n", "value"), [(n, vals[n]) for n in range(start, len(vals))]


def _multisets(n_max: int):
    """Header and rows of the M triangle, one row per 0 <= k <= n."""
    rows = [
        (n, k, value)
        for n in range(1, n_max + 1)
        for k, value in enumerate(trees.zero_sum_multiset_row(n))
    ]
    return ("n", "k", "value"), rows


def _twice_trees(n_max: int):
    # N(n) = N'(n) = 2T(n); the residue DPs are only the oracles
    return _by_n([2 * t for t in trees.plane_tree_counts(n_max)])


# table -> (least n-max, cap, header and rows for an n-max), every bound
# checked before any work.  T(n) passes the interpreter's 4,300-digit
# limit on int-to-str conversion near n = 7,140; at 7,000, the cap of
# the T, N and Nprime tables, each takes 0.7-0.85 s and prints 15 MB,
# and 2T(7,000), the last N and Nprime value, has 4,209 digits.  The M
# triangle has about n^2/2 entries, one zero_sum_multiset_row per n:
# 0.4-0.65 s, 36 MB peak resident memory and 16.8 MB of CSV at 500
# (0.16 s and 3.7 MB at 300).  Measured with stdout sent to a file on a
# 2-core x86-64 host with Python 3.11.
_TREE_TABLE_CAP = 7000
_TABLES = {
    "T": (1, _TREE_TABLE_CAP, lambda n: _by_n(trees.plane_tree_counts(n))),
    "B": (0, series.BRIDGE_TABLE_CAP, lambda n: _by_n(series.bridge_counts_from_trees(n), 0)),
    "M": (1, 500, _multisets),
    "N": (1, _TREE_TABLE_CAP, _twice_trees),
    "Nprime": (1, _TREE_TABLE_CAP, _twice_trees),
    "G": (1, graphseq.COUNT_CAP, lambda n: _by_n(graphseq.graphical_sequence_counts(n))),
    "irreducible": (
        1,
        series.BRIDGE_TABLE_CAP,
        lambda n: _by_n(series.irreducible_bridge_counts(series.bridge_counts_from_trees(n))),
    ),
}


def cmd_tables(args) -> int:
    least, cap, table = _TABLES[args.which]
    if args.n_max < least:
        return _usage_error(f"n-max too small for table {args.which}: {args.n_max}")
    if args.n_max > cap:
        return _usage_error(f"table {args.which} is capped at n = {cap}, got {args.n_max}")
    header, rows = table(args.n_max)
    if args.format == "csv":
        # every cell is an int or a header word, none of which the csv
        # module would quote, and str(int) keeps its digit limit
        sys.stdout.write(",".join(header) + "\n")
        sys.stdout.writelines(",".join(map(str, row)) + "\n" for row in rows)
    else:
        import json

        payload = {
            "command": "tables",
            "which": args.which,
            "n_max": args.n_max,
            "rows": [
                {key: (str(v) if key == "value" else v) for key, v in zip(header, row)}
                for row in rows
            ],
        }
        print(json.dumps(payload, indent=2))
    return 0


def cmd_verify(args) -> int:
    try:
        results = verify.run_suite(args.suite, args.n_max)
    except ValueError as exc:
        return _usage_error(str(exc))
    failed = 0
    for name, passed, detail in results:
        mark = "ok  " if passed else "FAIL"
        print(f"{mark} {name} ({detail})")
        failed += not passed
    print(f"{len(results) - failed} of {len(results)} checks passed")
    return 1 if failed else 0


# the most digits, and the default, that constants prints
_MAX_DIGITS = 12


def cmd_constants(args) -> int:
    if not 1 <= args.digits <= _MAX_DIGITS:
        return _usage_error(f"digits must be between 1 and {_MAX_DIGITS}, got {args.digits}")
    import json

    vals = {
        "xi": constants.xi(),
        "C": constants.count_growth_constant(),
        "rho": constants.exact_zero_area_prob(),
        "gamma34": constants.gamma_three_quarters(),
    }
    # rounding to the printed digits moves the value by half a unit in
    # the last digit, and the printed float by half an ulp more; fold
    # both into the bound
    payload = {key: round(v.value, args.digits) for key, v in vals.items()}
    slop = 0.5 * 10.0 ** (-args.digits)
    payload["bounds"] = {
        key: v.error_bound + slop + 0.5 * math.ulp(payload[key])
        for key, v in vals.items()
    }
    print(json.dumps(payload, indent=2))
    return 0


def cmd_rho_mc(args) -> int:
    try:
        est = walks_mc.estimate_zero_area_prob(
            args.samples, args.horizon, args.seed, args.workers
        )
    except ValueError as exc:
        return _usage_error(str(exc))
    import json

    # the record's own fields, in order; JSON has no NaN, so it prints null
    payload = {
        key: None if isinstance(v, float) and math.isnan(v) else v
        for key, v in est._asdict().items()
    }
    print(json.dumps(payload, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treebridges",
        description="Exact combinatorics of plane trees, graphical bridges and degree sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="print one exact integer table")
    p_tables.add_argument("--which", required=True, choices=tuple(_TABLES))
    p_tables.add_argument("--n-max", type=int, required=True, dest="n_max")
    p_tables.add_argument("--format", choices=("csv", "json"), default="csv")
    p_tables.set_defaults(func=cmd_tables)

    p_verify = sub.add_parser("verify", help="run a consistency battery")
    p_verify.add_argument(
        "--suite", required=True, choices=(*sorted(verify.SUITES), "all")
    )
    p_verify.add_argument("--n-max", type=int, default=None, dest="n_max")
    p_verify.set_defaults(func=cmd_verify)

    p_const = sub.add_parser("constants", help="print the limit constants as JSON")
    p_const.add_argument("--digits", type=int, default=_MAX_DIGITS)
    p_const.set_defaults(func=cmd_constants)

    p_mc = sub.add_parser("rho-mc", help="Monte Carlo stopping probability estimate")
    p_mc.add_argument("--samples", type=int, default=100_000)
    p_mc.add_argument("--horizon", type=int, default=1_000_000)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument(
        "--workers",
        type=int,
        default=1,
        help="substreams to split the walks into, not processes; each "
        "substream's walks are split by rows over min(CPU count, its walks) "
        "processes of about 50 MB each",
    )
    p_mc.set_defaults(func=cmd_rho_mc)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
