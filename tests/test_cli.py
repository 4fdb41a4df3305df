from __future__ import annotations

import csv
import io
import json
import re
import subprocess
import sys
import textwrap

import pytest

from treebridges import bridges, cli, constants, graphseq, series, trees, walks_mc


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_tables_bridge_row(capsys):
    code, out, _ = run_cli(capsys, "tables", "--which", "B", "--n-max", "9")
    assert code == 0
    assert out.splitlines() == [
        "n,value",
        "0,1",
        "1,2",
        "2,4",
        "3,8",
        "4,17",
        "5,38",
        "6,92",
        "7,236",
        "8,643",
        "9,1834",
    ]


def test_tables_tree_row(capsys):
    code, out, _ = run_cli(capsys, "tables", "--which", "T", "--n-max", "9")
    assert code == 0
    values = [line.split(",")[1] for line in out.splitlines()[1:]]
    assert values == ["1", "2", "4", "10", "26", "80", "246", "810", "2704"]


def test_tables_multiset_triangle(capsys):
    code, out, _ = run_cli(capsys, "tables", "--which", "M", "--n-max", "2")
    assert code == 0
    assert out.splitlines() == ["n,k,value", "1,0,1", "1,1,1", "2,0,1", "2,1,1", "2,2,2"]


def test_tree_tables_last_value_converts_to_str():
    # T, and N and Nprime as 2T, all read the tree sieve; 2T at their cap,
    # the last N and Nprime value, stays inside the int-to-str digit limit
    cap = cli._TREE_TABLE_CAP
    str(2 * trees.plane_tree_counts(cap)[cap])


# each table's least n-max and the first row it prints there
FIRST_ROWS = {
    "T": (1, "1,1"),
    "B": (0, "0,1"),
    "M": (1, "1,0,1"),
    "N": (1, "1,2"),
    "Nprime": (1, "1,2"),
    "G": (1, "1,1"),
    "irreducible": (1, "1,2"),
}


@pytest.mark.parametrize("which", list(FIRST_ROWS))
def test_table_bounds(capsys, which):
    # both bounds are usage errors, checked before any work
    least, first = FIRST_ROWS[which]
    assert cli._TABLES[which][0] == least
    cap = cli._TABLES[which][1]
    for n, message in (
        (least - 1, f"n-max too small for table {which}: {least - 1}"),
        (cap + 1, f"table {which} is capped at n = {cap}, got {cap + 1}"),
    ):
        argv = ("tables", "--which", which, "--n-max", str(n))
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    code, out, _ = run_cli(capsys, "tables", "--which", which, "--n-max", str(least))
    assert code == 0
    assert out.splitlines()[1] == first


@pytest.mark.parametrize("which", list(cli._TABLES))
def test_csv_tables_print_what_the_csv_module_writes(capsys, which):
    # the rows are joined by hand; the csv module is the oracle for the bytes
    header, rows = cli._TABLES[which][2](12)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    assert run_cli(capsys, "tables", "--which", which, "--n-max", "12") == (0, want.getvalue(), "")


def test_tables_keep_their_order():
    assert list(cli._TABLES) == list(FIRST_ROWS)


def _table_values(capsys, which, n_max):
    code, out, _ = run_cli(capsys, "tables", "--which", which, "--n-max", str(n_max))
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(n) for n, _ in rows] == list(range(1, n_max + 1))
    return [int(v) for _, v in rows]


def test_residue_tables_read_the_tree_sieve(capsys, monkeypatch):
    # the tables agree with the residue DPs, which stay as their oracles
    assert _table_values(capsys, "N", 30) == [
        trees.count_paths_area_divisible(n) for n in range(1, 31)
    ]
    assert _table_values(capsys, "Nprime", 30) == [
        bridges.count_bridges_area_divisible(n) for n in range(1, 31)
    ]

    def refuse(n):
        raise AssertionError("the N and Nprime tables ran a residue DP")

    monkeypatch.setattr(trees, "count_paths_area_divisible", refuse)
    monkeypatch.setattr(trees, "count_paths_by_final_step", refuse)
    monkeypatch.setattr(bridges, "count_bridges_area_divisible", refuse)
    want = [2 * trees.plane_tree_count(n) for n in range(1, 61)]
    assert _table_values(capsys, "N", 60) == want
    assert _table_values(capsys, "Nprime", 60) == want


def test_tables_json_uses_string_values(capsys):
    code, out, _ = run_cli(
        capsys, "tables", "--which", "irreducible", "--n-max", "6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["which"] == "irreducible"
    assert [r["value"] for r in payload["rows"]] == ["2", "0", "0", "1", "2", "8"]
    assert all(isinstance(r["value"], str) for r in payload["rows"])


VERIFY_ALL = [
    "ok   log transform of bridge counts doubles tree counts (checked n <= 24)",
    "ok   mean inverse part count times n B_n gives twice the tree count (checked n <= 24)",
    "ok   irreducible counts from series inversion match enumeration (checked n <= 8)",
    "ok   part count distribution sums to one exactly (checked n <= 20)",
    "ok   distance from part counts to the shifted negative binomial shrinks"
    " (tv(10) = #, tv(40) = #)",
    "ok   path map round trips on every graphical bridge"
    " (161 bridges, n <= 6, exact area bookkeeping)",
    "ok   shift map is a bijection onto balanced divisible-area walks"
    " (checked n <= 6 with explicit inverses)",
    "ok   divisible-area path counts equal tree counts by final step (checked n <= 30)",
    "ok   divisible-area walk counts match divisible-area path counts (checked n <= 30)",
    "ok   growth constant, stopping probability and gamma prefactor cohere"
    " (C sqrt(1 - rho) in [#, #])",
    "ok   bridge counting recursion matches exhaustive enumeration (checked n <= 7)",
    "ok   graphical sequence counts match degree sequences of actual graphs (checked n <= 6)",
    "ok   zero-sum multiset formula matches direct enumeration (checked n <= 7, k <= 6)",
    "13 of 13 checks passed",
]

VERIFY_LEMMAS_12 = [
    "ok   divisible-area path counts equal tree counts by final step (checked n <= 12)",
    "ok   divisible-area walk counts match divisible-area path counts (checked n <= 12)",
    "ok   growth constant, stopping probability and gamma prefactor cohere"
    " (C sqrt(1 - rho) in [#, #])",
    "3 of 3 checks passed",
]


@pytest.mark.parametrize(
    "argv, want",
    [(("--suite", "all"), VERIFY_ALL), (("--suite", "lemmas", "--n-max", "12"), VERIFY_LEMMAS_12)],
    ids=["all", "lemmas-12"],
)
def test_verify_output_is_frozen(capsys, argv, want):
    # every printed line is pinned, with the floating decimals masked
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 0
    assert [re.sub(r"\d+\.\d+", "#", line) for line in out.splitlines()] == want


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_verify_reports_a_raising_check_as_a_failure(capsys, monkeypatch):
    # T(5) one too high makes bridge_counts_from_trees meet a
    # non-integer count and raise inside a check: that check prints
    # FAIL with the exception, every other check still runs, and the
    # exit code is 1, not a traceback
    real = trees.plane_tree_counts

    def off_by_one(n_max):
        t = list(real(n_max))
        if n_max >= 5:
            t[5] += 1
        return tuple(t)

    monkeypatch.setattr(trees, "plane_tree_counts", off_by_one)
    monkeypatch.setattr(series, "plane_tree_counts", off_by_one)
    code, out, _ = run_cli(capsys, "verify", "--suite", "all")
    lines = out.splitlines()
    assert code == 1
    assert len(lines) == len(VERIFY_ALL)
    assert any(line.startswith("FAIL") and "raised AssertionError" in line for line in lines)
    # argument errors still raise before any check runs
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--n-max", "0")
    assert code == 2 and not out and "n_max" in err


def test_verify_names_a_raising_check_by_its_title(capsys, monkeypatch):
    # a check that raises prints the same readable name as when it runs
    real = trees.plane_tree_counts

    def off_by_one(n_max):
        t = list(real(n_max))
        if n_max >= 5:
            t[5] += 1
        return tuple(t)

    monkeypatch.setattr(trees, "plane_tree_counts", off_by_one)
    monkeypatch.setattr(series, "plane_tree_counts", off_by_one)
    code, out, _ = run_cli(capsys, "verify", "--suite", "all")
    lines = out.splitlines()
    assert code == 1
    assert any("raised AssertionError" in line for line in lines)
    assert not [line for line in lines if line.startswith("FAIL check_")]
    named = {line.split(" (", 1)[0][5:] for line in VERIFY_ALL[:-1]}
    assert {line.split(" (", 1)[0][5:] for line in lines[:-1]} == named


def test_self_checks_raise_under_python_O():
    # python -O strips bare asserts; the self-checks raise AssertionError
    # themselves, so T(5) + 1 still stops the tree formula for b_n and
    # fails verify
    script = textwrap.dedent(
        """
        import sys
        from treebridges import cli, series, trees

        assert False, "asserts are not stripped"
        real = trees.plane_tree_counts

        def off_by_one(n_max):
            t = list(real(n_max))
            if n_max >= 5:
                t[5] += 1
            return tuple(t)

        trees.plane_tree_counts = series.plane_tree_counts = off_by_one
        try:
            series.bridge_counts_from_trees(6)
        except AssertionError:
            pass
        else:
            sys.exit(3)
        sys.exit(cli.main(["verify", "--suite", "all"]))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 1, (proc.returncode, proc.stderr)
    assert proc.stdout.splitlines()[-1] == "8 of 13 checks passed"


def test_constants_json_contract(capsys):
    code, out, _ = run_cli(capsys, "constants", "--digits", "6")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"xi", "C", "rho", "gamma34", "bounds"}
    assert set(payload["bounds"]) == {"xi", "C", "rho", "gamma34"}
    assert payload["C"] == pytest.approx(0.099094, abs=1e-6)
    # rho = 0.5158026..., so six digits round it up
    assert payload["rho"] == pytest.approx(0.515803, abs=1e-6)
    assert payload["xi"] == pytest.approx(0.362631, abs=1e-6)
    assert payload["gamma34"] == pytest.approx(1.225417, abs=1e-6)
    assert all(b > 0 for b in payload["bounds"].values())


def test_constants_read_one_xi_and_no_tree_table(capsys, monkeypatch):
    # xi, C and rho all read one cached evaluation of the rearranged
    # series; the tree sieve is the oracle and must not run here
    def refuse(n_max):
        raise AssertionError(f"plane_tree_counts({n_max}) called")

    monkeypatch.setattr(trees, "plane_tree_counts", refuse)
    monkeypatch.setattr(constants, "plane_tree_counts", refuse)
    constants.xi.cache_clear()
    assert run_cli(capsys, "constants", "--digits", "12")[0] == 0
    info = constants.xi.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("digits", [1, 6, 12])
def test_constants_bounds_cover_the_printed_digits(capsys, digits):
    # the limits to 20 digits, as in test_constants.py
    limits = {
        "xi": 0.36263134141951955540,
        "C": 0.099094083237488745361,
        "rho": 0.51580263808914185850,
        "gamma34": 1.2254167024651776451,
    }
    payload = json.loads(run_cli(capsys, "constants", "--digits", str(digits))[1])
    for key, limit in limits.items():
        assert abs(payload[key] - limit) <= payload["bounds"][key], key


def test_constants_digit_bounds(capsys):
    assert run_cli(capsys, "constants", "--digits", "13")[0] == 2
    assert run_cli(capsys, "constants", "--digits", "0")[0] == 2


def test_rho_mc_json_and_determinism(capsys):
    args = ("rho-mc", "--samples", "400", "--horizon", "600", "--seed", "21")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(first)
    assert payload["samples"] == 400
    assert payload["seed"] == 21
    assert 0.0 <= payload["capped_fraction"] <= 1.0
    assert payload["estimate"] is None or 0.0 <= payload["estimate"] <= 1.0
    code, second, _ = run_cli(capsys, *args)
    assert code == 0
    assert first == second


def test_rho_mc_prints_its_record_with_nan_as_null(capsys):
    # the one walk of seed 1 moves at its one step, so none stops
    code, out, _ = run_cli(capsys, "rho-mc", "--samples", "1", "--horizon", "1", "--seed", "1")
    assert code == 0
    assert out == (
        '{\n  "estimate": null,\n  "samples": 1,\n  "std_error": null,\n'
        '  "capped_fraction": 1.0,\n  "seed": 1\n}\n'
    )
    assert tuple(json.loads(out)) == walks_mc.McEstimate._fields
    # an int field too large for a float prints as it is
    seed = 10**400
    args = ("rho-mc", "--samples", "1", "--horizon", "1", "--seed", str(seed))
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert json.loads(out)["seed"] == seed


def test_rho_mc_validation(capsys):
    # the API checks the ranges; the CLI only maps its ValueError to exit 2
    bad = (("--samples", "0"), ("--horizon", "0"), ("--seed", "-1"), ("--workers", "0"))
    for flag, value in bad:
        code, out, err = run_cli(
            capsys, "rho-mc", "--samples", "10", "--horizon", "5", flag, value
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and flag[2:] in err


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "treebridges.cli", "tables", "--which", "G", "--n-max", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["n,value", "1,1", "2,2", "3,4"]


def test_the_cli_and_constants_do_not_load_numpy(modules_loaded_by_step):
    # importing the CLI loads none of numpy, socket, multiprocessing and
    # concurrent.futures: rho-mc forks its own processes, with no pool
    assert modules_loaded_by_step["import"] == set()
    assert modules_loaded_by_step["constants"] == set()


def test_the_cli_loads_no_dataclasses_and_json_or_csv_only_to_print(modules_loaded_by_step):
    for step in ("import", "verify", "tables G", "tables T"):
        assert modules_loaded_by_step[step] == set(), step


def test_the_g_table_and_verify_do_not_load_numpy(modules_loaded_by_step):
    # the Frobenius sweep runs on packed ints
    assert modules_loaded_by_step["tables G"] == set()
    assert modules_loaded_by_step["verify"] == set()


def test_verify_fails_the_degree_sequence_line_when_g_is_off(capsys, monkeypatch):
    # G(5) one too high fails the graph-oracle line and no other
    real = graphseq.graphical_sequence_counts

    def off_by_one(n_max):
        g = list(real(n_max))
        if n_max >= 5:
            g[5] += 1
        return tuple(g)

    monkeypatch.setattr(graphseq, "graphical_sequence_counts", off_by_one)
    code, out, _ = run_cli(capsys, "verify", "--suite", "all")
    lines = out.splitlines()
    assert code == 1
    assert len(lines) == len(VERIFY_ALL)
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 1
    assert failed[0].startswith(
        "FAIL graphical sequence counts match degree sequences of actual graphs"
    )
    assert "failures at [5]" in failed[0]
