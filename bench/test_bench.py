"""The benchmark's own tests.

Run with ``python3 -m pytest bench``.  They check that the frozen table
digests in ``reference.json`` agree with independent identities, that
the checks reject looser constants and smaller verify sizes, that a
tiny pass of each workload reports every metric named in
``BENCHMARK.json``, that a wrong reference is caught, and that the
benchmark refuses to run without the program's sources.  The tests
marked ``benchrun`` start benchmark runs; ``conftest.py`` skips them
unless ``bench`` is named on the command line.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from checks import check_constants, check_verify, is_zero_area_graphical  # noqa: E402
from workloads import FAMILY_METRICS, WORKLOADS, Job, full_jobs, probe_jobs  # noqa: E402

# OEIS A004251: graphical degree sequences of length n, n = 1..12
GRAPHICAL_SEQUENCES = (1, 2, 4, 11, 31, 102, 342, 1213, 4361, 16016, 59348, 222117)


def tree_counts(n_max: int) -> list:
    """T(0..n_max) from the divisor sum, with a sieved totient."""
    phi = list(range(n_max + 1))
    for p in range(2, n_max + 1):
        if phi[p] == p:
            for m in range(p, n_max + 1, p):
                phi[m] -= phi[m] // p
    sums = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        c = math.comb(2 * d - 1, d)
        for m in range(d, n_max + 1, d):
            sums[m] += c * phi[m // d]
    return [0] + [sums[n] // n for n in range(1, n_max + 1)]


def bridge_counts(n_max: int) -> list:
    """b_n from n b_n = sum_i 2T(i) b_(n-i): the inverse log transform of 2T."""
    t = tree_counts(n_max)
    b = [1]
    for n in range(1, n_max + 1):
        b.append(sum(2 * t[i] * b[n - i] for i in range(1, n + 1)) // n)
    return b


def irreducible_counts(n_max: int) -> list:
    """Coefficients of 1 - 1/B(x)."""
    b = bridge_counts(n_max)
    recip = [1]
    for k in range(1, n_max + 1):
        recip.append(-sum(b[j] * recip[k - j] for j in range(1, k + 1)))
    return [0] + [-c for c in recip[1:]]


def zero_sum_multisets(n: int, k: int, phi) -> int:
    g = math.gcd(n, k)
    total = sum(math.comb((n + k) // d - 1, k // d) * phi[d] for d in range(1, g + 1) if g % d == 0)
    return total // n


def expected_table(which: str, n_max: int) -> bytes:
    """The CSV the CLI should print, built from the identities above."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if which == "M":
        writer.writerow(("n", "k", "value"))
        phi = [0] + [sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)
                     for d in range(1, n_max + 1)]
        writer.writerows((n, k, zero_sum_multisets(n, k, phi))
                         for n in range(1, n_max + 1) for k in range(n + 1))
        return buf.getvalue().encode()
    writer.writerow(("n", "value"))
    if which == "B":
        writer.writerows(enumerate(bridge_counts(n_max)))
    elif which == "T":
        writer.writerows((n, t) for n, t in enumerate(tree_counts(n_max)) if n)
    elif which in ("N", "Nprime"):
        writer.writerows((n, 2 * t) for n, t in enumerate(tree_counts(n_max)) if n)
    elif which == "irreducible":
        writer.writerows((n, i) for n, i in enumerate(irreducible_counts(n_max)) if n)
    elif which == "G":
        writer.writerows(enumerate(GRAPHICAL_SEQUENCES[:n_max], start=1))
    return buf.getvalue().encode()


def jobs_of_kind(kind: str) -> list:
    jobs = []
    for family in FAMILY_METRICS:
        jobs += [j for j in full_jobs(family, 0) + probe_jobs(family, 0) if j.kind == kind]
    return jobs


def test_reference_digests_follow_from_identities():
    reference = run.load_reference()["tables"]
    jobs = jobs_of_kind("tables")
    assert sorted(reference) == sorted(j.key for j in jobs)
    for job in jobs:
        which, n_max = job.argv[2], int(job.argv[4])
        digest = hashlib.sha256(expected_table(which, n_max)).hexdigest()
        assert reference[job.key] == digest, job.key


def test_identity_routes_agree_with_small_oracles():
    from treebridges import bridges, graphseq

    b = bridge_counts(7)
    assert b == [sum(1 for _ in bridges.enumerate_graphical_bridges(n)) for n in range(8)]
    assert list(GRAPHICAL_SEQUENCES[:6]) == [
        len(graphseq.all_graph_degree_sequences(n)) for n in range(1, 7)
    ]
    phi = [0] + [sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1) for d in range(1, 9)]
    for n in range(1, 9):
        for k in range(6):
            direct = sum(
                1 for ms in itertools.combinations_with_replacement(range(n), k) if sum(ms) % n == 0
            )
            assert zero_sum_multisets(n, k, phi) == direct


def test_bridge_check_rejects_bad_walks():
    assert is_zero_area_graphical("UDDU")
    assert is_zero_area_graphical("")
    assert is_zero_area_graphical("DUUD")
    assert not is_zero_area_graphical("DDUU")  # even-prefix area goes negative
    assert not is_zero_area_graphical("UUDD")  # area 1, not 0
    assert not is_zero_area_graphical("UDU")


def test_checks_reject_looser_constants_and_smaller_verify_sizes():
    reference = run.load_reference()
    assert sorted(reference["verify_lines"]) == sorted(j.key for j in jobs_of_kind("verify"))

    constants = Job("c", "constants", "constants", ("constants", "--digits", "12"))
    exact = {name: float(v) for name, v in reference["constants"].items()}
    tight = {**exact, "bounds": dict(reference["constants_max_bound"])}
    assert check_constants(constants, json.dumps(tight).encode(), reference)[0]
    loose = {**exact, "bounds": {**tight["bounds"], "xi": 4e-4}}
    ok, reason, _ = check_constants(constants, json.dumps(loose).encode(), reference)
    assert not ok and "exceeds" in reason

    verify = Job("v", "verify", "verify", ("verify", "--suite", "lemmas", "--n-max", "12"))
    lines = reference["verify_lines"][verify.key]
    assert check_verify(verify, "\n".join(lines).replace("#", "0.5").encode(), reference)[0]
    smaller = "\n".join(lines).replace("n <= 12", "n <= 6").encode()
    assert not check_verify(verify, smaller, reference)[0]
    assert not check_verify(verify, "\n".join(lines[:-1]).encode(), reference)[0]


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_code():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.benchrun
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_reports_every_metric(workload, tmp_path):
    result = run.run(workload, seed=3, seconds=0, trace=True, tiny=True, out_dir=tmp_path)
    spec = benchmark_spec()
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] == 2 * sum(j.repeat for j in run.workload_jobs(workload, 3, True))
    for metric in spec["end_to_end"]:
        assert result["end_to_end"][metric["name"]] > 0, metric["name"]
    assert set(result["per_layer"]) == {m["name"] for m in spec["per_layer"]}
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["per_layer"]["fail_ratio"] == 0
    assert result["per_layer"]["cli.self_s"] > 0
    assert result["per_layer"]["bridges.graphical_bridge_counts.calls"] > 0
    assert (tmp_path / f"{workload}-seed3.spans.json").is_file()


@pytest.mark.benchrun
def test_wrong_reference_raises_fail_ratio(tmp_path):
    reference = run.load_reference()
    job = next(j for j in run.workload_jobs("tables", 3, True) if j.kind == "tables")
    reference["tables"][job.key] = "0" * 64
    reference["constants"]["xi"] = "0.3626"
    result = run.run("tables", seed=3, seconds=0, trace=True, tiny=True,
                     reference=reference, out_dir=tmp_path)
    assert not result["correct"]
    assert result["failed"] == 2 * 2  # both jobs, in the untraced and the traced pass
    assert result["per_layer"]["fail_ratio"] > 0
    assert result["end_to_end"]["ok_ratio"] < 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = benchmark_spec()
    done = subprocess.run(
        [*spec["command"], "--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
