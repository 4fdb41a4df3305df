"""Benchmark runner for treebridges.

    python3 bench/run.py --workload {tables,verify,montecarlo} --seed N \
        --seconds S --trace {0,1}

Run from a checkout: the program is imported from ``src/``.  Each job
is a fresh interpreter, run one after another (a closed loop with one
client).  A pass runs every job of the workload once; passes repeat
while the next one still fits in ``--seconds`` (at least one runs), and
each metric is the median over passes.  End-to-end times are reported
at a reference host speed (see ``calibrate`` and ``job_times``), which
takes out the drift of a shared host's speed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then traced passes, and reports the per-layer metrics
from the spans (see ``tracer.py``) plus the tracing overhead.  Every
metric is printed by name with its unit; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A run
record (machine, versions, seed, every job's result) and, for a traced
run, the merged spans are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from checks import check_output  # noqa: E402
from tracer import TRACED, self_times  # noqa: E402
from workloads import FAMILY_METRICS, WORKLOADS, main_job_ids, workload_jobs  # noqa: E402

# fresh `import treebridges.cli` timings taken before each pass
SETUP_PER_PASS = 2
JOB_TIMEOUT_S = 60.0
# End-to-end job times are reported at the host speed at which
# calibrate() takes this long; about its mean on the 2-core machine where
# the benchmark was defined.  See "Noise and the speed scale" in README.md.
CALIBRATION_REF_S = 0.2
# setup_s is reported at the host speed at which a fresh ``import numpy``
# takes this long; numpy is most of ``import treebridges.cli``, and its
# load time drifts apart from the speed the job times see.
IMPORT_REF_S = 0.13

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    **{metric: "s" for metric in FAMILY_METRICS.values()},
}

_STAT_UNITS = {"s": "s", "calls": "count", "misses": "count", "us_per_walk": "us",
               "first_s": "s", "draw_us": "us"}

PER_LAYER = {
    "process.import_s": "s",
    "process.cpu_s": "s",
    "process.cpu_wall_ratio": "ratio",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    **{f"{mod}.{fn}.{stat}": _STAT_UNITS[stat] for mod, fn, _tag, stats in TRACED for stat in stats},
    "walks_mc.stopped_ratio": "ratio",
    **{f"job.{w}.{job_id}.s": "s" for w in WORKLOADS for job_id in main_job_ids(w)},
    "trace.overhead_ratio": "ratio",
    "host.calibration_s": "s",
    "fail_ratio": "ratio",
}


@dataclass
class Pass:
    results: list
    elapsed_s: float
    # calibrate() times, one just before each job and one after the last
    calibration_s: list


@dataclass
class JobResult:
    id: str
    family: str
    command: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    stdout_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    info: list = field(default_factory=list)
    # one {"spans", "counters"} record per traced process, kept in memory
    traces: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # rho-mc's default worker count comes from here; jobs set it explicitly
    env.pop("TREEBRIDGES_WORKERS", None)
    return env


def spawn(cmd, env, stdout_path: Path, stderr_path: Path, timeout: float):
    """Run one process to completion; returns (wall, cpu, rss_mb, exit code, timed out)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        expired = threading.Event()

        def kill():
            expired.set()
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # ended just as the timer fired
                pass

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    # ru_maxrss is in KiB on Linux
    return wall, cpu, usage.ru_maxrss / 1024, proc.returncode, expired.is_set()


def calibrate(env) -> float:
    """Wall time of ``calibrate.py``, a fixed job that none of the
    program's code runs in."""
    start = perf_counter()
    subprocess.run([sys.executable, str(BENCH / "calibrate.py")], env=env, cwd=ROOT,
                   stdout=subprocess.DEVNULL, timeout=JOB_TIMEOUT_S, check=True)
    return perf_counter() - start


def import_time(env, module: str = "treebridges.cli") -> float:
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=JOB_TIMEOUT_S, check=True)
    return float(done.stdout)


def run_job(job, env, reference, scratch: Path, traced: bool) -> JobResult:
    result = JobResult(job.id, job.family, job.key)
    for rep in range(job.repeat):
        cmd = [sys.executable]
        spans = scratch / "spans.json"
        if traced:
            spans.unlink(missing_ok=True)
            cmd += [str(BENCH / "job.py"), "--spans", str(spans)]
            cmd += list(job.argv) if job.kind == "sample" else ["cli", *job.argv]
        elif job.kind == "sample":
            cmd += [str(BENCH / "job.py"), *job.argv]
        else:
            cmd += ["-m", "treebridges.cli", *job.argv]
        stdout, stderr = scratch / "stdout", scratch / "stderr"
        wall, cpu, rss, code, timed_out = spawn(cmd, env, stdout, stderr, JOB_TIMEOUT_S)
        out = stdout.read_bytes()
        if traced and spans.is_file():
            result.traces.append(json.loads(spans.read_text()))
        result.wall_s += wall
        result.cpu_s += cpu
        result.rss_mb = max(result.rss_mb, rss)
        result.stdout_bytes += len(out)
        result.attempted += 1
        if timed_out:
            ok, reason, info = False, f"timed out after {JOB_TIMEOUT_S} s", {}
        elif code != 0:
            tail = stderr.read_bytes()[-300:].decode(errors="replace")
            ok, reason, info = False, f"exit code {code}: {tail}", {}
        else:
            ok, reason, info = check_output(job, out, reference)
        result.info.append(info)
        if not ok:
            result.failed += 1
            result.reasons.append(reason)
            print(f"FAILED {job.id} ({job.key}): {reason}", file=sys.stderr)
    return result


def run_pass(jobs, env, reference, scratch: Path, traced: bool, tag: str) -> Pass:
    start = perf_counter()
    results, calibration = [], []
    for job in jobs:
        calibration.append(calibrate(env))
        results.append(run_job(job, env, reference, scratch, traced))
    calibration.append(calibrate(env))
    elapsed = perf_counter() - start
    print(f"pass {tag}: {elapsed:.2f} s, {'traced' if traced else 'untraced'}", file=sys.stderr)
    return Pass(results, elapsed, calibration)


def job_times(p: Pass, scaled: bool) -> list[float]:
    """Each job's wall time; ``scaled``: at the reference host speed.

    The host runs in spells of fast and slow that last seconds, so each
    job is scaled by the calibrations just before and just after it:
    times CALIBRATION_REF_S over their mean."""
    if not scaled:
        return [r.wall_s for r in p.results]
    cal = p.calibration_s
    return [r.wall_s * CALIBRATION_REF_S / statistics.mean(cal[i:i + 2])
            for i, r in enumerate(p.results)]


def end_to_end_metrics(setup: list, passes: list, scaled: bool) -> dict:
    """Medians over the passes of the (``scaled``) job times; ``setup_s``
    is the median of ``setup``."""
    jobs = [r for p in passes for r in p.results]
    attempted = sum(r.attempted for r in jobs)
    times = [job_times(p, scaled) for p in passes]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(t) for t in times),
        "peak_rss_mb": max(r.rss_mb for r in jobs),
        "ok_ratio": (attempted - sum(r.failed for r in jobs)) / attempted,
    }
    for family, metric in FAMILY_METRICS.items():
        metrics[metric] = statistics.median(
            sum(t for t, r in zip(ts, p.results) if r.family == family)
            for ts, p in zip(times, passes)
        )
    return metrics


def _traced_pass_layers(results) -> dict:
    """Per-layer figures of one traced pass, from its jobs' spans."""
    self_s = defaultdict(float)
    calls = Counter()
    counters = Counter()
    first_s, draws_ns = 0.0, []
    walks = walk_ns = 0
    for r in results:
        for data in r.traces:
            spans = data["spans"]
            own = self_times(spans)
            counters.update(data["counters"])
            seen_n = set()
            for sid, _parent, name, start, dur, tag in sorted(spans, key=lambda s: s[3]):
                self_s[name] += own[sid] / 1e9
                calls[name] += 1
                if name == "walks_mc.estimate_zero_area_prob":
                    walks += tag
                    walk_ns += dur
                elif name == "walks_mc.sample_uniform_graphical_bridge":
                    # the first draw for each n builds the suffix table
                    if tag in seen_n:
                        draws_ns.append(dur)
                    else:
                        seen_n.add(tag)
                        first_s += dur / 1e9
    layers = {}
    for mod, fn, _tag, stats in TRACED:
        name = f"{mod}.{fn}"
        if "s" in stats:
            layers[f"{name}.s"] = self_s[name]
        if "calls" in stats:
            layers[f"{name}.calls"] = calls[name]
    layers["bridges.graphical_bridge_counts.misses"] = counters["bridges.graphical_bridge_counts.misses"]
    layers["walks_mc.estimate_zero_area_prob.us_per_walk"] = walk_ns / 1e3 / walks if walks else 0.0
    layers["walks_mc.sample_uniform_graphical_bridge.first_s"] = first_s
    layers["walks_mc.sample_uniform_graphical_bridge.draw_us"] = (
        statistics.median(draws_ns) / 1e3 if draws_ns else 0.0
    )
    layers["cli.self_s"] = self_s["cli.main"]
    layers["cli.stdout_bytes"] = sum(r.stdout_bytes for r in results)
    mc = [(i["samples"], i["capped_fraction"]) for r in results for i in r.info if "samples" in i]
    samples = sum(n for n, _ in mc)
    layers["walks_mc.stopped_ratio"] = (
        1 - sum(n * capped for n, capped in mc) / samples if samples else 0.0
    )
    return layers


def per_layer_metrics(workload: str, setup: list, base: list, traced: list) -> dict:
    """Medians over the traced passes, plus process and job times from
    the untraced passes."""
    per_pass = [_traced_pass_layers(p.results) for p in traced]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    cpu = statistics.median(sum(r.cpu_s for r in p.results) for p in base)
    wall = statistics.median(sum(r.wall_s for r in p.results) for p in base)
    traced_wall = statistics.median(sum(r.wall_s for r in p.results) for p in traced)
    metrics["process.import_s"] = statistics.median(setup)
    metrics["process.cpu_s"] = cpu
    metrics["process.cpu_wall_ratio"] = cpu / wall
    metrics["trace.overhead_ratio"] = traced_wall / wall
    metrics["host.calibration_s"] = statistics.median(
        c for p in (*base, *traced) for c in p.calibration_s)
    for w in WORKLOADS:
        for job_id in main_job_ids(w):
            metrics[f"job.{w}.{job_id}.s"] = 0.0 if w != workload else statistics.median(
                sum(r.wall_s for r in p.results if r.id == job_id) for p in base
            )
    everything = [r for p in (*base, *traced) for r in p.results]
    metrics["fail_ratio"] = (sum(r.failed for r in everything)
                             / sum(r.attempted for r in everything))
    return metrics


def git_rev() -> str:
    """HEAD's commit from ``.git`` when the checkout has one, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine_info() -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        memory_mb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20
    except (ValueError, OSError):
        memory_mb = None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "memory_mb": memory_mb,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_rev": git_rev(),
    }


def _summary(result: JobResult) -> dict:
    return {f.name: getattr(result, f.name) for f in fields(result) if f.name != "traces"}


def load_reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
        reference: dict | None = None, out_dir: Path | None = None) -> dict:
    """One benchmark run; returns the result line's fields plus both metric sets."""
    reference = load_reference() if reference is None else reference
    out_dir = BENCH / "out" if out_dir is None else out_dir
    scratch = out_dir / f"{workload}-seed{seed}-trace{int(trace)}"
    scratch.mkdir(parents=True, exist_ok=True)
    env = child_env()
    jobs = workload_jobs(workload, seed, tiny)

    import_time(env)  # writes bytecode caches on a fresh checkout
    setup: list[float] = []
    # a fresh `import numpy` just after each setup import
    numpy_import: list[float] = []

    def next_pass(traced: bool, tag: str) -> Pass:
        # spread over the run, the import timings meet the same changes in
        # host speed as the jobs do
        for _ in range(SETUP_PER_PASS):
            setup.append(import_time(env))
            numpy_import.append(import_time(env, "numpy"))
        return run_pass(jobs, env, reference, scratch, traced, tag)

    start = perf_counter()
    base = [next_pass(False, "base0")]
    traced = [next_pass(True, "traced0")] if trace else []
    growing = traced if trace else base
    while perf_counter() - start + growing[-1].elapsed_s <= seconds:
        growing.append(next_pass(trace, f"{'traced' if trace else 'base'}{len(growing)}"))

    setup_scaled = [IMPORT_REF_S * s / n for s, n in zip(setup, numpy_import)]
    e2e = end_to_end_metrics(setup_scaled, base, scaled=True)
    layers = per_layer_metrics(workload, setup, base, traced) if trace else {}
    everything = [r for p in (*base, *traced) for r in p.results]
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)

    if trace:
        merged = [{"pass": i, "job": r.id, **data}
                  for i, p in enumerate(traced) for r in p.results for data in r.traces]
        spans_out = out_dir / f"{workload}-seed{seed}.spans.json"
        spans_out.write_text(json.dumps(merged, separators=(",", ":")))

    units = {**END_TO_END, **PER_LAYER}
    reported = layers if trace else e2e
    record = {
        "machine": machine_info(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "setup_import_s": setup,
        "numpy_import_s": numpy_import,
        "passes": {
            kind: [{"calibration_s": p.calibration_s, "jobs": [_summary(r) for r in p.results]}
                   for p in passes]
            for kind, passes in (("untraced", base), ("traced", traced))
        },
        "unscaled_end_to_end": end_to_end_metrics(setup, base, scaled=False),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in {**e2e, **layers}.items()},
    }
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    shutil.rmtree(scratch)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": reported[name], "unit": units[name]} for name in
                    (PER_LAYER if trace else END_TO_END)},
        "end_to_end": e2e,
        "per_layer": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treebridges" / "cli.py").is_file():
        print(f"error: no treebridges sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:56s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
