"""The benchmark's job families and the three workloads built from them.

A job is one fresh interpreter running one command, the way a user runs
the CLI.  A family is a group of jobs whose summed wall time is one
end-to-end metric.  Every workload runs every family: its own families
at full size, the other families twice per pass at a small "probe" size.  The
probes keep every end-to-end metric defined (and non-zero) on every
workload, so a change aimed at one family can be checked for "no
change" on the workloads that only touch that family lightly.

The exact jobs take no random input.  The benchmark seed sets the
``rho-mc`` seeds and the sampler seeds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    """One fresh-interpreter command.

    ``kind`` picks the output check: ``tables``, ``verify``,
    ``constants``, ``rho-mc`` or ``sample``.  ``argv`` is what follows
    ``python -m treebridges.cli`` (or ``job.py sample`` for the sampler
    session).  ``repeat`` runs the same command several times in a row.
    """

    id: str
    family: str
    kind: str
    argv: tuple
    repeat: int = 1

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _tables(id_, family, which, n_max):
    return Job(id_, family, "tables", ("tables", "--which", which, "--n-max", str(n_max)))


def _verify(id_, suite, n_max=None):
    argv = ("verify", "--suite", suite)
    if n_max is not None:
        argv += ("--n-max", str(n_max))
    return Job(id_, "verify", "verify", argv)


def _rho(id_, family, samples, horizon, seed, workers=None):
    argv = ("rho-mc", "--samples", str(samples), "--horizon", str(horizon), "--seed", str(seed))
    if workers is not None:
        argv += ("--workers", str(workers))
    return Job(id_, family, "rho-mc", argv)


def _sample(id_, family, n_lo, n_hi, draws, seed):
    argv = ("sample", "--n-lo", str(n_lo), "--n-hi", str(n_hi),
            "--draws", str(draws), "--seed", str(seed))
    return Job(id_, family, "sample", argv)


def _constants(id_, repeat):
    return Job(id_, "constants", "constants", ("constants", "--digits", "12"), repeat)


def _seed(seed: int, slot: int) -> int:
    """A distinct, reproducible program seed per job slot."""
    return seed * 16 + slot


def full_jobs(family: str, seed: int) -> list[Job]:
    """The family's jobs at the sizes its home workload runs."""
    return {
        "tables_trees": [
            _tables("T", family, "T", 2000),
            _tables("N", family, "N", 60),
            _tables("M", family, "M", 150),
        ],
        "tables_bridges": [
            _tables("B", family, "B", 45),
            _tables("irreducible", family, "irreducible", 45),
            _tables("Nprime", family, "Nprime", 45),
        ],
        "tables_G": [_tables("G", family, "G", 11)],
        "verify": [
            _verify("logtransform", "logtransform", 35),
            _verify("lemmas", "lemmas", 45),
            _verify("all", "all"),
        ],
        "constants": [_constants("constants", 3)],
        # about 2k walkers stay alive for most of the scan
        "rho_mc_many": [_rho("rho_mc_many", family, 50_000, 50_000, _seed(seed, 1), 2)],
        # few walkers stay alive, so the blocks are wide
        "rho_mc_long": [_rho("rho_mc_long", family, 4_000, 1_000_000, _seed(seed, 2))],
        "sample": [_sample("sample", family, 20, 34, 20, _seed(seed, 3))],
    }[family]


def probe_jobs(family: str, seed: int) -> list[Job]:
    """One small job of the family, for the workloads it is not home to."""
    pid = family + "_probe"
    return {
        "tables_trees": [_tables(pid, family, "T", 800)],
        "tables_bridges": [_tables(pid, family, "B", 30)],
        "tables_G": [_tables(pid, family, "G", 9)],
        "verify": [_verify(pid, "lemmas", 12)],
        "constants": [_constants(pid, 1)],
        "rho_mc_many": [_rho(pid, family, 20_000, 1_000, _seed(seed, 4), 2)],
        "rho_mc_long": [_rho(pid, family, 300, 100_000, _seed(seed, 5))],
        "sample": [_sample(pid, family, 20, 22, 10, _seed(seed, 6))],
    }[family]


# family -> end-to-end metric
FAMILY_METRICS = {
    "tables_trees": "tables_trees_s",
    "tables_bridges": "tables_bridges_s",
    "tables_G": "tables_G_s",
    "verify": "verify_s",
    "constants": "constants_s",
    "rho_mc_many": "rho_mc_many_s",
    "rho_mc_long": "rho_mc_long_s",
    "sample": "sample_s",
}

# workload -> the families it runs at full size
HOME_FAMILIES = {
    "tables": ("tables_trees", "tables_bridges", "tables_G"),
    "verify": ("verify", "constants"),
    "montecarlo": ("rho_mc_many", "rho_mc_long", "sample"),
}

WORKLOADS = tuple(HOME_FAMILIES)


def workload_jobs(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """Jobs of one pass: a round of probes, the home families at full
    size, and the probes again.

    A probe takes a few tenths of a second, less than the spells in which
    a shared host runs fast or slow, so one probe per pass would give a
    family time that jumps between two levels; two rounds some seconds
    apart sample two spells.  ``tiny`` runs every family once at probe
    size; the benchmark's own tests use it to exercise every code path in
    seconds.
    """
    if tiny:
        return [j for family in FAMILY_METRICS for j in probe_jobs(family, seed)]
    home = HOME_FAMILIES[workload]
    probes = [j for f in FAMILY_METRICS if f not in home for j in probe_jobs(f, seed)]
    return probes + [j for f in home for j in full_jobs(f, seed)] + probes


def main_job_ids(workload: str) -> list[str]:
    """Ids of the full-size jobs of a workload (for ``job.*`` metrics)."""
    return [j.id for f in HOME_FAMILIES[workload] for j in full_jobs(f, 0)]
