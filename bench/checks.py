"""Output checks: one per command kind.

Each check gets the job, its stdout bytes and the reference data from
``reference.json``, and returns ``(ok, reason, info)``.  A job that
exits non-zero, times out or prints a wrong answer counts as failed.
The references are frozen at one commit: table digests (which
``test_bench.py`` rebuilds from independent identities), the verify
lines with their decimals masked, the reference constants and the
widest accepted error bound of each.
"""

from __future__ import annotations

import hashlib
import json
import re

# decimals in the verify details: measured values, free to move with precision
_DECIMAL = re.compile(r"\d+\.\d+(?:e[-+]?\d+)?")


def _option(argv, name):
    return argv[argv.index(name) + 1]


def check_tables(job, out: bytes, ref) -> tuple[bool, str, dict]:
    want = ref["tables"].get(job.key)
    if want is None:
        return False, f"no reference digest for {job.key!r}", {}
    got = hashlib.sha256(out).hexdigest()
    if got != want:
        return False, f"digest {got[:12]} != reference {want[:12]}", {}
    return True, "", {}


def mask_decimals(text: str) -> list[str]:
    """The lines of ``text`` with every decimal number replaced by ``#``."""
    return [_DECIMAL.sub("#", line) for line in text.splitlines()]


def check_verify(job, out: bytes, ref) -> tuple[bool, str, dict]:
    """Every line as frozen, decimals aside: the same checks, each at the
    same sizes (``checked n <= 35``), each ``ok``, and the ``k of k
    checks passed`` tally."""
    want = ref["verify_lines"][job.key]
    got = mask_decimals(out.decode())
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return False, f"line {i + 1} is {g!r}, want {w!r}", {}
    if len(got) != len(want):
        return False, f"{len(got)} lines, want {len(want)}", {}
    return True, "", {}


def check_constants(job, out: bytes, ref) -> tuple[bool, str, dict]:
    """Each interval holds the reference value and is no wider than the
    frozen bound, so a speed-up cannot come from a looser bound."""
    payload = json.loads(out)
    for name, exact in ref["constants"].items():
        value, bound = payload[name], payload["bounds"][name]
        if not abs(value - float(exact)) <= bound:
            return False, f"{name} = {value} +- {bound} misses {exact}", {}
        if not bound <= ref["constants_max_bound"][name]:
            return False, f"{name} bound {bound} exceeds {ref['constants_max_bound'][name]}", {}
    return True, "", {}


def check_rho_mc(job, out: bytes, ref) -> tuple[bool, str, dict]:
    payload = json.loads(out)
    samples = int(_option(job.argv, "--samples"))
    info = {"samples": samples, "capped_fraction": payload["capped_fraction"]}
    if payload["samples"] != samples or payload["estimate"] is None:
        return False, f"bad payload {payload}", info
    rho = float(ref["constants"]["rho"])
    slack = 5 * payload["std_error"] + payload["capped_fraction"]
    if abs(payload["estimate"] - rho) > slack:
        return False, f"estimate {payload['estimate']} is more than {slack} from rho", info
    return True, "", info


def is_zero_area_graphical(steps: str) -> bool:
    """A U/D string of even length with zero sum, zero diamond area and
    no negative even-prefix area.

    The diamond area after 2k steps is half the sum of the positions at
    times 2, 4, ..., 2k; positions at even times are even, so doubling
    keeps the arithmetic in integers.
    """
    if len(steps) % 2 or set(steps) - {"U", "D"}:
        return False
    height = doubled_area = 0
    for i, step in enumerate(steps):
        height += 1 if step == "U" else -1
        if i % 2:
            doubled_area += height
            if doubled_area < 0:
                return False
    return height == 0 and doubled_area == 0


def check_sample(job, out: bytes, ref) -> tuple[bool, str, dict]:
    lo, hi = int(_option(job.argv, "--n-lo")), int(_option(job.argv, "--n-hi"))
    draws = int(_option(job.argv, "--draws"))
    want_n = [n for n in range(lo, hi + 1) for _ in range(draws)]
    lines = out.decode().splitlines()
    if len(lines) != len(want_n):
        return False, f"{len(lines)} bridges, want {len(want_n)}", {}
    for n, line in zip(want_n, lines):
        got_n, steps = line.split()
        if int(got_n) != n or len(steps) != 2 * n or not is_zero_area_graphical(steps):
            return False, f"bad bridge for n = {n}: {line}", {}
    return True, "", {"draws": len(lines)}


CHECKS = {
    "tables": check_tables,
    "verify": check_verify,
    "constants": check_constants,
    "rho-mc": check_rho_mc,
    "sample": check_sample,
}


def check_output(job, out: bytes, ref) -> tuple[bool, str, dict]:
    """Dispatch on the job kind; malformed output is a failure, not a crash."""
    try:
        return CHECKS[job.kind](job, out, ref)
    except (ValueError, KeyError, IndexError, TypeError, UnicodeDecodeError) as exc:
        return False, f"unreadable output: {exc!r}", {}
