from __future__ import annotations

import ast
import subprocess
import sys
import textwrap

import pytest

from treebridges import bridges


@pytest.fixture(scope="session")
def graphical_bridges_by_n():
    """Exhaustive graphical bridge lists for small n, computed once."""
    return {n: tuple(bridges.enumerate_graphical_bridges(n)) for n in range(8)}


def _unpack(packed: int, width: int) -> list[int]:
    """The fields of packed, lowest first, in linear time: width is a
    whole number of bytes, so each field is one slice of the bytes."""
    size = width // 8
    data = packed.to_bytes(-(-packed.bit_length() // width) * size, "little")
    return [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]


@pytest.fixture
def unpack():
    """The field reader for the width round-trip tests of the packed DPs."""
    return _unpack


# the import contract: (name, step, modules that must still be unloaded
# after it), run in order in one fresh interpreter.  Importing the CLI
# loads none of numpy, multiprocessing and concurrent.futures (rho-mc
# forks its own processes, with no process pool), and no step loads
# socket, which only a process that forks imports (about 4 ms after
# numpy); numpy costs a cold command about 0.1 s of import, and the
# sampler, the bridge DP and the Frobenius sweep run on Python ints
# alone.  Without a bytecode cache dataclasses (with inspect, ast and
# dis) costs a cold start about 6 ms and json and csv about 2 ms each;
# json loads only to print JSON, and csv never, since the CSV tables
# join their rows themselves
IMPORT_STEPS = [
    (
        "import",
        "import treebridges.cli as cli",
        {
            "numpy",
            "socket",
            "multiprocessing",
            "concurrent.futures",
            "dataclasses",
            "inspect",
            "json",
            "csv",
        },
    ),
    (
        "verify",
        "assert cli.main(['verify', '--suite', 'all']) == 0",
        {"numpy", "socket", "json", "csv"},
    ),
    (
        "sampler",
        "from treebridges import bridges\n"
        "bridges.sample_uniform_graphical_bridge(30, 1)\n"
        "bridges.graphical_bridge_counts(30)",
        {"numpy", "socket"},
    ),
    (
        "tables G",
        "assert cli.main(['tables', '--which', 'G', '--n-max', '60']) == 0",
        {"numpy", "socket", "json"},
    ),
    (
        "tables T",
        "assert cli.main(['tables', '--which', 'T', '--n-max', '60']) == 0",
        {"numpy", "socket", "json", "csv"},
    ),
    ("constants", "assert cli.main(['constants', '--digits', '12']) == 0", {"numpy", "socket"}),
]


@pytest.fixture(scope="session")
def modules_loaded_by_step():
    """For each step of IMPORT_STEPS, the modules of its unloaded set
    that are loaded (counted from interpreter start) after it ran."""
    script = textwrap.dedent(
        f"""
        import sys
        start = set(sys.modules)
        loaded = {{}}
        for name, step, unloaded in {IMPORT_STEPS!r}:
            exec(step)
            loaded[name] = sorted((set(sys.modules) - start) & unloaded)
        print(repr(loaded))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    return {name: set(modules) for name, modules in loaded.items()}
