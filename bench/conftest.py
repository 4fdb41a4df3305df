"""Skip the benchmark runs unless ``bench`` is named on the command line.

``python3 -m pytest bench`` runs every test here.  A plain ``pytest`` at
the repository root collects this directory too; there the tests marked
``benchrun`` (tiny benchmark runs in subprocesses, about 50 s) are
skipped, so the program's own suite keeps its wall time.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent


def pytest_configure(config):
    config.addinivalue_line("markers", "benchrun: starts benchmark runs in subprocesses")


def _names_bench(config) -> bool:
    for arg in config.args:
        path = (config.invocation_params.dir / arg.split("::")[0]).resolve()
        if path == BENCH or BENCH in path.parents:
            return True
    return False


def pytest_collection_modifyitems(config, items):
    if _names_bench(config):
        return
    skip = pytest.mark.skip(reason="benchmark run; name bench on the command line to run it")
    for item in items:
        if "benchrun" in item.keywords:
            item.add_marker(skip)
