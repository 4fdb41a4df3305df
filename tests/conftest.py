from __future__ import annotations

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
