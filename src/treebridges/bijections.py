"""The two bijections connecting bridges, lattice paths and shifts.

First: bridges of length 2n correspond to monotone paths (0,0) -> (n,n)
by splitting the increments into the odd- and even-indexed halves and
mapping +1 to Up, -1 to Right in each half.  With ell the number of +1
increments at odd positions, the path area and diamond area satisfy

    area(path) = diamond_area(bridge) + ell * n,

so area mod n and diamond area mod n agree.

Second: pairs (B, i), with B a graphical bridge whose first irreducible
part has length 2j and 0 <= i < j, biject onto the bridges with diamond
area divisible by n.  The map advances the starting point of B by 2i
along the bridge (cyclically); the inverse is found by scanning the n
cyclic shifts for the unique graphical preimage, asserting uniqueness.
"""

from __future__ import annotations

from typing import NamedTuple

from .bridges import (
    Walk,
    _check_bridge,
    _renewal_times,
    diamond_area,
    enumerate_graphical_bridges,
)
from .numtheory import check_size
from .trees import RIGHT, UP


def first_irreducible_length(bridge: Walk) -> int:
    """Length (an even integer) of the first irreducible part."""
    _check_bridge(bridge)
    cuts = _renewal_times(bridge)  # [] for the empty bridge
    if not cuts:
        raise ValueError("first_irreducible_length needs a nonempty graphical bridge")
    return cuts[0]


class _ShiftedPairFields(NamedTuple):
    bridge: Walk
    shift: int


class ShiftedPair(_ShiftedPairFields):
    """A graphical bridge plus a legal shift offset.

    The offset must be an int with 0 <= shift < j, where 2j is the length
    of the bridge's first irreducible part; validation happens on
    construction, and so on _replace, _make and unpickling too.  As a
    tuple it compares equal to a plain (bridge, shift) tuple, which is
    not itself a ShiftedPair.
    """

    __slots__ = ()

    def __new__(cls, bridge: Walk, shift: int):
        j = first_irreducible_length(bridge) // 2  # rejects non-graphical
        check_size("shift", shift, 0, j - 1)
        return super().__new__(cls, bridge, shift)

    # the inherited _make, and _replace through it, call tuple.__new__
    # and would skip the check above
    @classmethod
    def _make(cls, iterable) -> "ShiftedPair":
        return cls(*iterable)

    # unpickled and copied through the constructor in every protocol,
    # where 0 and 1 would otherwise rebuild the tuple unchecked
    def __reduce__(self):
        return type(self), tuple(self)


def enumerate_shifted_pairs(n: int):
    """All ShiftedPairs over graphical bridges of length 2n."""
    for bridge in enumerate_graphical_bridges(n):
        if n == 0:
            continue
        j = first_irreducible_length(bridge) // 2
        for i in range(j):
            yield ShiftedPair(bridge, i)


def shift_bridge(pair: ShiftedPair) -> Walk:
    """Advance the starting point of pair.bridge by 2 * pair.shift.

    Increment t of the result is increment (t + 2*shift) mod 2n of the
    input.  Reading the bridge from a point 2i further along shifts the
    baseline, which changes the diamond area by a multiple of n; the
    output therefore has diamond area divisible by n.

    The naive mirror convention (moving increments to higher indices)
    is not injective over the legal pairs, so this orientation is the
    one certified by the exhaustive bijection checks.
    """
    if not isinstance(pair, ShiftedPair):
        raise TypeError(f"pair must be a ShiftedPair, got {type(pair).__name__} {pair!r}")
    b, i = pair.bridge, pair.shift
    return b[2 * i :] + b[: 2 * i]


def unshift_bridge(bridge: Walk) -> ShiftedPair:
    """The unique ShiftedPair mapping onto the given bridge.

    Requires diamond_area(bridge) divisible by n.  Scans all n cyclic
    shifts for graphical candidates with a legal offset and fails loudly
    unless exactly one preimage exists, since multiplicity either way
    would falsify the underlying bijection.
    """
    _check_bridge(bridge)
    n = len(bridge) // 2
    if n == 0:
        raise ValueError("unshift_bridge needs a nonempty bridge")
    if diamond_area(bridge) % n != 0:
        raise ValueError("diamond area must be divisible by n")
    found = []
    for i in range(n):
        # candidate whose shift by 2i reproduces the input
        cand = bridge[-2 * i :] + bridge[: -2 * i]
        cuts = _renewal_times(cand)
        if cuts is not None and 2 * i < cuts[0]:
            found.append(ShiftedPair(cand, i))
    if len(found) != 1:
        raise RuntimeError(
            f"expected exactly one preimage, found {len(found)} for {bridge}"
        )
    return found[0]


def bridge_to_path(bridge: Walk) -> tuple[tuple[str, ...], int]:
    """Map a bridge of length 2n to (path (0,0) -> (n,n), ell).

    The odd-indexed increments, then the even-indexed increments, are
    read off with +1 -> Up and -1 -> Right; ell is the number of +1
    increments at odd positions.  Satisfies
    path_area(path) = diamond_area(bridge) + ell * n.
    """
    _check_bridge(bridge)
    odds = bridge[0::2]
    evens = bridge[1::2]
    path = tuple(UP if v == 1 else RIGHT for v in odds + evens)
    ell = sum(1 for v in odds if v == 1)
    return path, ell


def path_to_bridge(path: tuple[str, ...]) -> Walk:
    """Inverse of bridge_to_path: interleave the two halves back."""
    if len(path) % 2:
        raise ValueError("path length must be even")
    n = len(path) // 2
    if path.count(UP) != n:
        raise ValueError(f"path must end at ({n}, {n})")
    bad = set(path) - {UP, RIGHT}
    if bad:
        raise ValueError(f"bad path steps: {sorted(bad)}")
    first, second = path[:n], path[n:]
    bridge = [0] * (2 * n)
    bridge[0::2] = [1 if s == UP else -1 for s in first]
    bridge[1::2] = [1 if s == UP else -1 for s in second]
    return tuple(bridge)
