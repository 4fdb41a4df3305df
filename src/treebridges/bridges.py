"""Walks with +-1 increments, diamond area, and graphical bridges.

A walk is a tuple of +1/-1 increments; a bridge is a walk of even length
whose increments sum to zero.  The diamond area of a walk of length 2m is

    sigma = (1/2) * sum_{i=1..m} X_{2i}

where X_j is the position after j steps.  Sampling only even times makes
sigma the ordinary signed area of the walk's lazy version (pairs of
increments averaged).

A bridge is graphical when sigma = 0 and every even-prefix diamond area
is non-negative.  A graphical bridge is irreducible when no proper
nonempty even prefix is itself a graphical bridge; splitting at every
prefix that completes a graphical bridge (a renewal time: position 0 and
accumulated area 0) decomposes a graphical bridge uniquely into
irreducible parts.  One scan over the even prefixes, _renewal_times,
gives graphicality, the renewal times and irreducibility, behind one
check that rejects odd lengths, increments other than the ints +-1
and, for a bridge, a nonzero sum.

Graphical bridges are counted by one forward DP over (height, area)
after each pair of increments, bridge_layers.  It is pruned to states
whose area can still return to 0, by a closed form for the least area
that the remaining pairs add (see bridge_layers).  It serves both
graphical_bridge_counts and the exact sampler in walks_mc, which draws
backward from its layers.

The exhaustive oracle enumerate_graphical_bridges walks increment pairs
depth first, keeping (pairs left, height, sigma), so every prefix is
built once and shared by all its extensions.  With r pairs left after
the one just placed and half-height a = height/2, it cuts a prefix
when any of these holds; none cuts a prefix of a graphical bridge:
  1. sigma < 0.  Every even-prefix area of a graphical bridge is >= 0.
  2. |a| > r.  A pair moves the half-height by at most 1, so r pairs
     cannot bring it back to 0.
  3. sigma > r(r-1)/2.  A walk at half-height 0 after r more pairs is
     at half-height >= -(r - j) after j of them, and pair j adds that
     half-height to sigma; so the r pairs lower sigma by at most
     sum_{j=1..r} (r - j) = r(r-1)/2, and sigma cannot return to 0.
At r = 0 the cuts leave only height 0 and sigma 0, so every leaf is a
graphical bridge.  Pairs are tried in the order (1,1), (1,-1), (-1,1),
(-1,-1), so the output is lexicographic with +1 < -1.  Cut 3 is looser
than bridge_layers' closing bound and shares no code with it, so the
enumeration stays an independent check of the DP.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .numtheory import check_size

Walk = tuple  # increments over {+1, -1}

# increment pairs in lexicographic order with +1 < -1
_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# the exhaustive oracles: count_bridges_area_divisible_bruteforce walks
# all binomial(2n, n) bridges depth first, 0.26 s at n = 10, while the
# depth-first enumerate_graphical_bridges visits only prefixes its cuts
# keep, 0.02 s for the 5,440 graphical bridges at 10 (2-core x86-64,
# Python 3.11)
ENUMERATION_CAP = 10
# the two residue DPs, count_bridges_area_divisible and the path DP in
# trees: 0.10 s and 0.08 s at n = 100, 1.0 s and 0.8 s at 200, each within
# 20 MB peak resident memory (2-core x86-64, Python 3.11)
RESIDUE_DP_CAP = 200
# the pruned (height, area) DP behind graphical_bridge_counts: measured
# 1.5 s / 36 MB at n = 100, 8 s / 47 MB at 150 and 25 s / 80 MB peak
# resident memory at 200 on a 2-core x86-64 host with Python 3.11
BRIDGE_DP_CAP = 200


def _check_even_length(walk: Walk) -> None:
    if len(walk) % 2:
        raise ValueError(f"walk length must be even, got {len(walk)}")
    # True and 1.0 equal 1, so the counts alone let bools and floats in
    if walk.count(1) + walk.count(-1) != len(walk) or not set(map(type, walk)) <= {int}:
        raise ValueError("walk increments must be +1 or -1")


def _check_bridge(walk: Walk) -> None:
    _check_even_length(walk)
    if sum(walk) != 0:
        raise ValueError("not a bridge: increments do not sum to 0")


def diamond_area(walk: Walk) -> int:
    """Half the sum of the walk's even-indexed positions (exact): the
    last even-prefix area, or 0 for the empty walk."""
    areas = even_prefix_areas(walk)
    return areas[-1] if areas else 0


def lazify(walk: Walk) -> tuple:
    """Average consecutive increment pairs, giving a {-1, 0, +1} walk."""
    _check_even_length(walk)
    return tuple(
        (walk[i] + walk[i + 1]) // 2 for i in range(0, len(walk), 2)
    )


def lazy_walk_area(lazy: tuple) -> int:
    """Signed area (sum of positions) of a lazy walk."""
    height = 0
    area = 0
    for step in lazy:
        height += step
        area += height
    return area


def even_prefix_areas(walk: Walk) -> list[int]:
    """Diamond areas of the even prefixes: [sigma_2, sigma_4, ...]."""
    _check_even_length(walk)
    height = 0
    sigma = 0
    out = []
    for i in range(0, len(walk), 2):
        height += walk[i] + walk[i + 1]
        # height is even at even times, so sigma stays integral
        sigma += height // 2
        out.append(sigma)
    return out


def _renewal_times(bridge: Walk) -> list[int] | None:
    """The even times where height and area are both 0, the last being
    len(bridge), or None once an even-prefix area is negative or if the
    last is not 0.  Unchecked: callers pass a validated bridge."""
    height = 0
    sigma = 0
    cuts = []
    for i in range(0, len(bridge), 2):
        height += bridge[i] + bridge[i + 1]
        sigma += height // 2
        if sigma < 0:
            return None
        if height == sigma == 0:
            cuts.append(i + 2)
    return cuts if sigma == 0 else None


def is_graphical_bridge(bridge: Walk) -> bool:
    """True iff sigma(bridge) = 0 and all even-prefix areas are >= 0."""
    _check_bridge(bridge)
    return _renewal_times(bridge) is not None


def irreducible_decomposition(bridge: Walk) -> list[Walk]:
    """Split a graphical bridge at its renewal times.

    A renewal time is an even time where the position and the
    accumulated diamond area are both zero, i.e. where a proper prefix
    completes a graphical bridge.  The returned parts are irreducible
    and concatenate to the input.  Rejects non-graphical input.
    """
    _check_bridge(bridge)
    cuts = _renewal_times(bridge)
    if cuts is None:
        raise ValueError("irreducible_decomposition needs a graphical bridge")
    return [bridge[i:j] for i, j in zip([0] + cuts, cuts)]


def is_irreducible_bridge(bridge: Walk) -> bool:
    """True iff the bridge is graphical and has no interior renewal time.

    Equivalently: no proper nonempty even prefix is itself a graphical
    bridge, so the decomposition has exactly one part.  The empty bridge
    is graphical but not irreducible.
    """
    _check_bridge(bridge)
    return _renewal_times(bridge) == [len(bridge)]


def enumerate_bridges(n: int) -> Iterator[Walk]:
    """All bridges of length 2n, in lexicographic order with +1 < -1."""
    check_size("n", n, 0)
    for plus_positions in combinations(range(2 * n), n):
        bridge = [-1] * (2 * n)
        for p in plus_positions:
            bridge[p] = 1
        yield tuple(bridge)


def enumerate_graphical_bridges(n: int) -> Iterator[Walk]:
    """All graphical bridges of length 2n, lexicographic with +1 < -1.

    A depth-first walk over increment pairs that shares every prefix;
    the cuts are proved in the module docstring.  Exhaustive, so n is
    capped at ENUMERATION_CAP.
    """
    check_size("n", n, 0, ENUMERATION_CAP)

    def extend(walk: Walk, height: int, sigma: int, r: int) -> Iterator[Walk]:
        if not r:
            yield walk
            return
        r -= 1  # pairs left after the next one
        most = r * (r - 1) // 2
        for pair in _PAIRS:
            h = height + pair[0] + pair[1]
            s = sigma + h // 2
            # cuts 1 and 3, then cut 2, of the module docstring
            if 0 <= s <= most and -2 * r <= h <= 2 * r:
                yield from extend(walk + pair, h, s, r)

    yield from extend((), 0, 0, n)


# two-step transition blocks for the DP over even times: a pair of
# increments moves the height by +2, -2 or 0, and the mixed block (0)
# stands for the two orderings (+1,-1), (-1,+1)
_BLOCKS = ((2, 1), (-2, 1), (0, 2))


def bridge_layers(n_max: int) -> Iterator[dict]:
    """Forward layers of the graphical-bridge DP, pruned to states that
    can still close by block n_max.

    Yields n_max + 1 dicts.  Layer k maps (height, sigma) after k blocks
    to the number of walk prefixes of length 2k that reach it with every
    even-prefix area non-negative; its (0, 0) entry is the number of
    graphical bridges of length 2k.

    The prune drops a state when sigma plus the least area that the
    remaining r = n_max - k blocks can add on the way back to height 0
    is still positive: its area can never return to 0.  A block moves
    the half-height by +1, -1 or 0, then adds the new half-height to
    sigma.  After j of its r blocks a path from half-height a to 0 is at
    least max(a - j, j - r), and the least area follows that floor:
    straight down to b = (a + s - r)/2, s = (r - a) mod 2 blocks held at
    b, straight up.  It adds a-1, ..., b, then s*b, then b+1, ..., 0:
    a(a-1)/2 - b^2 + s*b in all; no path closes from |a| > r.

    Below height 0 the prune also drops a state at half-height -(j+1)
    with sigma < j(j+1)/2: the climb back passes half-heights -j, ...,
    -1 and would drive an even-prefix area negative.  A state that can
    close is never dropped, nor is any state on a prefix leading to it,
    so its count is the unpruned count.  The mixed block holds (0, 0)
    fixed, so (0, 0) can close from every layer: the counts for all
    lengths up to 2*n_max are exact, not only the last.  Callers
    validate n_max.
    """
    states = {(0, 0): 1}
    yield states
    for r in reversed(range(n_max)):  # r blocks left after this one
        # room[a + n_max]: the largest sigma at half-height a that can close, or -1
        room = [-1] * (2 * n_max + 1)
        for a in range(-r, r + 1):
            s = (r - a) % 2
            b = (a + s - r) // 2
            room[a + n_max] = b * b - s * b - a * (a - 1) // 2
        nxt: dict = {}
        for (height, sigma), ways in states.items():
            for dh, weight in _BLOCKS:
                h2 = height + dh
                half = h2 // 2
                s2 = sigma + half
                if s2 < 0 or s2 > room[half + n_max]:
                    continue
                # the way back up from half < 0 first adds half+1, ..., -1
                if half < 0 and s2 < half * (half + 1) // 2:
                    continue
                key = (h2, s2)
                nxt[key] = nxt.get(key, 0) + weight * ways
        states = nxt
        yield states


# typed, so that True is not served the cached entry for 1
@lru_cache(maxsize=None, typed=True)
def graphical_bridge_counts(n_max: int) -> tuple:
    """Counts of graphical bridges of lengths 0, 2, ..., 2*n_max.

    Reads the (0, 0) entry of each layer of bridge_layers, holding one
    layer at a time.  The production route for these counts is
    series.bridge_counts_from_trees; this DP is its independent oracle.
    """
    check_size("n_max", n_max, 0, BRIDGE_DP_CAP)
    return tuple(layer.get((0, 0), 0) for layer in bridge_layers(n_max))


def count_bridges_area_divisible(n: int) -> int:
    """Bridges of length 2n whose diamond area is divisible by n (DP).

    One vector of counts by area mod n per half-height h: a block moves
    h by +1, -1 or 0 (the last in two ways), then adds the new h to the
    area, which rotates the vector by h.  After k blocks only |h| <=
    n - k can still return to 0.  No sign constraint on the area, so
    this counts all bridges, not just graphical ones.  This is the
    oracle for N'(n) = 2T(n) and never reads the tree sieve; the Nprime
    table reads 2 * plane_tree_counts instead.
    """
    check_size("n", n, 1, RESIDUE_DP_CAP)
    zero = [0] * n
    vecs = [[1] + zero[1:]]  # half-heights -top, ..., top
    for k in range(1, n + 1):
        top = min(k, n - k)
        pad = [zero] * (top - len(vecs) // 2 + 1)
        padded = pad + vecs + pad
        vecs = []
        for h in range(-top, top + 1):
            below, here, above = padded[h + top : h + top + 3]
            s = [a + 2 * b + c for a, b, c in zip(below, here, above)]
            vecs.append(s[-h % n :] + s[: -h % n])
    return vecs[0][0]


def count_bridges_area_divisible_bruteforce(n: int) -> int:
    """Exhaustive oracle for count_bridges_area_divisible (n <= 10).

    Walks every bridge depth first by increment pairs, sharing
    prefixes: a pair adds the new half-height to the area, a prefix
    whose height the pairs left cannot bring back to 0 is cut, and each
    bridge is counted at its own leaf, with no memo and no residue
    shortcut.
    """
    check_size("n", n, 1, ENUMERATION_CAP)

    def walk(r: int, height: int, sigma: int) -> int:
        if not r:
            return int(sigma % n == 0)
        r -= 1  # pairs left after the next one
        count = 0
        for a, b in _PAIRS:
            h = height + a + b
            if -2 * r <= h <= 2 * r:
                count += walk(r, h, sigma + h // 2)
        return count

    return walk(n, 0, 0)


def bridge_to_string(bridge: Walk) -> str:
    """Serialize increments as a string over {U, D} (+1 -> U, -1 -> D)."""
    return "".join("U" if step == 1 else "D" for step in bridge)
