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
after each pair of increments, _packed_layers.  It is pruned to states
whose area can still return to 0, by a closed form for the least area
that the remaining pairs add (see _packed_layers).  It has two readers:
graphical_bridge_counts, which reads its (0, 0) counts, and the exact
sampler sample_uniform_graphical_bridge, which keeps its layers and
draws backward from them.

The bridge DP and the two residue DPs (count_bridges_area_divisible
here, count_paths_by_final_step in trees) pack each vector of counts
into one int: field i, field_width(n) bits from bit i * field_width(n),
holds the count at area i, or at area residue i mod n.  A DP step is
then a few shifts, adds and masks on whole vectors.  No field carries
into the next: every count the DPs form for walks of up to 2n steps,
or for lattice paths to (n, n), counts a set of such walks or paths,
so it is at most 4^n < 2^(2n+1), and field_width(n) is 2n + 1 bits
rounded up to whole bytes.  Whole bytes let a reader take any field
back as one slice of the int's little-endian bytes, as the sampler does.

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
than _packed_layers' closing bound and shares no code with it, so the
enumeration stays an independent check of the DP.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .numtheory import check_size

Walk = tuple  # increments over {+1, -1}

# increment pairs in lexicographic order with +1 < -1
_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
# the sampler's pair order; it matters only for which bridge each
# (n, seed) draws
_DRAW_PAIRS = ((1, 1), (-1, -1), (1, -1), (-1, 1))

# the exhaustive oracles: count_bridges_area_divisible_bruteforce walks
# all binomial(2n, n) bridges depth first, 0.26 s at n = 10, while the
# depth-first enumerate_graphical_bridges visits only prefixes its cuts
# keep, 0.02 s for the 5,440 graphical bridges at 10 (2-core x86-64,
# Python 3.11)
ENUMERATION_CAP = 10
# the two packed residue DPs, count_bridges_area_divisible and the path
# DP in trees: 0.03-0.05 s each at n = 100, 0.4-0.6 s each at 200,
# within 20 MB peak resident memory (2-core x86-64, Python 3.11)
RESIDUE_DP_CAP = 200
# the packed, pruned (height, area) DP behind graphical_bridge_counts:
# measured 0.07 s / 16 MB at n = 100, 0.45 s at 150 and 1.8-2.1 s / 27 MB
# peak resident memory at 200 on a 2-core x86-64 host with Python 3.11
BRIDGE_DP_CAP = 200
# the sampler's kept table of bridge DP layers never grows past this
# cap: its first draw at n = 100 measured 0.08-0.16 s and 32 MB peak
# resident memory, later draws 0.3-0.9 ms, on a 2-core x86-64 host with
# Python 3.11; at 200 the kept layers would hold about 540 MB
SAMPLING_CAP = 100


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
    """Signed area (sum of positions) of a lazy walk, whose steps are
    the ints -1, 0 and +1."""
    # True and 0.0 equal 1 and 0, as in _check_even_length
    if sum(map(lazy.count, (1, 0, -1))) != len(lazy) or not set(map(type, lazy)) <= {int}:
        raise ValueError("lazy walk steps must be -1, 0 or +1")
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


def field_width(n: int) -> int:
    """Bits per field of the packed DPs for walks of up to 2n steps or
    paths to (n, n): whole bytes, at least 2n + 1 bits, so that a field
    holds any count up to 4^n."""
    return 8 * (n // 4 + 1)


def _packed_layers(n_max: int) -> Iterator[list]:
    """The forward graphical-bridge DP, one packed int per half-height.

    Yields n_max + 1 lists, indexed by half-height a = height/2 (Python's
    negative indices hold the negative a).  Entry a of layer k packs the
    counts by sigma, field sigma at bit sigma * field_width(n_max): the
    number of walk prefixes of length 2k that reach (2a, sigma) with
    every even-prefix area non-negative.  A block moves a by +1, -1 or
    0 (the last in two ways), so the new entry a sums entries a - 1 and
    a + 1 and twice entry a, then adds a to every sigma, a shift by a
    fields; for a < 0 the right shift drops exactly the states whose
    sigma would turn negative.

    The prune drops a state when sigma plus the least area that the
    remaining r = n_max - k blocks can add on the way back to height 0
    is still positive: its area can never return to 0.  After j of its
    r blocks a path from half-height a to 0 is at least max(a - j, j - r),
    and the least area follows that floor: straight down to
    b = (a + s - r)/2, s = (r - a) mod 2 blocks held at b, straight up.
    It adds a-1, ..., b, then s*b, then b+1, ..., 0: a(a-1)/2 - b^2 + s*b
    in all; no path closes from |a| > r.  Below height 0 the prune also
    drops a state at half-height -(j+1) with sigma < j(j+1)/2: the climb
    back passes half-heights -j, ..., -1 and would drive an even-prefix
    area negative.  Both prunes keep a range of sigma, one mask.  A state
    that can close is never dropped, nor is any state on a prefix
    leading to it, so its count is the unpruned count.  The mixed block
    holds (0, 0) fixed, so (0, 0) can close from every layer: the counts
    for all lengths up to 2*n_max are exact, not only the last.

    No field carries into the next: every field, and every field of the
    sum before the shift, counts prefixes of 2k <= 2*n_max steps, so it
    is at most 4^n_max < 2^field_width(n_max).  Callers validate n_max.
    """
    w = field_width(n_max)
    vecs = [0] * (2 * n_max + 3)  # half-heights -n_max - 1, ..., n_max + 1
    vecs[0] = 1
    yield vecs
    for r in reversed(range(n_max)):  # r blocks left after this one
        top = min(n_max - r, r)  # reachable and still able to close
        nxt = [0] * len(vecs)
        for a in range(-top, top + 1):
            v = vecs[a - 1] + (vecs[a] << 1) + vecs[a + 1]
            s = (r - a) % 2
            b = (a + s - r) // 2
            room = b * b - s * b - a * (a - 1) // 2  # the largest sigma that can close
            # the way back up from a < 0 first adds a+1, ..., -1
            least = a * (a + 1) // 2 if a < 0 else 0
            if v and room >= least:
                # a sigma shift by a; for a < 0 it drops sigma < least
                v = (v >> (least - a) * w) << least * w if a < 0 else v << a * w
                nxt[a] = v & ((1 << (room + 1) * w) - 1)
        vecs = nxt
        yield vecs


# typed, so that True is not served the cached entry for 1
@lru_cache(maxsize=None, typed=True)
def graphical_bridge_counts(n_max: int) -> tuple:
    """Counts of graphical bridges of lengths 0, 2, ..., 2*n_max.

    Reads field 0 of the half-height 0 entry of each layer of
    _packed_layers, holding one layer at a time.  The production route
    for these counts is series.bridge_counts_from_trees; this DP is its
    independent oracle.
    """
    check_size("n_max", n_max, 0, BRIDGE_DP_CAP)
    low = (1 << field_width(n_max)) - 1
    return tuple(vecs[0] & low for vecs in _packed_layers(n_max))


# the forward layers of the last table built, through at least the
# largest n drawn so far: layer k holds the entries of layer k of
# _packed_layers as little-endian bytes, one per half-height
_layers: tuple = ()


def _layers_through(n: int) -> tuple:
    global _layers
    if len(_layers) <= n:
        # grown by a quarter, so an ascending session builds few tables;
        # not doubled, as a build costs about n^4.3
        grown = min(SAMPLING_CAP, max(n, (len(_layers) - 1) * 5 // 4))
        _layers = tuple(
            [v.to_bytes((v.bit_length() + 7) // 8, "little") for v in vecs]
            for vecs in _packed_layers(grown)
        )
    return _layers


def sample_uniform_graphical_bridge(n: int, seed: int):
    """Exactly uniform graphical bridge of length 2n.

    Draws backward from the forward layers of _packed_layers.
    Starting at (0, 0) in layer n, each increment pair is chosen with
    weight equal to the layer k - 1 count of the state it starts from;
    those weights sum to the layer k count of the current state, so
    every bridge is drawn with probability 1 / b_n.  A count is one
    whole-byte slice of its layer's bytes: field sigma of the entry at
    half-height a.  Layers built for a larger n hold the same counts at
    every state a draw can reach, so one table, built through at least
    the largest n drawn so far, serves all smaller n and a draw depends
    only on (n, seed).  The draws use integer ranges, so huge counts
    lose no precision.
    """
    check_size("n", n, 0, SAMPLING_CAP)
    check_size("seed", seed, 0)
    layers = _layers_through(n)
    size = field_width(len(layers) - 1) // 8
    # bound once: int.from_bytes binds the class method on every lookup
    read = int.from_bytes
    rng = random.Random(seed)
    pairs: list[tuple] = []
    a = s = 0  # half-height and area
    for k in range(n, 0, -1):
        here = read(layers[k][a][s * size : (s + 1) * size], "little")
        # the block into layer k added a to the area; a state with a
        # nonzero count has s >= a, so the earlier area is never negative
        s -= a
        prev = layers[k - 1]
        lo, hi = s * size, (s + 1) * size
        # the pairs of _DRAW_PAIRS start from half-heights a - 1, a + 1, a, a
        up = read(prev[a - 1][lo:hi], "little")
        down = read(prev[a + 1][lo:hi], "little")
        flat = read(prev[a][lo:hi], "little")
        weights = (up, down, flat, flat)
        total = sum(weights)
        if total != here:
            raise AssertionError(f"the layer {k - 1} weights do not sum to the layer {k} count")
        pick = rng.randrange(total)
        for pair, wt in zip(_DRAW_PAIRS, weights):
            if pick < wt:
                pairs.append(pair)
                a -= (pair[0] + pair[1]) // 2
                break
            pick -= wt
    return tuple(step for pair in reversed(pairs) for step in pair)


def count_bridges_area_divisible(n: int) -> int:
    """Bridges of length 2n whose diamond area is divisible by n (DP).

    One packed int per half-height h, in _packed_layers' list layout,
    holds the counts by area mod n, n fields of field_width(n) bits,
    residue r in field r.  A block moves h by +1, -1 or 0 (the last in
    two ways), then adds the new h to the area, which rotates the fields
    by h: a shift left by h mod n fields, the fields pushed past n
    folded back to the bottom.  After k blocks only |h| <= n - k can
    still return to 0.  No sign constraint on the area, so this counts
    all bridges, not just graphical ones.  No field carries: each counts
    walks of 2k <= 2n steps, at most 4^n.  This is the oracle for
    N'(n) = 2T(n) and never reads the tree sieve; the Nprime table reads
    2 * plane_tree_counts instead.
    """
    check_size("n", n, 1, RESIDUE_DP_CAP)
    w = field_width(n)
    span = n * w
    full = (1 << span) - 1
    vecs = [0] * (2 * n + 3)  # half-heights -n - 1, ..., n + 1
    vecs[0] = 1
    for k in range(1, n + 1):
        top = min(k, n - k)  # reachable and still able to return to 0
        nxt = [0] * len(vecs)
        for h in range(-top, top + 1):
            v = (vecs[h - 1] + (vecs[h] << 1) + vecs[h + 1]) << (h % n) * w
            nxt[h] = (v & full) | (v >> span)
        vecs = nxt
    return vecs[0] & ((1 << w) - 1)


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
    _check_bridge(bridge)
    return "".join("U" if step == 1 else "D" for step in bridge)
