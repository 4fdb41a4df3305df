"""In-memory spans around the public functions of each treebridges module.

The wrappers are installed from outside the package, in the job's own
interpreter, so nothing under ``src/`` changes.  Each wrapped function
is rebound in every module namespace that holds it (``series`` and
``walks_mc`` import ``graphical_bridge_counts`` by name, and
``verify.SUITES`` keeps direct references to the checks).

Per-element predicates such as ``is_graphical_bridge`` and
``diamond_area`` stay unwrapped: they run millions of times and the
tracer would dominate them.

A span is ``[id, parent, name, start_ns, duration_ns, tag]``.  Parent 0
is the job itself.  A generator's span covers only the time spent inside
its resumptions, so the consumer's own work between items is not
charged to it.  ``tag`` keeps one positional argument where the metrics
need it (the sample count of a Monte Carlo estimate, the ``n`` of a
sampler draw).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter_ns

# (module, function, index of the positional argument kept as the tag,
#  the statistics run.py reports for it).  The CLI's span is reported as
# ``cli.self_s``; ``first_s`` and ``draw_us`` split the sampler's draws.
TRACED = (
    ("bridges", "graphical_bridge_counts", None, ("s", "calls", "misses")),
    ("bridges", "count_bridges_area_divisible", None, ("s", "calls")),
    ("bridges", "enumerate_graphical_bridges", None, ("s",)),
    ("trees", "plane_tree_count", None, ("s", "calls")),
    ("trees", "zero_sum_multisets", None, ("s",)),
    ("trees", "count_paths_area_divisible", None, ("s", "calls")),
    ("trees", "count_paths_by_final_step", None, ("s",)),
    ("numtheory", "divisors", None, ("s", "calls")),
    ("numtheory", "euler_phi", None, ("s", "calls")),
    ("graphseq", "count_graphical_sequences", None, ("s",)),
    ("graphseq", "all_graph_degree_sequences", None, ("s",)),
    ("series", "parts_count_distribution", None, ("s", "calls")),
    ("series", "log_transform", None, ("s", "calls")),
    ("series", "irreducible_bridge_counts", None, ("s",)),
    ("constants", "tree_series", None, ("s",)),
    ("constants", "gamma_three_quarters", None, ("s",)),
    ("constants", "count_growth_constant", None, ("s",)),
    ("constants", "exact_zero_area_prob", None, ("s",)),
    ("walks_mc", "estimate_zero_area_prob", 0, ("s", "us_per_walk")),
    ("walks_mc", "sample_uniform_graphical_bridge", 0, ("first_s", "draw_us")),
    ("cli", "main", None, ()),
    # the 13 checks of ``verify --suite all``
    ("verify", "check_log_transform_doubles_tree_counts", None, ("s",)),
    ("verify", "check_mean_inverse_parts_identity", None, ("s",)),
    ("verify", "check_irreducible_counts_match_enumeration", None, ("s",)),
    ("verify", "check_parts_distribution_normalized", None, ("s",)),
    ("verify", "check_negbin_distance_shrinks", None, ("s",)),
    ("verify", "check_path_map_roundtrip", None, ("s",)),
    ("verify", "check_shift_map_bijection", None, ("s",)),
    ("verify", "check_path_count_identity", None, ("s",)),
    ("verify", "check_bridge_walk_counts_agree", None, ("s",)),
    ("verify", "check_growth_constant_consistency", None, ("s",)),
    ("verify", "check_bridge_counts_match_enumeration", None, ("s",)),
    ("verify", "check_degree_sequence_oracle", None, ("s",)),
    ("verify", "check_multiset_formula", None, ("s",)),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [0]
        self._next_id = 1

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        return sid, self._stack[-1]

    def wrap(self, name: str, fn, tag_index=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, tag_index)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            tag = args[tag_index] if tag_index is not None else None
            self._stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans.append([sid, parent, name, start, end - start, tag])

        return wrapper

    def _wrap_generator(self, name: str, fn, tag_index):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            tag = args[tag_index] if tag_index is not None else None
            inner = fn(*args, **kwargs)
            start = None
            busy = 0
            try:
                while True:
                    self._stack.append(sid)
                    t0 = perf_counter_ns()
                    start = t0 if start is None else start
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += perf_counter_ns() - t0
                        self._stack.pop()
                    yield item
            finally:
                inner.close()
                self.spans.append([sid, parent, name, start, busy, tag])

        return wrapper

    def install(self) -> dict:
        """Wrap every TRACED function in place.

        Returns the original functions by span name, for cache counters.
        """
        import treebridges.cli  # noqa: F401  (loads every module)
        from treebridges import verify

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "treebridges"]
        originals = {}
        for mod, fn, tag, _stats in TRACED:
            name = f"{mod}.{fn}"
            orig = getattr(sys.modules[f"treebridges.{mod}"], fn)
            wrapped = self.wrap(name, orig, tag)
            originals[name] = orig
            for module in modules:
                hits = [attr for attr, value in vars(module).items() if value is orig]
                for attr in hits:
                    setattr(module, attr, wrapped)
            for suite, entries in verify.SUITES.items():
                verify.SUITES[suite] = tuple(
                    (wrapped if check is orig else check, ceiling) for check, ceiling in entries
                )
        return originals

    def dump(self, path: str, originals: dict) -> None:
        name = "bridges.graphical_bridge_counts"
        counters = {f"{name}.misses": originals[name].cache_info().misses}
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": counters}, fh, separators=(",", ":"))


def self_times(spans: list) -> dict:
    """Span id -> own duration minus the durations of its child spans."""
    own = {sid: dur for sid, _parent, _name, _start, dur, _tag in spans}
    for _sid, parent, _name, _start, dur, _tag in spans:
        if parent in own:
            own[parent] -= dur
    return own
