"""Exact combinatorics of plane trees, graphical bridges and graphical
degree sequences, with the limit constants tying them together.

Everything integer-valued is exact (int or Fraction); floating point
enters only in the constants module, and there every value carries an
explicit error bound.
"""

from .bijections import (
    ShiftedPair,
    bridge_to_path,
    enumerate_shifted_pairs,
    first_irreducible_length,
    path_to_bridge,
    shift_bridge,
    unshift_bridge,
)
from .bridges import (
    count_bridges_area_divisible,
    diamond_area,
    enumerate_graphical_bridges,
    graphical_bridge_counts,
    irreducible_decomposition,
    is_graphical_bridge,
    is_irreducible_bridge,
    sample_uniform_graphical_bridge,
)
from .constants import (
    BoundedReal,
    count_growth_constant,
    exact_zero_area_prob,
    gamma_prefactor,
    gamma_three_quarters,
    tree_series,
    xi,
)
from .graphseq import (
    all_graph_degree_sequences,
    count_graphical_sequences,
    graphical_sequence_counts,
    is_graphical_sequence,
    ratio_table,
)
from .series import (
    bridge_counts_from_trees,
    inverse_log_transform,
    irreducible_bridge_counts,
    log_transform,
    mean_inverse_parts,
    parts_count_distribution,
    parts_negbin_tv_distance,
)
from .trees import (
    count_paths_area_divisible,
    count_paths_by_final_step,
    path_area,
    plane_tree_count,
    plane_tree_counts,
    zero_sum_multisets,
)
from .verify import run_suite
from .walks_mc import (
    McEstimate,
    WalkOutcome,
    estimate_zero_area_prob,
    simulate_stopped_walk,
)

__version__ = "0.1.0"

__all__ = [
    "BoundedReal",
    "McEstimate",
    "ShiftedPair",
    "WalkOutcome",
    "all_graph_degree_sequences",
    "bridge_counts_from_trees",
    "bridge_to_path",
    "count_bridges_area_divisible",
    "count_graphical_sequences",
    "count_growth_constant",
    "count_paths_area_divisible",
    "count_paths_by_final_step",
    "diamond_area",
    "enumerate_graphical_bridges",
    "enumerate_shifted_pairs",
    "estimate_zero_area_prob",
    "exact_zero_area_prob",
    "first_irreducible_length",
    "gamma_prefactor",
    "gamma_three_quarters",
    "graphical_bridge_counts",
    "graphical_sequence_counts",
    "inverse_log_transform",
    "irreducible_bridge_counts",
    "irreducible_decomposition",
    "is_graphical_bridge",
    "is_graphical_sequence",
    "is_irreducible_bridge",
    "log_transform",
    "mean_inverse_parts",
    "parts_count_distribution",
    "parts_negbin_tv_distance",
    "path_area",
    "path_to_bridge",
    "plane_tree_count",
    "plane_tree_counts",
    "ratio_table",
    "run_suite",
    "sample_uniform_graphical_bridge",
    "shift_bridge",
    "simulate_stopped_walk",
    "tree_series",
    "unshift_bridge",
    "xi",
    "zero_sum_multisets",
]
