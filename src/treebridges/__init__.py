"""Exact combinatorics of plane trees, graphical bridges and graphical
degree sequences, with the limit constants tying them together.

Everything integer-valued is exact (int or Fraction).  The constants
module's floats carry explicit error bounds; ratio_table,
parts_negbin_tv_distance and the Monte Carlo estimate are plain floats.
"""

from types import ModuleType as _ModuleType

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
    count_irreducible_bridges,
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
    parts_count_table,
    parts_negbin_tv_distance,
)
from .trees import (
    count_paths_area_divisible,
    count_paths_by_final_step,
    path_area,
    plane_tree_count,
    plane_tree_counts,
    zero_sum_multiset_row,
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

# every public function and class imported above; the submodules that
# those imports bind are left out
__all__ = sorted(
    k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, _ModuleType)
)
