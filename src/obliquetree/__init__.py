"""Greedy oblique regression trees with verified algebraic structure.

Split search under restricted candidate-direction spaces (axis-aligned,
hill climbing, sparse random projections, and an exact exhaustive oracle
for small nodes), breadth-first tree growth, orthonormal decision-stump
expansions, weakest-link pruning, a ridge-function model library with
exact total variation, and an experiment harness that checks the
training-error guarantees those pieces imply.
"""

from .dataset import (
    CsvFormatError,
    Dataset,
    Direction,
    axis_direction,
    load_csv,
    node_stats,
    project,
    root_index_set,
    save_csv,
    subset,
)
from .experiments import (
    BoundViolationError,
    ExperimentConfig,
    RateReport,
    estimate_imse,
    run_fast_rate_experiment,
    run_pruning_experiment,
    run_rate_experiment,
    verify_impurity_bound,
)
from .pruning import (
    PenalizedObjective,
    PruneSequence,
    PruneStep,
    default_lambda_grid,
    holdout_lambda,
    penalized_objective,
    select_subtree,
    weakest_link_sequence,
)
from .ridge import (
    RidgeComponent,
    RidgeModel,
    TVReport,
    eval_ridge,
    eval_ridge_batch,
    generate_dataset,
    l1_tv_norm,
    leaf_additivity_gap_1d,
    node_size_profile,
    node_tv_profile,
    total_variation,
)
from .splitting import (
    NoValidSplitError,
    SearchStrategy,
    Split,
    SuboptimalityReport,
    best_threshold,
    estimate_suboptimality,
    search_axis_aligned,
    search_exhaustive_oblique,
    search_hill_climb,
    sse_decrease,
)
from .stumps import (
    EMPTY_NODE_ID,
    Expansion,
    StumpFeature,
    build_expansion,
    stump,
    verify_impurity_identity,
    verify_orthonormality,
    verify_training_recursion,
)
from .tree import (
    Tree,
    TreeNode,
    grow,
    node_rows,
    predict,
    predict_batch,
    prune_to_depth,
    training_error,
)

__version__ = "0.1.0"
