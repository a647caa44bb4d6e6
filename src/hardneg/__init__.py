"""Optimal hard-negative embeddings via closed-form arc and segment distances.

The minimum chord distance between two bounded great-circle arcs on the
unit hypersphere (and, as a variant, between two line segments) is solved
exactly by enumerating the nine active-set cases of the box-constrained
first-order conditions. The optimal distances feed four metric-learning
losses and a desk-scale trainer with verification oracles throughout.
"""

__version__ = "0.1.0"

from .arc_solver import ArcProblem, KktCandidate, KktSolution, optimal_arc_distance
from .batch_engine import (
    LabeledBatch,
    OptimalDistanceTable,
    build_pairs,
    combination_count,
    optimal_distance_table,
)
from .errors import (
    ConfigError,
    DegenerateArc,
    DegenerateSegment,
    DimensionMismatch,
    DivergenceDetected,
    HardNegError,
    InputError,
    InsufficientSamples,
    InvalidBatchShape,
    NearZeroVector,
    NoNegatives,
    NonFiniteInput,
    OddClassCount,
    ParseError,
)
from .geometry import (
    ObjectiveCoeffs,
    OrthoBasis,
    gram_schmidt_basis,
    normalize,
    objective_coeffs,
    point_on_arc,
)
from .gradients import finite_diff_grad, loss_and_grad
from .losses import (
    LossConfig,
    LossValue,
    hphn_triplet,
    lifted_structure,
    loop_hphn,
    loop_ls,
    loop_ms,
    loop_ms_mining,
    loop_triplet,
    ms_loss,
    ms_mining,
    pairwise,
    triplet,
)
from .oracle import GridResult, grid_min_arc, grid_min_segment
from .segment_solver import SegmentProblem, SegmentSolution, optimal_segment_distance
from .trainer import (
    EvalReport,
    SyntheticSpec,
    TrainState,
    f1,
    generate_synthetic,
    homoscedasticity_check,
    nmi,
    recall_at_k,
    train,
)
