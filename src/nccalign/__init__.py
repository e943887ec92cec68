"""Stereo image alignment via normalized cross correlation.

Variants: full 2D NCC (direct and sum-table accelerated), diagonal 1D NCC
(direct and diagonal-prefix accelerated), and a streaming model of the
analog correlator with moving-average mean removal and circuit noise.
"""

from .alignment import (
    BLOCK_INTERPOLATED,
    BLOCK_INVALID,
    BLOCK_VALID,
    BlockGrid,
    DenseDisparity,
    DisparityField,
    estimate_disparity,
    fill_invalid,
    global_correlation,
    improvement_percent,
    interpolate_disparity,
    partition_template,
    random_intensity_perturbation,
    scale_intensity,
    warp,
)
from .diagonal import (
    DiagTables,
    build_diag_tables,
    ncc_diag,
    ncc_diag_fast,
)
from .errors import PgmError, UnalignableError, UndefinedMetricError
from .images import (
    GrayImage,
    GroundTruth,
    Region,
    SyntheticSpec,
    load_pgm,
    make_synthetic_stereo,
    quadrant_pattern,
    save_pgm,
    uniform_pattern,
    validate_image,
)
from .ncc import (
    EPS_VAR,
    OUT_OF_BOUNDS,
    VALID,
    ZERO_VARIANCE,
    BestShift,
    CorrelationMap,
    OpCounter,
    ShiftRange,
    SumTables,
    best_shift,
    build_sum_tables,
    ncc_full_fast,
    ncc_full_naive,
)
from .streaming import (
    MovingAverageConfig,
    NoiseModel,
    PowerBudget,
    PowerComponent,
    dynamic_range_to_noise,
    ncc_stream,
    power_budget,
    rms,
    zero_mean_stream,
)

__version__ = "0.1.0"
