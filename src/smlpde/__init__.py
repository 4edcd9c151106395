"""All-at-once structured model learning for PDE systems on uniform grids.

States, physical parameter fields, and a small feed-forward network per
equation are recovered jointly from noisy, incomplete measurements by
minimizing a single regularized objective; a scale-indexed study drives
the penalty weights and data quality toward the full-measurement limit.
"""

from .errors import (BoxViolationError, ConfigError, DivergedError,
                     OracleInfeasibleError)
from .grid import Grid, jet_features
from .measurement import Dataset, MeasurementOp, add_noise, operator_gap
from .mlp import Activation, MlpParams, init_params, lipschitz_bound, param_norm
from .objective import (ObjectiveBreakdown, UBox, Vars, Weights, derive_ubox,
                        r0_value, smooth_max)
from .optimizer import OptimConfig, OptResult, finite_diff_gradcheck, minimize
from .physics import affine_check, apply_physics_array, residual
from .ground_truth import GroundTruthSpec, limit_oracle, make_dataset, simulate

__version__ = "0.1.0"
