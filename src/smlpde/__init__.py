"""All-at-once structured model learning for PDE systems on uniform grids.

States, physical parameter fields, and a small feed-forward network per
equation are recovered jointly from noisy, incomplete measurements by
minimizing a single regularized objective; a scale-indexed study drives
the penalty weights and data quality toward the full-measurement limit.
"""

from .errors import (BoxViolationError, ConfigError, DivergedError,
                     OracleInfeasibleError)
from .grid import (Field, Grid, bochner_norm, jet_dimension, jet_features,
                   spatial_derivative, sup_norm, time_derivative)
from .measurement import (Dataset, MeasurementOp, add_noise, apply,
                          boundary_trace, operator_gap)
from .mlp import (Activation, DualGradient, MlpParams, backprop, forward,
                  grad_input, init_params, lipschitz_bound, param_norm)
from .objective import (ObjectiveBreakdown, UBox, Vars, Weights, derive_ubox,
                        r0_value, smooth_max)
from .optimizer import OptimConfig, OptResult, finite_diff_gradcheck, minimize
from .physics import PhysicalParams, affine_check, apply_physics_array, residual
from .ground_truth import GroundTruthSpec, limit_oracle, make_dataset, simulate

__version__ = "0.1.0"
