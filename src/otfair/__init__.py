"""Post-training fairness for binary classifiers via continuous optimal
transport: stochastic dual ascent with random Fourier feature potentials,
plus discrete-OT and quantile post-processing baselines."""

from . import synthetic
from .cot import (COT_EPS_THETA, DivergenceError, DualPair, OtConfig,
                  Regularizer, alpha, conjugate, cot_run, dual_objective,
                  dual_update, estimate_reg_w1, theta_update)
from .data import (Dataset, GroupKey, InfeasibleRateError, Schema, SchemaError,
                   UnfairnessSchedule, load_dataset, resample_positive_rate,
                   train_test_split)
from .dot import (DOT_EPS_THETA, Coupling, dot_run, dot_theta_update,
                  optimal_coupling_1d)
from .dpp import QuantileMap, dpp_transform, fit_dpp
from .metrics import (EmpiricalDistribution, err_at_threshold, pooled, sdd,
                      spdd, w1_barycenter, wasserstein1_1d)
from .model import DegenerateLabelsError, LogisticModel, score_batch, train_lr
from .rff import (DualPotential, RffMap, eval_features, eval_potential,
                  grad_potential_input, make_rff)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
