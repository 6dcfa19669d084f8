"""igopt: natural-gradient black-box optimization.

Quantile-weighted natural-gradient step engines over parametric
distribution families (Bernoulli, Gaussian, restricted Boltzmann machines),
the continuous-time flow they discretize, Fisher-matrix estimation with
reliability checks, and a config-driven experiment runner.
"""

from . import families, fisher, flow, normal, objectives, weights
from .engine import (
    StepReport,
    adapt_dt,
    cem_step,
    igo_ml_step,
    igo_step,
    lift_noisy,
    smoothed_cem_step,
    step_diagnostics,
    vanilla_step,
    weighted_ml,
)
from .rng import substream
from .weights import (
    RankedWeights,
    WeightScheme,
    compute_quantile_weights,
    pbil_schedule,
    signed_median,
    table,
    truncation,
)

__version__ = "0.1.0"

__all__ = [
    "families", "fisher", "flow", "normal", "objectives", "weights",
    "igo_step", "vanilla_step", "igo_ml_step", "weighted_ml", "cem_step",
    "smoothed_cem_step", "step_diagnostics", "adapt_dt",
    "lift_noisy", "StepReport",
    "WeightScheme", "RankedWeights", "compute_quantile_weights",
    "truncation", "signed_median", "table", "pbil_schedule",
    "substream",
]
