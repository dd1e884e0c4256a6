"""povdyn: income-distribution simulation and poverty dynamics.

Reallocating geometric Brownian motion over an agent population, per-year
calibration of the reallocation rate to an observed bottom-half income
share, and poverty transition/persistence statistics across configurable
poverty lines. Fully deterministic for a given seed, independent of worker
count. Pure Python on NumPy and SciPy: each kernel has one NumPy
implementation and nothing is compiled.
"""

__version__ = "0.1.0"

from .calibrate import (CalibrationConfig, CalibrationResult, YearFit,
                        effective_tau, fit_series, fit_tau_year, replay,
                        replay_with_effective)
from .poverty import (BplGiniReport, IncomePanel, PersistenceReport,
                      PooledMetrics, PovertyLineSeries, PovertyPanel,
                      TrajectoryBundle, TransitionProbs, TransitionReport,
                      bpl_gini_series, classify, gini, persistence_probs,
                      persistence_report, pooled_metrics,
                      poverty_line_from_hcr, sample_paths, transition_probs,
                      transition_report)
from .rgbm import (ModelParams, Population, bottom_share, init_lognormal,
                   sigma_ln_for_share, step)
from .rng import INIT_TAG, STEP_TAG, RngStream
from .series import AnnualSeries, interpolate_missing, missing_year_blocks


def backend_name() -> str:
    """Name of the kernel implementation; always 'python' (NumPy)."""
    return "python"


__all__ = [
    "__version__", "backend_name",
    "AnnualSeries", "interpolate_missing", "missing_year_blocks",
    "ModelParams", "Population", "RngStream", "INIT_TAG", "STEP_TAG",
    "init_lognormal", "step", "bottom_share", "sigma_ln_for_share",
    "CalibrationConfig", "CalibrationResult", "YearFit", "fit_tau_year",
    "fit_series", "effective_tau", "replay", "replay_with_effective",
    "IncomePanel", "PovertyLineSeries", "PovertyPanel", "TransitionProbs",
    "TransitionReport", "PersistenceReport", "PooledMetrics",
    "BplGiniReport", "TrajectoryBundle", "poverty_line_from_hcr", "classify",
    "transition_probs", "transition_report", "persistence_probs",
    "persistence_report", "pooled_metrics", "gini", "bpl_gini_series",
    "sample_paths",
]
