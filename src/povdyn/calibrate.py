"""Fitting the reallocation rate to an observed inequality series.

For each year the noise vector is drawn once and frozen, which makes the
objective |simulated bottom-half share - target| a deterministic function
of the rate. The share is non-decreasing in the rate (reallocation
transfers toward below-mean agents), so the signed gap is bracketed and
bisected; a golden-section fallback covers numerically non-monotone cases,
and unreachable targets clamp to the nearer bracket endpoint with a
divergence warning instead of aborting a long historical run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataio import config_digest
from .errors import (DataError, NonContiguousSeriesError,
                     UndefinedShareError)
from .poverty import IncomePanel
from .rgbm import (ModelParams, Population, apply_rate, bottom_share_of,
                   step, step_components)
from .rng import RngStream
from .series import AnnualSeries

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class CalibrationConfig:
    """Search bracket, stopping rules, and smoothing window."""

    tau_min: float = -0.5
    tau_max: float = 0.5
    tolerance: float = 1e-4
    max_iterations: int = 200
    smoothing_window: int = 5
    # forward state during fitting: "fitted" uses each year's fitted rate,
    # "effective" re-steps under the trailing-window average instead
    forward_rate: str = "fitted"
    divergence_threshold: float = 0.05

    def __post_init__(self):
        if not self.tau_min < self.tau_max:
            raise ValueError("tau bracket must satisfy tau_min < tau_max")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.smoothing_window < 1:
            raise ValueError("smoothing_window must be >= 1")
        if self.forward_rate not in ("fitted", "effective"):
            raise ValueError("forward_rate must be 'fitted' or 'effective'")


@dataclass
class YearFit:
    """Result of fitting a single year."""

    tau: float
    population: Population
    residual: float
    clamped: bool = False
    diverged: bool = False


@dataclass
class CalibrationResult:
    """Fitted rates, their smoothed version, and both share trajectories."""

    tau: AnnualSeries
    tau_effective: AnnualSeries
    residuals: AnnualSeries
    replay_shares: AnnualSeries
    fitted_shares: AnnualSeries
    divergent_years: tuple[int, ...] = ()
    clamped_years: tuple[int, ...] = ()


def _share_or_zero(incomes: np.ndarray, degenerate: list[int],
                   year: int) -> float:
    """Bottom share with the degenerate-population rescue.

    A non-positive income total (only reachable for tiny populations under
    extreme noise) leaves the share undefined; record 0.0 and note the
    year so long runs survive with a loud flag instead of aborting.
    """
    try:
        return bottom_share_of(incomes, 0.5)
    except UndefinedShareError:
        degenerate.append(int(year))
        return 0.0


def _search_tau(gap, lo: float, hi: float, tolerance: float,
                max_iterations: int) -> tuple[float, float, bool]:
    """Locate the rate minimizing |gap| on [lo, hi].

    Returns (tau, |gap(tau)|, clamped). ``gap`` must be deterministic;
    monotone non-decreasing is assumed but not required (golden-section
    fallback when the endpoint signs are reversed).
    """
    g_lo = gap(lo)
    g_hi = gap(hi)
    if abs(g_lo) <= tolerance or abs(g_hi) <= tolerance:
        if abs(g_lo) <= abs(g_hi):
            return lo, abs(g_lo), False
        return hi, abs(g_hi), False
    if g_lo > 0 and g_hi < 0:
        # endpoint signs reversed: numerically non-monotone objective
        return _golden_section(gap, lo, hi, tolerance, max_iterations)
    if g_lo > 0 or g_hi < 0:
        # same sign at both endpoints: target unreachable inside bracket
        if abs(g_lo) <= abs(g_hi):
            return lo, abs(g_lo), True
        return hi, abs(g_hi), True

    best_tau, best_abs = (lo, abs(g_lo)) if abs(g_lo) < abs(g_hi) else (hi, abs(g_hi))
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        if abs(g_mid) < best_abs:
            best_tau, best_abs = mid, abs(g_mid)
        if abs(g_mid) <= tolerance:
            return mid, abs(g_mid), False
        if g_mid > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 4.0 * np.finfo(float).eps * max(1.0, abs(hi)):
            break
    return best_tau, best_abs, False


def _golden_section(gap, lo: float, hi: float, tolerance: float,
                    max_iterations: int) -> tuple[float, float, bool]:
    """Golden-section minimization of |gap| on [lo, hi]."""
    f = lambda t: abs(gap(t))
    a, b = lo, hi
    c = a + _INV_PHI2 * (b - a)
    d = a + _INV_PHI * (b - a)
    yc, yd = f(c), f(d)
    for _ in range(max_iterations):
        if yc < yd:
            b, d, yd = d, c, yc
            c = a + _INV_PHI2 * (b - a)
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * (b - a)
            yd = f(d)
        if min(yc, yd) <= tolerance or (b - a) < 1e-12:
            break
    tau = c if yc < yd else d
    return tau, f(tau), False


def _fit_one(state: Population, target_s50: float, params: ModelParams,
             cfg: CalibrationConfig, rng: RngStream
             ) -> tuple[float, float, bool, np.ndarray, np.ndarray]:
    """Fit one year's rate under frozen noise.

    Returns (tau, residual, clamped, base, relief) where the stepped
    incomes for any rate ``t`` are ``apply_rate(base, relief, t, dt)``.
    """
    if not (0.0 < target_s50 < 1.0):
        raise ValueError(f"target share must be in (0, 1), got {target_s50!r}")
    base, relief = step_components(state, params, rng)
    dt = params.dt

    # the reallocation term sums to zero, so total income after the step is
    # the same for every rate; a non-positive total (tiny degenerate
    # populations) leaves the share undefined for the whole bracket
    if float(np.sum(base)) <= 0.0:
        return 0.0, abs(target_s50), True, base, relief

    def gap(tau: float) -> float:
        return (bottom_share_of(apply_rate(base, relief, tau, dt), 0.5)
                - target_s50)

    tau, residual, clamped = _search_tau(gap, cfg.tau_min, cfg.tau_max,
                                         cfg.tolerance, cfg.max_iterations)
    return tau, residual, clamped, base, relief


def fit_tau_year(state: Population, target_s50: float, params: ModelParams,
                 cfg: CalibrationConfig, rng: RngStream) -> YearFit:
    """Fit the reallocation rate for one year and step the state under it."""
    tau, residual, clamped, base, relief = _fit_one(state, target_s50,
                                                    params, cfg, rng)
    nxt = Population(apply_rate(base, relief, tau, params.dt),
                     state.year + 1)
    return YearFit(tau=tau, population=nxt, residual=residual,
                   clamped=clamped,
                   diverged=clamped and residual > cfg.divergence_threshold)


def effective_tau(tau: AnnualSeries, window: int = 5) -> AnnualSeries:
    """Trailing moving average over ``window`` years.

    The first ``window - 1`` entries average over the available prefix, so
    the smoothed series is defined from the first fitted year onward.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    v = tau.values
    css = np.concatenate(([0.0], np.cumsum(v)))
    idx = np.arange(len(v))
    lo = np.maximum(0, idx - window + 1)
    out = (css[idx + 1] - css[lo]) / (idx - lo + 1)
    return AnnualSeries(tau.years.copy(), out)


def replay(initial: Population, rates: AnnualSeries, params: ModelParams,
           seed: int, threads: int = 1, collect_panel: bool = False
           ) -> tuple[AnnualSeries, IncomePanel | None]:
    """Propagate from ``initial`` under a given rate series.

    Uses the same noise stream coordinates as calibration, so a replay
    with identical rates reproduces the fit trajectory bit for bit.
    Returns the bottom-half share per stepped year and, optionally, the
    full income panel (initial year included as the first column).
    """
    if rates.first_year != initial.year + 1:
        raise DataError(
            f"rate series starts {rates.first_year}, expected "
            f"{initial.year + 1} (initial year + 1)"
        )
    if not rates.is_contiguous():
        raise NonContiguousSeriesError("rate series has gaps")
    stream = RngStream(seed)
    state = initial
    cols = [initial.incomes.copy()] if collect_panel else None
    shares = np.empty(len(rates))
    degenerate: list[int] = []
    for i, (year, tau) in enumerate(rates):
        state = step(state, params, float(tau), stream, threads=threads)
        assert state.year == year
        shares[i] = _share_or_zero(state.incomes, degenerate, year)
        if cols is not None:
            cols.append(state.incomes)
    if degenerate:
        warnings.warn(f"bottom share undefined (non-positive total income) "
                      f"in years {degenerate}; recorded as 0.0")
    panel = None
    if cols is not None:
        years = np.arange(initial.year, rates.last_year + 1, dtype=np.int64)
        fingerprint = config_digest({
            "seed": seed, "mu": params.mu, "sigma": params.sigma,
            "dt": params.dt, "n_agents": params.n_agents,
            "start_year": initial.year,
            "rates": [(int(y), float(v)) for y, v in rates],
        })
        panel = IncomePanel(years=years, incomes=np.column_stack(cols),
                            seed=seed, fingerprint=fingerprint)
    return AnnualSeries(rates.years.copy(), shares), panel


def replay_with_effective(initial: Population, result: CalibrationResult,
                          params: ModelParams, seed: int,
                          threads: int = 1) -> AnnualSeries:
    """Validation replay under the smoothed rate series."""
    shares, _ = replay(initial, result.tau_effective, params, seed,
                       threads=threads)
    return shares


def fit_series(initial: Population, targets: AnnualSeries,
               params: ModelParams, cfg: CalibrationConfig, seed: int
               ) -> CalibrationResult:
    """Fit the rate year by year along an observed share series.

    The forward state is propagated under each year's fitted rate (or the
    trailing-window average when ``cfg.forward_rate == "effective"``); the
    smoothed-rate trajectory in ``replay_shares`` is a separate validation
    replay from the same initial population and noise.
    """
    if not targets.is_contiguous():
        raise NonContiguousSeriesError(
            "target years have gaps; interpolate the series first")
    if targets.first_year != initial.year + 1:
        raise DataError(
            f"targets start {targets.first_year}, expected "
            f"{initial.year + 1} (initial year + 1)"
        )
    stream = RngStream(seed)
    state = initial
    taus = np.empty(len(targets))
    residuals = np.empty(len(targets))
    fitted_shares = np.empty(len(targets))
    divergent: list[int] = []
    clamped_years: list[int] = []
    for i, (year, target) in enumerate(targets):
        tau, residual, clamped, base, relief = _fit_one(
            state, float(target), params, cfg, stream)
        taus[i] = tau
        residuals[i] = residual
        if clamped:
            clamped_years.append(year)
            if residual > cfg.divergence_threshold:
                divergent.append(year)
        if cfg.forward_rate == "effective":
            lo = max(0, i - cfg.smoothing_window + 1)
            rate = float(np.mean(taus[lo:i + 1]))
        else:
            rate = tau
        state = Population(apply_rate(base, relief, rate, params.dt), year)
        fitted_shares[i] = _share_or_zero(state.incomes, [], year)

    tau_series = AnnualSeries(targets.years.copy(), taus)
    tau_eff = effective_tau(tau_series, cfg.smoothing_window)
    replay_shares, _ = replay(initial, tau_eff, params, seed)
    return CalibrationResult(
        tau=tau_series,
        tau_effective=tau_eff,
        residuals=AnnualSeries(targets.years.copy(), residuals),
        replay_shares=replay_shares,
        fitted_shares=AnnualSeries(targets.years.copy(), fitted_shares),
        divergent_years=tuple(divergent),
        clamped_years=tuple(clamped_years),
    )
