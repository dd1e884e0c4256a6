"""Fitting the reallocation rate to an observed inequality series.

For each year the noise vector is drawn once and frozen, which makes the
objective |simulated bottom-half share - target| a deterministic function
of the rate. The stepped incomes are affine in the rate, so the
bottom-half sum, a minimum over agent subsets of affine sums, is concave
in it; the stepped total does not depend on it. The share is therefore
concave in the rate, and endpoint gaps of opposite sign bracket exactly
one root, which is bisected in either orientation. Unreachable targets
clamp to the nearer bracket endpoint with a divergence warning instead of
aborting a long historical run. A rate so large that the stepped total
income overflows or loses its sign is unusable, and the search moves away
from it.

Endpoint gaps of the same sign are clamped even when the bracket holds
two roots: past ``|tau*dt|`` of about 1 the reallocation overshoots the
mean and the share falls again, so a share that peaks above the target
inside the bracket crosses it twice with both endpoint gaps negative.
The search does not look for that peak; a bracket that wide is the
caller's to avoid.

The certified search
--------------------
The bisection defines the fitted rate, and most of its midpoints serve
only to give the sign of the gap far from the root. For a concave ``f``
the chord between two rates lies below ``f`` between them, and the line
through two rates lies above ``f`` outside them. So once a few gaps are
known exactly, the sign of many midpoints is proved without a partition.
:func:`_search_tau`, given a rounding margin, evaluates the endpoints and
then runs the bisection unchanged, but skips a midpoint whose gap the
bounds put beyond the tolerance on a proven side: the bisection would
take the same branch there and not stop. Every midpoint it does evaluate
becomes an end of the bracket, so the bounds come from the two nearest
evaluated rates on each side. The first midpoint within the tolerance
cannot be proved, so it is evaluated, and the rate returned is the plain
bisection's, with the same residual, to the last bit.

The margin. The concave function is ``f(t) = B(t)/T0 - target``, where
``B(t)`` is the exact sum of the ``k = floor(N/2)`` smallest of
``y_i(t) = base_i - t*dt*relief_i`` (``base`` and ``relief`` as stored)
and ``T0`` is the exact sum of ``base``. The written gap differs from it
by at most ``E(t)``. With unit roundoff ``u = 2**-53``,
``gamma_j = j*u/(1 - j*u)``, ``A = sum|base_i|``, ``Q = sum|relief_i|``
and ``r = |t*dt|``:

* ``apply_rate`` rounds ``t*dt``, the product and the difference once
  each, so ``|yhat_i - y_i| <= u|base_i| + gamma_3*r|relief_i|``, plus
  ``eta(1 + |relief_i|)`` for an underflowed product (``eta`` the least
  subnormal). Summed: ``D = u*A + gamma_3*r*Q + eta*(N + Q)``. A sum of
  the ``k`` smallest moves by at most the sum of the moves of the terms,
  and so does ``B``.
* Any summation order of ``N`` terms is off by at most
  ``gamma_N * sum|yhat_i|`` (Higham, Accuracy and Stability of
  Numerical Algorithms, ch. 4), and
  ``sum|yhat_i| <= S = M + D`` with ``M = A + r*Q``. So the computed
  bottom sum is within ``eB = D + gamma_N*S`` of ``B(t)``.
* The computed total is not free of ``t``: ``sum relief_i`` is not zero
  once ``relief`` is rounded. The exact total is ``T0 - t*dt*R`` with
  ``|R| <= |Rhat| + gamma_N*Q`` for the computed ``Rhat = sum relief``.
  So the computed total is within ``eT = eB + r*(|Rhat| + gamma_N*Q)`` of
  ``T0``, and ``T0 >= T_lo = That0 - gamma_N*A`` for the computed
  ``That0 = sum base``.
* The quotient: ``|Bhat/That - B/T0| <= eB/T_hat + M*eT/(T_hat*T_lo)``
  with ``T_hat = T_lo - eT``, and the division and the subtraction of
  the target round once each, by at most ``u*S/T_hat + eta`` and
  ``u*(S/T_hat + |target|)``.

``E(t)`` is twice the sum of these terms, which covers the rounding of
the formula itself and the ``u**2`` terms it drops; it is infinite where
``T_hat <= 0``, and nothing is proved there. ``A``, ``Q``, ``Rhat`` and
``That0`` are summed once per year (:func:`_gap_margin`). At 400,000
agents ``E`` is about 3e-10, far below the default tolerance of 1e-4.
Each bound is widened once more for its own two-term arithmetic.

The search falls back to the plain bisection when a gap is not finite
(an unusable rate, or a gap the bounds do not model) and when the
bisection ends without meeting the tolerance, because its best rate so
far needs the exact gap of every midpoint.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataio import config_digest
from .errors import (DataError, InvalidTargetError, NonContiguousSeriesError,
                     UnusableBracketError)
from .poverty import IncomePanel
from .rgbm import (ModelParams, Population, _checked, _components, _mean,
                   _quiet, apply_rate, bottom_share_of, step,
                   step_components)
from .rng import STEP_TAG, RngStream
from .series import AnnualSeries, PartialSeries

# Draws per block of the noise prefetch. The draw runs beside the search,
# so its two block buffers add to peak memory: 128 KiB, where the default
# block's 1 MiB would be two thirds of a vector at 200k agents.
_PREFETCH_BLOCK = 1 << 13


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
        if not (math.isfinite(self.tau_min) and math.isfinite(self.tau_max)):
            raise ValueError("tau_min and tau_max must be finite")
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be > 0 and finite")
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
    """Fitted rates, their smoothed version, and both share trajectories.

    ``panel`` is the income panel of the validation replay under
    ``tau_effective`` (initial year first), the one
    ``replay(initial, tau_effective, ..., collect_panel=True)`` returns;
    it is kept only when :func:`fit_series` is asked to collect it, and
    is ``None`` otherwise.
    """

    tau: AnnualSeries
    tau_effective: AnnualSeries
    residuals: AnnualSeries
    replay_shares: PartialSeries
    fitted_shares: PartialSeries
    divergent_years: tuple[int, ...] = ()
    clamped_years: tuple[int, ...] = ()
    panel: IncomePanel | None = None


def _warn_undefined(years: np.ndarray, shares: np.ndarray) -> None:
    """Warn of the years whose replay share is undefined.

    A non-positive income total (only reachable for tiny populations under
    extreme noise) leaves the share NaN, which the writers turn into an
    empty field, so long runs survive with a loud flag instead of
    aborting.
    """
    undefined = [int(y) for y in years[np.isnan(shares)]]
    if undefined:
        warnings.warn(f"bottom share undefined (non-positive total income) "
                      f"in years {undefined}; left empty")


# unit roundoff and least subnormal of float64 (see the module docstring)
_U = 2.0 ** -53
_ETA = 2.0 ** -1074
# relative widening of a bound for its own arithmetic: 8 eps
_SLACK = 16.0 * _U


def _gamma(j: float) -> float:
    return j * _U / (1.0 - j * _U)


class _ConcaveBounds:
    """The gaps evaluated so far, and what concavity proves from them.

    ``margin(t)`` bounds the distance between the computed gap at ``t``
    and a concave function ``f``; each evaluated rate then brackets
    ``f(t)`` in ``[gap - margin, gap + margin]``. Every evaluated rate is
    an end of the bisection's bracket when it is added, so each side
    keeps its rates as ``(rate, low, high)`` in the order they were
    added, the nearest to the bracket last, and every rate asked about
    lies strictly between the two sides.
    """

    def __init__(self, margin, tolerance: float):
        self.margin = margin
        self.tolerance = tolerance
        # the rates at or below the bracket, and those at or above it
        self.sides: tuple[list, list] = ([], [])

    def add(self, upper: bool, tau: float, g: float) -> bool:
        """Keep the exact gap ``g`` of ``tau``, the new lower end of the
        bracket or, with ``upper``, its new upper end; False if ``g`` is
        not finite."""
        if not math.isfinite(g):
            return False
        e = self.margin(tau)
        self.sides[upper].append((tau, g - e, g + e))
        return True

    def sign(self, tau: float) -> int:
        """1 if ``gap(tau) > tolerance`` is proved, -1 if
        ``gap(tau) < -tolerance`` is, 0 otherwise.

        The chord of the nearest rates on either side bounds ``f(tau)``
        from below; the line through the two nearest rates on one side,
        extended to ``tau``, bounds it from above. Each bound is widened
        by ``_SLACK`` times the size of its terms: it takes at most ten
        roundings of values of that size, and ``8 eps`` exceeds
        ``gamma_10``. A comparison with NaN is false, so an infinite
        margin proves nothing.
        """
        below, above = self.sides
        e = self.margin(tau)
        (a, low_a, _), (b, low_b, _) = below[-1], above[-1]
        t1 = low_a * ((b - tau) / (b - a))
        t2 = low_b * ((tau - a) / (b - a))
        size = abs(t1) + abs(t2) + e
        if t1 + t2 - e - _SLACK * size > self.tolerance:
            return 1
        upper = math.inf
        for side in self.sides:
            if len(side) < 2:
                continue
            (p, low_p, _), (q, _, high_q) = side[-2:]
            lam = (tau - q) / (q - p)
            t2 = (high_q - low_p) * lam
            size = abs(high_q) + (abs(high_q) + abs(low_p)) * lam + e
            upper = min(upper, high_q + t2 + e + _SLACK * size)
        return -1 if upper < -self.tolerance else 0


def _search_tau(gap, lo: float, hi: float, tolerance: float,
                max_iterations: int, margin=None
                ) -> tuple[float, float, bool]:
    """Locate the rate minimizing |gap| on [lo, hi].

    Returns (tau, |gap(tau)|, clamped). ``gap`` must be deterministic.
    Endpoint gaps of opposite sign are bisected, keeping the half whose
    ends still differ in sign; for the concave share of the model that
    half holds the one root, whether the gap rises or falls across the
    bracket. Endpoint gaps of the same sign clamp to the nearer endpoint.
    The gap of an unusable rate is infinite, with the rate's sign, so the
    bisection moves from it toward zero; an infinite ``|gap(tau)|`` in the
    result means that the search found no usable rate.

    ``margin(t)``, when given, bounds the distance between ``gap(t)`` and
    a concave function. The search then certifies (module docstring): it
    evaluates only the midpoints whose branch the bounds do not prove.
    The result is the plain bisection's bit for bit, for any gap within
    its margin of a concave function. A non-finite gap, or a bisection
    that ends without meeting the tolerance, hands the search back to the
    plain bisection. Without ``margin`` the search evaluates exactly the
    endpoints and the midpoints of the plain bisection.
    """
    g_lo = gap(lo)
    g_hi = gap(hi)
    if abs(g_lo) <= tolerance or abs(g_hi) <= tolerance:
        if abs(g_lo) <= abs(g_hi):
            return lo, abs(g_lo), False
        return hi, abs(g_hi), False
    if (g_lo > 0) == (g_hi > 0):
        # same sign at both endpoints: target unreachable inside bracket
        if abs(g_lo) <= abs(g_hi):
            return lo, abs(g_lo), True
        return hi, abs(g_hi), True
    # An unusable rate's gap is infinite with the rate's sign, and every
    # rate further from zero than an unusable one is unusable too. So a
    # reversed bracket, g(lo) > 0 > g(hi), has usable rates at both ends,
    # and every rate between them is usable.
    rising = g_hi > 0

    bounds = None
    if margin is not None:
        bounds = _ConcaveBounds(margin, tolerance)
        if not (bounds.add(False, lo, g_lo) and bounds.add(True, hi, g_hi)):
            bounds = None  # nothing skipped yet: the plain loop follows
    bracket = lo, hi

    best_tau, best_abs = (lo, abs(g_lo)) if abs(g_lo) < abs(g_hi) else (hi, abs(g_hi))
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo + hi overflowed, or no float lies between them
        side = 0 if bounds is None else bounds.sign(mid)
        if side:
            above = side > 0
        else:
            g_mid = gap(mid)
            if abs(g_mid) < best_abs:
                best_tau, best_abs = mid, abs(g_mid)
            if abs(g_mid) <= tolerance:
                return mid, abs(g_mid), False
            above = g_mid > 0
            if bounds is not None and not bounds.add(above == rising, mid,
                                                     g_mid):
                return _search_tau(gap, *bracket, tolerance, max_iterations)
        if above == rising:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 4.0 * np.finfo(float).eps * max(1.0, abs(hi)):
            break
    if bounds is not None:
        return _search_tau(gap, *bracket, tolerance, max_iterations)
    return best_tau, best_abs, False


def _gap_margin(base: np.ndarray, relief: np.ndarray, total: float,
                target_s50: float, dt: float, scratch: np.ndarray):
    """The margin ``E(t)`` of the gap that :func:`_fit_one` evaluates, from
    sums taken once per year; ``total`` is the computed sum of ``base``
    and ``scratch`` is overwritten. Derived in the module docstring."""
    n = len(base)
    gn = _gamma(n)
    g3 = _gamma(3)
    # a non-negative base is its own absolute value, summed in the same
    # order: the pass over it would give ``total`` to the last bit
    if base.min() >= 0.0:
        a = total
    else:
        a = float(np.sum(np.abs(base, out=scratch)))
    q = float(np.sum(np.abs(relief, out=scratch)))
    r_sum = abs(float(np.sum(relief))) + gn * q
    t_lo = total - gn * a

    def margin(tau: float) -> float:
        r = abs(tau * dt)
        m = a + r * q
        d = _U * a + g3 * r * q + _ETA * (n + q)
        s = m + d
        e_b = d + gn * s
        e_t = e_b + r * r_sum
        t_hat = t_lo - e_t
        if not t_hat > 0.0:
            return math.inf
        return 2.0 * ((e_b + 2.0 * _U * s) / t_hat + m * e_t / (t_hat * t_lo)
                      + _U * abs(target_s50) + _ETA)

    return margin


# unusable rates overflow on purpose: no warning for them
@_quiet
def _fit_one(base: np.ndarray, relief: np.ndarray, target_s50: float,
             dt: float, cfg: CalibrationConfig, year: int
             ) -> tuple[float, float, bool]:
    """Fit the rate of ``year`` under frozen noise.

    ``base`` and ``relief`` come from :func:`step_components`; the stepped
    incomes for any rate ``t`` are ``apply_rate(base, relief, t, dt)``.
    A rate is unusable when its stepped total income is not positive and
    finite, or when the bottom-half sum overflows; the search never
    returns one. The search certifies its midpoints with the rounding
    margin of :func:`_gap_margin`, and returns what the plain bisection
    returns. Returns (tau, residual, clamped).

    Raises
    ------
    UnusableBracketError
        If the search finds no usable rate in the bracket.
    """
    if not (0.0 < target_s50 < 1.0):
        raise InvalidTargetError(
            f"target share must be in (0, 1), got {target_s50!r}")

    # the reallocation term sums to zero, so total income after the step is
    # the same for every rate; a non-positive total (tiny degenerate
    # populations) leaves the share undefined for the whole bracket
    total = float(np.sum(base))
    if total <= 0.0:
        return 0.0, abs(target_s50), True

    # each evaluation steps into one scratch vector and partitions it in
    # place after taking its total: no allocation per evaluation
    scratch = np.empty_like(base)
    margin = _gap_margin(base, relief, total, target_s50, dt, scratch)

    def gap(tau: float) -> float:
        share = bottom_share_of(apply_rate(base, relief, tau, dt, out=scratch),
                                0.5, overwrite_input=True)
        if not math.isfinite(share):
            return math.copysign(math.inf, tau)  # unusable rate
        return share - target_s50

    tau, residual, clamped = _search_tau(gap, cfg.tau_min, cfg.tau_max,
                                         cfg.tolerance, cfg.max_iterations,
                                         margin)
    if math.isinf(residual):
        raise UnusableBracketError(
            f"year {year}: no rate in the bracket [{cfg.tau_min!r}, "
            f"{cfg.tau_max!r}] steps to a positive, finite total income")
    return tau, residual, clamped


def fit_tau_year(state: Population, target_s50: float, params: ModelParams,
                 cfg: CalibrationConfig, rng: RngStream) -> YearFit:
    """Fit the reallocation rate for one year and step the state under it."""
    base, relief = step_components(state, params, rng)
    tau, residual, clamped = _fit_one(base, relief, target_s50, params.dt,
                                      cfg, state.year + 1)
    nxt = Population(apply_rate(base, relief, tau, params.dt, out=relief),
                     state.year + 1)
    return YearFit(tau=tau, population=nxt, residual=residual,
                   clamped=clamped,
                   diverged=clamped and residual > cfg.divergence_threshold)


def _trailing_mean(v: np.ndarray, window: int) -> np.ndarray:
    """Entry i averages ``v[max(0, i - window + 1) : i + 1]``.

    The cumulative sum adds in sequence, so entry i depends only on
    ``v[:i + 1]``: the trailing mean of a prefix equals the prefix of the
    trailing mean bit for bit.
    """
    window = min(window, len(v))  # a longer window averages the prefix
    css = np.concatenate(([0.0], np.cumsum(v)))
    idx = np.arange(len(v))
    lo = np.maximum(0, idx - window + 1)
    return (css[idx + 1] - css[lo]) / (idx - lo + 1)


def effective_tau(tau: AnnualSeries, window: int = 5) -> AnnualSeries:
    """Trailing moving average over ``window`` years.

    The first ``window - 1`` entries average over the available prefix, so
    the smoothed series is defined from the first fitted year onward.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    return AnnualSeries(tau.years.copy(), _trailing_mean(tau.values, window))


def panel_fingerprint(start_year: int, rates: AnnualSeries,
                      params: ModelParams, seed: int) -> str:
    """The fingerprint of the panel of a replay from ``start_year`` under
    ``rates``: it identifies the replay's inputs, so a panel collected
    during the fit and one replayed afterwards carry the same."""
    return config_digest({
        "seed": seed, "mu": params.mu, "sigma": params.sigma,
        "dt": params.dt, "n_agents": params.n_agents,
        "start_year": start_year,
        "rates": [(int(y), float(v)) for y, v in rates],
    })


class _PanelRows:
    """The row hook of ``collect_panel=True``: it fills the year-major
    (T + 1, N) income array of a replay from ``initial``."""

    def __init__(self, initial: Population, n_rates: int):
        self.years = np.arange(initial.year, initial.year + n_rates + 1)
        self.rows = np.empty((n_rates + 1, initial.n))

    def __call__(self, year: int, incomes: np.ndarray) -> None:
        self.rows[year - self.years[0]] = incomes

    def panel(self, rates: AnnualSeries, params: ModelParams,
              seed: int) -> IncomePanel:
        """The panel of the replay under ``rates``."""
        return IncomePanel(self.years, self.rows.T, seed, panel_fingerprint(
            int(self.years[0]), rates, params, seed))


def _row_hook(initial: Population, n_rates: int, collect_panel: bool,
              sink) -> tuple[object, _PanelRows | None]:
    """The row hook of a stepper from ``initial``, handed the initial row
    already, and the collector behind it: ``sink``, a new
    :class:`_PanelRows` with ``collect_panel``, or a hook that drops the
    rows."""
    rows = None
    if collect_panel:
        if sink is not None:
            raise ValueError("collect_panel=True and _sink exclude each "
                             "other")
        sink = rows = _PanelRows(initial, n_rates)
    elif sink is None:
        sink = lambda year, incomes: None
    sink(initial.year, initial.incomes)
    return sink, rows


def replay(initial: Population, rates: AnnualSeries, params: ModelParams,
           seed: int, threads: int = 1, collect_panel: bool = False, *,
           _sink=None) -> tuple[PartialSeries, IncomePanel | None]:
    """Propagate from ``initial`` under a given rate series.

    Uses the same noise stream coordinates as calibration, so a replay
    with identical rates reproduces the fit trajectory bit for bit.
    Returns the bottom-half share per stepped year (NaN where total income
    is not positive) and the income panel, or ``None``. The replay keeps
    no reference to ``initial`` past the first step, so a caller that
    holds none frees that vector there.

    Each row of the trajectory, the initial incomes first, is handed as
    ``(year, incomes)`` to one row hook on the calling thread as soon as
    it is stepped; the vector must not be changed or kept. With
    ``collect_panel`` the hook fills the panel's year-major (T + 1, N)
    array. The private ``_sink`` hook lets a caller take the rows one
    year at a time instead (``simulate`` spools them to disk). Passing
    both is a ValueError.
    """
    if rates.first_year != initial.year + 1:
        raise DataError(
            f"rate series starts {rates.first_year}, expected "
            f"{initial.year + 1} (initial year + 1)"
        )
    if not rates.is_contiguous():
        raise NonContiguousSeriesError("rate series has gaps")
    sink, rows = _row_hook(initial, len(rates), collect_panel, _sink)
    stream = RngStream(seed)
    state = initial
    del initial
    shares = np.empty(len(rates))
    for i, (year, tau) in enumerate(rates):
        state = step(state, params, float(tau), stream, threads=threads)
        assert state.year == year
        shares[i] = bottom_share_of(state.incomes, 0.5)
        sink(year, state.incomes)
    _warn_undefined(rates.years, shares)
    panel = None if rows is None else rows.panel(rates, params, seed)
    return PartialSeries(rates.years.copy(), shares), panel


def replay_with_effective(initial: Population, result: CalibrationResult,
                          params: ModelParams, seed: int,
                          threads: int = 1) -> PartialSeries:
    """Validation replay under the smoothed rate series."""
    shares, _ = replay(initial, result.tau_effective, params, seed,
                       threads=threads)
    return shares


def _replay_parts(replayed: Population, noise: np.ndarray,
                  params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """``(base, relief)`` of the validation step; uses up ``noise``.

    ``relief`` is built in the noise buffer itself, so the parts cost one
    new vector. :func:`apply_rate` under the year's smoothed rate then
    gives the step :func:`step` takes from ``replayed``, bit for bit.
    """
    x = replayed.incomes
    return _components(x, _mean(x), noise, params, relief=noise)


def fit_series(initial: Population, targets: AnnualSeries,
               params: ModelParams, cfg: CalibrationConfig, seed: int,
               collect_panel: bool = False, *, _sink=None
               ) -> CalibrationResult:
    """Fit the rate year by year along an observed share series.

    The forward state is propagated under each year's fitted rate (or,
    when ``cfg.forward_rate == "effective"``, under the year's entry of
    ``tau_effective``, so that ``fitted_shares`` equals ``replay_shares``
    bit for bit). The smoothed-rate trajectory in ``replay_shares`` is a
    separate validation replay from the same initial population. It is
    stepped in the same loop, on the same noise vector as the fit: the
    smoothed rate of a year depends only on the rates fitted so far, so
    the shares equal those of ``replay(initial, result.tau_effective,
    params, seed)`` bit for bit, and each year's noise is drawn once.

    Each year runs in two stages on two threads. One helper thread lives
    for the whole call. While the main thread searches year t's rate, the
    helper builds the validation step's rate-free parts for year t (see
    :func:`_replay_parts`) and then draws year t+1's noise. The main
    thread finishes the validation step once year t's smoothed rate is
    known. That leaves the search, the forward state and one
    :func:`apply_rate` on the critical path. Every draw is a pure function
    of its stream coordinates, so no value depends on which thread makes
    it or when. The prefetched noise costs one N-vector of peak memory.
    The fit keeps no reference to ``initial`` past the first year, so a
    caller that holds none frees that vector there.

    The rows of the validation trajectory go to a row hook on the main
    thread as in :func:`replay`. With ``collect_panel``, ``result.panel``
    is the panel, fingerprint included, that ``replay(...,
    collect_panel=True)`` under ``result.tau_effective`` returns, without
    stepping the trajectory a second time; otherwise it is ``None``. The
    ``pipeline`` command's ``_sink`` spools the rows and measures poverty
    on them, so memory does not grow with the years.

    Raises
    ------
    UnusableBracketError
        If no rate in the bracket can step some year's forward state.
    PropagationOverflowError
        If the validation replay overflows, naming the agent and year
        that ``replay`` under ``result.tau_effective`` would name.
    """
    if not targets.is_contiguous():
        raise NonContiguousSeriesError(
            "target years have gaps; interpolate the series first")
    if targets.first_year != initial.year + 1:
        raise DataError(
            f"targets start {targets.first_year}, expected "
            f"{initial.year + 1} (initial year + 1)"
        )
    stream = RngStream(seed, block=_PREFETCH_BLOCK)
    n, dt, first_year = initial.n, params.dt, initial.year
    taus = np.empty(len(targets))
    tau_eff = np.empty(len(targets))
    residuals = np.empty(len(targets))
    fitted_shares = np.empty(len(targets))
    replay_shares = np.empty(len(targets))
    sink, rows = _row_hook(initial, len(targets), collect_panel, _sink)
    # both trajectories start from the initial population, which is freed
    # with them in the first year unless the caller holds it too
    state = replayed = initial
    del initial
    divergent: list[int] = []
    clamped_years: list[int] = []
    # Each vector is dropped as soon as its last reader is done, futures
    # included, so that peak memory is the fit's three vectors (base,
    # relief, scratch), the validation parts and the prefetched noise.
    with ThreadPoolExecutor(max_workers=1) as helper:
        nxt = helper.submit(stream.normals, first_year, STEP_TAG, 0, n, dt)
        for i, (year, target) in enumerate(targets):
            noise = nxt.result()
            nxt = None
            base, relief = step_components(state, params, stream, noise)
            del state
            # the fit has read the noise: the helper may now use it up
            parts = helper.submit(_replay_parts, replayed, noise, params)
            del replayed, noise
            if i + 1 < len(targets):
                nxt = helper.submit(stream.normals, year, STEP_TAG, 0, n, dt)

            tau, residual, clamped = _fit_one(base, relief, float(target), dt,
                                              cfg, year)
            taus[i] = tau
            tau_eff[i] = _trailing_mean(taus[:i + 1], cfg.smoothing_window)[-1]
            residuals[i] = residual
            if clamped:
                clamped_years.append(year)
                if residual > cfg.divergence_threshold:
                    divergent.append(year)
            rate = tau if cfg.forward_rate == "fitted" else float(tau_eff[i])
            state = Population(apply_rate(base, relief, rate, dt, out=relief),
                               year)
            np.copyto(base, state.incomes)
            fitted_shares[i] = bottom_share_of(base, 0.5,
                                               overwrite_input=True)
            del base

            # finish the validation step under the smoothed rate
            v_base, v_relief = parts.result()
            parts = None
            replayed = _checked(apply_rate(v_base, v_relief, float(tau_eff[i]),
                                           dt, out=v_relief), year - 1)
            # the name would keep the replayed incomes alive through the
            # next year's search, after the helper has used them up
            del v_relief
            np.copyto(v_base, replayed.incomes)
            replay_shares[i] = bottom_share_of(v_base, 0.5,
                                               overwrite_input=True)
            del v_base
            sink(year, replayed.incomes)
    _warn_undefined(targets.years, replay_shares)

    years = targets.years
    tau_effective = AnnualSeries(years.copy(), tau_eff)
    return CalibrationResult(
        tau=AnnualSeries(years.copy(), taus),
        tau_effective=tau_effective,
        residuals=AnnualSeries(years.copy(), residuals),
        replay_shares=PartialSeries(years.copy(), replay_shares),
        fitted_shares=PartialSeries(years.copy(), fitted_shares),
        divergent_years=tuple(divergent),
        clamped_years=tuple(clamped_years),
        panel=None if rows is None else rows.panel(tau_effective, params,
                                                   seed),
    )
