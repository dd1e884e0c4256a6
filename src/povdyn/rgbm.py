"""Reallocating geometric Brownian motion over an agent population.

One simulated year applies the Euler-Maruyama update

    x_i' = x_i + x_i*(mu*dt + sigma*W_i) - tau*(x_i - m)*dt

where ``W_i ~ N(0, dt)`` comes from the counter-based stream at
``(seed, i, year)`` and ``m`` is the population mean computed once before
the update (simultaneous reallocation). Positive ``tau`` transfers income
toward the mean, negative ``tau`` away from it. Incomes may go negative
under regressive reallocation and are deliberately never clamped; only the
Gini layer floors them, with a flag.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidTargetError, PropagationOverflowError,
                     UndefinedShareError)
from .rng import INIT_TAG, STEP_TAG, RngStream, ndtri


@dataclass(frozen=True)
class ModelParams:
    """Drift, volatility, timestep, and population size.

    Defaults follow the calibration for India: mu fitted to mean per-capita
    income growth, sigma proxied from commodity-price volatility.
    """

    mu: float = 0.0231
    sigma: float = 0.15
    dt: float = 1.0
    n_agents: int = 100_000

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not (self.sigma >= 0 and np.isfinite(self.sigma)):
            raise ValueError("sigma must be >= 0")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError("dt must be > 0")
        if self.n_agents < 2:
            raise ValueError("n_agents must be >= 2")


@dataclass
class Population:
    """Income vector (model units, mean-normalized at init) at one year."""

    incomes: np.ndarray
    year: int

    def __post_init__(self):
        self.incomes = np.ascontiguousarray(self.incomes, dtype=np.float64)
        if self.incomes.ndim != 1 or len(self.incomes) < 2:
            raise ValueError("incomes must be a 1-D vector of length >= 2")

    @property
    def n(self) -> int:
        return len(self.incomes)

    def copy(self) -> "Population":
        return Population(self.incomes.copy(), self.year)


def sigma_ln_for_share(target_s50: float) -> float:
    """Lognormal log-scale parameter whose bottom-half share is the target.

    For a lognormal distribution the Lorenz curve is
    L(p) = Phi(Phi^{-1}(p) - s), so the bottom-half share is Phi(-s) and
    s = -Phi^{-1}(target).
    """
    if not (0.0 < target_s50 <= 0.5):
        raise InvalidTargetError(
            f"target bottom-half share must be in (0, 0.5], got {target_s50!r}"
        )
    return float(-ndtri(target_s50))


def init_lognormal(params: ModelParams, target_s50: float, seed: int,
                   year: int = 0) -> Population:
    """Draw an i.i.d. lognormal population matching a bottom-half share.

    The log-scale parameter solves the lognormal Lorenz relation for
    ``target_s50``; the sample mean is then rescaled to exactly 1.0
    (absolute scale is irrelevant to every downstream statistic).

    Parameters
    ----------
    params : ModelParams
    target_s50 : float
        Desired bottom-50% income share, in (0, 0.5]. 0.5 gives a
        degenerate equal-incomes population.
    seed : int
        Stream seed; draws come from the (seed, agent, year, init) stream.
    year : int
        Calendar year stamped on the population.
    """
    s = sigma_ln_for_share(target_s50)
    stream = RngStream(seed)
    z = stream.normals(year, INIT_TAG, 0, params.n_agents)
    incomes = np.exp(s * z)
    incomes /= incomes.mean()
    return Population(incomes, year)


def _chunk_ranges(n: int, threads: int) -> list[tuple[int, int]]:
    threads = max(1, min(int(threads), n))
    bounds = np.linspace(0, n, threads + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])
            if b > a]


# A step may overflow: _checked and the calibration's rate search report
# every such overflow as a typed error, so the stepping arithmetic runs
# without NumPy's overflow and invalid-value warnings. The error state is
# per thread, so each function that a worker thread runs sets it.
_quiet = np.errstate(over="ignore", invalid="ignore")


@_quiet
def _mean(x: np.ndarray) -> float:
    """The pre-step population mean of ``x``."""
    return float(np.mean(x))


@_quiet
def _components(x: np.ndarray, m: float, w: np.ndarray, params: ModelParams,
                relief: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """``(base, relief)`` for incomes ``x`` under the noise ``w``.

    ``base = x + x*(mu*dt) + x*(sigma*w)`` and ``relief = x - m``, in that
    operation order (products commute, so each value is the one the
    written-out expression gives). ``base`` is a new array; ``relief`` is
    built in the ``relief`` buffer when one is given, which may be ``w``
    itself (the noise is then used up), and in a new array otherwise: the
    operations are the same either way, and so are the values. The stream
    is exact on agent slices, so the result for a slice of ``x`` and its
    noise slice does not depend on how the agent range is split.
    """
    base = np.multiply(x, params.mu * params.dt)
    np.add(x, base, out=base)
    relief = np.multiply(w, params.sigma, out=relief)
    np.multiply(x, relief, out=relief)
    np.add(base, relief, out=base)
    np.subtract(x, m, out=relief)
    return base, relief


def _checked(incomes: np.ndarray, year: int) -> Population:
    """The population stepped from ``year``, or the overflow it hit."""
    if not np.all(np.isfinite(incomes)):
        bad = int(np.flatnonzero(~np.isfinite(incomes))[0])
        raise PropagationOverflowError(bad, year)
    return Population(incomes, year + 1)


def step(pop: Population, params: ModelParams, tau: float, rng: RngStream,
         threads: int = 1) -> Population:
    """Propagate the population one year under reallocation rate ``tau``.

    The year's noise is read from the stream at (agent, pop.year), the mean
    is computed once pre-update, and the result carries ``pop.year + 1``.
    With ``threads > 1`` each worker draws the noise for its own slice of
    agents and updates that slice; the bytes do not depend on ``threads``.

    Raises
    ------
    PropagationOverflowError
        If any agent's income becomes non-finite, naming agent and year.
    """
    if not np.isfinite(tau):
        raise ValueError("tau must be finite")
    x = pop.incomes
    m = _mean(x)
    out = np.empty_like(x)

    def update(lo: int, hi: int) -> None:
        w = rng.normals(pop.year, STEP_TAG, lo, hi, params.dt)
        base, relief = _components(x[lo:hi], m, w, params)
        apply_rate(base, relief, tau, params.dt, out=out[lo:hi])

    ranges = _chunk_ranges(pop.n, threads)
    if len(ranges) == 1:
        update(0, pop.n)
    else:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            for f in [pool.submit(update, lo, hi) for lo, hi in ranges]:
                f.result()
    return _checked(out, pop.year)


def step_components(pop: Population, params: ModelParams, rng: RngStream,
                    noise: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Split the update into rate-free and rate-linear parts.

    Returns ``(base, relief)`` with ``base = x + x*mu*dt + x*(sigma*W)``
    and ``relief = x - m``; :func:`apply_rate` turns them into the stepped
    incomes for any ``tau``, bit-identical to :func:`step`. That lets the
    calibration search evaluate many rates from one noise draw. A caller
    that already holds the year's draw, ``rng.normals(pop.year, STEP_TAG,
    0, pop.n, params.dt)``, passes it as ``noise``, and ``rng`` is then
    not read; ``noise`` is left unchanged.
    """
    if noise is None:
        noise = rng.normals(pop.year, STEP_TAG, 0, pop.n, params.dt)
    x = pop.incomes
    return _components(x, _mean(x), noise, params)


@_quiet
def apply_rate(base: np.ndarray, relief: np.ndarray, tau: float, dt: float,
               out: np.ndarray | None = None) -> np.ndarray:
    """Stepped incomes ``base - (tau*dt)*relief`` (see step_components).

    The only place the rate enters the update: :func:`step`, the
    calibration search and the fitted forward state all use it, so a
    replay under the fitted rates reproduces the fit bit for bit. The
    result is built in ``out`` without a temporary; ``out`` may be
    ``relief`` itself (which is then overwritten) but must not overlap
    ``base``.
    """
    # IEEE products commute: relief*(tau*dt) == (tau*dt)*relief exactly
    out = np.multiply(relief, tau * dt, out=out)
    return np.subtract(base, out, out=out)


@_quiet
def bottom_share(pop: Population, fraction: float = 0.5) -> float:
    """Income share of the poorest ``floor(fraction*N)`` agents.

    Defined for negative incomes too (the result may then fall outside
    [0, 1]; reporting layers flag that case).

    Raises
    ------
    UndefinedShareError
        If total income is not positive and finite.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must be in (0, 1)")
    share = bottom_share_of(pop.incomes, fraction)
    if math.isnan(share):
        total = float(np.sum(pop.incomes))
        raise UndefinedShareError(
            f"total income {total} is not positive and finite")
    return share


@_quiet
def bottom_share_of(incomes: np.ndarray, fraction: float,
                    overwrite_input: bool = False) -> float:
    """bottom_share on a bare vector (hot path of the calibration search).

    NaN, instead of an error, when the total income is not positive and
    finite: the share is undefined there. With ``overwrite_input`` the
    vector is partitioned in place, so its order is lost, instead of in a
    copy; the result is the same.
    """
    total = float(np.sum(incomes))
    if not 0.0 < total < math.inf:
        return math.nan
    k = int(np.floor(fraction * len(incomes)))
    if k == 0:
        return 0.0
    # sum of the k smallest without a full sort; np.partition is this
    # copy followed by the same in-place partition
    part = incomes if overwrite_input else incomes.copy()
    part.partition(k - 1)
    return float(np.sum(part[:k])) / total
