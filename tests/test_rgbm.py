"""Population initialization, one-year propagation, and bottom shares."""

import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from povdyn import rgbm
from povdyn.errors import (InvalidTargetError, PropagationOverflowError,
                           UndefinedShareError)
from povdyn.rgbm import (ModelParams, Population, bottom_share,
                         bottom_share_of, init_lognormal, sigma_ln_for_share,
                         step, step_components)
from povdyn.rng import RngStream

from oracles import bottom_share_sorted, lognormal_sigma_by_bisection, \
    step_closed_form


# ---------------------------------------------------------------------------
# parameters and population containers

def test_default_params():
    p = ModelParams()
    assert (p.mu, p.sigma, p.dt, p.n_agents) == (0.0231, 0.15, 1.0, 100_000)


@pytest.mark.parametrize("kwargs", [
    dict(sigma=-0.1), dict(dt=0.0), dict(dt=-1.0), dict(n_agents=1),
    dict(mu=float("nan")),
])
def test_param_validation(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


def test_population_size_is_fixed_by_length():
    with pytest.raises(ValueError):
        Population(np.array([1.0]), 2000)


# ---------------------------------------------------------------------------
# initialization

def test_equal_incomes_at_half_share():
    pop = init_lognormal(ModelParams(n_agents=1000), 0.5, seed=3)
    assert np.allclose(pop.incomes, 1.0)


def test_sigma_ln_inversion_against_bisection_oracle():
    # oracle solves Phi(-s) = target using only the normal CDF
    for target in (0.05, 0.2, 0.35, 0.49):
        assert sigma_ln_for_share(target) == pytest.approx(
            lognormal_sigma_by_bisection(target), abs=1e-9)
    assert sigma_ln_for_share(0.2) == pytest.approx(0.8416212335729143,
                                                    abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, -0.2, 0.51, 1.0])
def test_invalid_targets_rejected(bad):
    with pytest.raises(InvalidTargetError):
        init_lognormal(ModelParams(n_agents=100), bad, seed=1)


def test_sample_mean_rescaled_to_one():
    pop = init_lognormal(ModelParams(), 0.23, seed=9, year=1951)
    assert pop.incomes.mean() == pytest.approx(1.0, abs=1e-12)
    assert pop.year == 1951


@pytest.mark.parametrize("target", [0.2, 0.3, 0.45])
def test_empirical_bottom_share_matches_target(target):
    # Monte Carlo check across 20 seeds at the production population size
    params = ModelParams()
    for seed in range(20):
        pop = init_lognormal(params, target, seed=seed)
        assert bottom_share(pop) == pytest.approx(target, abs=0.005)


# ---------------------------------------------------------------------------
# propagation

def test_pure_growth_step():
    pop = Population(np.full(4, 1.0), 2000)
    params = ModelParams(mu=0.0231, sigma=0.0, dt=1.0, n_agents=4)
    out = step(pop, params, 0.0, RngStream(1))
    assert np.allclose(out.incomes, 1.0231)
    assert out.year == 2001


def test_pure_reallocation_step():
    pop = Population(np.array([0.5, 1.5]), 2000)
    params = ModelParams(mu=0.0, sigma=0.0, dt=1.0, n_agents=2)
    out = step(pop, params, 0.1, RngStream(1))
    assert np.allclose(out.incomes, [0.55, 1.45])


def test_noise_free_step_matches_closed_form_oracle():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.1, 3.0, 17)
    pop = Population(x, 1990)
    params = ModelParams(mu=0.04, sigma=0.0, dt=0.5, n_agents=17)
    out = step(pop, params, -0.08, RngStream(2))
    assert np.allclose(out.incomes, step_closed_form(x, 0.04, 0.5, -0.08),
                       rtol=0, atol=0)


def test_growth_moment_with_noise():
    # one step multiplies the mean by 1+mu up to sampling error
    params = ModelParams()
    band = 3 * params.sigma / np.sqrt(params.n_agents)
    hits = 0
    for seed in range(20):
        pop = Population(np.ones(params.n_agents), 1951)
        out = step(pop, params, 0.0, RngStream(seed))
        hits += abs(out.incomes.mean() - 1.0231) <= band
    assert hits >= 19


def test_determinism_across_thread_counts(monkeypatch):
    # step on any thread count and chunk size is base - (tau*dt)*relief
    # bit for bit, including negative incomes (they occur under regressive
    # reallocation)
    for chunk in (1, 3, 4, 4096, rgbm._STEP_CHUNK):
        monkeypatch.setattr(rgbm, "_STEP_CHUNK", chunk)
        for dt in (1.0, 0.5):
            params = ModelParams(dt=dt, n_agents=min(10_000, 500 * chunk))
            pop = init_lognormal(params, 0.25, seed=4, year=1960)
            pop.incomes[:5] = -0.3
            base, relief = step_components(pop, params, RngStream(4))
            for tau in (0.0, 0.02, -0.25, 0.5):
                expected = base - (tau * dt) * relief
                for k in (1, 2, 3, 7):
                    out = step(pop, params, tau, RngStream(4), threads=k)
                    assert np.array_equal(out.incomes, expected), (chunk, k)


@pytest.mark.parametrize("chunk", [1, 3, 4])
def test_a_short_last_chunk_and_more_threads_than_chunks(monkeypatch, chunk):
    # 2*chunk + 1 agents: two whole chunks and one of a single agent, on
    # thread counts up to more than the three chunks
    monkeypatch.setattr(rgbm, "_STEP_CHUNK", chunk)
    params = ModelParams(n_agents=2 * chunk + 1)
    pop = init_lognormal(params, 0.3, seed=8, year=1980)
    base, relief = step_components(pop, params, RngStream(8))
    for k in (1, 2, 3, 4, 9):
        out = step(pop, params, 0.03, RngStream(8), threads=k)
        assert np.array_equal(out.incomes, base - 0.03 * relief)


def test_scale_equivariance_of_shares():
    # scaling initial incomes by c scales every later income by exactly c
    params = ModelParams(n_agents=500)
    pop = init_lognormal(params, 0.3, seed=6, year=1970)
    scaled = Population(pop.incomes * 3.5, 1970)
    a = step(pop, params, 0.05, RngStream(6))
    b = step(scaled, params, 0.05, RngStream(6))
    assert np.allclose(b.incomes, 3.5 * a.incomes, rtol=1e-12)
    assert bottom_share(b) == pytest.approx(bottom_share(a), abs=1e-12)


def test_log_variance_widens_without_reallocation():
    # GBM widening: log-income variance trends upward over time
    params = ModelParams(n_agents=2000)
    deltas = []
    for seed in range(20):
        pop = init_lognormal(params, 0.3, seed=seed, year=0)
        early = np.var(np.log(pop.incomes[pop.incomes > 0]))
        stream = RngStream(seed)
        for _ in range(15):
            pop = step(pop, params, 0.0, stream)
        late = np.var(np.log(pop.incomes[pop.incomes > 0]))
        deltas.append(late - early)
    assert np.mean(deltas) > 0
    assert np.sum(np.array(deltas) > 0) >= 18


def test_overflow_names_agent_and_year():
    pop = Population(np.array([1e308, 1.0]), 1999)
    params = ModelParams(mu=10.0, sigma=0.0, dt=1e6, n_agents=2)
    # the typed error alone: NumPy's RuntimeWarning came first before, and
    # under -W error it was the error
    with warnings.catch_warnings(), \
            pytest.raises(PropagationOverflowError) as err:
        warnings.simplefilter("error")
        step(pop, params, 0.0, RngStream(0))
    assert err.value.agent == 0
    assert err.value.year == 1999
    assert "1999" in str(err.value)


def test_every_chunk_is_stepped_once_under_fast_thread_switches(
        monkeypatch):
    # eight threads on one-agent chunks, switching every microsecond: a
    # chunk taken twice or never shows in the count or in the bytes
    monkeypatch.setattr(rgbm, "_STEP_CHUNK", 1)
    components = rgbm._components
    sizes = []

    def counted(x, *args, **kwargs):
        sizes.append(len(x))  # list.append holds the interpreter lock
        return components(x, *args, **kwargs)

    params = ModelParams(n_agents=2000)
    pop = init_lognormal(params, 0.3, seed=9, year=1990)
    base, relief = step_components(pop, params, RngStream(9))
    monkeypatch.setattr(rgbm, "_components", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = step(pop, params, 0.02, RngStream(9), threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert sizes == [1] * 2000
    assert np.array_equal(out.incomes, base - 0.02 * relief)


def _slow_chunks(monkeypatch, caller_s: float, helper_s: float = 0.0,
                 fail: bool = False) -> dict:
    """Make each chunk of a step on the calling thread sleep ``caller_s``
    (so the helpers take chunks). With ``fail``, the first chunk that a
    helper takes raises, and the second sleeps ``helper_s``. Returns the
    counts of chunks in progress and done."""
    caller = threading.current_thread()
    components = rgbm._components
    lock = threading.Lock()
    state = {"inside": 0, "done": 0, "helper_chunks": 0}

    def slow_components(*args, **kwargs):
        with lock:
            on_helper = threading.current_thread() is not caller
            state["helper_chunks"] += on_helper
            nth = state["helper_chunks"] if on_helper and fail else 0
            state["inside"] += nth != 1
        if nth == 1:
            raise RuntimeError("chunk failed")
        try:
            time.sleep(helper_s if nth == 2 else 0.0 if on_helper
                       else caller_s)
            return components(*args, **kwargs)
        finally:
            with lock:
                state["inside"] -= 1
                state["done"] += 1

    monkeypatch.setattr(rgbm, "_components", slow_components)
    return state


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_overflow_names_the_first_agent_on_any_thread_count(monkeypatch,
                                                            threads):
    # agents 4 and 9 overflow, in different chunks, which different
    # threads take (the caller's chunks are slowed, so the helpers take
    # most): each thread checks its own chunks, and the first agent is
    # named
    _slow_chunks(monkeypatch, caller_s=0.002)
    x = np.ones(10)
    x[[4, 9]] = 1e302
    params = ModelParams(mu=10.0, sigma=0.0, dt=1e6, n_agents=10)
    for chunk in (1, 3, 4):
        monkeypatch.setattr(rgbm, "_STEP_CHUNK", chunk)
        with warnings.catch_warnings(), \
                pytest.raises(PropagationOverflowError) as err:
            warnings.simplefilter("error")
            step(Population(x, 1999), params, 0.0, RngStream(0),
                 threads=threads)
        assert (err.value.agent, err.value.year) == (4, 1999), chunk


def test_a_helper_error_is_raised_after_every_thread_joins(monkeypatch):
    # the first chunk a helper takes raises, while the second outlasts
    # every chunk the caller takes: the step re-raises the error only once
    # no thread is inside a chunk, after every other chunk is stepped, and
    # its helpers are joined, so no thread of the step is left
    state = _slow_chunks(monkeypatch, caller_s=0.01, helper_s=0.2,
                         fail=True)
    monkeypatch.setattr(rgbm, "_STEP_CHUNK", 1)
    params = ModelParams(n_agents=12)
    pop = init_lognormal(params, 0.3, seed=2, year=2000)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="chunk failed"):
        step(pop, params, 0.01, RngStream(2), threads=3)
    assert state["helper_chunks"] >= 2
    assert (state["inside"], state["done"]) == (0, 11)
    assert set(threading.enumerate()) == before


def test_negative_incomes_not_clamped():
    pop = Population(np.array([0.01, 0.02, 3.0, 3.0]), 2003)
    params = ModelParams(mu=0.0, sigma=0.0, dt=1.0, n_agents=4)
    out = step(pop, params, -0.5, RngStream(0))  # regressive reallocation
    assert out.incomes.min() < 0


# ---------------------------------------------------------------------------
# bottom shares

def test_bottom_share_equal_incomes():
    assert bottom_share(Population(np.ones(10), 0), 0.5) == pytest.approx(0.5)


def test_bottom_share_hand_case():
    pop = Population(np.array([1.0, 2.0, 3.0, 4.0]), 0)
    assert bottom_share(pop, 0.5) == pytest.approx(0.3)


def test_bottom_share_lorenz_oracle():
    s = sigma_ln_for_share(0.2)
    z = RngStream(17).normals(0, 0, 0, 100_000)
    pop = Population(np.exp(s * z), 0)
    assert bottom_share(pop, 0.5) == pytest.approx(0.2, abs=0.005)


def test_bottom_share_matches_sort_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.lognormal(0, 1.2, rng.integers(2, 200))
        frac = rng.uniform(0.05, 0.95)
        pop = Population(x, 0) if len(x) >= 2 else None
        assert bottom_share(pop, frac) == pytest.approx(
            bottom_share_sorted(x, frac), rel=1e-12)


def test_bottom_share_undefined_for_nonpositive_total():
    with pytest.raises(UndefinedShareError):
        bottom_share(Population(np.array([-2.0, 1.0]), 0), 0.5)


@pytest.mark.parametrize("incomes", [[-2.0, 1.0], [0.0, 0.0],
                                     [np.inf, 1.0], [np.nan, 1.0]])
def test_bottom_share_of_is_nan_where_the_share_is_undefined(incomes):
    # the bare-vector form signals an undefined share by NaN; the public
    # form turns that into the error, with the total in its message
    x = np.array(incomes)
    assert math.isnan(bottom_share_of(x, 0.5))
    total = float(np.sum(x))
    with pytest.raises(UndefinedShareError, match=f"total income {total} "):
        bottom_share(Population(x, 0), 0.5)


def test_bottom_share_invariant_under_initial_rescale():
    pop = init_lognormal(ModelParams(n_agents=300), 0.35, seed=2)
    scaled = Population(pop.incomes * 123.0, pop.year)
    assert bottom_share(scaled) == pytest.approx(bottom_share(pop), rel=1e-12)
