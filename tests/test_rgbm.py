"""Population initialization, one-year propagation, and bottom shares."""

import math
import warnings

import numpy as np
import pytest

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


def test_determinism_across_thread_counts():
    # step on any thread count is base - (tau*dt)*relief bit for bit,
    # including negative incomes (they occur under regressive reallocation)
    for dt in (1.0, 0.5):
        params = ModelParams(dt=dt, n_agents=10_000)
        pop = init_lognormal(params, 0.25, seed=4, year=1960)
        pop.incomes[:5] = -0.3
        base, relief = step_components(pop, params, RngStream(4))
        for tau in (0.0, 0.02, -0.25, 0.5):
            expected = base - (tau * dt) * relief
            for k in (1, 2, 3, 7):
                out = step(pop, params, tau, RngStream(4), threads=k)
                assert np.array_equal(out.incomes, expected)


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
