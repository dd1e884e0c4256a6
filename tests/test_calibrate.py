"""Rate fitting: frozen noise, monotone gap, self-consistency, smoothing."""

import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import FIXTURES
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from povdyn import calibrate
from povdyn.calibrate import (CalibrationConfig, effective_tau, fit_series,
                              fit_tau_year, replay, replay_with_effective)
from povdyn.dataio import read_series
from povdyn.errors import (DataError, InvalidTargetError,
                           NonContiguousSeriesError, PropagationOverflowError,
                           UnusableBracketError)
from povdyn.rgbm import (ModelParams, Population, apply_rate, bottom_share,
                         bottom_share_of, init_lognormal, step,
                         step_components)
from povdyn.rng import RngStream
from povdyn.series import AnnualSeries


def make_targets(params, seed, tau_true, init_share=0.35, start_year=1950):
    """Propagate a known rate path and record the resulting shares."""
    pop0 = init_lognormal(params, init_share, seed, year=start_year)
    stream = RngStream(seed)
    state = pop0
    pairs = []
    for i, tau in enumerate(tau_true):
        state = step(state, params, float(tau), stream)
        pairs.append((start_year + 1 + i, bottom_share(state)))
    return pop0, AnnualSeries.from_pairs(pairs)


# ---------------------------------------------------------------------------
# single-year fit

def test_exact_target_recovers_zero_rate():
    params = ModelParams(n_agents=2000)
    pop = init_lognormal(params, 0.3, seed=1, year=1960)
    stream = RngStream(1)
    target = bottom_share(step(pop, params, 0.0, RngStream(1)))
    fit = fit_tau_year(pop, target, params, CalibrationConfig(), stream)
    assert fit.tau == 0.0
    assert fit.residual == 0.0
    assert not fit.clamped and not fit.diverged


def test_objective_is_frozen_under_repeated_evaluation():
    params = ModelParams(n_agents=500)
    pop = init_lognormal(params, 0.3, seed=2, year=1970)
    base, relief = step_components(pop, params, RngStream(2))
    f = lambda tau: bottom_share_of(base - tau * relief, 0.5)
    assert f(0.123) == f(0.123)
    base2, relief2 = step_components(pop, params, RngStream(2))
    assert np.array_equal(base, base2) and np.array_equal(relief, relief2)


def test_single_year_self_consistency():
    params = ModelParams(n_agents=10_000)
    pop0, targets = make_targets(params, seed=3, tau_true=[0.05])
    fit = fit_tau_year(pop0, float(targets.values[0]), params,
                       CalibrationConfig(), RngStream(3))
    assert fit.tau == pytest.approx(0.05, abs=1e-3)


def test_signed_gap_monotone_on_dense_grid():
    params = ModelParams(n_agents=200)
    for seed in range(10):
        pop = init_lognormal(params, float(np.linspace(0.2, 0.45, 10)[seed]),
                             seed=seed, year=1950)
        base, relief = step_components(pop, params, RngStream(seed))
        grid = np.linspace(-0.5, 0.5, 101)
        shares = [bottom_share_of(base - t * relief, 0.5) for t in grid]
        assert np.all(np.diff(shares) >= -1e-12)


def test_two_targets_fit_in_order():
    params = ModelParams(n_agents=5000)
    pop = init_lognormal(params, 0.3, seed=5, year=1980)
    cfg = CalibrationConfig()
    base_share = bottom_share(step(pop, params, 0.0, RngStream(5)))
    lo = fit_tau_year(pop, base_share - 0.01, params, cfg, RngStream(5))
    hi = fit_tau_year(pop, base_share + 0.01, params, cfg, RngStream(5))
    assert lo.tau <= hi.tau


def test_unreachable_target_clamps_with_divergence():
    params = ModelParams(n_agents=1000)
    pop = init_lognormal(params, 0.45, seed=7, year=1990)
    cfg = CalibrationConfig(tau_min=-0.01, tau_max=0.01)
    fit = fit_tau_year(pop, 0.06, params, cfg, RngStream(7))
    assert fit.clamped and fit.diverged
    assert fit.tau == cfg.tau_min
    fit_hi = fit_tau_year(pop, 0.9, params, cfg, RngStream(7))
    assert fit_hi.clamped and fit_hi.tau == cfg.tau_max


def test_config_validation():
    with pytest.raises(ValueError):
        CalibrationConfig(tau_min=0.5, tau_max=-0.5)
    with pytest.raises(ValueError):
        CalibrationConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        CalibrationConfig(smoothing_window=0)
    with pytest.raises(ValueError):
        CalibrationConfig(forward_rate="both")
    for kwargs in ({"tau_min": -math.inf}, {"tau_max": math.inf},
                   {"tolerance": math.inf}, {"tolerance": math.nan}):
        with pytest.raises(ValueError):
            CalibrationConfig(**kwargs)


# ---------------------------------------------------------------------------
# series fit

def test_staircase_recovery():
    params = ModelParams(n_agents=10_000)
    tau_true = np.where(np.arange(20) < 10, 0.02, -0.01)
    pop0, targets = make_targets(params, seed=8, tau_true=tau_true)
    res = fit_series(pop0, targets, params, CalibrationConfig(), seed=8)
    assert np.max(np.abs(res.tau.values - tau_true)) < 5e-3
    assert np.max(res.residuals.values) <= CalibrationConfig().tolerance


def test_zero_rate_trajectory_fits_to_zero():
    params = ModelParams(n_agents=5000)
    pop0, targets = make_targets(params, seed=9, tau_true=np.zeros(8))
    res = fit_series(pop0, targets, params, CalibrationConfig(), seed=9)
    assert np.max(np.abs(res.tau.values)) < 1e-3


def test_gap_in_targets_rejected():
    params = ModelParams(n_agents=100)
    pop0, targets = make_targets(params, seed=1, tau_true=[0.0, 0.0, 0.0])
    gappy = AnnualSeries(np.array([1951, 1953]),
                         np.array(targets.values[[0, 2]]))
    with pytest.raises(NonContiguousSeriesError, match="interpolate"):
        fit_series(pop0, gappy, params, CalibrationConfig(), seed=1)


def test_first_target_year_must_follow_initial():
    params = ModelParams(n_agents=100)
    pop0, targets = make_targets(params, seed=1, tau_true=[0.0, 0.0])
    shifted = AnnualSeries(targets.years + 5, targets.values)
    with pytest.raises(DataError):
        fit_series(pop0, shifted, params, CalibrationConfig(), seed=1)


def test_result_series_share_one_year_range():
    params = ModelParams(n_agents=1000)
    pop0, targets = make_targets(params, seed=10, tau_true=[0.01] * 6)
    res = fit_series(pop0, targets, params, CalibrationConfig(), seed=10)
    for series in (res.tau, res.tau_effective, res.residuals,
                   res.replay_shares, res.fitted_shares):
        assert np.array_equal(series.years, targets.years)
    assert np.all(res.residuals.values >= 0)


# ---------------------------------------------------------------------------
# smoothing

def test_effective_tau_constant_series():
    s = AnnualSeries(np.arange(1990, 2000), np.full(10, 0.03))
    assert np.allclose(effective_tau(s, 5).values, 0.03)


def test_effective_tau_prefix_rule():
    s = AnnualSeries(np.array([2000, 2001, 2002]), np.array([0.1, 0.2, 0.3]))
    assert np.allclose(effective_tau(s, 5).values, [0.1, 0.15, 0.2])


def test_effective_tau_bounded_by_extremes():
    rng = np.random.default_rng(0)
    v = rng.normal(0, 0.1, 40)
    s = AnnualSeries(np.arange(1950, 1990), v)
    sm = effective_tau(s, 5).values
    assert sm.min() >= v.min() - 1e-15 and sm.max() <= v.max() + 1e-15


def test_effective_tau_is_linear():
    rng = np.random.default_rng(1)
    years = np.arange(1950, 1980)
    x, y = rng.normal(size=30), rng.normal(size=30)
    a, b = 2.5, -1.25
    lhs = effective_tau(AnnualSeries(years, a * x + b * y), 5).values
    rhs = (a * effective_tau(AnnualSeries(years, x), 5).values
           + b * effective_tau(AnnualSeries(years, y), 5).values)
    assert np.allclose(lhs, rhs, atol=1e-14)


# ---------------------------------------------------------------------------
# replay

def test_window_one_replay_reproduces_fit_exactly():
    params = ModelParams(n_agents=3000)
    pop0, targets = make_targets(params, seed=12, tau_true=[0.02] * 10)
    cfg = CalibrationConfig(smoothing_window=1)
    res = fit_series(pop0, targets, params, cfg, seed=12)
    assert np.array_equal(res.tau_effective.values, res.tau.values)
    assert np.array_equal(res.replay_shares.values, res.fitted_shares.values)
    assert np.max(np.abs(res.replay_shares.values - targets.values)) <= 1e-4


def test_replay_deterministic():
    params = ModelParams(n_agents=2000)
    pop0, targets = make_targets(params, seed=13, tau_true=[0.01] * 6)
    res = fit_series(pop0, targets, params, CalibrationConfig(), seed=13)
    a = replay_with_effective(pop0, res, params, seed=13)
    b = replay_with_effective(pop0, res, params, seed=13)
    assert np.array_equal(a.values, b.values)


def test_replay_panel_collection():
    params = ModelParams(n_agents=50)
    pop0, targets = make_targets(params, seed=14, tau_true=[0.0] * 4)
    rates = AnnualSeries(targets.years, np.zeros(4))
    shares, panel = replay(pop0, rates, params, seed=14, collect_panel=True)
    assert panel.incomes.shape == (50, 5)
    assert panel.first_year == pop0.year
    assert np.array_equal(panel.incomes[:, 0], pop0.incomes)
    # stepping by hand reproduces the panel columns
    state = pop0
    stream = RngStream(14)
    for j in range(4):
        state = step(state, params, 0.0, stream)
        assert np.array_equal(panel.incomes[:, j + 1], state.incomes)


def test_replay_sink_sees_the_collected_rows():
    # the row hook gets the rows that collect_panel=True keeps, in order,
    # the initial row first
    params = ModelParams(n_agents=300)
    pop0, targets = make_targets(params, seed=17, tau_true=[0.02] * 5)
    rates = AnnualSeries(targets.years, np.full(5, 0.01))
    seen = []
    shares, none = replay(pop0, rates, params, seed=17, threads=2,
                          _sink=lambda y, x: seen.append((y, x.copy())))
    want, panel = replay(pop0, rates, params, seed=17, collect_panel=True)
    assert none is None
    assert np.array_equal(shares.values, want.values)
    assert [y for y, _ in seen] == list(range(pop0.year, 1956))
    assert np.array_equal(np.stack([x for _, x in seen]), panel.incomes.T)


@pytest.mark.parametrize("stepper", ["replay", "fit_series"])
def test_collect_panel_and_a_sink_exclude_each_other(stepper):
    params = ModelParams(n_agents=100)
    pop0, targets = make_targets(params, seed=18, tau_true=[0.0] * 3)
    sink = lambda year, incomes: None
    with pytest.raises(ValueError, match="collect_panel"):
        if stepper == "replay":
            replay(pop0, AnnualSeries(targets.years, np.zeros(3)), params,
                   seed=18, collect_panel=True, _sink=sink)
        else:
            fit_series(pop0, targets, params, CalibrationConfig(), seed=18,
                       collect_panel=True, _sink=sink)


def test_replay_thread_count_does_not_change_bytes():
    params = ModelParams(n_agents=4000)
    pop0, targets = make_targets(params, seed=15, tau_true=[0.03] * 5)
    rates = AnnualSeries(targets.years, np.full(5, 0.015))
    a, pa = replay(pop0, rates, params, seed=15, threads=1, collect_panel=True)
    b, pb = replay(pop0, rates, params, seed=15, threads=5, collect_panel=True)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(pa.incomes, pb.incomes)


def test_forward_rate_effective_mode_runs():
    params = ModelParams(n_agents=1000)
    pop0, targets = make_targets(params, seed=16, tau_true=[0.02] * 8)
    cfg = CalibrationConfig(forward_rate="effective")
    res = fit_series(pop0, targets, params, cfg, seed=16)
    assert len(res.tau) == 8
    assert np.all(np.isfinite(res.tau.values))


# ---------------------------------------------------------------------------
# one draw per year, in-place gap, undefined shares

@pytest.mark.parametrize("forward_rate", ["fitted", "effective"])
def test_fused_replay_matches_separate_replay(forward_rate):
    params = ModelParams(n_agents=3000, dt=0.5)
    tau_true = np.linspace(0.04, -0.02, 12)
    pop0, targets = make_targets(params, seed=21, tau_true=tau_true)
    cfg = CalibrationConfig(forward_rate=forward_rate, smoothing_window=4)
    res = fit_series(pop0, targets, params, cfg, seed=21, collect_panel=True)
    assert np.array_equal(res.tau_effective.values,
                          effective_tau(res.tau, 4).values)
    for threads in (1, 3):
        shares, panel = replay(pop0, res.tau_effective, params, seed=21,
                               threads=threads, collect_panel=True)
        assert np.array_equal(res.replay_shares.values, shares.values)
        assert np.array_equal(res.panel.incomes, panel.incomes)
        assert np.array_equal(res.panel.years, panel.years)
        assert res.panel.years.dtype == panel.years.dtype
        assert res.panel.seed == panel.seed
        assert res.panel.fingerprint == panel.fingerprint
    # the panel is only kept on request, and never changes the fit
    plain = fit_series(pop0, targets, params, cfg, seed=21)
    assert plain.panel is None
    for name in ("tau", "tau_effective", "residuals"):
        assert getattr(plain, name) == getattr(res, name)
    assert np.array_equal(plain.replay_shares.values,
                          res.replay_shares.values)


def test_effective_forward_state_is_the_validation_replay(fixtures_dir):
    # with a bracket whose midpoints are not dyadic, the mean of the last
    # rates and the cumulative-sum trailing mean differ in the last bit in
    # most years; the forward state must step under the written rate
    series = read_series(fixtures_dir / "s50_synthetic.csv", value_col="s50")
    params = ModelParams(n_agents=5000)
    pop0 = init_lognormal(params, float(series.values[0]), 42,
                          year=series.first_year)
    targets = AnnualSeries(series.years[1:], series.values[1:])
    cfg = CalibrationConfig(tau_min=-0.3, tau_max=0.7,
                            forward_rate="effective")
    res = fit_series(pop0, targets, params, cfg, seed=42)
    assert len(res.tau) == 59
    assert np.array_equal(res.fitted_shares.values, res.replay_shares.values)


def test_fit_series_draws_step_noise_once_per_year(monkeypatch):
    params = ModelParams(n_agents=500)
    pop0, targets = make_targets(params, seed=22, tau_true=[0.01] * 7)
    draws = []
    original = RngStream.normals

    def counting(self, year, tag, lo, hi, dt=1.0):
        draws.append((year, tag, lo, hi))
        return original(self, year, tag, lo, hi, dt)

    monkeypatch.setattr(RngStream, "normals", counting)
    fit_series(pop0, targets, params, CalibrationConfig(), seed=22)
    assert len(draws) == len(targets)
    assert [d[0] for d in draws] == list(range(pop0.year,
                                               targets.last_year))


def test_in_place_gap_matches_allocating_form():
    params = ModelParams(n_agents=20_000, dt=0.5)
    pop = init_lognormal(params, 0.3, seed=23, year=1970)
    pop.incomes[:7] = -0.2
    base, relief = step_components(pop, params, RngStream(23))
    scratch = np.empty_like(base)
    for tau in np.linspace(-0.5, 0.5, 41):
        want = base - (tau * params.dt) * relief
        got = apply_rate(base, relief, tau, params.dt, out=scratch)
        assert np.array_equal(got, want)
        assert (bottom_share_of(got, 0.5, overwrite_input=True)
                == float(np.sum(np.partition(want, 9999)[:10_000]))
                / float(np.sum(want)))
    # out may be relief itself
    want = base - (0.3 * params.dt) * relief
    assert np.array_equal(apply_rate(base, relief.copy(), 0.3, params.dt,
                                     out=relief), want)


def _degenerate_population(year):
    # total income is negative and sigma = 0 keeps it so: the bottom
    # share is undefined in every year
    return Population(np.array([-1.0, 0.5]), year)


def test_undefined_shares_are_nan_not_zero():
    params = ModelParams(sigma=0.0, n_agents=2)
    pop = _degenerate_population(1950)
    targets = AnnualSeries(np.arange(1951, 1955), np.full(4, 0.3))
    with pytest.warns(UserWarning, match=r"undefined .*1951, 1952, 1953, 1954"):
        shares, _ = replay(pop, AnnualSeries(targets.years, np.zeros(4)),
                           params, seed=1)
    assert np.all(np.isnan(shares.values))
    with pytest.warns(UserWarning, match=r"undefined .*1951, 1952, 1953, 1954"):
        res = fit_series(pop, targets, params, CalibrationConfig(), seed=1)
    assert np.all(np.isnan(res.replay_shares.values))
    assert np.all(np.isnan(res.fitted_shares.values))
    assert res.clamped_years == tuple(range(1951, 1955))


def test_cli_writes_undefined_shares_as_empty_fields(tmp_path, monkeypatch,
                                                     fixtures_dir, capsys):
    from povdyn import cli
    monkeypatch.chdir(fixtures_dir)
    monkeypatch.setattr(cli, "init_lognormal",
                        lambda params, s50, seed, year: (
                            _degenerate_population(year)))
    out = tmp_path / "cal"
    with pytest.warns(UserWarning, match="undefined"):
        code = cli.main(["calibrate", "--config", "pipeline_small.cfg",
                         "--sigma", "0", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert "outside [0, 1]" not in capsys.readouterr().out
    for name in ("replay_shares.csv", "fitted_shares.csv"):
        rows = (out / name).read_text().splitlines()[2:]
        assert rows and all(r.endswith(",") for r in rows), name


# SHA-256 of each calibration CSV without its manifest line, recorded
# before noise was drawn in blocks and shared by the fit and the replay.
# 50,000 agents span several noise blocks.
CALIBRATION_50K = {
    "tau.csv":
        "ea0dbf2ab787630b50bf4d1543e21ad5ecb6a991d766f312179dd3a99a3d1652",
    "tau_effective.csv":
        "7d6749fc2ffe1384b146f8177c6d67d71d69a327b1b8c274ffee36682c79f217",
    "residuals.csv":
        "0ab47a9a15644b2877580ba10006368cc7dc24b677b4502f68ab1a08f71ab4cd",
    "replay_shares.csv":
        "847381c83f573e76888a6708084845e73f5705940d855cca09a3424c8b99a15f",
    "fitted_shares.csv":
        "c99805e52d17fef89b714eb5ba252441f2e1567c5466111263e381d4bc5e6535",
}


def _body_digest(path) -> str:
    """SHA-256 of a written CSV without its manifest line."""
    text = path.read_text(encoding="utf-8")
    body = "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# manifest:"))
    return hashlib.sha256(body.encode()).hexdigest()


def test_calibration_outputs_keep_their_bytes(tmp_path, monkeypatch,
                                              fixtures_dir):
    from povdyn.cli import EXIT_OK, main
    monkeypatch.chdir(fixtures_dir)
    out = tmp_path / "cal"
    assert main(["calibrate", "--config", "pipeline_small.cfg",
                 "--n-agents", "50000", "--out", str(out)]) == EXIT_OK
    for name, digest in CALIBRATION_50K.items():
        assert _body_digest(out / name) == digest, name


@pytest.fixture(scope="module")
def calibration_50k_without_avx512(tmp_path_factory):
    """The output directory of the 50k-agent fixture calibration run in a
    process with NumPy's AVX-512 kernels switched off."""
    from numpy._core._multiarray_umath import __cpu_features__
    if not __cpu_features__.get("X86_V4"):
        pytest.skip("NumPy's X86_V4 level is off here: the pinned digests "
                    "are those of an AVX-512 run")
    out = tmp_path_factory.mktemp("cal_avx2")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES":
           "X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": str(FIXTURES.resolve().parents[1] / "src")}
    code = ("import sys\n"
            "from povdyn.cli import main\n"
            "sys.exit(main(['calibrate', '--config', 'pipeline_small.cfg', "
            f"'--n-agents', '50000', '--out', {str(out)!r}]))")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         cwd=FIXTURES, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    return out


@pytest.mark.parametrize("name", [
    *(n for n in CALIBRATION_50K if n != "residuals.csv"),
    pytest.param("residuals.csv", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 14: bottom_share_of sums the "
        "bottom half in np.partition order, which differs between NumPy's "
        "AVX-512 and AVX2 levels, so 17 of the 59 residuals differ, by up "
        "to 2e-11 relative"))])
def test_calibration_bytes_without_avx512(calibration_50k_without_avx512,
                                          name):
    # the extent of ROADMAP item 14 on this fixture: the rates and shares
    # keep their AVX-512 bytes, the residuals do not
    assert _body_digest(calibration_50k_without_avx512 / name) == \
        CALIBRATION_50K[name]


@pytest.mark.parametrize("forward_rate", ["fitted", "effective"])
def test_fitted_share_is_the_searched_share(monkeypatch, forward_rate):
    # under "fitted" a year's fitted share is the one the search took at
    # the returned rate: one bottom_share_of per gap evaluation and one
    # for the validation share each year; "effective" steps the forward
    # state under another rate and takes its share too
    params = ModelParams(n_agents=3000)
    pop0, targets = make_targets(params, seed=31,
                                 tau_true=[0.02, -0.01, 0.03, 0.0, 0.01])
    calls = {"shares": 0, "gaps": 0}
    share_of, search = calibrate.bottom_share_of, calibrate._search_tau

    def counting_share(*args, **kwargs):
        calls["shares"] += 1
        return share_of(*args, **kwargs)

    def counting_search(gap, *args):
        if getattr(gap, "counted", False):  # a fallback's plain search
            return search(gap, *args)

        def counted(tau):
            calls["gaps"] += 1
            return gap(tau)
        counted.counted = True
        return search(counted, *args)

    monkeypatch.setattr(calibrate, "bottom_share_of", counting_share)
    monkeypatch.setattr(calibrate, "_search_tau", counting_search)
    res = fit_series(pop0, targets, params,
                     CalibrationConfig(forward_rate=forward_rate), seed=31)
    per_year = {"fitted": 1, "effective": 2}[forward_rate]
    assert calls["shares"] == calls["gaps"] + per_year * len(targets)
    monkeypatch.undo()
    # the forward state's trajectory under its rates, replayed
    rates = res.tau if forward_rate == "fitted" else res.tau_effective
    shares, _ = replay(pop0, rates, params, seed=31)
    assert np.array_equal(res.fitted_shares.values, shares.values)


# ---------------------------------------------------------------------------
# unusable rates

def test_search_moves_away_from_unusable_rates():
    # a model whose stepped total overflows for |tau| > 10: the gap of
    # an unusable rate is infinite with the rate's sign
    def gap(tau):
        return tau - 0.1 if abs(tau) <= 10.0 else math.copysign(math.inf, tau)

    tau, residual, clamped = calibrate._search_tau(gap, -1e308, 1e308, 1e-9,
                                                   2000)
    assert abs(tau - 0.1) <= 1e-9 and residual <= 1e-9 and not clamped
    # one unusable endpoint: the usable one wins within a few steps
    tau, residual, _ = calibrate._search_tau(gap, -1e308, 5.0, 1e-9, 3)
    assert tau == 5.0 and residual == pytest.approx(4.9)
    # no usable rate at either end of a one-sided bracket
    _, residual, clamped = calibrate._search_tau(gap, 20.0, 1e308, 1e-9, 50)
    assert math.isinf(residual) and clamped
    # finite but meaningless gaps at huge rates, of opposite signs: lo + hi
    # overflows, and the bisection stops instead of trying an infinite
    # rate max_iterations times
    rates = []

    def noise_gap(tau):
        rates.append(tau)
        return -1.0 if tau < 1.5e308 else 1.0

    tau, residual, _ = calibrate._search_tau(noise_gap, 1e308, 1.7e308, 1e-9,
                                             10**6)
    assert tau == 1.7e308 and residual == 1.0
    assert rates == [1e308, 1.7e308]


def test_search_bisects_a_falling_or_concave_gap():
    # the share is concave in the rate, so endpoint gaps of opposite sign
    # bracket one root whichever way the gap crosses it; both are bisected
    def falling(tau):
        return 0.1 - tau

    tau, residual, clamped = calibrate._search_tau(falling, -0.5, 0.5, 1e-9,
                                                   200)
    assert abs(tau - 0.1) <= 1e-9 and residual <= 1e-9 and not clamped

    # g(lo) > 0 > g(hi), rising first: |gap| has a second local minimum
    # at lo, where a golden-section search on |gap| ends (residual 0.01)
    # instead of at the root 0.5
    def concave(tau):
        return min(0.01 + tau, 5.0 - 10.0 * tau)

    tau, residual, clamped = calibrate._search_tau(concave, 0.0, 1.0, 1e-9,
                                                   200)
    assert abs(tau - 0.5) <= 1e-9 and residual <= 1e-9 and not clamped
    # endpoint gaps of the same sign still clamp to the nearer endpoint
    assert calibrate._search_tau(lambda t: t + 1.0, -0.5, 0.5, 1e-9, 200) \
        == (-0.5, 0.5, True)
    assert calibrate._search_tau(lambda t: -1.0 - t, -0.5, 0.5, 1e-9, 200) \
        == (-0.5, 0.5, True)


def test_wide_bracket_fit_stays_finite():
    params = ModelParams(n_agents=10)
    pop0, targets = make_targets(params, seed=3, tau_true=[0.01, 0.02])
    cfg = CalibrationConfig(tau_min=-1e308, tau_max=1e308)
    res = fit_series(pop0, targets, params, cfg, seed=3)
    assert np.all(np.isfinite(res.tau.values))
    assert np.all(np.isfinite(res.tau_effective.values))
    assert np.all(np.isfinite(res.fitted_shares.values))
    assert np.all(np.isfinite(res.replay_shares.values))


def test_bracket_without_usable_rate_is_a_typed_error():
    # tau*relief overflows for every rate of the bracket (the richest
    # agents are more than 1.8 above the mean)
    params = ModelParams(n_agents=2000)
    pop = init_lognormal(params, 0.2, seed=4, year=1960)
    cfg = CalibrationConfig(tau_min=1e308, tau_max=1.5e308)
    with pytest.raises(UnusableBracketError,
                       match=r"year 1961: .*\[1e\+308, 1\.5e\+308\]"):
        fit_tau_year(pop, 0.25, params, cfg, RngStream(4))


# ---------------------------------------------------------------------------
# the helper thread

def test_validation_overflow_names_the_replay_agent_and_year(monkeypatch):
    # fitted rates chosen so that the validation step of the third year
    # overflows; window 1 makes the smoothed rates the fitted ones
    params = ModelParams(n_agents=500)
    pop0, targets = make_targets(params, seed=24, tau_true=[0.0] * 4,
                                 init_share=0.2)
    rates = iter([0.0, 0.01, 1.7e308, 0.0])
    monkeypatch.setattr(calibrate, "_search_tau",
                        lambda *args: (next(rates), 0.0, False))
    cfg = CalibrationConfig(smoothing_window=1)
    with pytest.raises(PropagationOverflowError) as fit_error:
        fit_series(pop0, targets, params, cfg, seed=24)
    with pytest.raises(PropagationOverflowError) as replay_error:
        replay(pop0, AnnualSeries(targets.years,
                                  np.array([0.0, 0.01, 1.7e308, 0.0])),
               params, seed=24)
    assert fit_error.value.year == replay_error.value.year == 1952
    assert fit_error.value.agent == replay_error.value.agent


def _raising_parts(*args):
    raise RuntimeError("helper failed")


@pytest.mark.parametrize("case", ["returns", "main raises", "helper raises"])
def test_fit_series_leaves_no_thread_behind(monkeypatch, case):
    params = ModelParams(n_agents=2000)
    pop0, targets = make_targets(params, seed=25, tau_true=[0.01] * 5)
    if case == "main raises":
        # the third year's target is invalid: the main thread raises while
        # the helper holds that year's parts and the next year's draw
        targets = AnnualSeries(targets.years,
                               np.where(np.arange(5) == 2, 1.5,
                                        targets.values))
    if case == "helper raises":
        monkeypatch.setattr(calibrate, "_replay_parts", _raising_parts)
    before = set(threading.enumerate())
    if case == "returns":
        fit_series(pop0, targets, params, CalibrationConfig(), seed=25)
    else:
        error = (InvalidTargetError if case == "main raises"
                 else RuntimeError)
        with pytest.raises(error):
            fit_series(pop0, targets, params, CalibrationConfig(), seed=25)
    assert set(threading.enumerate()) == before


def test_fit_series_peak_memory_is_one_vector_above_serial():
    # Peak, counted in float64 N-vectors, for every interleaving of the
    # main thread and the helper. While the main thread searches year t
    # it holds the fit's base, relief and scratch vector (3). The helper
    # then holds the validation step's parts (2): it builds them from the
    # replayed incomes and the noise, and the relief goes into the noise
    # buffer itself. It also holds the noise of year t+1 that it draws (1).
    # Every other vector is dropped before the helper is given work. That
    # makes 6. Stepping both trajectories on one thread peaked at 5 plus
    # the overflow check's boolean mask (1/8): base, relief and scratch
    # beside the replayed incomes and the noise. So the bound is
    # 6 + 1/8 vectors. What is left is the prefetch draw's two 64 KiB
    # block buffers and a few small Python objects.
    n = 200_000
    params = ModelParams(n_agents=n)
    pop0 = init_lognormal(params, 0.3, seed=26, year=1950)
    targets = AnnualSeries(np.arange(1951, 1957),
                           np.linspace(0.30, 0.28, 6))
    fit_series(pop0, AnnualSeries(targets.years[:1], targets.values[:1]),
               params, CalibrationConfig(), seed=26)  # warm up
    tracemalloc.start()
    try:
        fit_series(pop0, targets, params, CalibrationConfig(), seed=26)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (6 + 1 / 8) * 8 * n


def _fit_bytes(pop0, targets, params, seed):
    res = fit_series(pop0, targets, params, CalibrationConfig(), seed=seed,
                     collect_panel=True)
    return (res.tau.values.tobytes() + res.replay_shares.values.tobytes()
            + res.fitted_shares.values.tobytes() + res.panel.incomes.tobytes())


def test_concurrent_fits_under_fast_thread_switching_keep_their_bytes():
    # three fits at once (six threads on fewer cores) with the interpreter
    # switching threads every microsecond: each must equal a lone fit, so a
    # noise buffer used up before the fit has read it would show
    params = ModelParams(n_agents=20_000)
    pop0, targets = make_targets(params, seed=27, tau_true=[0.02] * 8)
    want = _fit_bytes(pop0, targets, params, 27)
    got = [None] * 3

    def run(k):
        got[k] = _fit_bytes(pop0, targets, params, 27)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(k,)) for k in range(3)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert got == [want] * 3


# ---------------------------------------------------------------------------
# the certified search

_U = 2.0 ** -53


def _both_searches(gap, lo, hi, tolerance, max_iterations, margin,
                   search=calibrate._search_tau):
    """The certified and the plain result, and the rates each evaluated.

    Every sign the bounds prove on the way is checked against the gap
    itself: a wrong one may still end in the plain result, through the
    fallback of a bisection that misses the tolerance.
    """
    prove = calibrate._ConcaveBounds.sign

    def checked(bounds, tau):
        side = prove(bounds, tau)
        assert side == 0 or side * gap(tau) > tolerance, (tau, side)
        return side

    certified, plain = [], []
    with mock.patch.object(calibrate._ConcaveBounds, "sign", checked):
        got = search(lambda t: certified.append(t) or gap(t), lo, hi,
                     tolerance, max_iterations, margin)
    want = search(lambda t: plain.append(t) or gap(t), lo, hi, tolerance,
                  max_iterations)
    return got, want, certified, plain


def _concave_gap(pieces, delta, freq):
    """A concave piecewise-linear gap, the least of the affine pieces
    ``a + b*tau``, plus a deterministic jitter of at most ``delta``; and a
    margin that bounds the jitter and the rounding of the pieces."""
    def gap(tau):
        return (min(a + b * tau for a, b in pieces)
                + delta * math.sin(freq * tau))

    def margin(tau):
        size = max(abs(a) + abs(b * tau) for a, b in pieces)
        return delta + 4 * _U * (size + delta)

    return gap, margin


concave_gaps = st.builds(
    _concave_gap,
    st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-20.0, 20.0)),
             min_size=1, max_size=4),
    st.sampled_from([0.0, 1e-12, 1e-6, 3e-5, 1e-4, 1e-3]),
    st.floats(1e2, 1e5))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(gm=concave_gaps, lo=st.floats(-1.0, 0.5), width=st.floats(1e-3, 2.0),
       tolerance=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-4, 1e-2]),
       max_iterations=st.sampled_from([1, 3, 8, 200]))
# the root at 0.5 sits on the kink, where the chord of the evaluated
# rates on either side lies far below the gap
@example(gm=_concave_gap([(0.01, 1.0), (5.0, -10.0)], 0.0, 1.0), lo=0.0,
         width=1.0, tolerance=1e-9, max_iterations=200)
# a jitter of 1e-6 on a line: the bounds must allow for it
@example(gm=_concave_gap([(1.0, 4.0)], 1e-6, 17958.0), lo=-1.0, width=1.0,
         tolerance=1e-9, max_iterations=200)
# the root lies within 1e-9 of hi: every evaluated midpoint becomes the
# lower end, and the upper side keeps only its endpoint
@example(gm=_concave_gap([(-1.0 + 5e-10, 1.0)], 0.0, 1.0), lo=0.0, width=1.0,
         tolerance=1e-12, max_iterations=200)
# a falling gap: a midpoint with a positive gap becomes the lower end
@example(gm=_concave_gap([(0.2, -1.0), (1.0, -4.0)], 1e-6, 300.0), lo=0.0,
         width=1.0, tolerance=1e-9, max_iterations=200)
def test_certified_search_is_the_plain_search(gm, lo, width, tolerance,
                                              max_iterations):
    # bit for bit, whenever the gap is within its margin of a concave
    # function; the jitter stands in for rounding, so a margin that left
    # it out, or a bound that is not one, would take a wrong branch
    gap, margin = gm
    got, want, _, _ = _both_searches(gap, lo, lo + width, tolerance,
                                     max_iterations, margin)
    assert got == want


def test_certified_search_falls_back_on_a_non_finite_gap():
    # a gap the bounds do not model: -inf at the midpoint where the plain
    # bisection of a line meets the tolerance. No bound can decide that
    # midpoint, so the certified search evaluates it; it then hands over
    # to the plain bisection, which reads -inf as a negative gap, and
    # evaluates all of its rates again
    def line(tau):
        return tau - 0.1

    root, _, _ = calibrate._search_tau(line, -0.5, 0.5, 1e-4, 200)

    def gap(tau):
        return -math.inf if tau == root else line(tau)

    got, want, certified, plain = _both_searches(gap, -0.5, 0.5, 1e-4, 200,
                                                 lambda tau: 4 * _U)
    assert got == want
    assert certified[-len(plain) - 1] == root
    assert certified[-len(plain):] == plain


def test_certified_search_evaluates_a_line_gap_four_times():
    # the endpoints, then 0.0, which the chord of the endpoints cannot
    # prove; the line through -0.5 and 0.0 and the chord from 0.0 to 0.5
    # prove every midpoint after it but the one that meets the tolerance
    got, want, certified, _ = _both_searches(
        lambda tau: tau - 0.1, -0.5, 0.5, 1e-4, 200, lambda tau: 4 * _U)
    assert got == want
    assert certified == [-0.5, 0.5, 0.0, 0.10009765625]


def _two_pass_margin(base, relief, total, target_s50, dt, scratch):
    """``_gap_margin`` as first written: ``sum|base|`` summed from a copy
    of ``|base|`` whatever the sign of ``base``."""
    n = len(base)
    gn = calibrate._gamma(n)
    g3 = calibrate._gamma(3)
    a = float(np.sum(np.abs(base, out=scratch)))
    q = float(np.sum(np.abs(relief, out=scratch)))
    r_sum = abs(float(np.sum(relief))) + gn * q
    t_lo = total - gn * a
    u, eta = calibrate._U, calibrate._ETA

    def margin(tau):
        r = abs(tau * dt)
        m = a + r * q
        d = u * a + g3 * r * q + eta * (n + q)
        s = m + d
        e_b = d + gn * s
        e_t = e_b + r * r_sum
        t_hat = t_lo - e_t
        if not t_hat > 0.0:
            return math.inf
        return 2.0 * ((e_b + 2.0 * u * s) / t_hat + m * e_t / (t_hat * t_lo)
                      + u * abs(target_s50) + eta)

    return margin


@pytest.mark.parametrize("sigma", [0.15, 1.5])
def test_gap_margin_is_the_two_pass_margin(sigma):
    # sigma 0.15 steps every income to a positive base, 1.5 leaves some
    # below zero; either way the margin keeps its bits
    params = ModelParams(sigma=sigma, n_agents=20_001)
    pop = init_lognormal(params, 0.3, seed=5, year=1970)
    base, relief = step_components(pop, params, RngStream(5))
    assert (base.min() >= 0) == (sigma < 1)
    total = float(np.sum(base))
    got = calibrate._gap_margin(base, relief, total, 0.21, params.dt,
                                np.empty_like(base))
    want = _two_pass_margin(base, relief, total, 0.21, params.dt,
                            np.empty_like(base))
    for tau in (0.0, -0.0, 1e-300, 0.05, -0.3, 2.5, -1e6, 1e300):
        assert got(tau).hex() == want(tau).hex(), tau


def _fixture_fit(monkeypatch, fixtures_dir, tmp_path, n_agents):
    """Calibrate the fixture; for each year, the certified and the plain
    search of the same ``_fit_one`` gap, and the certified evaluations."""
    from povdyn.cli import EXIT_OK, main
    search = calibrate._search_tau
    years = []

    def both(gap, lo, hi, tolerance, max_iterations, margin=None):
        if margin is None:  # a fallback's plain search
            return search(gap, lo, hi, tolerance, max_iterations)
        got, want, certified, _ = _both_searches(
            gap, lo, hi, tolerance, max_iterations, margin, search)
        years.append((got, want, len(certified)))
        return got

    monkeypatch.setattr(calibrate, "_search_tau", both)
    monkeypatch.chdir(fixtures_dir)
    assert main(["calibrate", "--config", "pipeline_small.cfg",
                 "--n-agents", str(n_agents),
                 "--out", str(tmp_path / "cal")]) == EXIT_OK
    return years


@pytest.mark.parametrize("n_agents", [400, 50_000])
def test_certified_search_fits_the_fixture_to_the_last_bit(
        monkeypatch, fixtures_dir, tmp_path, n_agents):
    years = _fixture_fit(monkeypatch, fixtures_dir, tmp_path, n_agents)
    assert len(years) == 59
    for got, want, _ in years:
        assert got == want


def test_certified_search_needs_at_most_4_5_evaluations_per_year(
        monkeypatch, fixtures_dir, tmp_path):
    # the plain bisection needs about 11: the endpoints, the midpoint that
    # meets the tolerance and about one unproved midpoint make about 4.3
    years = _fixture_fit(monkeypatch, fixtures_dir, tmp_path, 400)
    assert sum(n for _, _, n in years) <= 4.5 * len(years)
