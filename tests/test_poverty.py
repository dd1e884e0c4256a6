"""Poverty lines, durations, transitions, persistence, Gini."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from povdyn.errors import (DataError, NonContiguousSeriesError,
                           UndefinedGiniError)
from povdyn.poverty import (IncomePanel, PovertyAccumulator,
                            PovertyLineSeries, _bpl_gini, _check_period,
                            _count_table, _persistence, _pooled, _Spells,
                            _transitions, bpl_gini_series,
                            classify, gini, persistence_probs,
                            persistence_report, pooled_metrics,
                            poverty_line_from_hcr, sample_paths,
                            transition_probs, transition_report)
from povdyn.rgbm import Population
from povdyn.series import AnnualSeries

import oracles
from conftest import panel_from_matrix, pp_from_flags, random_poverty_panel


# ---------------------------------------------------------------------------
# poverty line

def test_line_at_zero_hcr():
    z, count = poverty_line_from_hcr(np.array([3.0, 1.0, 2.0]), 0.0)
    assert z == 1.0 and count == 0


def test_line_hand_case():
    z, count = poverty_line_from_hcr(np.array([1.0, 2.0, 3.0, 4.0]), 0.5)
    assert z == 3.0 and count == 2


def test_line_at_full_hcr_sentinel():
    z, count = poverty_line_from_hcr(np.array([1.0, 2.0]), 1.0)
    assert np.isinf(z) and count == 2


def test_line_exact_headcount_on_continuous_sample():
    rng = np.random.default_rng(0)
    x = rng.lognormal(0, 0.8, 100_000)
    z, count = poverty_line_from_hcr(x, 0.44)
    assert count / len(x) == pytest.approx(0.44, abs=0)
    assert np.count_nonzero(x < z) == 44_000


def test_line_order_statistic_property():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(size=rng.integers(3, 100))
        h = rng.uniform(0, 1)
        z, count = poverty_line_from_hcr(x, h)
        k = int(np.floor(h * len(x) + 0.5))
        if k < len(x):
            assert z == np.sort(x)[k]
            assert count == k  # continuous, tie-free
        else:
            assert np.isinf(z)


def test_line_on_population_object():
    pop = Population(np.array([1.0, 2.0, 3.0, 4.0]), 1999)
    assert poverty_line_from_hcr(pop, 0.5)[0] == 3.0


# ---------------------------------------------------------------------------
# classification and durations

def test_classify_zero_hcr_all_nonpoor():
    panel = panel_from_matrix(np.random.default_rng(2).uniform(1, 2, (6, 4)))
    hcr = AnnualSeries(panel.years, np.zeros(4))
    line, pp = classify(panel, hcr)
    assert not pp.poor.any()
    assert not pp.duration.any()


def test_classify_reproduces_hcr_within_one_over_n():
    rng = np.random.default_rng(3)
    panel = panel_from_matrix(rng.lognormal(0, 1, (200, 12)))
    hcr = AnnualSeries(panel.years, rng.uniform(0.1, 0.8, 12))
    _, pp = classify(panel, hcr)
    counts = pp.poor.sum(axis=0) / 200
    assert np.all(np.abs(counts - hcr.values) <= 1.0 / 200 + 1e-12)


def test_durations_match_run_length_oracle():
    poor = np.array([
        [1, 0, 1, 1, 1, 0],
        [0, 1, 1, 0, 0, 1],
        [1, 1, 1, 1, 1, 1],
    ], dtype=bool)
    pp = pp_from_flags(poor)
    assert np.array_equal(pp.duration, oracles.durations_by_scan(poor))
    assert np.array_equal(pp.duration[2], [1, 2, 3, 4, 5, 6])


def test_durations_left_censored_start_at_one():
    pp = pp_from_flags(np.array([[1, 1], [0, 1]], dtype=bool))
    assert pp.duration[0, 0] == 1
    assert pp.duration[1, 0] == 0


def test_classify_rejects_gappy_hcr():
    panel = panel_from_matrix(np.ones((3, 5)) * [[1], [2], [3.0]])
    hcr = AnnualSeries(np.array([2000, 2002]), np.array([0.3, 0.3]))
    with pytest.raises(NonContiguousSeriesError):
        classify(panel, hcr)


def test_classify_rejects_hcr_outside_panel():
    panel = panel_from_matrix(np.ones((3, 2)) * [[1], [2], [3.0]])
    hcr = AnnualSeries(np.arange(1995, 2005), np.full(10, 0.3))
    with pytest.raises(DataError):
        classify(panel, hcr)


@pytest.mark.parametrize("bad", [1.5, -0.1])
def test_classify_rejects_bad_head_counts(bad):
    # the same typed error as PovertyAccumulator's, before any line is
    # computed; it used to be an untyped ValueError from the line
    panel = panel_from_matrix(np.ones((3, 2)) * [[1], [2], [3.0]])
    hcr = AnnualSeries(np.array([2000, 2001]), np.array([0.3, bad]))
    with pytest.raises(DataError, match="in year 2001 is outside \\[0, 1\\]"):
        classify(panel, hcr)


def test_poverty_line_ordering_nested_sets():
    rng = np.random.default_rng(4)
    panel = panel_from_matrix(rng.lognormal(0, 1, (150, 8)))
    h1 = AnnualSeries(panel.years, rng.uniform(0.2, 0.4, 8))
    h2 = AnnualSeries(panel.years, h1.values + 0.2)
    l1, p1 = classify(panel, h1)
    l2, p2 = classify(panel, h2)
    assert np.all(l1.z <= l2.z)
    assert not np.any(p1.poor & ~p2.poor)  # A-poor subset of B-poor


# ---------------------------------------------------------------------------
# transitions

def test_no_changes_give_zero_transitions():
    pp = pp_from_flags(np.array([[1, 1], [0, 0], [0, 0]], dtype=bool))
    tr = transition_probs(pp, 2001)
    assert (tr.p_in, tr.p_out, tr.p_tx) == (0.0, 0.0, 0.0)


def test_transition_hand_counts():
    # 10 agents: N_P(t-1)=4 with 1 exit; N_P(t)=5 via 2 entries
    prev = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    cur = [1, 1, 1, 0, 1, 1, 0, 0, 0, 0]
    pp = pp_from_flags(np.array([prev, cur], dtype=bool).T)
    tr = transition_probs(pp, 2001)
    assert tr.p_out == pytest.approx(0.25)
    assert tr.p_in == pytest.approx(0.4)
    assert tr.p_tx == pytest.approx(3 / 9)
    assert tr.p_in_at_risk == pytest.approx(2 / 6)


def test_transition_identity():
    rng = np.random.default_rng(5)
    for _ in range(30):
        poor = random_poverty_panel(rng, n_max=60, t_max=10)
        pp = pp_from_flags(poor)
        for t in pp.years[1:]:
            tr = transition_probs(pp, int(t))
            j = pp.index_of(int(t))
            n_p_cur = int(poor[:, j].sum())
            n_p_prev = int(poor[:, j - 1].sum())
            if n_p_cur and n_p_prev:
                lhs = tr.p_tx * (n_p_cur + n_p_prev)
                rhs = tr.p_in * n_p_cur + tr.p_out * n_p_prev
                assert lhs == pytest.approx(rhs, abs=1e-9)


def test_zero_denominators_are_nan_not_zero():
    # nobody poor at t-1 or t: p_out and p_in undefined, not 0
    pp = pp_from_flags(np.zeros((4, 2), dtype=bool))
    tr = transition_probs(pp, 2001)
    assert np.isnan(tr.p_in) and np.isnan(tr.p_out) and np.isnan(tr.p_tx)


def test_transition_requires_predecessor_year():
    pp = pp_from_flags(np.ones((3, 3), dtype=bool))
    with pytest.raises(DataError):
        transition_probs(pp, 2000)


# ---------------------------------------------------------------------------
# persistence

def test_everyone_always_poor_sticks():
    pp = pp_from_flags(np.ones((5, 6), dtype=bool))
    for t_p in range(1, 6):
        p_esc, p_stic = persistence_probs(pp, 2005, t_p)
        assert p_stic == 1.0
        assert np.isnan(p_esc)  # nobody non-poor: denominator zero


def test_nobody_ever_poor_escapes_nothing():
    pp = pp_from_flags(np.zeros((5, 6), dtype=bool))
    p_esc, p_stic = persistence_probs(pp, 2005, 1)
    assert p_esc == 0.0
    assert np.isnan(p_stic)


def test_persistence_hand_panel_with_one_spell():
    # agent 0 poor 2000-2002 (3 years) then escapes at 2003
    poor = np.array([
        [1, 1, 1, 0],
        [0, 0, 0, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 1],
    ], dtype=bool)
    pp = pp_from_flags(poor)
    for t_p in (1, 2, 3, 4):
        p_esc, p_stic = persistence_probs(pp, 2003, t_p)
        o_esc, o_stic = oracles.persistence_probs(poor, 3, t_p)
        assert p_esc == pytest.approx(o_esc, nan_ok=True)
        assert p_stic == pytest.approx(o_stic, nan_ok=True)
    # duration at 2002 is 3 for agent 0: escape counted up to t_p = 3
    assert persistence_probs(pp, 2003, 3)[0] == pytest.approx(1 / 3)
    assert persistence_probs(pp, 2003, 4)[0] == 0.0


def test_stickiness_complements_entries():
    rng = np.random.default_rng(6)
    for _ in range(20):
        poor = random_poverty_panel(rng, n_max=80, t_max=12)
        pp = pp_from_flags(poor)
        for t in pp.years[1:]:
            tr = transition_probs(pp, int(t))
            _, p_stic = persistence_probs(pp, int(t), 1)
            if not np.isnan(p_stic):
                assert p_stic + tr.p_in == pytest.approx(1.0)


def test_persistence_nonincreasing_in_threshold():
    rng = np.random.default_rng(7)
    for _ in range(20):
        poor = random_poverty_panel(rng, n_max=60, t_max=15)
        pp = pp_from_flags(poor)
        rep = persistence_report(pp, range(1, 11))
        stic = np.array([rep.by_tp[tp][0] for tp in range(1, 11)])
        esc = np.array([rep.by_tp[tp][1] for tp in range(1, 11)])
        with np.errstate(invalid="ignore"):
            assert not np.any(np.diff(stic, axis=0) > 1e-12)
            assert not np.any(np.diff(esc, axis=0) > 1e-12)


def test_count_conservation():
    rng = np.random.default_rng(8)
    for _ in range(20):
        poor = random_poverty_panel(rng, n_max=60, t_max=10)
        pp = pp_from_flags(poor)
        for j in range(1, poor.shape[1]):
            prev, cur = poor[:, j - 1], poor[:, j]
            assert (np.sum(prev & cur) + np.sum(prev & ~cur)
                    == np.sum(prev))
            assert (np.sum(~prev & cur) + np.sum(~prev & ~cur)
                    == np.sum(~prev))


# ---------------------------------------------------------------------------
# pooling

def test_single_year_pool_equals_annual():
    rng = np.random.default_rng(9)
    poor = random_poverty_panel(rng, n_max=40, t_max=8)
    pp = pp_from_flags(poor)
    t = int(pp.years[2])
    pm = pooled_metrics(pp, (t, t), t_p=2)
    tr = transition_probs(pp, t)
    p_esc, p_stic = persistence_probs(pp, t, 2)
    assert pm.p_in == pytest.approx(tr.p_in, nan_ok=True)
    assert pm.p_out == pytest.approx(tr.p_out, nan_ok=True)
    assert pm.p_tx == pytest.approx(tr.p_tx, nan_ok=True)
    assert pm.p_esc == pytest.approx(p_esc, nan_ok=True)
    assert pm.p_stic == pytest.approx(p_stic, nan_ok=True)


def test_two_year_pool_sums_counts():
    poor = np.array([
        [1, 1, 0],
        [1, 0, 0],
        [0, 1, 1],
        [0, 0, 1],
    ], dtype=bool)
    pp = pp_from_flags(poor)
    pm = pooled_metrics(pp, (2001, 2002), t_p=1)
    o = oracles.pooled_counts(poor, 1, 2, 1)
    assert pm.p_out == pytest.approx(o["n_out"] / o["n_p_prev"])
    assert pm.p_in == pytest.approx(o["n_in"] / o["n_p_cur"])
    assert pm.p_stic == pytest.approx(o["n_stick"] / o["n_p_cur"])
    assert pm.p_esc == pytest.approx(o["n_esc"] / o["n_np_cur"])
    # hand numbers: exits 2001:1,2002:1; entries 2001:1,2002:1
    assert pm.p_out == pytest.approx(2 / 4)
    assert pm.p_in == pytest.approx(2 / 4)


def test_pool_mean_method_differs_from_counts():
    rng = np.random.default_rng(10)
    poor = random_poverty_panel(rng, n_max=50, t_max=10)
    pp = pp_from_flags(poor)
    span = (int(pp.years[1]), int(pp.years[-1]))
    a = pooled_metrics(pp, span, 1, method="counts")
    b = pooled_metrics(pp, span, 1, method="mean")
    assert np.isfinite(a.p_stic) and np.isfinite(b.p_stic)


def test_pool_rejects_bad_periods():
    pp = pp_from_flags(np.ones((3, 4), dtype=bool))
    with pytest.raises(DataError):
        pooled_metrics(pp, (1990, 1991), 1)
    with pytest.raises(DataError):
        pooled_metrics(pp, (2000, 2000), 1)  # no predecessor year
    with pytest.raises(DataError):
        pooled_metrics(pp, (2003, 2001), 1)


# ---------------------------------------------------------------------------
# gini

def test_gini_all_equal_is_zero():
    assert gini(np.full(7, 3.3)) == 0.0


def test_gini_two_point_maximum():
    assert gini(np.array([0.0, 1.0])) == pytest.approx(0.5)


def test_gini_hand_vector_matches_pairwise_oracle():
    # pairwise formula: sum|xi-xj| = 20 -> 20 / (2*16*2.5) = 0.25
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert oracles.gini_pairwise(x) == pytest.approx(0.25, abs=1e-15)
    assert gini(x) == pytest.approx(oracles.gini_pairwise(x), abs=1e-12)


def test_gini_matches_pairwise_on_random_vectors():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.uniform(0, 10, rng.integers(1, 51))
        assert gini(x) == pytest.approx(oracles.gini_pairwise(x), abs=1e-12)


def test_gini_scale_invariant():
    rng = np.random.default_rng(12)
    x = rng.lognormal(0, 1, 40)
    assert gini(3.7 * x) == pytest.approx(gini(x), abs=1e-12)


def test_gini_rejects_bad_input():
    with pytest.raises(UndefinedGiniError):
        gini(np.zeros(5))
    with pytest.raises(ValueError):
        gini(np.array([-1.0, 2.0]))
    with pytest.raises(ValueError):
        gini(np.array([]))


def test_gini_bits_do_not_depend_on_blas_threads():
    # a BLAS dot product splits its sum by thread count; on this vector
    # np.dot gave different last bits under 1 and 2 OpenBLAS threads
    code = ("import numpy as np; from povdyn.poverty import gini; "
            "x = np.random.default_rng(1).lognormal(0, 1, 50_000); "
            "print(float.hex(gini(x)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    bits = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": src}
        bits.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True, timeout=60).stdout)
    assert bits[0] == bits[1] != ""


# ---------------------------------------------------------------------------
# BPL gini series

def test_bpl_gini_equal_poor_incomes():
    mat = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
    panel = panel_from_matrix(mat)
    hcr = AnnualSeries(panel.years, np.array([2 / 3, 2 / 3]))
    _, pp = classify(panel, hcr)
    rep = bpl_gini_series(panel, pp)
    assert np.allclose(rep.gini, 0.0)
    assert not rep.negatives_floored.any()


def test_bpl_gini_matches_subset_extraction():
    rng = np.random.default_rng(13)
    panel = panel_from_matrix(rng.lognormal(0, 1, (80, 6)))
    hcr = AnnualSeries(panel.years, rng.uniform(0.2, 0.7, 6))
    _, pp = classify(panel, hcr)
    rep = bpl_gini_series(panel, pp)
    for j, year in enumerate(panel.years):
        subset = panel.incomes[pp.poor[:, j], j]
        assert rep.gini[j] == pytest.approx(gini(subset), abs=1e-15)


def test_bpl_gini_undefined_when_no_poor():
    panel = panel_from_matrix(np.array([[1.0], [2.0], [3.0]]))
    hcr = AnnualSeries(panel.years, np.array([0.0]))
    _, pp = classify(panel, hcr)
    rep = bpl_gini_series(panel, pp)
    assert np.isnan(rep.gini[0])


def test_bpl_gini_floors_negative_incomes_with_flag():
    mat = np.array([[-0.5, -0.5], [0.5, 0.5], [5.0, 5.0], [6.0, 6.0]])
    panel = panel_from_matrix(mat)
    hcr = AnnualSeries(panel.years, np.array([0.5, 0.5]))
    _, pp = classify(panel, hcr)
    rep = bpl_gini_series(panel, pp)
    assert rep.negatives_floored.all()
    assert np.allclose(rep.gini, gini(np.array([0.0, 0.5])))


# ---------------------------------------------------------------------------
# sampled paths

def test_sample_paths_rank_adjacency():
    rng = np.random.default_rng(14)
    panel = panel_from_matrix(rng.lognormal(0, 1, (100, 5)))
    hcr = AnnualSeries(panel.years, np.full(5, 0.4))
    line, _ = classify(panel, AnnualSeries(panel.years, np.full(5, 0.4)))
    bundle = sample_paths(panel, line, k_above=3, k_below=3, seed=1)
    first = panel.incomes[:, 0]
    assert np.all(first[bundle.below_agents] < line.z[0])
    assert np.all(first[bundle.above_agents] >= line.z[0])
    # adjacency: everything between the selected groups is selected
    below_max = first[bundle.below_agents].max()
    above_min = first[bundle.above_agents].min()
    between = np.sum((first > below_max) & (first < above_min))
    assert between == 0


def test_sample_paths_exports_panel_columns_exactly():
    rng = np.random.default_rng(15)
    panel = panel_from_matrix(rng.lognormal(0, 1, (30, 4)))
    hcr = AnnualSeries(panel.years, np.full(4, 0.5))
    line, _ = classify(panel, hcr)
    bundle = sample_paths(panel, line, 2, 2, seed=0)
    for row, agent in zip(bundle.below_paths, bundle.below_agents):
        assert np.array_equal(row, panel.incomes[agent])
    for row, agent in zip(bundle.above_paths, bundle.above_agents):
        assert np.array_equal(row, panel.incomes[agent])


def test_sample_paths_zero_below():
    rng = np.random.default_rng(16)
    panel = panel_from_matrix(rng.lognormal(0, 1, (20, 3)))
    line, _ = classify(panel, AnnualSeries(panel.years, np.full(3, 0.3)))
    bundle = sample_paths(panel, line, k_above=4, k_below=0, seed=0)
    assert len(bundle.below_agents) == 0
    assert len(bundle.above_agents) == 4


def test_sample_paths_truncates_with_warning():
    rng = np.random.default_rng(17)
    panel = panel_from_matrix(rng.lognormal(0, 1, (10, 3)))
    line, _ = classify(panel, AnnualSeries(panel.years, np.full(3, 0.2)))
    with pytest.warns(UserWarning, match="below"):
        bundle = sample_paths(panel, line, k_above=2, k_below=5, seed=0)
    assert bundle.truncated
    assert len(bundle.below_agents) == 2  # only 2 poor at 20% of 10


def _argsort_selection(col, z, k_below, k_above):
    """Reference: the agents a stable sort puts nearest the line."""
    order = np.argsort(col, kind="stable")
    split = int(np.searchsorted(col[order], z, side="left"))
    return (np.sort(order[max(0, split - k_below):split]),
            np.sort(order[split:split + k_above]))


def test_sample_paths_matches_stable_argsort_selection():
    rng = np.random.default_rng(19)
    for trial in range(400):
        n = int(rng.integers(2, 120))
        # few distinct values, so ties at the k-th value are common
        col = rng.integers(-3, int(rng.integers(1, 12)), n).astype(float)
        col[rng.random(n) < 0.1] = -0.0
        panel = panel_from_matrix(np.column_stack([col, rng.random(n)]))
        z = (float(rng.choice(col)) if trial % 3 else  # line on a value
             float(rng.choice([rng.uniform(-4, 12), np.inf])))
        line = PovertyLineSeries("t", panel.years.copy(), np.full(2, z))
        k_below = int(rng.integers(0, n + 1))
        k_above = int(rng.integers(0, n - k_below + 1))
        want_below, want_above = _argsort_selection(col, z, k_below, k_above)
        truncated = (len(want_below) < k_below or len(want_above) < k_above)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bundle = sample_paths(panel, line, k_above, k_below, seed=0)
        assert np.array_equal(bundle.below_agents, want_below), trial
        assert np.array_equal(bundle.above_agents, want_above), trial
        assert bundle.below_agents.dtype == want_below.dtype
        assert bundle.truncated == truncated
        assert len(caught) == int(truncated)
        assert np.array_equal(bundle.below_paths, panel.incomes[want_below])
        assert np.array_equal(bundle.above_paths, panel.incomes[want_above])


# ---------------------------------------------------------------------------
# brute-force equivalence sweep (small randomized panels, exact match)

def test_all_statistics_match_brute_force_scan():
    rng = np.random.default_rng(18)
    for _ in range(40):
        poor = random_poverty_panel(rng, n_max=50, t_max=12)
        pp = pp_from_flags(poor)
        rep = transition_report(pp)
        for i, year in enumerate(rep.years):
            j = pp.index_of(int(year))
            p_in, p_out, p_tx = oracles.transition_probs(poor, j)
            assert rep.p_in[i] == pytest.approx(p_in, nan_ok=True, abs=0)
            assert rep.p_out[i] == pytest.approx(p_out, nan_ok=True, abs=0)
            assert rep.p_tx[i] == pytest.approx(p_tx, nan_ok=True, abs=0)
            for t_p in (1, 3, 7):
                o_esc, o_stic = oracles.persistence_probs(poor, j, t_p)
                p_esc, p_stic = persistence_probs(pp, int(year), t_p)
                assert p_esc == pytest.approx(o_esc, nan_ok=True, abs=0)
                assert p_stic == pytest.approx(o_stic, nan_ok=True, abs=0)


# ---------------------------------------------------------------------------
# count table against the oracles (exact, every report and pooling mode)

def _same(a, b):
    """Bit-for-bit equal floats, NaN equal to NaN."""
    return (np.isnan(a) and np.isnan(b)) or a == b


def _oracle_mean(values):
    values = [v for v in values if not np.isnan(v)]
    return float(np.mean(values)) if values else float("nan")


def _check_against_oracles(poor, rng):
    pp = pp_from_flags(poor)
    n, t = poor.shape
    tps = sorted({1, 2, t - 1, t, t + 3} - {0})
    trans = transition_report(pp)
    persist = persistence_report(pp, tps)
    for i, year in enumerate(trans.years):
        j = pp.index_of(int(year))
        c = oracles.transition_counts(poor, j)
        p_in, p_out, p_tx = oracles.transition_probs(poor, j)
        at_risk = (c["n_in"] / c["n_np_prev"] if c["n_np_prev"]
                   else float("nan"))
        assert _same(trans.p_in[i], p_in)
        assert _same(trans.p_out[i], p_out)
        assert _same(trans.p_tx[i], p_tx)
        assert _same(trans.p_in_at_risk[i], at_risk)
        for t_p in tps:
            o_esc, o_stic = oracles.persistence_probs(poor, j, t_p)
            stic, esc = persist.by_tp[t_p]
            assert _same(esc[i], o_esc) and _same(stic[i], o_stic)
    # a random period, a single-year period and the whole panel
    a = int(rng.integers(1, t))
    b = int(rng.integers(a, t))
    for first_j, last_j in {(a, b), (b, b), (1, t - 1)}:
        period = (int(pp.years[first_j]), int(pp.years[last_j]))
        for t_p in tps:
            pm = pooled_metrics(pp, period, t_p, method="counts")
            o = oracles.pooled_counts(poor, first_j, last_j, t_p)

            def ratio(x, y):
                return x / y if y else float("nan")
            assert _same(pm.p_in, ratio(o["n_in"], o["n_p_cur"]))
            assert _same(pm.p_out, ratio(o["n_out"], o["n_p_prev"]))
            assert _same(pm.p_tx, ratio(o["n_in"] + o["n_out"],
                                        o["n_p_cur"] + o["n_p_prev"]))
            assert _same(pm.p_esc, ratio(o["n_esc"], o["n_np_cur"]))
            assert _same(pm.p_stic, ratio(o["n_stick"], o["n_p_cur"]))

            pm = pooled_metrics(pp, period, t_p, method="mean")
            js = range(first_j, last_j + 1)
            trs = [oracles.transition_probs(poor, j) for j in js]
            pes = [oracles.persistence_probs(poor, j, t_p) for j in js]
            assert _same(pm.p_in, _oracle_mean([x[0] for x in trs]))
            assert _same(pm.p_out, _oracle_mean([x[1] for x in trs]))
            assert _same(pm.p_tx, _oracle_mean([x[2] for x in trs]))
            assert _same(pm.p_esc, _oracle_mean([x[0] for x in pes]))
            assert _same(pm.p_stic, _oracle_mean([x[1] for x in pes]))


def test_count_table_matches_oracles_on_random_panels():
    rng = np.random.default_rng(19)
    for _ in range(25):
        poor = random_poverty_panel(rng, n_max=40, t_max=9)
        # years with no poor agent, and years where everyone is poor
        # (hcr = 1, the +inf line in pp_from_flags)
        for j in rng.choice(poor.shape[1], size=2):
            poor[:, j] = rng.random() < 0.5
        _check_against_oracles(poor, rng)


def test_count_table_edge_panels():
    rng = np.random.default_rng(20)
    _check_against_oracles(np.zeros((4, 5), dtype=bool), rng)
    _check_against_oracles(np.ones((3, 4), dtype=bool), rng)
    _check_against_oracles(np.array([[1, 0], [0, 1]], dtype=bool), rng)


def test_hcr_one_classifies_everyone_poor():
    panel = panel_from_matrix(np.random.default_rng(21).uniform(1, 2, (5, 3)))
    line, pp = classify(panel, AnnualSeries(panel.years, [0.4, 1.0, 1.0]))
    assert np.isinf(line.z[1]) and pp.poor[:, 1:].all()
    rep = persistence_report(pp, [1, 2, 5])
    # p_stic: 2 of 5 poor in the first year, then everyone stays poor
    assert np.array_equal(rep.by_tp[1][0], [0.4, 1.0])
    assert np.isnan(rep.by_tp[1][1]).all()  # p_esc: no non-poor agent


def test_spell_rows_from_histograms_equal_the_keyed_bincount():
    # each row is built from spell-length histograms; the reference is
    # the keyed bincount it replaced, bincount(duration * 2 + poor)
    rng = np.random.default_rng(23)
    panels = [random_poverty_panel(rng, n_max=50, t_max=12)
              for _ in range(30)]
    panels += [np.zeros((3, 4), bool), np.ones((3, 4), bool),
               np.ones((2, 1), bool), np.zeros((0, 3), bool)]
    for poor in panels:
        n, t = poor.shape
        spells = _Spells(n, t)
        want = np.zeros((max(t - 1, 0), t + 1, 2), dtype=np.int64)
        duration = np.zeros(n, dtype=np.int64)
        for j, flags in enumerate(poor.T):
            spells.push(np.ascontiguousarray(flags))
            if j:
                want[j - 1] = np.bincount(duration * 2 + flags,
                                          minlength=2 * (t + 1)
                                          ).reshape(-1, 2)
            duration = (duration + 1) * flags
        assert np.array_equal(spells.counts, want)


def test_count_table_is_built_once_per_panel(monkeypatch):
    import povdyn.poverty as poverty
    pp = pp_from_flags(random_poverty_panel(np.random.default_rng(22)))
    calls = []
    bincount = np.bincount
    monkeypatch.setattr(poverty.np, "bincount",
                        lambda *a, **k: calls.append(1) or bincount(*a, **k))
    transition_report(pp)
    persistence_report(pp)
    for t_p in (1, 2, 3):
        pooled_metrics(pp, (int(pp.years[0]), int(pp.years[-1])), t_p)
    transition_probs(pp, int(pp.years[-1]))
    persistence_probs(pp, int(pp.years[-1]), 2)
    assert len(calls) == len(pp.years) - 1


def test_pooled_rejects_threshold_below_one():
    pp = pp_from_flags(np.ones((3, 4), dtype=bool))
    for method in ("counts", "mean"):
        with pytest.raises(ValueError):
            pooled_metrics(pp, (2001, 2003), 0, method=method)


def _per_period_pooled(pp, period, t_p, method):
    """(p_in, p_out, p_tx, p_stic, p_esc) of one period and threshold,
    computed on their own: Python ``int / int`` over the period's summed
    table rows, or np.mean of the defined annual values of the
    whole-panel reports."""
    y0 = int(pp.years[0])
    lo, hi = max(period[0], y0 + 1) - y0 - 1, period[1] - y0
    if method == "counts":
        c = _count_table(pp)[lo:hi].sum(axis=0).tolist()
        d = min(t_p, len(c) - 1)
        n_p_prev, n_p_cur = c[1][0] + c[1][1], c[0][1]
        n_in, n_out = n_p_cur - c[1][1], c[1][0]

        def ratio(x, y):
            return x / y if y else float("nan")
        return (ratio(n_in, n_p_cur), ratio(n_out, n_p_prev),
                ratio(n_in + n_out, n_p_cur + n_p_prev),
                ratio(c[d][1], n_p_cur), ratio(c[d][0], c[0][0]))
    trans = transition_report(pp)
    stic, esc = persistence_report(pp, [t_p]).by_tp[t_p]
    return tuple(_oracle_mean(list(v[lo:hi])) for v in
                 (trans.p_in, trans.p_out, trans.p_tx, stic, esc))


@pytest.mark.parametrize("method", ["counts", "mean"])
def test_pooled_arrays_equal_pooled_metrics_bit_for_bit(method):
    # every period at once, every threshold up to past the panel's years,
    # against pooled_metrics one period and threshold at a time and
    # against each period and threshold computed on its own; NaN exactly
    # where they have it. Panels of up to 40 years give means over more
    # than eight values, where NumPy's pairwise sum unrolls.
    rng = np.random.default_rng(31)
    panels = [random_poverty_panel(rng, n_max=40, t_max=t_max)
              for t_max in (3, 9, 40, 40)]
    panels += [np.zeros((5, 6), dtype=bool),   # head count 0: all NaN
               np.ones((4, 5), dtype=bool),
               np.array([[1, 0], [0, 1]], dtype=bool)]
    for poor in panels:
        pp = pp_from_flags(poor)
        years = [int(y) for y in pp.years]
        periods = [(a, b) for a in years for b in years[1:] if a <= b]
        periods = [periods[i] for i in sorted(set(
            rng.choice(len(periods), size=min(len(periods), 30),
                       replace=False)))] + [(years[0], years[-1])]
        t_ps = range(1, len(years) + 3)
        pooled = _pooled(pp.years, _count_table(pp), periods, t_ps, method)
        assert pooled.shape == (len(periods), 3 + 2 * len(t_ps))
        for row, period in zip(pooled, periods):
            for t_p in t_ps:
                pm = pooled_metrics(pp, period, t_p, method=method)
                got = (*row[:3], *row[1 + 2 * t_p:3 + 2 * t_p])
                want = (pm.p_in, pm.p_out, pm.p_tx, pm.p_stic, pm.p_esc)
                ref = _per_period_pooled(pp, period, t_p, method)
                for g, w, r in zip(got, want, ref):
                    assert _same(g, w) and _same(g, r), (period, t_p)
        if not poor.any():
            assert np.isnan(pooled[:, [0, 1, 2, 3]]).all()


def test_period_check_messages():
    assert _check_period((2001, 2003), 2000, 2005) == (2001, 2003)
    assert _check_period((2000, 2001), 2000, 2005) == (2000, 2001)
    for period, message in (
            ((2003, 2001), "invalid period 2003..2001"),
            ((1999, 2001), "period 1999..2001 outside poverty panel years "
                           "2000..2005"),
            ((2004, 2006), "period 2004..2006 outside poverty panel years "
                           "2000..2005"),
            ((2000, 2000), "period 2000..2000 has no evaluable years")):
        with pytest.raises(DataError) as err:
            _check_period(period, 2000, 2005)
        assert str(err.value) == message


def _reference_gini(x) -> float:
    """The sorted-form Gini written out: the total in the input's order,
    the weights over a sorted copy."""
    x = np.asarray(x, dtype=np.float64)
    n, total = len(x), float(np.sum(x))
    weighted = np.sum(np.arange(1.0 - n, n, 2.0) * np.sort(x))
    return max(float(weighted / (n * total)), 0.0)


def test_bpl_gini_sorts_its_own_copy_with_gini_bits():
    rng = np.random.default_rng(32)
    for n in (1, 2, 7, 129, 5000, 5000, 5000):
        col = rng.lognormal(0.0, 1.0, n) - 0.3  # some negatives
        keep = col.copy()
        poor = rng.random(n) < 0.6
        poor[0] = True
        floored = np.maximum(col[poor], 0.0)
        before = floored.copy()
        want = (_reference_gini(floored) if floored.sum() > 0
                else float("nan"))
        if floored.sum() > 0:
            assert _same(gini(floored), want)
        got, negatives = _bpl_gini(col, poor)
        assert _same(got, want) and negatives == bool((col[poor] < 0).any())
        # neither sorts its caller's array
        assert np.array_equal(col, keep) and np.array_equal(floored, before)


# ---------------------------------------------------------------------------
# year-major income panel

def test_income_panel_keeps_agents_major_view():
    mat = np.random.default_rng(23).normal(size=(7, 4))
    panel = panel_from_matrix(mat)
    assert panel.incomes.shape == (7, 4)
    assert np.array_equal(panel.incomes, mat)
    assert not np.shares_memory(panel.incomes, mat)  # (N, T) input: one copy
    for j, year in enumerate(panel.years):
        col = panel.column(int(year))
        assert col.flags.c_contiguous
        assert np.array_equal(col, mat[:, j])
    assert panel.n_agents == 7


def test_income_panel_takes_year_major_view_without_copy():
    by_year = np.random.default_rng(24).normal(size=(4, 7))
    panel = IncomePanel(years=np.arange(2000, 2004), incomes=by_year.T,
                        seed=0, fingerprint="t")
    assert np.shares_memory(panel.incomes, by_year)
    assert panel.incomes.shape == (7, 4)
    assert np.shares_memory(panel.column(2002), by_year[2])


def test_income_panel_rejects_non_finite():
    mat = np.ones((3, 2))
    mat[1, 1] = np.inf
    with pytest.raises(DataError):
        panel_from_matrix(mat)


# ---------------------------------------------------------------------------
# the per-year accumulator against the whole-panel functions and oracles

def _oracle_tail(poor):
    """tail[j - 1, d, s]: agents with spell >= d at j - 1, status s at j."""
    dur = oracles.durations_by_scan(poor)
    n, t = poor.shape
    tail = np.zeros((max(t - 1, 0), t + 1, 2), dtype=np.int64)
    for j in range(1, t):
        for i in range(n):
            for d in range(dur[i, j - 1] + 1):
                tail[j - 1, d, int(poor[i, j])] += 1
    return tail


def _random_case(rng, trial):
    """A panel with negatives and a tied column, and an HCR sub-range."""
    n, t = int(rng.integers(2, 60)), int(rng.integers(1, 10))
    mat = rng.normal(1.0, 1.5, (n, t))  # poor negatives reach the floor
    j0 = int(rng.integers(0, t))
    j1 = int(rng.integers(j0, t)) if trial % 4 else j0  # single HCR year
    # few distinct values in the line's first year: ties for _nearest
    mat[:, j0] = rng.integers(-2, int(rng.integers(1, 6)), n)
    panel = panel_from_matrix(mat, first_year=1990)
    h = rng.uniform(0, 1, j1 - j0 + 1)
    h[rng.random(len(h)) < 0.25] = 0.0
    h[rng.random(len(h)) < 0.25] = 1.0  # the +inf line
    return panel, AnnualSeries(panel.years[j0:j1 + 1], h)


def test_accumulator_matches_whole_panel_functions_and_oracles():
    rng = np.random.default_rng(26)
    for trial in range(25):
        panel, hcr = _random_case(rng, trial)
        n = panel.n_agents
        k_below = int(rng.integers(0, n // 2 + 1))
        k_above = int(rng.integers(0, n - k_below + 1))
        acc = PovertyAccumulator(hcr, n, (panel.first_year,
                                          panel.last_year), k_below, k_above)
        # every panel year through the row hook, then the years before the
        # pick again, as the commands read them back
        for year in panel.years.tolist():
            acc(year, panel.column(year))
        for year in range(panel.first_year, hcr.first_year):
            acc.gather_year(year, panel.column(year))
        line, pp = classify(panel, hcr)
        table = acc.count_table()

        cols = [panel.column(int(y)) for y in hcr.years]
        want_z = [np.sort(c)[k] if k < n else np.inf for c, k in
                  zip(cols, np.floor(hcr.values * n + 0.5).astype(int))]
        assert np.array_equal(acc.line.z, want_z), trial
        assert np.array_equal(acc.line.z, line.z), trial

        poor = np.column_stack([c < z for c, z in zip(cols, want_z)])
        assert np.array_equal(pp.poor, poor)
        assert np.array_equal(table, _oracle_tail(poor)), trial
        assert np.array_equal(table, _count_table(pp)), trial

        # the report stage's views of the table against the public reports
        tps = [1, 2, len(hcr.years) + 2]
        b = transition_report(pp)
        assert np.array_equal(hcr.years[1:], b.years), trial
        for got, field in zip(_transitions(table),
                              ("p_in", "p_out", "p_tx", "p_in_at_risk")):
            assert np.array_equal(got, getattr(b, field),
                                  equal_nan=True), (trial, field)
        b = persistence_report(pp, tps)
        for t_p in tps:
            assert np.array_equal(_persistence(table, t_p), b.by_tp[t_p],
                                  equal_nan=True), trial
        if len(hcr.years) > 1:
            period = (int(hcr.years[0]), int(hcr.years[-1]))
            for method in ("counts", "mean"):
                for t_p in tps:
                    a = _pooled(hcr.years, table, [period], [t_p], method)[0]
                    b = pooled_metrics(pp, period, t_p, method)
                    assert all(_same(x, y) for x, y in zip(
                        a, (b.p_in, b.p_out, b.p_tx, b.p_stic, b.p_esc))), \
                        trial

        bpl = bpl_gini_series(panel, pp)
        assert np.array_equal(acc.bpl.gini, bpl.gini, equal_nan=True)
        assert np.array_equal(acc.bpl.negatives_floored,
                              bpl.negatives_floored)
        for j, c in enumerate(cols):
            subset = c[poor[:, j]]
            assert acc.bpl.negatives_floored[j] == bool((subset < 0).any())
            floored = np.maximum(subset, 0.0)
            if floored.sum() > 0:
                assert acc.bpl.gini[j] == pytest.approx(
                    oracles.gini_pairwise(floored), rel=1e-12, abs=1e-15)
            else:
                assert np.isnan(acc.bpl.gini[j])

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = acc.bundle(seed=3)
            want = sample_paths(panel, line, k_above, k_below, seed=3)
        want_below, want_above = _argsort_selection(cols[0], want_z[0],
                                                    k_below, k_above)
        assert np.array_equal(got.below_agents, want_below), trial
        assert np.array_equal(got.above_agents, want_above), trial
        for field in ("years", "line_years", "line_values", "below_agents",
                      "above_agents", "below_paths", "above_paths"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert got.truncated == want.truncated


def test_accumulator_as_row_hook_matches_pushing_the_hcr_years():
    # fed every panel year, some before and after its HCR series, and then
    # the years before the pick again, as the commands do; against the HCR
    # years pushed and every panel year gathered, in any order
    rng = np.random.default_rng(15)
    for trial in range(25):
        mat = rng.normal(1.0, 1.5, (int(rng.integers(2, 40)), 8))
        mat[:, 3] = rng.integers(-2, 3, len(mat))  # ties at the first line
        panel = panel_from_matrix(mat, first_year=1990)
        hcr = AnnualSeries(panel.years[3:6], rng.uniform(0, 1, 3))
        n, span = panel.n_agents, (panel.first_year, panel.last_year)
        k_below = int(rng.integers(0, n // 2 + 1))
        k_above = int(rng.integers(0, n - k_below + 1))
        hook = PovertyAccumulator(hcr, n, span, k_below, k_above)
        pushed = PovertyAccumulator(hcr, n, span, k_below, k_above)
        for year in panel.years.tolist():
            hook(year, panel.column(year))
        for year in panel.years[:3].tolist():
            hook.gather_year(year, panel.column(year))
        for year in hcr.years:
            pushed.push(panel.column(int(year)))
        for year in rng.permutation(panel.years).tolist():
            pushed.gather_year(year, panel.column(year))

        assert np.array_equal(hook.line.z, pushed.line.z), trial
        assert np.array_equal(hook.count_table(), pushed.count_table()), \
            trial
        assert np.array_equal(hook.bpl.gini, pushed.bpl.gini, equal_nan=True)
        assert np.array_equal(hook.bpl.negatives_floored,
                              pushed.bpl.negatives_floored)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got, want = hook.bundle(seed=1), pushed.bundle(seed=1)
        assert np.array_equal(got.years, panel.years)
        assert np.array_equal(got.below_paths, panel.incomes[got.below_agents])
        assert np.array_equal(got.above_paths, panel.incomes[got.above_agents])
        for field in ("line_values", "below_agents", "above_agents",
                      "below_paths", "above_paths"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert got.truncated == want.truncated


def test_accumulator_bundle_before_gather_is_a_value_error():
    # agent 1 is picked below the line and agent 2 at it: the bundle is
    # refused until every panel year of their rows is gathered
    incomes = np.arange(4.0)
    acc = _streamed(4, 2, k_below=1, k_above=1)
    with pytest.raises(ValueError, match="not gathered"):
        acc.bundle(seed=0)
    acc.gather_year(2001, incomes)
    with pytest.raises(ValueError, match="not gathered"):
        acc.bundle(seed=0)
    acc.gather_year(2000, incomes)
    bundle = acc.bundle(seed=0)
    assert np.array_equal(bundle.below_paths, [[1.0, 1.0]])
    assert np.array_equal(bundle.above_paths, [[2.0, 2.0]])
    # the row hook keeps the years it is handed from its pick on, but not
    # a year before its first HCR year
    hook = PovertyAccumulator(AnnualSeries(np.array([2001]), [0.5]), 4,
                              (2000, 2001), 1, 1)
    hook(2000, incomes)
    hook(2001, incomes)
    with pytest.raises(ValueError, match="not gathered"):
        hook.bundle(seed=0)
    hook.gather_year(2000, incomes)
    bundle = hook.bundle(seed=0)
    assert np.array_equal(bundle.below_paths, [[1.0, 1.0]])
    assert np.array_equal(bundle.above_paths, [[2.0, 2.0]])


def test_accumulator_rejects_bad_head_counts():
    hcr = AnnualSeries(np.array([2000, 2001]), np.array([0.3, 1.5]))
    with pytest.raises(DataError, match="outside \\[0, 1\\]"):
        PovertyAccumulator(hcr, 5, (2000, 2001))
    with pytest.raises(DataError, match="outside panel years"):
        PovertyAccumulator(hcr, 5, (2001, 2003))


def _streamed(n_agents: int, n_years: int, k_below: int = 0,
              k_above: int = 0) -> PovertyAccumulator:
    """An accumulator at HCR 0.5 from 2000, every year pushed: agent i's
    income is i in every year."""
    hcr = AnnualSeries(np.arange(2000, 2000 + n_years), [0.5] * n_years)
    acc = PovertyAccumulator(hcr, n_agents, (2000, 2000 + n_years - 1),
                             k_below, k_above)
    for _ in range(n_years):
        acc.push(np.arange(float(n_agents)))
    return acc


def test_count_table_before_every_hcr_year_is_a_value_error():
    hcr = AnnualSeries(np.arange(2000, 2003), [0.5] * 3)
    acc = PovertyAccumulator(hcr, 4, (2000, 2002))
    for pushed in range(3):
        with pytest.raises(ValueError, match=f"{pushed} of 3 HCR years "
                                             "pushed"):
            acc.count_table()
        acc.push(np.arange(4.0))
    assert acc.count_table().shape == (2, 4, 2)


def test_push_past_the_last_hcr_year_is_a_value_error():
    # it raised IndexError, reading a head count past the series
    acc = _streamed(4, 2)
    with pytest.raises(ValueError, match="all 2 HCR years already pushed"):
        acc.push(np.arange(4.0))
    assert acc.count_table().shape == (1, 3, 2)  # the step of two years
