"""Differential test over random small runs.

Hypothesis draws small runs (2-300 agents, 3-20 years, 1-3 poverty-line
definitions, both panel formats and both pooling methods) and checks the
CLI end to end:

- (a) ``simulate`` writes the same panel and ``shares.csv`` bytes on 1, 2
  and 3 threads, and ``pipeline`` the same bytes in every file but its
  manifest; the panel files are written in blocks of 1 KiB (6 to 42
  agents), so most panels span several blocks;
- (b) every value in ``metrics_<name>.csv`` and ``pooled_<name>.csv``, from
  ``metrics`` on that panel and from ``pipeline`` on its own panel, equals
  a brute-force scan of the written panel by :mod:`oracles`, with an
  undefined (empty) value exactly where the oracle's ratio is 0/0.

The panel files are read back with NumPy and the ``csv`` module, not with
povdyn's reader. Each ratio is compared as the 12-digit text the writers
give it: the oracle's Python ``int / int`` is the correctly rounded
quotient, as the library's is, so the texts are equal. ``mean`` pooling is
compared with ``np.mean`` of the oracle's defined annual values. The
within-poor Gini is a pairwise sum in the oracle and a sorted sum in the
library, so it is compared to a relative 1e-10.
"""

import contextlib
import csv
import io
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from povdyn import dataio
from povdyn.cli import EXIT_OK, main

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

FMT = "%.12g"


@st.composite
def runs(draw):
    """A small run: its agents, panel years, rates, inequality targets,
    definitions and report settings."""
    n_agents = draw(st.integers(2, 300))
    n_years = draw(st.integers(3, 20))
    y0 = draw(st.integers(1900, 2000))
    # every definition's HCR years hold the core years c0..c1, and every
    # pool period lies in the core with a year past c0, so no definition
    # fails its periods
    c0 = draw(st.integers(y0, y0 + n_years - 2))
    c1 = draw(st.integers(c0 + 1, y0 + n_years - 1))
    head_count = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    definitions = []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.integers(y0, c0))
        b = draw(st.integers(c1, y0 + n_years - 1))
        definitions.append((a, draw(st.lists(head_count, min_size=b - a + 1,
                                             max_size=b - a + 1))))
    periods = {}  # distinct, in the order drawn
    for _ in range(draw(st.integers(1, 3))):
        last = draw(st.integers(c0 + 1, c1))
        periods[draw(st.integers(c0, last)), last] = None
    return dict(
        n_agents=n_agents, y0=y0, seed=draw(st.integers(0, 10**6)),
        rates=draw(st.lists(st.floats(-0.05, 0.15), min_size=n_years - 1,
                            max_size=n_years - 1)),
        targets=draw(st.lists(st.floats(0.15, 0.35), min_size=n_years,
                              max_size=n_years)),
        definitions=definitions, periods=list(periods),
        tp_max=draw(st.integers(1, n_years + 1)),
        pooled_method=draw(st.sampled_from(["counts", "mean"])),
        panel_format=draw(st.sampled_from(["npy", "csv"])))


def _run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err, \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a short path bundle
        code = main(argv)
    assert code == EXIT_OK, err.getvalue()


def _series(path: Path, column: str, first: int, values) -> None:
    path.write_text(f"year,{column}\n" + "".join(
        f"{first + i},{v!r}\n" for i, v in enumerate(values)))


def _report_lines(d: Path, run: dict) -> str:
    """Config lines of the definitions and the report settings."""
    lines = []
    for i, (first, hcr) in enumerate(run["definitions"]):
        _series(d / f"hcr_d{i}.csv", "hcr", first, hcr)
        lines.append(f"hcr_d{i} = {d / f'hcr_d{i}.csv'}")
    lines.append("pool_periods = " + ", ".join(
        f"{a}-{b}" for a, b in run["periods"]))
    lines += [f"pooled_method = {run['pooled_method']}",
              f"tp_max = {run['tp_max']}",
              f"panel_format = {run['panel_format']}",
              f"n_agents = {run['n_agents']}", f"seed = {run['seed']}"]
    return "\n".join(lines) + "\n"


def _bytes(out: Path) -> dict:
    """The bytes of every file in ``out`` but the manifest, whose
    timestamp differs from run to run."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "manifest.json"}


def _written_panel(out: Path) -> tuple[int, np.ndarray]:
    """First year and (N, T) incomes of the panel written in ``out``."""
    if (out / "panel.csv").exists():
        with open(out / "panel.csv", newline="") as f:
            rows = list(csv.reader(f))
        return int(rows[0][1][1:]), np.array(
            [[float(v) for v in row[1:]] for row in rows[1:]])
    return (int(np.load(out / "panel_years.npy")[0]),
            np.load(out / "panel_incomes.npy"))


def _ratio(a: int, b: int) -> float:
    return a / b if b else math.nan


def _gini(col, poor) -> tuple[float, float]:
    """The within-poor Gini (NaN when undefined) and whether negatives
    were floored, as 1.0 or 0.0."""
    subset = [float(v) for v, p in zip(col, poor) if p]
    floored = [max(v, 0.0) for v in subset]
    value = (oracles.gini_pairwise(floored) if sum(floored) > 0
             else math.nan)
    return value, float(any(v < 0 for v in subset))


def _expected(y0: int, incomes: np.ndarray, first: int, hcr, run: dict
              ) -> tuple[dict, dict]:
    """The oracle's metrics rows ``(year, statistic, t_p) -> value`` and
    pooled rows ``(first, last, statistic, t_p) -> value`` of one
    definition on the panel ``incomes`` from ``y0``."""
    n = incomes.shape[0]
    cols = [incomes[:, first - y0 + j] for j in range(len(hcr))]
    lines = []
    for col, h in zip(cols, hcr):
        k = math.floor(h * n + 0.5)
        lines.append(math.inf if k >= n else float(np.sort(col)[k]))
    poor = np.column_stack([col < z for col, z in zip(cols, lines)])
    dur = oracles.durations_by_scan(poor)
    t_ps = range(1, run["tp_max"] + 1)
    rows, annual = {}, {}
    for j, (col, z) in enumerate(zip(cols, lines)):
        year = first + j
        rows[year, "poverty_line", None] = z
        (rows[year, "bpl_gini", None],
         rows[year, "bpl_negatives_floored", None]) = _gini(col, poor[:, j])
        if j == 0:
            continue
        c = oracles.transition_counts(poor, j)
        p_in, p_out, p_tx = oracles.transition_probs(poor, j)
        stats = {("p_in", None): p_in, ("p_out", None): p_out,
                 ("p_tx", None): p_tx}
        for t_p in t_ps:
            stats["p_esc", t_p], stats["p_stic", t_p] = \
                oracles.persistence_probs(poor, j, t_p, dur)
        for key, value in stats.items():
            rows[(year, *key)] = value
            annual.setdefault(key, {})[j] = value
        rows[year, "p_in_at_risk", None] = _ratio(c["n_in"], c["n_np_prev"])
    pooled = {}
    for a, b in run["periods"]:
        lo, hi = max(a, first + 1) - first, b - first
        for key, by_j in annual.items():
            if run["pooled_method"] == "mean":
                defined = [by_j[j] for j in range(lo, hi + 1)
                           if not math.isnan(by_j[j])]
                value = float(np.mean(defined)) if defined else math.nan
            else:
                s = oracles.pooled_counts(poor, lo, hi, key[1] or 1, dur)
                value = {
                    "p_in": _ratio(s["n_in"], s["n_p_cur"]),
                    "p_out": _ratio(s["n_out"], s["n_p_prev"]),
                    "p_tx": _ratio(s["n_in"] + s["n_out"],
                                   s["n_p_cur"] + s["n_p_prev"]),
                    "p_stic": _ratio(s["n_stick"], s["n_p_cur"]),
                    "p_esc": _ratio(s["n_esc"], s["n_np_cur"]),
                }[key[0]]
            pooled[(a, b, *key)] = value
    return rows, pooled


def _written(path: Path, n_keys: int) -> dict:
    """A report's rows: its keys (t_p None when empty) -> (value text,
    defined flag)."""
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f) if not r[0].startswith("#")]
    out = {}
    for row in rows[1:]:
        *keys, statistic, t_p, value, defined = row
        key = (*map(int, keys), statistic, int(t_p) if t_p else None)
        assert key not in out, key
        out[key] = value, defined
    assert len(rows[0]) == n_keys + 4
    return out


def _check(path: Path, n_keys: int, want: dict) -> None:
    got = _written(path, n_keys)
    assert set(got) == set(want), path.name
    for key, value in want.items():
        text, defined = got[key]
        if math.isnan(value):
            assert (text, defined) == ("", "0"), (path.name, key)
        elif key[-2] == "bpl_gini":
            assert defined == "1", (path.name, key)
            assert float(text) == pytest.approx(value, rel=1e-10,
                                                abs=1e-14), (path.name, key)
        else:
            assert (text, defined) == (FMT % value, "1"), (path.name, key)


def _check_reports(out: Path, run: dict) -> None:
    y0, incomes = _written_panel(out)
    for i, (first, hcr) in enumerate(run["definitions"]):
        rows, pooled = _expected(y0, incomes, first, hcr, run)
        _check(out / f"metrics_d{i}.csv", 1, rows)
        _check(out / f"pooled_d{i}.csv", 2, pooled)


@SETTINGS
@given(run=runs())
# the smallest run: two agents, three years, head counts 0, 1 and 0.5,
# thresholds past the years, mean pooling of a 12-digit csv panel
@example(run=dict(n_agents=2, y0=1950, seed=0, rates=[0.0, 0.1],
                  targets=[0.25, 0.3, 0.2],
                  definitions=[(1950, [0.0, 1.0, 0.5])],
                  periods=[(1950, 1951), (1951, 1952)], tp_max=4,
                  pooled_method="mean", panel_format="csv"))
# the largest: 300 agents, 20 years, three overlapping definitions
@example(run=dict(n_agents=300, y0=1990, seed=7, rates=[0.05] * 19,
                  targets=[0.2 + 0.005 * i for i in range(20)],
                  definitions=[(1990, [0.3] * 20),
                               (1993, [1.0] + [0.4] * 14),
                               (1995, [0.0] + [0.6] * 9)],
                  periods=[(1995, 2004), (1996, 1996)], tp_max=21,
                  pooled_method="counts", panel_format="npy"))
def test_cli_on_random_small_runs_matches_the_oracles(run):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dataio, "_PANEL_BLOCK_BYTES", 1024):
        d = Path(tmp)
        reports = _report_lines(d, run)
        _series(d / "rates.csv", "value", run["y0"] + 1, run["rates"])
        (d / "sim.cfg").write_text(
            f"rates_csv = {d / 'rates.csv'}\ninit_s50 = 0.3\n"
            f"start_year = {run['y0']}\n" + reports)
        _series(d / "s50.csv", "s50", run["y0"], run["targets"])
        (d / "pipe.cfg").write_text(
            f"inequality_csv = {d / 's50.csv'}\n" + reports)
        # (a) simulate and pipeline on 1, 2 and 3 threads
        for command, cfg in (("simulate", "sim.cfg"), ("pipeline",
                                                       "pipe.cfg")):
            written = []
            for threads in (1, 2, 3):
                out = d / f"{command}_{threads}"
                _run([command, "--config", str(d / cfg), "--out", str(out),
                      "--threads", str(threads)])
                written.append(_bytes(out))
            assert written[0] == written[1] == written[2], command
        # (b) metrics on simulate's panel, and pipeline's own reports
        _run(["metrics", "--config", str(d / "sim.cfg"), "--out",
              str(d / "simulate_1")])
        _check_reports(d / "simulate_1", run)
        _check_reports(d / "pipeline_1", run)
