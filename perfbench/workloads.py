"""The benchmark workloads: inputs, command line and output checks.

Each workload writes its inputs into one directory with a fixed layout and
runs its child there, so every path in the run manifest, and therefore
every output byte, is the same from one checkout to the next.

Why these four (time shares measured on 2 cores with the NumPy backend):

* ``pipeline_ref`` is the roadmap's reference unit of work: about 84% in
  the poverty statistics, 10% in calibration, and the effective-rate
  replay run twice.
* ``calibrate_wide`` is calibration alone at 400k agents: RNG draws, the
  bottom-share search and the step. Poverty code and panel I/O never run,
  so a poverty change predicts no move here.
* ``metrics_stored`` reads a stored 10k x 121-year panel: small N and long
  T, where per-call overhead dominates, with long spells, the ``mean``
  pooled path and negative incomes that reach the within-poor Gini floor.
  Calibration and RNG never run. It is the only workload that reads a
  stored panel, so the ``dataio`` read path shows only here.
* ``simulate_wide`` propagates 400k agents for 60 years on 2 threads and
  writes a 192 MB panel: the threaded step update, the panel assembly and
  the panel writer, and the memory case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

HERE = Path(__file__).resolve().parent
PINNED = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))

TOLERANCE = 1e-4          # CalibrationConfig defaults the configs rely on
BRACKET = (-0.5, 0.5)
WINDOW = 5
TP_MAX = 10


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    # writes the inputs; may run untimed CLI commands through the callback
    prepare: Callable[[Path, int, Callable[[list[str]], None]], None]
    # returns the problems found in an output directory
    check: Callable[[Path, Path, int], list[str]]
    # thread counts of the extra traced runs (single-thread baseline)
    extra_trace_threads: tuple[int, ...] = ()

    def argv(self, threads: int | None = None) -> list[str]:
        argv = [self.command, "--config", f"{self.name}.cfg", "--out", "out"]
        return argv + ["--threads", str(threads)] if threads else argv

    def problems(self, out_dir: Path, inputs_dir: Path, seed: int,
                 digests: dict[str, str]) -> list[str]:
        pinned = PINNED[self.name]
        if sorted(digests) != sorted(pinned):
            return [f"output files {sorted(digests)} != {sorted(pinned)}"]
        problems = []
        if seed == inputs.DEFAULT_SEED:
            problems += [f"{name}: digest differs from the pinned one"
                         for name in sorted(pinned)
                         if digests[name] != pinned[name]]
        return (problems + checks.manifest_problems(out_dir)
                + self.check(out_dir, inputs_dir, seed))


def _sampled_years(seed: int, first: int, last: int, k: int = 3) -> list[int]:
    rng = np.random.default_rng([seed, 99])
    return sorted(int(y) for y in rng.choice(np.arange(first, last + 1), k,
                                            replace=False))


def _targets(inputs_dir: Path) -> dict[int, float]:
    s50 = checks.read_series(inputs_dir / "s50.csv")
    return {y: v for y, v in s50.items() if y != min(s50)}


def _hcr(inputs_dir: Path, names) -> dict[str, dict[int, float]]:
    return {n: checks.read_series(inputs_dir / f"hcr_{n}.csv") for n in names}


# ---------------------------------------------------------------------------
# pipeline_ref

PIPELINE_PERIODS = "1962-1971, 1972-1981, 1996-2006"


def _prepare_pipeline(d: Path, seed: int, run_cli) -> None:
    inputs.write_s50(d / "s50.csv", seed)
    files = inputs.write_hcr_fixture_set(d, seed)
    inputs.write_config(d / "pipeline_ref.cfg", {
        "seed": seed, "n_agents": 100_000, "inequality_csv": "s50.csv",
        **{f"hcr_{k}": v for k, v in files.items()},
        "pool_periods": PIPELINE_PERIODS, "pooled_method": "counts",
        "tp_max": TP_MAX, "panel_format": "npy", "threads": 1,
    })


def _check_pipeline(out: Path, d: Path, seed: int) -> list[str]:
    hcr = _hcr(d, ("base", "mid", "high"))
    problems = (checks.calibration_problems(out, _targets(d), TOLERANCE,
                                            BRACKET, WINDOW)
                + checks.metrics_problems(out, hcr, 3, TP_MAX)
                + checks.panel_problems(out, 100_000, 1951, 2010))
    if problems:
        return problems
    # head counts cover 1952-2006, so sampled years need their predecessor
    incomes = np.load(out / "panel_incomes.npy", mmap_mode="r")
    return checks.transition_problems(out, incomes, 1951, hcr,
                                      _sampled_years(seed, 1953, 2006))


# ---------------------------------------------------------------------------
# calibrate_wide

def _prepare_calibrate(d: Path, seed: int, run_cli) -> None:
    inputs.write_s50(d / "s50.csv", seed)
    inputs.write_config(d / "calibrate_wide.cfg", {
        "seed": seed, "n_agents": 400_000, "inequality_csv": "s50.csv",
        "threads": 1,
    })


def _check_calibrate(out: Path, d: Path, seed: int) -> list[str]:
    return checks.calibration_problems(out, _targets(d), TOLERANCE, BRACKET,
                                       WINDOW)


# ---------------------------------------------------------------------------
# metrics_stored

STORED_LEVELS = {"d20": 0.2, "d40": 0.4, "d60": 0.6, "d80": 0.8}
STORED_FIRST, STORED_LAST = 1890, 2010
STORED_PERIODS = ", ".join(f"{y}-{y + 9}" for y in range(1901, 2002, 10))


def _prepare_stored(d: Path, seed: int, run_cli) -> None:
    # the rate path crosses zero; its regressive stretches push some
    # incomes below zero, which the within-poor Gini floors
    inputs.write_rates(d / "rates.csv", seed, STORED_FIRST + 1, STORED_LAST,
                       level=0.02, amplitude=0.06, period=40.0)
    inputs.write_config(d / "prepare.cfg", {
        "seed": seed, "n_agents": 10_000, "init_s50": 0.27,
        "start_year": STORED_FIRST, "rates_csv": "rates.csv",
        "panel_format": "npy", "threads": 1,
    })
    run_cli(["simulate", "--config", "prepare.cfg", "--out", "panel"])
    files = inputs.write_hcr_levels(d, seed, STORED_FIRST, STORED_LAST,
                                    STORED_LEVELS)
    inputs.write_config(d / "metrics_stored.cfg", {
        "seed": seed, "panel_dir": "panel",
        **{f"hcr_{k}": v for k, v in files.items()},
        "pool_periods": STORED_PERIODS, "pooled_method": "mean",
        "tp_max": TP_MAX,
    })


def _check_stored(out: Path, d: Path, seed: int) -> list[str]:
    hcr = _hcr(d, STORED_LEVELS)
    incomes = np.load(d / "panel" / "panel_incomes.npy")
    years = _sampled_years(seed, STORED_FIRST + 1, STORED_LAST)
    return (checks.metrics_problems(out, hcr, 11, TP_MAX)
            + checks.transition_problems(out, incomes, STORED_FIRST, hcr,
                                         years))


# ---------------------------------------------------------------------------
# simulate_wide

def _prepare_simulate(d: Path, seed: int, run_cli) -> None:
    inputs.write_rates(d / "rates.csv", seed, 1952, 2010, level=0.05,
                       amplitude=0.04, period=40.0)
    inputs.write_config(d / "simulate_wide.cfg", {
        "seed": seed, "n_agents": 400_000, "init_s50": 0.27,
        "start_year": 1951, "rates_csv": "rates.csv", "panel_format": "npy",
        "threads": 2,
    })


def _check_simulate(out: Path, d: Path, seed: int) -> list[str]:
    problems = checks.panel_problems(out, 400_000, 1951, 2010)
    if problems:
        return problems
    incomes = np.load(out / "panel_incomes.npy", mmap_mode="r")
    shares = checks.read_series(out / "shares.csv")
    return checks.share_problems(shares, incomes, 1951,
                                 _sampled_years(seed, 1952, 2010, k=2))


WORKLOADS = {w.name: w for w in (
    Workload("pipeline_ref", "pipeline", _prepare_pipeline, _check_pipeline),
    Workload("calibrate_wide", "calibrate", _prepare_calibrate,
             _check_calibrate),
    Workload("metrics_stored", "metrics", _prepare_stored, _check_stored),
    Workload("simulate_wide", "simulate", _prepare_simulate, _check_simulate,
             extra_trace_threads=(1,)),
)}
