"""Seeded synthetic inputs for the benchmark workloads.

The workload seed is also the model seed. ``DEFAULT_SEED`` reproduces the
formulas of ``tests/fixtures/generate.py`` exactly (inequality series
1951-2010, head-count series 1952-2006 with the base/mid/high offsets);
any other seed perturbs amplitudes, phases and trends slightly, so every
seed exercises the same code paths on slightly different numbers.

Everything here writes plain CSV / ``key = value`` files; nothing imports
povdyn, so inputs are ready before the timed child starts.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

DEFAULT_SEED = 42


def _perturbation(seed: int, stream: int, scale: float) -> float:
    """One uniform draw in [-scale, scale], zero for the default seed."""
    if seed == DEFAULT_SEED:
        return 0.0
    rng = np.random.default_rng([seed, stream])
    return float(rng.uniform(-scale, scale))


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_config(path: Path, items: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in items.items()),
                    encoding="utf-8")


def s50_series(seed: int):
    """Bottom-half income share, 1951-2010 (first row initializes)."""
    years = np.arange(1951, 2011)
    t = years - 1951
    vals = ((0.27 + _perturbation(seed, 1, 0.005))
            + (0.02 + _perturbation(seed, 2, 0.003))
            * np.sin(t / 7.0 + _perturbation(seed, 3, 0.3))
            - (0.0008 + _perturbation(seed, 4, 0.0001)) * t)
    return years, vals


def hcr_base_series(seed: int):
    """Head-count ratio of the base definition, 1952-2006."""
    years = np.arange(1952, 2007)
    t = years - 1952
    vals = ((0.45 + _perturbation(seed, 5, 0.01))
            + (0.05 + _perturbation(seed, 6, 0.005))
            * np.cos(t / 9.0 + _perturbation(seed, 7, 0.3))
            - (0.002 + _perturbation(seed, 8, 0.0002)) * t)
    return years, vals


def write_s50(path: Path, seed: int) -> None:
    years, s50 = s50_series(seed)
    write_csv(path, ["year", "s50"],
              [[int(y), f"{v:.6f}"] for y, v in zip(years, s50)])


def write_hcr_fixture_set(directory: Path, seed: int) -> dict[str, str]:
    """base/mid/high head-count files as in the test fixtures."""
    hy, h = hcr_base_series(seed)
    files = {"base": "hcr_base.csv", "mid": "hcr_mid.csv",
             "high": "hcr_high.csv"}
    write_csv(directory / files["base"], ["year", "hcr"],
              [[int(y), f"{v:.6f}"] for y, v in zip(hy, h)])
    write_csv(directory / files["mid"], ["year", "hcr"],
              [[int(y), f"{min(v + 0.10, 0.95):.6f}"] for y, v in zip(hy, h)])
    write_csv(directory / files["high"], ["year", "hcr"],
              [[int(y), f"{min(v + 0.25, 0.98):.6f}"] for y, v in zip(hy, h)])
    return files


def write_rates(path: Path, seed: int, first: int, last: int,
                level: float, amplitude: float, period: float) -> None:
    """Reallocation-rate path ``level + amplitude*sin(2*pi*t/period)``."""
    years = np.arange(first, last + 1)
    t = years - first
    phase = _perturbation(seed, 9, 0.5)
    vals = ((level + _perturbation(seed, 10, 0.005))
            + (amplitude + _perturbation(seed, 11, 0.005))
            * np.sin(2.0 * np.pi * t / period + phase))
    write_csv(path, ["year", "value"],
              [[int(y), f"{v:.6f}"] for y, v in zip(years, vals)])


def write_hcr_levels(directory: Path, seed: int, first: int, last: int,
                     levels: dict[str, float]) -> dict[str, str]:
    """One slowly oscillating head-count file per level, named hcr_<name>."""
    years = np.arange(first, last + 1)
    t = years - first
    files = {}
    for k, (name, level) in enumerate(sorted(levels.items())):
        vals = (level + (0.03 + _perturbation(seed, 20 + k, 0.005))
                * np.sin(t / 8.0 + k + _perturbation(seed, 30 + k, 0.3)))
        files[name] = f"hcr_{name}.csv"
        write_csv(directory / files[name], ["year", "hcr"],
                  [[int(y), f"{v:.6f}"] for y, v in zip(years, vals)])
    return files
