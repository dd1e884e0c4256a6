"""Output checks, recomputed from the written files only.

Every function returns a list of problems (empty when the outputs pass);
the benchmark counts a run with any problem as failed. Values in the CSVs
carry 12 significant digits, so recomputed numbers are compared with a
relative tolerance of ``REL``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

REL = 1e-9
PROBABILITIES = {"p_in", "p_out", "p_tx", "p_in_at_risk", "p_stic", "p_esc"}
NONDETERMINISTIC = {"manifest.json"}  # holds a timestamp


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every deterministic output file."""
    return {p.name: sha256(p) for p in sorted(out_dir.iterdir())
            if p.is_file() and p.name not in NONDETERMINISTIC}


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
    return rows[1:]


def read_series(path: Path) -> dict[int, float]:
    """year -> value of a two-column CSV (header skipped, NaN if empty)."""
    return {int(r[0]): float(r[1]) if r[1] else math.nan for r in _rows(path)}


def read_metrics(path: Path) -> list[tuple[int, str, int | None, float, int]]:
    return [(int(y), stat, int(tp) if tp else None,
             float(v) if v else math.nan, int(d))
            for y, stat, tp, v, d in _rows(path)]


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def manifest_problems(out_dir: Path) -> list[str]:
    """manifest.json exists and every CSV header names its digest."""
    path = out_dir / "manifest.json"
    if not path.is_file():
        return ["manifest.json missing"]
    digest = json.loads(path.read_text(encoding="utf-8")).get("digest")
    problems = []
    for csv_path in sorted(out_dir.glob("*.csv")):
        with open(csv_path, encoding="utf-8") as f:
            if f.readline().strip() != f"# manifest: {digest}":
                problems.append(f"{csv_path.name}: header does not name "
                                "the manifest digest")
    return problems


def calibration_problems(out_dir: Path, targets: dict[int, float],
                         tolerance: float, bracket: tuple[float, float],
                         window: int) -> list[str]:
    """Residual within tolerance unless clamped; shares and smoothing agree.

    A clamped year is one whose fitted rate sits on a bracket endpoint.
    With ``forward_rate = fitted`` the fitted share differs from the
    target by exactly the residual, and the effective rate is the trailing
    ``window``-year mean of the fitted rates.
    """
    tau = read_series(out_dir / "tau.csv")
    tau_eff = read_series(out_dir / "tau_effective.csv")
    residual = read_series(out_dir / "residuals.csv")
    fitted = read_series(out_dir / "fitted_shares.csv")
    replayed = read_series(out_dir / "replay_shares.csv")
    years = sorted(targets)
    problems = []
    for name, series in (("tau", tau), ("tau_effective", tau_eff),
                         ("residuals", residual), ("fitted_shares", fitted),
                         ("replay_shares", replayed)):
        if sorted(series) != years:
            problems.append(f"{name}.csv years differ from the targets")
    if problems:
        return problems
    taus = [tau[y] for y in years]
    for i, y in enumerate(years):
        clamped = taus[i] in bracket
        if not (residual[y] <= tolerance * (1 + REL) or clamped):
            problems.append(f"{y}: residual {residual[y]} > {tolerance} "
                            "and not clamped")
        if abs(abs(fitted[y] - targets[y]) - residual[y]) > 1e-9:
            problems.append(f"{y}: fitted share off target by other than "
                            "the residual")
        trailing = taus[max(0, i - window + 1):i + 1]
        if not abs(tau_eff[y] - sum(trailing) / len(trailing)) <= 1e-9:
            problems.append(f"{y}: tau_effective is not the trailing mean")
        if not math.isfinite(replayed[y]):
            problems.append(f"{y}: replay share undefined")
    return problems


def metrics_problems(out_dir: Path, hcr: dict[str, dict[int, float]],
                     n_periods: int, tp_max: int) -> list[str]:
    """Probabilities in [0, 1] or empty; lines ordered by head count."""
    problems = []
    summary = json.loads((out_dir / "summary.json").read_text("utf-8"))
    if summary.get("failed"):
        problems.append(f"failed definitions: {summary['failed']}")
    if sorted(summary.get("definitions", {})) != sorted(hcr):
        problems.append("summary.json definitions differ from the inputs")
    lines: dict[str, dict[int, float]] = {}
    for name in sorted(hcr):
        rows = read_metrics(out_dir / f"metrics_{name}.csv")
        lines[name] = {y: v for y, stat, _, v, _ in rows
                       if stat == "poverty_line"}
        if sorted(lines[name]) != sorted(hcr[name]):
            problems.append(f"{name}: poverty-line years differ from HCR")
        n_years = len(hcr[name])
        per_stat: dict[str, int] = {}
        for y, stat, _tp, v, defined in rows:
            per_stat[stat] = per_stat.get(stat, 0) + 1
            if defined != (0 if math.isnan(v) else 1):
                problems.append(f"{name} {y} {stat}: defined flag wrong")
            elif (stat in PROBABILITIES or stat == "bpl_gini") \
                    and not (math.isnan(v) or 0.0 <= v <= 1.0):
                problems.append(f"{name} {y} {stat}: {v} outside [0, 1]")
        want = {"p_in": n_years - 1, "p_stic": (n_years - 1) * tp_max,
                "bpl_gini": n_years}
        for stat, n in want.items():
            if per_stat.get(stat) != n:
                problems.append(f"{name}: {per_stat.get(stat)} {stat} rows, "
                                f"expected {n}")
        pooled = _rows(out_dir / f"pooled_{name}.csv")
        if len(pooled) != n_periods * (3 + 2 * tp_max):
            problems.append(f"{name}: {len(pooled)} pooled rows")
        for first, last, stat, _tp, v, _d in pooled:
            if v and not 0.0 <= float(v) <= 1.0:
                problems.append(f"{name} {first}-{last} {stat}: {v}")
        if not (out_dir / f"paths_{name}.csv").is_file():
            problems.append(f"paths_{name}.csv missing")
    # a higher head count needs a line at least as high, year by year
    for year in sorted(set.intersection(*(set(h) for h in hcr.values()))):
        ordered = sorted(hcr, key=lambda n: hcr[n][year])
        zs = [lines[n].get(year, math.nan) for n in ordered]
        if any(not a <= b for a, b in zip(zs, zs[1:])):
            problems.append(f"{year}: poverty lines not ordered by HCR")
    return problems


def transition_problems(out_dir: Path, incomes: np.ndarray, first_year: int,
                        hcr: dict[str, dict[int, float]],
                        years: list[int]) -> list[str]:
    """Recompute line, p_out and p_in for sampled years from the panel."""
    problems = []
    n = incomes.shape[0]
    for name in sorted(hcr):
        written = {(y, stat): v for y, stat, _, v, _ in
                   read_metrics(out_dir / f"metrics_{name}.csv")
                   if stat in ("poverty_line", "p_out", "p_in")}
        for year in years:
            poor = []
            for y in (year - 1, year):
                col = incomes[:, y - first_year]
                k = int(math.floor(hcr[name][y] * n + 0.5))
                z = float(np.partition(col, k)[k]) if k < n else math.inf
                poor.append(col < z)
            # z is now the line of ``year`` itself
            if not close(z, written[(year, "poverty_line")]):
                problems.append(f"{name} {year}: poverty line differs")
            prev, cur = poor
            expect = {
                "p_out": np.count_nonzero(prev & ~cur) / np.count_nonzero(prev),
                "p_in": np.count_nonzero(~prev & cur) / np.count_nonzero(cur),
            }
            for stat, value in expect.items():
                if not close(float(value), written[(year, stat)]):
                    problems.append(f"{name} {year}: {stat} differs "
                                    f"({value} vs {written[(year, stat)]})")
    return problems


def panel_problems(out_dir: Path, n_agents: int, first_year: int,
                   last_year: int) -> list[str]:
    """The npy panel and its metadata describe the expected shape."""
    meta = json.loads((out_dir / "panel_meta.json").read_text("utf-8"))
    problems = []
    want = {"n_agents": n_agents, "first_year": first_year,
            "last_year": last_year, "format": "npy"}
    for key, value in want.items():
        if meta.get(key) != value:
            problems.append(f"panel_meta {key} = {meta.get(key)!r}")
    years = np.load(out_dir / "panel_years.npy")
    if years.tolist() != list(range(first_year, last_year + 1)):
        problems.append("panel_years.npy is not the year range")
    incomes = np.load(out_dir / "panel_incomes.npy", mmap_mode="r")
    if incomes.shape != (n_agents, last_year - first_year + 1):
        problems.append(f"panel_incomes.npy shape {incomes.shape}")
    return problems


def share_problems(shares: dict[int, float], incomes: np.ndarray,
                   first_year: int, years: list[int]) -> list[str]:
    """Recompute the bottom-half share of sampled years from the panel."""
    problems = []
    cols = np.asarray(incomes[:, [y - first_year for y in years]])
    k = incomes.shape[0] // 2
    for j, year in enumerate(years):
        col = cols[:, j]
        share = float(np.sum(np.partition(col, k - 1)[:k])) / float(col.sum())
        if not close(share, shares[year]):
            problems.append(f"{year}: share {shares[year]} vs panel {share}")
    return problems
