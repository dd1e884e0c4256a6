"""CSV/JSON ingestion and serialization with provenance.

Writers are deterministic: fixed row order, fixed float formatting (12
significant digits), UTF-8, '.' decimal separator. Undefined statistics
(NaN) serialize as empty CSV fields and JSON nulls. Every report file
opens with a comment line referencing the run-manifest digest.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import DataError, OutputError, SeriesFormatError
from .series import AnnualSeries

FLOAT_FMT = "%.12g"


def fmt_value(x: float) -> str:
    """Render one value: empty string for NaN, 12 significant digits else."""
    if isinstance(x, float) and math.isnan(x):
        return ""
    return FLOAT_FMT % x


def json_value(x: float):
    """JSON rendering: null for NaN/inf (JSON has no non-finite numbers)."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_digest(mapping: dict) -> str:
    return hashlib.sha256(canonical_json(mapping).encode("utf-8")).hexdigest()


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# annual series

def read_series(path, year_col: str = "year", value_col: str = "value"
                ) -> AnnualSeries:
    """Parse a year-indexed CSV column into an AnnualSeries.

    Requires a header row; rejects duplicate years and malformed rows with
    the offending line number. Lines starting with '#' are skipped.
    """
    path = Path(path)
    pairs: list[tuple[int, float]] = []
    seen: set[int] = set()
    with open(path, newline="", encoding="utf-8") as f:
        header = None
        for lineno, row in enumerate(csv.reader(f), start=1):
            if not row or row[0].startswith("#"):
                continue
            if header is None:
                header = [c.strip() for c in row]
                for col in (year_col, value_col):
                    if col not in header:
                        raise SeriesFormatError(
                            f"{path}: missing column {col!r} in header")
                yi, vi = header.index(year_col), header.index(value_col)
                continue
            try:
                year = int(row[yi].strip())
                value = float(row[vi].strip())
            except (ValueError, IndexError) as exc:
                raise SeriesFormatError(
                    f"{path}:{lineno}: malformed row {row!r}: {exc}"
                ) from None
            if not math.isfinite(value):
                raise SeriesFormatError(
                    f"{path}:{lineno}: non-finite value for year {year}")
            if year in seen:
                raise SeriesFormatError(
                    f"{path}:{lineno}: duplicate year {year}")
            seen.add(year)
            pairs.append((year, value))
        if header is None:
            raise SeriesFormatError(f"{path}: empty file (no header row)")
    if not pairs:
        raise SeriesFormatError(f"{path}: no data rows")
    return AnnualSeries.from_pairs(pairs)


def read_hcr_file(path) -> tuple[AnnualSeries, str | None]:
    """Read an HCR CSV (year, hcr [, definition_name]).

    Returns the series and the in-file definition name, if the column is
    present and single-valued.
    """
    series = read_series(path, year_col="year", value_col="hcr")
    name = None
    with open(path, newline="", encoding="utf-8") as f:
        rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
    header = [c.strip() for c in rows[0]]
    if "definition_name" in header:
        ni = header.index("definition_name")
        names = {r[ni].strip() for r in rows[1:] if len(r) > ni}
        if len(names) == 1:
            name = names.pop()
        elif len(names) > 1:
            raise SeriesFormatError(
                f"{path}: multiple definition names {sorted(names)}; "
                "split into one file per definition"
            )
    return series, name


def write_series(series: AnnualSeries, path, value_col: str = "value",
                 manifest_digest: str | None = None) -> None:
    path = Path(path)
    try:
        with open(path, "w", newline="", encoding="utf-8") as f:
            if manifest_digest:
                f.write(f"# manifest: {manifest_digest}\n")
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["year", value_col])
            for year, value in series:
                w.writerow([year, fmt_value(value)])
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# income panels

def write_panel(panel, out_dir, fmt: str = "npy") -> list[Path]:
    """Persist an income panel plus its metadata sidecar.

    ``npy`` writes raw arrays (exact, compact); ``csv`` writes a matrix at
    12 significant digits (readable, lossy) for small panels.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {
        "seed": panel.seed,
        "fingerprint": panel.fingerprint,
        "n_agents": panel.n_agents,
        "first_year": panel.first_year,
        "last_year": panel.last_year,
        "format": fmt,
    }
    written: list[Path] = []
    try:
        if fmt == "npy":
            np.save(out_dir / "panel_years.npy", panel.years)
            np.save(out_dir / "panel_incomes.npy", panel.incomes)
            written += [out_dir / "panel_years.npy",
                        out_dir / "panel_incomes.npy"]
        elif fmt == "csv":
            path = out_dir / "panel.csv"
            with open(path, "w", newline="", encoding="utf-8") as f:
                w = csv.writer(f, lineterminator="\n")
                w.writerow(["agent"] + [f"y{int(y)}" for y in panel.years])
                for i in range(panel.n_agents):
                    w.writerow([i] + [fmt_value(float(v))
                                      for v in panel.incomes[i]])
            written.append(path)
        else:
            raise ValueError(f"unknown panel format {fmt!r}")
        meta_path = out_dir / "panel_meta.json"
        meta_path.write_text(canonical_json(meta) + "\n", encoding="utf-8")
        written.append(meta_path)
    except OSError as exc:
        raise OutputError(f"cannot write panel under {out_dir}: {exc}") from exc
    return written


_PANEL_META_KEYS = ("seed", "fingerprint", "n_agents", "first_year",
                   "last_year", "format")


def read_panel(directory):
    """Load a panel written by :func:`write_panel`.

    Raises DataError when the metadata is missing, is not valid JSON,
    lacks a key or names an unknown format, when the panel files cannot
    be parsed, and when the arrays disagree with the metadata on the
    agent count or the year range.
    """
    from .poverty import IncomePanel

    directory = Path(directory)
    meta_path = directory / "panel_meta.json"
    if not meta_path.exists():
        raise DataError(f"no panel_meta.json under {directory}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataError(f"{meta_path}: not valid JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise DataError(f"{meta_path}: expected a JSON object")
    missing = [k for k in _PANEL_META_KEYS if k not in meta]
    if missing:
        raise DataError(f"{meta_path}: missing keys {missing}")
    if meta["format"] not in ("npy", "csv"):
        raise DataError(f"{meta_path}: unknown panel format "
                        f"{meta['format']!r}")
    try:
        seed = int(meta["seed"])
        n_agents = int(meta["n_agents"])
        first, last = int(meta["first_year"]), int(meta["last_year"])
        if meta["format"] == "npy":
            years = np.load(directory / "panel_years.npy")
            incomes = np.load(directory / "panel_incomes.npy")
        else:
            with open(directory / "panel.csv", newline="",
                      encoding="utf-8") as f:
                rows = list(csv.reader(f))
            years = np.array([int(c[1:]) for c in rows[0][1:]],
                             dtype=np.int64)
            incomes = np.array([[float(v) for v in r[1:]]
                                for r in rows[1:]])
    except (OSError, ValueError, TypeError, IndexError) as exc:
        raise DataError(f"cannot read panel under {directory}: {exc}"
                        ) from None
    # IncomePanel checks that the years are consecutive
    n_years = last - first + 1
    if years.shape != (n_years,) or n_years < 1 or int(years[0]) != first:
        raise DataError(
            f"{directory}: panel years do not match the metadata range "
            f"{first}..{last}")
    if incomes.shape != (n_agents, len(years)):
        raise DataError(
            f"{directory}: panel incomes have shape {incomes.shape}, "
            f"metadata says {n_agents} agents x {len(years)} years")
    return IncomePanel(years=years, incomes=incomes, seed=seed,
                       fingerprint=meta["fingerprint"])


# ---------------------------------------------------------------------------
# metric reports

def write_report_csv(rows, path, manifest_digest: str | None = None) -> None:
    """Write report rows (year, statistic, t_p, value) with defined flags.

    NaN values serialize as empty fields with defined=0; an empty row list
    produces a header-only file.
    """
    path = Path(path)
    try:
        with open(path, "w", newline="", encoding="utf-8") as f:
            if manifest_digest:
                f.write(f"# manifest: {manifest_digest}\n")
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["year", "statistic", "t_p", "value", "defined"])
            for year, statistic, t_p, value in rows:
                defined = 0 if (isinstance(value, float)
                                and math.isnan(value)) else 1
                w.writerow([year, statistic,
                            "" if t_p is None else int(t_p),
                            fmt_value(float(value)), defined])
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def read_report_csv(path) -> list[tuple]:
    """Inverse of :func:`write_report_csv` (NaN restored from empty fields)."""
    out = []
    with open(path, newline="", encoding="utf-8") as f:
        rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
    for row in rows[1:]:
        year, statistic, t_p, value, defined = row
        out.append((
            int(year) if year.lstrip("-").isdigit() else year,
            statistic,
            None if t_p == "" else int(t_p),
            float("nan") if value == "" else float(value),
        ))
    return out


def write_pooled_csv(rows, path, manifest_digest: str | None = None) -> None:
    """Write period-pooled rows (first, last, statistic, t_p, value)."""
    path = Path(path)
    try:
        with open(path, "w", newline="", encoding="utf-8") as f:
            if manifest_digest:
                f.write(f"# manifest: {manifest_digest}\n")
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["period_start", "period_end", "statistic", "t_p",
                        "value", "defined"])
            for first, last, statistic, t_p, value in rows:
                defined = 0 if (isinstance(value, float)
                                and math.isnan(value)) else 1
                w.writerow([first, last, statistic,
                            "" if t_p is None else int(t_p),
                            fmt_value(float(value)), defined])
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def write_paths_csv(bundle, path, manifest_digest: str | None = None) -> None:
    """Plot-ready trajectory export: line plus one column per sampled agent."""
    path = Path(path)
    line_by_year = dict(zip(map(int, bundle.line_years), bundle.line_values))
    try:
        with open(path, "w", newline="", encoding="utf-8") as f:
            if manifest_digest:
                f.write(f"# manifest: {manifest_digest}\n")
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["year", "poverty_line"]
                       + [f"below_{int(a)}" for a in bundle.below_agents]
                       + [f"above_{int(a)}" for a in bundle.above_agents])
            for j, year in enumerate(map(int, bundle.years)):
                line = line_by_year.get(year, float("nan"))
                w.writerow([year, fmt_value(float(line))]
                           + [fmt_value(float(v))
                              for v in bundle.below_paths[:, j]]
                           + [fmt_value(float(v))
                              for v in bundle.above_paths[:, j]])
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def write_json(obj, path) -> None:
    path = Path(path)
    try:
        path.write_text(json.dumps(obj, sort_keys=True, indent=2,
                                   allow_nan=False) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# run manifest

@dataclass
class RunManifest:
    """Reproducibility record for one run.

    ``digest`` covers seed, config, inputs, and version (not the
    timestamp), so reruns with identical inputs produce identical digests.
    """

    seed: int
    config: dict
    inputs: dict
    version: str
    timestamp: str
    digest: str

    @classmethod
    def create(cls, seed: int, config: dict, input_paths, version: str
               ) -> "RunManifest":
        inputs = {str(p): file_digest(p) for p in sorted(map(str, input_paths))}
        digest = config_digest({"seed": seed, "config": config,
                                "inputs": inputs, "version": version})
        return cls(seed=seed, config=config, inputs=inputs, version=version,
                   timestamp=datetime.now(timezone.utc).isoformat(),
                   digest=digest)

    def verify(self) -> bool:
        return self.digest == config_digest({
            "seed": self.seed, "config": self.config,
            "inputs": self.inputs, "version": self.version})


def write_manifest(manifest: RunManifest, path) -> None:
    write_json(asdict(manifest), path)


def read_manifest(path) -> RunManifest:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return RunManifest(**data)
