"""Command-line pipeline: ingest, calibrate, replay, classify, export.

Subcommands: calibrate, simulate, metrics, pipeline, interpolate. A flat
``key = value`` config file mirrors PipelineConfig (``_KEYS`` holds the
key list, the README documents it); ``--seed/--n-agents/--mu/--sigma/
--out/--threads`` override it.
Exit codes: 0 ok, 2 config, 3 data, 4 calibration divergence (strict
mode), 5 output I/O.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .calibrate import (CalibrationConfig, CalibrationResult, fit_series,
                        panel_fingerprint, replay)
from .dataio import (_INT64_MAX, _INT64_MIN, PanelSpool, RunManifest,
                     StoredPanel, _output_dir, json_value,
                     read_hcr_file, read_series, spool_panel, write_json,
                     write_manifest, write_panel, write_paths_csv,
                     write_pooled_csv, write_report_csv, write_series)
from .errors import (CalibrationDivergenceError, ConfigError, DataError,
                     OutputError, PovdynError)
from .poverty import (PovertyAccumulator, _check_period, _persistence,
                      _pooled, _transitions)
from .rgbm import ModelParams, init_lognormal
from .series import AnnualSeries, interpolate_missing, missing_year_blocks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4
EXIT_IO = 5

_DEFAULT_PERIODS = ((1962, 1971), (1972, 1981), (1982, 1991),
                    (1992, 2001), (2002, 2006))

# Caps on the config values that size the run. A typo above them would
# ask for any amount of memory or threads; the caps reject it before
# any stage starts. 1e8 agents is 800 MB per income vector (a fit holds
# about ten); simulate steps on ``threads`` OS threads, the main one
# included.
MAX_AGENTS = 10**8
MAX_TP = 1000
MAX_THREADS = 256


def _parse_periods(text: str) -> tuple[tuple[int, int], ...]:
    periods = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            a, b = map(int, part.split("-"))
        except ValueError:
            raise ConfigError(
                f"bad period {part!r}; expected e.g. 1962-1971") from None
        if a > b:
            raise ConfigError(f"period {part!r} runs backward; expected "
                              "first-last, e.g. 1962-1971")
        if (a, b) in periods:
            # its rows would be written twice, and summary.json keys it once
            raise ConfigError(f"pool_periods repeats the period {a}-{b}")
        periods.append((a, b))
    if not periods:
        raise ConfigError("pool_periods is empty")
    return tuple(periods)


def _optional_path(value: str) -> Path | None:
    return Path(value) if value else None


def _env_threads() -> int:
    text = os.environ.get("POVDYN_THREADS", "1")
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"POVDYN_THREADS: cannot parse {text!r}") from None


class _Key(NamedTuple):
    """A config key: the parser of its text, its default, and the flag
    that overrides it, if any, with the flag's help."""

    parse: Callable[[str], object]
    default: object
    flag: str | None = None
    help: str | None = None


# Every config key except hcr_<name>. A flag beats the file and the file
# beats the default; a default that is a function is called on every
# build, so a bad POVDYN_THREADS is an error even when it is overridden.
# ModelParams and CalibrationConfig take the keys named after their
# fields, PipelineConfig the others.
_KEYS = {
    "seed": _Key(int, 0, "--seed"),
    "n_agents": _Key(int, ModelParams.n_agents, "--n-agents"),
    "mu": _Key(float, ModelParams.mu, "--mu"),
    "sigma": _Key(float, ModelParams.sigma, "--sigma"),
    "dt": _Key(float, ModelParams.dt),
    "tau_min": _Key(float, CalibrationConfig.tau_min),
    "tau_max": _Key(float, CalibrationConfig.tau_max),
    "tolerance": _Key(float, CalibrationConfig.tolerance),
    "max_iterations": _Key(int, CalibrationConfig.max_iterations),
    "smoothing_window": _Key(int, CalibrationConfig.smoothing_window),
    "forward_rate": _Key(str, CalibrationConfig.forward_rate),
    "inequality_csv": _Key(_optional_path, None),
    "init_s50": _Key(float, None),
    "start_year": _Key(int, None),
    "rates_csv": _Key(_optional_path, None),
    "panel_dir": _Key(_optional_path, None),
    "pool_periods": _Key(_parse_periods, _DEFAULT_PERIODS),
    "pooled_method": _Key(str, "counts"),
    "tp_max": _Key(int, 10),
    "paths_below": _Key(int, 20),
    "paths_above": _Key(int, 20),
    "panel_format": _Key(str, "npy"),
    "out_dir": _Key(Path, Path("out"), "--out", "output directory"),
    "threads": _Key(int, _env_threads, "--threads",
                    "threads that step simulate, the main one included "
                    "(agent chunks pulled from one counter, each year's "
                    "spool write beside its share); "
                    "capped at two, the threads that write simulate and "
                    "pipeline's npy panel file in blocks; never changes "
                    "results. The fit keeps one helper thread; calibrate "
                    "and metrics ignore it; default from POVDYN_THREADS"),
}


def _json_safe(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, tuple):  # pool_periods
        return [f"{a}-{b}" for a, b in value]
    return value


@dataclass
class PipelineConfig:
    """Everything one run needs, as :func:`build_config` resolves it."""

    seed: int
    model: ModelParams
    calib: CalibrationConfig
    inequality_csv: Path | None
    rates_csv: Path | None
    panel_dir: Path | None
    hcr_files: dict[str, Path]
    pool_periods: tuple[tuple[int, int], ...]
    pooled_method: str
    tp_max: int
    paths_below: int
    paths_above: int
    panel_format: str
    out_dir: Path
    threads: int
    strict: bool
    init_s50: float | None
    start_year: int | None

    def flat(self) -> dict:
        """Flat, JSON-safe view for the run manifest: every config key but
        the deployment settings out_dir and threads (where a run writes
        and how many threads step it, not what it computes), and the
        definitions' files."""
        values = {**vars(self.model), **vars(self.calib), **vars(self)}
        view = {key: _json_safe(values[key]) for key in _KEYS
                if key not in ("out_dir", "threads")}
        view["hcr_files"] = {k: str(v)
                             for k, v in sorted(self.hcr_files.items())}
        return view


def _parse_kv_file(path: Path) -> dict[str, str]:
    kv: dict[str, str] = {}
    line_of: dict[str, int] = {}
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: "
                          f"{exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text "
                          f"(byte {exc.start})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in kv:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is "
                              f"already set on line {line_of[key]}")
        kv[key], line_of[key] = value.strip(), lineno
    return kv


def _definition_name(key: str) -> str:
    """The name of the ``hcr_<name>`` key ``key``. It names the
    definition's report files, so it must be one plain path component."""
    name = key[len("hcr_"):]
    if name in ("", ".", "..") or any(
            sep and sep in name for sep in ("/", os.sep, os.altsep)):
        raise ConfigError(f"config key {key!r}: a definition name must be "
                          "non-empty, not '.' or '..', and hold no path "
                          "separator")
    return name


def build_config(args: argparse.Namespace) -> PipelineConfig:
    kv = _parse_kv_file(Path(args.config)) if args.config else {}
    hcr_files = {}
    for key, text in kv.items():
        if key.startswith("hcr_"):
            hcr_files[_definition_name(key)] = Path(text)
        elif key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")

    def value(key: str):
        parse, default, flag, _ = _KEYS[key]
        if callable(default):
            default = default()
        given = getattr(args, flag[2:].replace("-", "_")) if flag else None
        if given is not None:
            return given
        if key not in kv:
            return default
        try:
            return parse(kv[key])
        except ValueError:
            raise ConfigError(f"config key {key!r}: cannot parse "
                              f"{kv[key]!r}") from None

    def values(cls) -> dict:
        # in the order of the class's fields, which is the order of the
        # checks: the first bad value found is the one reported
        return {f.name: value(f.name) for f in fields(cls) if f.name in _KEYS}

    try:
        model = ModelParams(**values(ModelParams))
        calib = CalibrationConfig(**values(CalibrationConfig))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # past |tau*dt| = 1 the reallocation overshoots the mean: the share
    # falls again, and the search's bracket no longer holds one root
    for key in ("tau_min", "tau_max"):
        tau = getattr(calib, key)
        if abs(tau * model.dt) > 1.0:
            raise ConfigError(f"{key} = {tau!r} with dt = {model.dt!r}: "
                              f"|{key}*dt| must be <= 1")
    cfg = PipelineConfig(model=model, calib=calib, hcr_files=hcr_files,
                         strict=bool(getattr(args, "strict", False)),
                         **values(PipelineConfig))

    if cfg.pooled_method not in ("counts", "mean"):
        raise ConfigError("pooled_method must be 'counts' or 'mean'")
    if cfg.panel_format not in ("npy", "csv"):
        raise ConfigError("panel_format must be 'npy' or 'csv'")
    if cfg.tp_max < 1:
        raise ConfigError("tp_max must be >= 1")
    if cfg.tp_max > MAX_TP:
        raise ConfigError(f"tp_max = {cfg.tp_max} is above its cap of "
                          f"{MAX_TP}")
    if cfg.model.n_agents > MAX_AGENTS:
        raise ConfigError(f"n_agents = {cfg.model.n_agents} is above its "
                          f"cap of {MAX_AGENTS}")
    if cfg.threads < 1:
        raise ConfigError("threads must be >= 1")
    if cfg.threads > MAX_THREADS:
        raise ConfigError(f"threads = {cfg.threads} is above its cap of "
                          f"{MAX_THREADS}")
    if cfg.paths_below < 0 or cfg.paths_above < 0:
        raise ConfigError("paths_below and paths_above must be >= 0")
    # the bottom half of a lognormal start holds at most half the income
    if cfg.init_s50 is not None and not 0.0 < cfg.init_s50 <= 0.5:
        raise ConfigError(f"init_s50 must be in (0, 0.5], got "
                          f"{cfg.init_s50!r}")
    # a year is an int64, as the CSV reader requires
    if not _INT64_MIN <= (cfg.start_year or 0) <= _INT64_MAX:
        raise ConfigError(f"start_year = {cfg.start_year} is outside the "
                          "int64 range of a year")
    return cfg


# ---------------------------------------------------------------------------
# shared stages

def _initial_state(cfg: PipelineConfig
                   ) -> tuple[float, int, AnnualSeries | None]:
    """The bottom-half share and year of the initial population, plus the
    fit targets.

    The first inequality row seeds the lognormal start (one year before
    the first target); the remaining rows are the fit targets.
    """
    if cfg.inequality_csv is not None:
        series = read_series(cfg.inequality_csv, value_col="s50")
        if len(series) < 2:
            raise DataError(
                f"{cfg.inequality_csv}: need at least two rows "
                "(initialization year plus one target year)"
            )
        start_year = series.first_year
        init_s50 = float(series.values[0])
        targets = AnnualSeries(series.years[1:], series.values[1:])
    elif cfg.init_s50 is not None and cfg.start_year is not None:
        init_s50, start_year, targets = cfg.init_s50, cfg.start_year, None
    else:
        raise ConfigError(
            "need inequality_csv, or init_s50 together with start_year")
    return init_s50, start_year, targets


def _make_manifest(cfg: PipelineConfig, inputs) -> RunManifest:
    """An input that cannot be read gets a null digest; the stage that
    reads it fails, so an unreadable HCR file fails only its definition."""
    existing = [p for p in inputs if p is not None]
    return RunManifest.create(cfg.seed, cfg.flat(), existing, __version__)


def _zero_crossings(series: AnnualSeries) -> list[int]:
    sign = np.sign(series.values)
    flips = np.flatnonzero(np.diff(np.where(sign == 0, 1, sign)) != 0)
    return [int(series.years[i + 1]) for i in flips]


def _flag_share_range(name: str, series: AnnualSeries) -> None:
    # bottom shares can leave [0, 1] when incomes go negative; an
    # undefined share (NaN) compares false and is not flagged here
    odd = [int(y) for y, v in series if v < 0.0 or v > 1.0]
    if odd:
        print(f"  note: {name} outside [0, 1] in years {odd} "
              "(negative incomes present)")


def _calibration_inputs(cfg: PipelineConfig
                        ) -> tuple[float, int, AnnualSeries]:
    init_s50, start_year, targets = _initial_state(cfg)
    if targets is None:
        raise ConfigError("calibration needs inequality_csv")
    return init_s50, start_year, targets


def _run_calibration(cfg: PipelineConfig, manifest: RunManifest,
                     init_s50: float, start_year: int, targets: AnnualSeries,
                     sink=None) -> CalibrationResult:
    """Fit from the lognormal start of ``init_s50`` in ``start_year`` and
    write the calibration outputs.

    ``sink`` is handed each year's row of the validation replay under
    ``tau_effective`` as it is stepped (see :func:`fit_series`).
    """
    # the initial population is drawn in the call, so that fit_series
    # holds the only reference to it and frees it after the first year
    result = fit_series(
        init_lognormal(cfg.model, init_s50, cfg.seed, year=start_year),
        targets, cfg.model, cfg.calib, cfg.seed, _sink=sink)

    out = _output_dir(cfg.out_dir)
    for name in ("tau", "tau_effective", "residuals", "replay_shares",
                 "fitted_shares"):
        write_series(getattr(result, name), out / f"{name}.csv",
                     manifest_digest=manifest.digest)

    print(f"calibrated {len(result.tau)} years "
          f"({result.tau.first_year}-{result.tau.last_year})")
    print(f"  max residual: {float(result.residuals.values.max()):.3g}")
    _flag_share_range("replay shares", result.replay_shares)
    crossings = _zero_crossings(result.tau_effective)
    if crossings:
        print("  effective rate changes sign in: "
              + ", ".join(map(str, crossings)))
    if result.divergent_years:
        print(f"  divergence warnings (residual > "
              f"{cfg.calib.divergence_threshold:g}): "
              + ", ".join(map(str, result.divergent_years)))
        if cfg.strict:
            raise CalibrationDivergenceError(
                f"targets unreachable in years {result.divergent_years}")
    return result


def _run_simulation(cfg: PipelineConfig, manifest: RunManifest,
                    rates: AnnualSeries) -> None:
    """Replay under ``rates``; each stepped row is spooled to disk, as in
    ``pipeline``, and the panel file is transposed from the spool."""
    init_s50, start_year, _ = _initial_state(cfg)
    out = cfg.out_dir
    # sized by the rates: replay refuses a start_year not the year before;
    # replay and write_panel each join their threads before they return
    with PanelSpool(out, np.arange(rates.first_year - 1, rates.last_year + 1),
                    cfg.model.n_agents, cfg.seed) as spool:
        # drawn in the call, as in _run_calibration: replay holds the only
        # reference and frees it at the first step
        shares, _ = replay(
            init_lognormal(cfg.model, init_s50, cfg.seed, year=start_year),
            rates, cfg.model, cfg.seed, threads=cfg.threads, _sink=spool)
        spool.fingerprint = panel_fingerprint(start_year, rates, cfg.model,
                                              cfg.seed)
        write_series(shares, out / "shares.csv",
                     manifest_digest=manifest.digest)
        write_panel(spool, out, fmt=cfg.panel_format, threads=cfg.threads)
    print(f"simulated panel: {spool.n_agents} agents, "
          f"{spool.first_year}-{spool.last_year}")
    _flag_share_range("shares", shares)


def _columns(keys, names, values, t_ps=None) -> list:
    """Report columns (key, statistic, t_p, value) of the statistics
    ``names``, a row per key and name, keys outer: ``values`` holds one
    array over ``keys`` per name, ``t_ps`` each name's threshold (0:
    none)."""
    return [np.repeat(keys, len(names)), names * len(keys),
            np.tile([0] * len(names) if t_ps is None else t_ps, len(keys)),
            np.stack(values, axis=1).ravel()]


def _definitions(cfg: PipelineConfig, years: np.ndarray, n_agents: int
                 ) -> tuple[dict[str, PovertyAccumulator],
                            dict[str, PovdynError]]:
    """The accumulator of every poverty-line definition over the panel
    ``years``, and the error of each whose HCR file cannot be used or
    whose HCR years do not hold every pool period, which the metrics
    stage reports."""
    accs, failed = {}, {}
    # cap path requests at the population size (tiny smoke runs)
    k_below = min(cfg.paths_below, n_agents // 2)
    k_above = min(cfg.paths_above, n_agents - k_below)
    for name in sorted(cfg.hcr_files):
        try:
            hcr, file_name = read_hcr_file(cfg.hcr_files[name])
            acc = PovertyAccumulator(
                hcr, n_agents, (int(years[0]), int(years[-1])), k_below,
                k_above, name=file_name or name)
            for period in cfg.pool_periods:
                _check_period(period, hcr.first_year, hcr.last_year)
            accs[name] = acc
        except PovdynError as exc:
            failed[name] = exc
    return accs, failed


def _definition_metrics(cfg: PipelineConfig, manifest: RunManifest,
                        name: str, acc: PovertyAccumulator) -> dict:
    """Write the reports of one poverty-line definition; return its
    summary entry."""
    out = cfg.out_dir
    line, table, bpl = acc.line, acc.count_table(), acc.bpl
    years = f"{int(line.years[0])}-{int(line.years[-1])}"
    t_ps = range(1, cfg.tp_max + 1)
    steps = line.years[1:]  # the years with a predecessor
    blocks = [
        _columns(line.years, ["poverty_line"], [line.z]),
        _columns(steps, ["p_in", "p_out", "p_tx", "p_in_at_risk"],
                 _transitions(table)),
        *(_columns(steps, ["p_stic", "p_esc"], _persistence(table, t),
                   [t, t]) for t in t_ps),
        _columns(bpl.years, ["bpl_gini", "bpl_negatives_floored"],
                 [bpl.gini, bpl.negatives_floored])]
    year, stat, t_p, value = zip(*blocks)
    write_report_csv((np.concatenate(year), [s for ss in stat for s in ss],
                      np.concatenate(t_p), np.concatenate(value)),
                     out / f"metrics_{name}.csv",
                     manifest_digest=manifest.digest)
    # per period: p_in, p_out and p_tx, then p_stic and p_esc per t_p
    names = ["p_in", "p_out", "p_tx"] + ["p_stic", "p_esc"] * len(t_ps)
    thresholds = [0, 0, 0] + [t for t in t_ps for _ in range(2)]
    pooled = _pooled(line.years, table, cfg.pool_periods, t_ps,
                     cfg.pooled_method)
    firsts, lasts = np.array(cfg.pool_periods).T
    first, *columns = _columns(firsts, names, pooled.T, thresholds)
    write_pooled_csv([first, np.repeat(lasts, len(names)), *columns],
                     out / f"pooled_{name}.csv",
                     manifest_digest=manifest.digest)
    keys = [f"{s}_{t}" if t else s for s, t in zip(names, thresholds)]
    bundle = acc.bundle(cfg.seed)
    write_paths_csv(bundle, out / f"paths_{name}.csv",
                    manifest_digest=manifest.digest)
    print(f"metrics[{name}]: years {years}, {cfg.tp_max} spell thresholds, "
          f"{len(cfg.pool_periods)} pooled periods")
    return {
        "years": years,
        "pooled": {f"{a}-{b}": dict(zip(keys, map(json_value, row)))
                   for (a, b), row in zip(cfg.pool_periods,
                                          pooled.tolist())},
        "negatives_floored_years": [
            int(y) for y, f in zip(bpl.years, bpl.negatives_floored) if f],
        "paths_truncated": bundle.truncated,
    }


def _remove_stale_reports(out: Path, written) -> None:
    """Delete the report files in ``out`` of definitions not ``written``.

    Those are definitions since removed from the config, or ones that
    failed in this run; their ``metrics_``, ``pooled_`` and ``paths_``
    CSVs would otherwise sit beside this run's under an older manifest
    digest. Only those three name patterns directly in ``out`` are
    touched.
    """
    for prefix in ("metrics_", "pooled_", "paths_"):
        for path in out.glob(f"{prefix}*.csv"):
            name = path.name[len(prefix):-len(".csv")]
            if name in written or not path.is_file():
                continue
            try:
                path.unlink()
            except OSError as exc:
                raise OutputError(f"cannot remove stale report {path}: "
                                  f"{exc.strerror or exc}") from None


def _run_metrics(cfg: PipelineConfig, manifest: RunManifest,
                 fingerprint: str, accs: dict[str, PovertyAccumulator],
                 failed: dict[str, PovdynError]) -> dict:
    """Write every definition's reports and ``summary.json``.

    ``accs`` holds the finished accumulators, their path incomes
    gathered, and ``failed`` the error of each definition without one. A
    report that cannot be written is an OutputError, which ends the run.
    """
    out = _output_dir(cfg.out_dir)
    summary: dict = {"manifest_digest": manifest.digest,
                     "panel_fingerprint": fingerprint,
                     "definitions": {}, "failed": {}}
    for name in sorted(cfg.hcr_files):
        if name in failed:
            summary["failed"][name] = str(failed[name])
            print(f"metrics[{name}] failed: {failed[name]}", file=sys.stderr)
        else:
            summary["definitions"][name] = _definition_metrics(
                cfg, manifest, name, accs[name])
    _remove_stale_reports(out, summary["definitions"])
    write_json(summary, out / "summary.json")
    if not summary["definitions"]:
        raise DataError("all poverty-line definitions failed")
    return summary


# ---------------------------------------------------------------------------
# subcommands

def cmd_interpolate(args) -> int:
    series = read_series(args.input, year_col=args.year_col,
                         value_col=args.value_col)
    blocks = missing_year_blocks(series)
    filled = interpolate_missing(series)
    n_filled = len(filled) - len(series)
    write_series(filled, args.output, value_col=args.value_col)
    print(f"filled {n_filled} years in {len(blocks)} gaps -> {args.output}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    cfg = build_config(args)
    manifest = _make_manifest(cfg, [cfg.inequality_csv])
    init_s50, start_year, targets = _calibration_inputs(cfg)
    _run_calibration(cfg, manifest, init_s50, start_year, targets)
    write_manifest(manifest, cfg.out_dir / "manifest.json")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = build_config(args)
    if cfg.rates_csv is None:
        raise ConfigError("simulate needs rates_csv")
    rates = read_series(cfg.rates_csv)
    manifest = _make_manifest(cfg, [cfg.rates_csv, cfg.inequality_csv])
    _run_simulation(cfg, manifest, rates)
    write_manifest(manifest, cfg.out_dir / "manifest.json")
    return EXIT_OK


def _push_spooled(spool: PanelSpool, accs: dict[str, PovertyAccumulator]
                  ) -> None:
    """Hand every year of ``spool`` to each accumulator's row hook, read
    into one reused row. Each definition picks its path agents in its
    first HCR year, so the years before the latest such year are then
    read again and handed to every accumulator's
    :meth:`~PovertyAccumulator.gather_year`. No (years, agents) array is
    held, and the row is freed before the reports are written."""
    row = np.empty(spool.n_agents)
    years = spool.years.tolist()
    for t, year in enumerate(years):
        spool.read(t, 0, row[None])
        for acc in accs.values():
            acc(year, row)
    picked = max((acc.hcr.first_year for acc in accs.values()),
                 default=years[0])
    for t, year in enumerate(years[:picked - years[0]]):
        spool.read(t, 0, row[None])
        for acc in accs.values():
            acc.gather_year(year, row)


def cmd_metrics(args) -> int:
    cfg = build_config(args)
    if not cfg.hcr_files:
        raise ConfigError("no poverty-line definitions (hcr_<name> keys)")
    # The stored panel is turned year-major into a spool in the output
    # directory, one block of agents at a time, and every check of its
    # files is made in that pass, before any report is written. The
    # spool is deleted however the block is left.
    stored = StoredPanel(cfg.panel_dir or cfg.out_dir)
    with PanelSpool(cfg.out_dir, stored.years, stored.n_agents,
                    stored.seed) as spool:
        spool_panel(stored, spool)
        manifest = _make_manifest(cfg, cfg.hcr_files.values())
        accs, failed = _definitions(cfg, spool.years, spool.n_agents)
        _push_spooled(spool, accs)
    _run_metrics(cfg, manifest, stored.fingerprint, accs, failed)
    write_manifest(manifest, cfg.out_dir / "manifest.json")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    cfg = build_config(args)
    if not cfg.hcr_files:
        raise ConfigError("no poverty-line definitions (hcr_<name> keys)")
    inputs = [cfg.inequality_csv, *cfg.hcr_files.values()]
    manifest = _make_manifest(cfg, inputs)
    stage = "calibrate"
    try:
        # The calibration's validation replay is the panel. Its rows go,
        # as they are stepped, to a spool file in the output directory;
        # the panel file is written from the spool, and then every
        # definition measures it as in metrics. No (years, agents) array
        # is ever held. The spool is deleted however the block is left.
        init_s50, start_year, targets = _calibration_inputs(cfg)
        n = cfg.model.n_agents
        years = np.arange(start_year, targets.last_year + 1)
        accs, failed = _definitions(cfg, years, n)
        if not accs:  # nothing to measure: fail before the fit
            for name, exc in failed.items():
                print(f"metrics[{name}] failed: {exc}", file=sys.stderr)
            raise DataError("all poverty-line definitions failed")
        with PanelSpool(cfg.out_dir, years, n, cfg.seed) as spool:
            result = _run_calibration(cfg, manifest, init_s50, start_year,
                                      targets, sink=spool)
            stage = "simulate"
            spool.fingerprint = panel_fingerprint(
                start_year, result.tau_effective, cfg.model, cfg.seed)
            write_panel(spool, cfg.out_dir, fmt=cfg.panel_format,
                        threads=cfg.threads)
            stage = "metrics"
            _push_spooled(spool, accs)
        _run_metrics(cfg, manifest, spool.fingerprint, accs, failed)
    except PovdynError:
        print(f"pipeline aborted in stage '{stage}'", file=sys.stderr)
        raise
    write_manifest(manifest, cfg.out_dir / "manifest.json")
    print(f"pipeline complete -> {cfg.out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    for key in _KEYS.values():
        if key.flag:
            parser.add_argument(key.flag, type=key.parse, help=key.help)
    parser.add_argument("--strict", action="store_true",
                        help="treat calibration divergence as fatal")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="povdyn",
        description="Income-distribution simulation and poverty dynamics")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (
            ("calibrate", cmd_calibrate,
             "fit reallocation rates to an inequality series"),
            ("simulate", cmd_simulate,
             "propagate a panel under a given rate series"),
            ("metrics", cmd_metrics, "poverty metrics from a stored panel"),
            ("pipeline", cmd_pipeline,
             "calibrate, simulate, and compute metrics in one run")):
        p = sub.add_parser(name, help=text)
        _add_common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("interpolate", help="fill interior gaps in a "
                                           "year-indexed CSV")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--year-col", default="year")
    p.add_argument("--value-col", default="value")
    p.set_defaults(func=cmd_interpolate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CalibrationDivergenceError as exc:
        print(f"calibration divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PovdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
