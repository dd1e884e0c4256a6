"""Property tests for the config parser, the CSV readers and the CLI.

Every bad input must end in a typed ``PovdynError``: a ``ConfigError``
from the config file or a command-line override, a ``DataError`` from an
input CSV. Through ``main(argv)`` that is the documented exit code (2
for a config error, 3 for a data error), never a traceback. The inputs
mix arbitrary text and bytes with near-valid files, so that parsing gets
past the first line often enough to reach the checks behind it.
The library's public functions check their own arguments: a bad one is
a ValueError, or a DataError for a series or panel that cannot be one.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import pp_from_flags
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from povdyn.calibrate import CalibrationConfig, effective_tau
from povdyn.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_OK, PipelineConfig,
                        build_config, build_parser, main)
from povdyn.dataio import (canonical_json, read_hcr_file, read_series,
                           write_panel)
from povdyn.errors import ConfigError, DataError, PovdynError
from povdyn.poverty import (IncomePanel, PovertyLineSeries,
                            poverty_line_from_hcr, pooled_metrics,
                            sample_paths)
from povdyn.rgbm import ModelParams, Population, bottom_share, step
from povdyn.rng import RngStream
from povdyn.series import AnnualSeries, interpolate_missing

SETTINGS = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# keys whose value names a file or directory; the other known keys are
# numbers or words
PATH_KEYS = ("inequality_csv", "rates_csv", "panel_dir", "out_dir")
VALUE_KEYS = (
    "seed", "n_agents", "mu", "sigma", "dt", "tau_min", "tau_max",
    "tolerance", "max_iterations", "smoothing_window", "forward_rate",
    "pool_periods", "pooled_method", "tp_max", "paths_below",
    "paths_above", "panel_format", "threads", "init_s50", "start_year",
)

values = st.one_of(
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(repr),
    st.sampled_from(["fitted", "effective", "counts", "mean", "npy", "csv",
                     "1962-1971, 1972-1981", "1-2-3", "2001-", ",", "",
                     "0x10", "1_000", "1e3", " 7 "]),
    st.text(max_size=16),
)


def config_lines(keys):
    line = st.one_of(
        st.tuples(st.sampled_from(keys), values).map(
            lambda kv: f"{kv[0]} = {kv[1]}"),
        st.text(max_size=24),
        st.just("# a comment"),
        st.just("hcr_extra = none.csv"),
    )
    return st.lists(line, max_size=8)


# overrides argparse accepts (the --flag=value form keeps "-inf" and
# "-1e+300" from being read as flags); values the model rejects included
overrides = st.lists(st.one_of(
    st.integers(-2**70, 2**70).map(lambda v: f"--seed={v}"),
    st.integers(-3, 60).map(lambda v: f"--n-agents={v}"),
    st.tuples(st.sampled_from(["--mu", "--sigma"]), st.floats()).map(
        lambda fv: f"{fv[0]}={fv[1]!r}"),
    st.integers(-2, 4).map(lambda v: f"--threads={v}"),
), max_size=4)


@st.composite
def s50_csv(draw):
    """Bytes of an inequality CSV: arbitrary, or rows of (year, share)."""
    if draw(st.booleans()):
        return draw(st.one_of(st.binary(max_size=120),
                              st.text(max_size=120).map(str.encode)))
    n = draw(st.integers(0, 8))
    start = draw(st.integers(-3000, 3000))
    years = [start + i for i in range(n)]
    if n and draw(st.booleans()):
        years[draw(st.integers(0, n - 1))] = draw(
            st.integers(-2**66, 2**66))
    shares = draw(st.lists(st.one_of(st.floats(0.05, 0.5), st.floats()),
                           min_size=n, max_size=n))
    header = draw(st.sampled_from(["year,s50", "year, s50 ,note",
                                   "s50,year", "year,value", "# c\nyear,s50"]))
    rows = [f"{y},{v!r}" for y, v in zip(years, shares)]
    return "\n".join([header, *rows]).encode()


def _accepted(cfg: PipelineConfig) -> None:
    """What build_config guarantees of a config it returns."""
    assert cfg.threads >= 1 and cfg.tp_max >= 1
    assert cfg.paths_below >= 0 and cfg.paths_above >= 0
    assert cfg.pooled_method in ("counts", "mean")
    assert cfg.panel_format in ("npy", "csv")
    assert cfg.init_s50 is None or 0.0 < cfg.init_s50 <= 0.5
    for tau in (cfg.calib.tau_min, cfg.calib.tau_max):
        assert abs(tau * cfg.model.dt) <= 1.0
    canonical_json(cfg.flat())  # the manifest can record it


def _build(config_file: Path, extra) -> None:
    args = build_parser().parse_args(
        ["pipeline", "--config", str(config_file), *extra])
    try:
        cfg = build_config(args)
    except PovdynError as exc:
        assert isinstance(exc, ConfigError), repr(exc)
    else:
        _accepted(cfg)


@SETTINGS
@given(lines=config_lines(VALUE_KEYS + PATH_KEYS), extra=overrides)
@example(lines=["paths_below = -1"], extra=[])
@example(lines=["init_s50 = nan"], extra=[])
@example(lines=["smoothing_window = 99999999999999999999999"], extra=[])
@example(lines=["seed = 1", "seed = x"], extra=["--mu=nan"])
def test_config_text_and_overrides_fail_as_config_errors(lines, extra):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text("\n".join(lines), encoding="utf-8")
        _build(path, extra)


@SETTINGS
@given(data=st.binary(max_size=200), extra=overrides)
@example(data=b"seed = 1\n\xff\n", extra=[])
def test_config_bytes_fail_as_config_errors(data, extra):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_bytes(data)
        _build(path, extra)


@SETTINGS
@given(data=st.one_of(s50_csv(), st.binary(max_size=200)))
@example(data=b"year,value\n100000000000000000000,1\n")
@example(data=b"year,value\n1," + b"1" * 200_000 + b"\n")
@example(data=b"year,hcr,definition_name\n1,0.5,a\n2,0.5,b\n")
def test_series_readers_fail_as_data_errors(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_bytes(data)
        # the same rows once more, with the column an HCR file reads
        hcr_path = Path(tmp) / "hcr.csv"
        hcr_path.write_bytes(data.replace(b"s50", b"hcr"))
        for read in (lambda: read_series(path),
                     lambda: read_series(path, value_col="s50"),
                     lambda: read_hcr_file(hcr_path)[0]):
            try:
                series = read()
            except PovdynError as exc:
                assert isinstance(exc, DataError), repr(exc)
            else:
                assert len(series) >= 1
                assert np.all(np.diff(series.years) > 0)
                assert np.all(np.isfinite(series.values))


@SETTINGS
@given(data=s50_csv(),
       lines=config_lines(tuple(k for k in VALUE_KEYS
                                if k not in ("n_agents", "threads"))),
       n_agents=st.integers(-1, 40), extra=overrides,
       with_input=st.booleans())
@example(data=b"year,s50\n1950,0.3\n1951,1.5\n", lines=[], n_agents=10,
         extra=[], with_input=True)
@example(data=b"year,s50\n1950,0.3\n1951,0.3\n",
         lines=["smoothing_window = 99999999999999999999999"], n_agents=10,
         extra=[], with_input=True)
@example(data=b"year,s50\n1950,0.3\n1951,0.3\n", lines=["init_s50 = inf"],
         n_agents=10, extra=[], with_input=True)
def test_calibrate_cli_returns_documented_exit_codes(data, lines, n_agents,
                                                     extra, with_input):
    # --n-agents comes last, so it wins over any generated override and
    # keeps every population small; the model never starts threads here
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "s50.csv").write_bytes(data)
        head = [f"inequality_csv = {tmp / 's50.csv'}"] if with_input else []
        (tmp / "run.cfg").write_text("\n".join(head + lines),
                                     encoding="utf-8")
        argv = ["calibrate", "--config", str(tmp / "run.cfg"),
                "--out", str(tmp / "out"), *extra, f"--n-agents={n_agents}"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
    message = err.getvalue()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA), (code, message)
    assert (code == EXIT_CONFIG) == message.startswith("config error:"), \
        message
    assert (code == EXIT_OK) == (message == ""), message


# extreme and non-finite floats for the calibration's float keys
calibration_floats = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1e308", "-1e308", "1.7976931348623157e+308", "5e-324",
                     "-5e-324", "0", "-0.0", "inf", "-inf", "nan"]),
)


@SETTINGS
@given(tau_min=calibration_floats, tau_max=calibration_floats,
       tolerance=calibration_floats,
       max_iterations=st.one_of(st.integers(-2, 12).map(str),
                                st.sampled_from(["1e3", "0x10", "nan"])),
       forward_rate=st.one_of(st.sampled_from(["fitted", "effective"]),
                              st.text(max_size=8)),
       n_agents=st.integers(2, 12), shares=st.sampled_from([
           (0.25, 0.24, 0.23), (0.3, 0.45, 0.05), (0.45, 0.45, 0.45, 0.45)]))
@example(tau_min="-1e308", tau_max="1e308", tolerance="0.0001",
         max_iterations="12", forward_rate="fitted", n_agents=10,
         shares=(0.25, 0.24, 0.23))
@example(tau_min="1e308", tau_max="1.7976931348623157e+308",
         tolerance="5e-324", max_iterations="12", forward_rate="effective",
         n_agents=10, shares=(0.25, 0.24, 0.23))
def test_calibration_keys_fit_or_fail_typed(tau_min, tau_max, tolerance,
                                            max_iterations, forward_rate,
                                            n_agents, shares):
    lines = [f"tau_min = {tau_min}", f"tau_max = {tau_max}",
             f"tolerance = {tolerance}", f"max_iterations = {max_iterations}",
             f"forward_rate = {forward_rate}", f"n_agents = {n_agents}"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rows = [f"{1950 + i},{v!r}" for i, v in enumerate(shares)]
        (tmp / "s50.csv").write_text("\n".join(["year,s50", *rows]))
        (tmp / "run.cfg").write_text(
            "\n".join([f"inequality_csv = {tmp / 's50.csv'}", *lines]),
            encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["calibrate", "--config", str(tmp / "run.cfg"),
                         "--out", str(tmp / "out")])
        message = err.getvalue()
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA), (code, message)
        assert (code == EXIT_CONFIG) == message.startswith("config error:"), \
            message
        assert (code == EXIT_OK) == (message == ""), message
        # an undefined share never escapes the search
        assert "is not positive" not in message, message
        if code == EXIT_OK:
            for name in ("tau.csv", "tau_effective.csv"):
                text = (tmp / "out" / name).read_text(encoding="utf-8")
                body = text.lower().split("year,value", 1)[1]
                assert "inf" not in body and "nan" not in body, text


# ---------------------------------------------------------------------------
# the library's argument checks

def _income_panel() -> IncomePanel:
    return IncomePanel(years=np.arange(2000, 2003),
                       incomes=np.arange(12.0).reshape(4, 3) + 1.0, seed=0,
                       fingerprint="f")


_LINE = PovertyLineSeries("z", np.array([2000]), np.array([5.0]))
_ONES = Population(np.ones(4), 2000)


@pytest.mark.parametrize("call, error, message", [
    (lambda _: effective_tau(AnnualSeries([2000], [0.1]), window=0),
     ValueError, "window must be >= 1"),
    (lambda _: CalibrationConfig(max_iterations=0),
     ValueError, "max_iterations must be >= 1"),
    (lambda _: step(_ONES, ModelParams(n_agents=4), float("nan"),
                    RngStream(0)),
     ValueError, "tau must be finite"),
    (lambda _: bottom_share(_ONES, 1.0),
     ValueError, r"fraction must be in \(0, 1\)"),
    (lambda _: sample_paths(_income_panel(), _LINE, -1, 1, 0),
     ValueError, "path counts must be >= 0"),
    (lambda _: sample_paths(_income_panel(), _LINE, 3, 2, 0),
     ValueError, "requested more paths than agents"),
    (lambda _: IncomePanel(years=[2000, 2001], incomes=np.ones((4, 3)),
                           seed=0, fingerprint="f"),
     DataError, "panel shape does not match year range"),
    (lambda _: IncomePanel(years=[2000, 2002], incomes=np.ones((4, 2)),
                           seed=0, fingerprint="f"),
     DataError, "panel years must be consecutive"),
    (lambda _: poverty_line_from_hcr(np.ones(4), 1.5),
     ValueError, r"hcr must be in \[0, 1\], got 1.5"),
    (lambda _: pooled_metrics(pp_from_flags([[True, False, True]] * 2),
                              (2000, 2002), 1, method="median"),
     ValueError, "method must be 'counts' or 'mean'"),
    (lambda out: write_panel(_income_panel(), out, fmt="parquet"),
     ValueError, "unknown panel format 'parquet'"),
    (lambda _: interpolate_missing(AnnualSeries([2000], [1.0]),
                                   full_range=(2005, 2000)),
     DataError, "invalid year range 2005..2000"),
    (lambda _: AnnualSeries([2000, 2001], [1.0]),
     DataError, "years and values must be 1-D and equal length"),
], ids=["effective_tau", "CalibrationConfig", "step", "bottom_share", "sample_paths_negative",
        "sample_paths_too_many", "IncomePanel_shape", "IncomePanel_years",
        "poverty_line_from_hcr", "pooled_metrics", "write_panel",
        "interpolate_missing", "AnnualSeries"])
def test_library_argument_checks_raise_typed_errors(tmp_path, call, error,
                                                    message):
    with pytest.raises(error, match=message):
        call(tmp_path)
