"""Series parsing, interpolation, writers, round trips, manifests."""

import csv
import io
import json
import shutil
import tracemalloc

import numpy as np
import pytest

from povdyn import dataio
from povdyn.dataio import (PanelSpool, RunManifest, read_hcr_file,
                           read_manifest, read_panel, read_report_csv,
                           read_series, write_json, write_manifest,
                           write_panel, write_paths_csv, write_pooled_csv,
                           write_report_csv, write_series)
from povdyn.errors import (DataError, ExtrapolationRefusedError, OutputError,
                           SeriesFormatError)
from povdyn.poverty import IncomePanel, TrajectoryBundle
from povdyn.series import (AnnualSeries, PartialSeries, interpolate_missing,
                           missing_year_blocks)


# ---------------------------------------------------------------------------
# AnnualSeries

def test_series_validation():
    with pytest.raises(DataError):
        AnnualSeries(np.array([2000, 2000]), np.array([1.0, 2.0]))
    with pytest.raises(DataError):
        AnnualSeries(np.array([2001, 2000]), np.array([1.0, 2.0]))
    with pytest.raises(DataError):
        AnnualSeries(np.array([2000]), np.array([np.nan]))
    with pytest.raises(DataError):
        AnnualSeries(np.array([], dtype=int), np.array([]))


def test_partial_series_allows_nan_only():
    s = PartialSeries(np.array([2000, 2001, 2002]),
                      np.array([0.5, np.nan, 0.25]))
    assert isinstance(s.slice_years(2001, 2002), PartialSeries)
    assert np.isnan(s.value_at(2001))
    with pytest.raises(DataError):
        PartialSeries(np.array([2000]), np.array([np.inf]))


def test_series_accessors():
    s = AnnualSeries.from_pairs([(2001, 2.0), (2000, 1.0)])
    assert s.first_year == 2000 and s.last_year == 2001
    assert s.value_at(2001) == 2.0
    assert s.has_year(2000) and not s.has_year(1999)
    assert list(s) == [(2000, 1.0), (2001, 2.0)]
    with pytest.raises(KeyError):
        s.value_at(1990)


# ---------------------------------------------------------------------------
# reading

def test_read_two_row_file(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("year,value\n1952,0.47\n")
    s = read_series(p)
    assert len(s) == 1 and s.value_at(1952) == 0.47


def test_read_rejects_duplicate_year(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("year,value\n1952,0.47\n1952,0.48\n")
    with pytest.raises(SeriesFormatError, match="1952"):
        read_series(p)


def test_read_reports_malformed_line_number(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("year,value\n1952,0.47\n1953,oops\n")
    with pytest.raises(SeriesFormatError, match=":3"):
        read_series(p)


def test_read_rejects_missing_column(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("year,other\n1952,1\n")
    with pytest.raises(SeriesFormatError, match="value"):
        read_series(p)


def test_read_skips_comment_lines(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("# manifest: abc\nyear,value\n1952,0.5\n")
    assert read_series(p).value_at(1952) == 0.5


def test_read_hcr_with_definition_name(tmp_path, fixtures_dir):
    series, name = read_hcr_file(fixtures_dir / "hcr_small.csv")
    assert name == "small"
    assert len(series) == 8
    p = tmp_path / "multi.csv"
    p.write_text("year,hcr,definition_name\n2000,0.1,a\n2001,0.1,b\n")
    with pytest.raises(SeriesFormatError, match="multiple definition"):
        read_hcr_file(p)


def test_series_roundtrip_random(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(10):
        years = np.sort(rng.choice(np.arange(1900, 2100), size=12,
                                   replace=False))
        s = AnnualSeries(years, rng.normal(size=12))
        path = tmp_path / f"r{i}.csv"
        write_series(s, path)
        back = read_series(path)
        assert np.array_equal(back.years, s.years)
        assert np.allclose(back.values, s.values, rtol=1e-11, atol=1e-14)


# ---------------------------------------------------------------------------
# interpolation

def test_interpolate_linear_forced_values():
    s = AnnualSeries(np.array([1960, 1963]), np.array([10.0, 16.0]))
    f = interpolate_missing(s)
    assert np.array_equal(f.years, [1960, 1961, 1962, 1963])
    assert np.array_equal(f.values, [10.0, 12.0, 14.0, 16.0])


def test_interpolate_no_gaps_identity():
    s = AnnualSeries(np.arange(2000, 2005), np.arange(5.0))
    f = interpolate_missing(s)
    assert f == s


def test_interpolate_idempotent_preserves_observed():
    s = AnnualSeries(np.array([1950, 1953, 1957]),
                     np.array([1.0, 0.123456789012345, 3.0]))
    once = interpolate_missing(s)
    twice = interpolate_missing(once)
    assert once == twice
    for y, v in s:
        assert once.value_at(y) == v


def test_interpolate_refuses_extrapolation():
    s = AnnualSeries(np.array([1950, 1952]), np.array([1.0, 2.0]))
    with pytest.raises(ExtrapolationRefusedError):
        interpolate_missing(s, full_range=(1949, 1952))
    with pytest.raises(ExtrapolationRefusedError):
        interpolate_missing(s, full_range=(1950, 1953))


def test_masked_fixture_fills_twelve_years_in_six_blocks(fixtures_dir):
    masked = read_series(fixtures_dir / "hcr_base_masked.csv",
                         value_col="hcr")
    blocks = missing_year_blocks(masked)
    assert len(blocks) == 6
    assert sum(b - a + 1 for a, b in blocks) == 12
    filled = interpolate_missing(masked, full_range=(1952, 2006))
    assert len(filled) - len(masked) == 12
    assert filled.is_contiguous()


# ---------------------------------------------------------------------------
# panels

def _make_panel():
    rng = np.random.default_rng(1)
    return IncomePanel(years=np.arange(1990, 1994),
                       incomes=rng.lognormal(0, 1, (6, 4)),
                       seed=5, fingerprint="abc123")


@pytest.mark.parametrize("fmt", ["npy", "csv"])
def test_panel_roundtrip(tmp_path, fmt):
    panel = _make_panel()
    write_panel(panel, tmp_path, fmt=fmt)
    back = read_panel(tmp_path)
    assert np.array_equal(back.years, panel.years)
    assert back.seed == 5 and back.fingerprint == "abc123"
    if fmt == "npy":
        assert np.array_equal(back.incomes, panel.incomes)
    else:
        assert np.allclose(back.incomes, panel.incomes, rtol=1e-11)


def test_npy_panel_bytes_deterministic(tmp_path):
    panel = _make_panel()
    write_panel(panel, tmp_path / "a", fmt="npy")
    write_panel(panel, tmp_path / "b", fmt="npy")
    for name in ("panel_years.npy", "panel_incomes.npy", "panel_meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_read_panel_missing_meta(tmp_path):
    with pytest.raises(DataError):
        read_panel(tmp_path)


@pytest.fixture
def panel_copy(tmp_path, fixtures_dir):
    """Writable copy of the 5-agent csv panel fixture (2000-2007)."""
    dst = tmp_path / "panel"
    shutil.copytree(fixtures_dir / "panel_small", dst)
    return dst


def _edit_meta(panel_dir, **changes):
    path = panel_dir / "panel_meta.json"
    meta = json.loads(path.read_text())
    meta.update(changes)
    path.write_text(json.dumps({k: v for k, v in meta.items()
                                if v is not None}))


@pytest.mark.parametrize("key", ["seed", "fingerprint", "n_agents",
                                 "first_year", "last_year", "format"])
def test_read_panel_missing_meta_key(panel_copy, key):
    _edit_meta(panel_copy, **{key: None})
    with pytest.raises(DataError, match=key):
        read_panel(panel_copy)


@pytest.mark.parametrize("text", ['{"format": "csv",', '[1, 2]'])
def test_read_panel_bad_json(panel_copy, text):
    (panel_copy / "panel_meta.json").write_text(text)
    with pytest.raises(DataError, match="JSON"):
        read_panel(panel_copy)


def test_read_panel_unknown_format(panel_copy):
    _edit_meta(panel_copy, format="parquet")
    with pytest.raises(DataError, match="parquet"):
        read_panel(panel_copy)


@pytest.mark.parametrize("changes", [
    dict(n_agents=6), dict(first_year=2001), dict(last_year=2008),
    dict(first_year=1999, last_year=2006), dict(n_agents=10**12),
])
def test_read_panel_arrays_disagree_with_meta(panel_copy, changes):
    _edit_meta(panel_copy, **changes)
    with pytest.raises(DataError):
        read_panel(panel_copy)


def test_read_csv_panel_peak_memory_is_the_panel(tmp_path):
    # the reader fills the year-major array one agent row at a time; it
    # held every field of the file as a Python string, 10x the panel
    rng = np.random.default_rng(0)
    write_panel(IncomePanel(np.arange(1950, 2000),
                            rng.lognormal(0, 1, (2000, 50)), 0, "f"),
                tmp_path, fmt="csv")
    tracemalloc.start()
    try:
        back = read_panel(tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.incomes.shape == (2000, 50)
    assert peak < 1.25 * back.incomes.nbytes


def test_read_panel_missing_array_file(tmp_path):
    write_panel(_make_panel(), tmp_path, fmt="npy")
    (tmp_path / "panel_incomes.npy").unlink()
    with pytest.raises(DataError):
        read_panel(tmp_path)


# ---------------------------------------------------------------------------
# reports

def test_empty_report_is_header_only(tmp_path):
    path = tmp_path / "r.csv"
    write_report_csv(([], [], [], []), path, manifest_digest="d" * 64)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "year,statistic,t_p,value,defined"
    assert len(lines) == 2


def test_report_roundtrip_preserves_12_digits(tmp_path):
    rows = [
        (2000, "p_in", None, 0.123456789012345),
        (2000, "p_stic", 3, 1 / 3),
        (2001, "p_out", None, float("nan")),
    ]
    path = tmp_path / "r.csv"
    write_report_csv(list(zip(*rows)), path)
    back = read_report_csv(path)
    assert back[0][3] == pytest.approx(rows[0][3], rel=1e-11)
    assert back[1][:3] == (2000, "p_stic", 3)
    assert np.isnan(back[2][3])


def test_undefined_serializes_as_empty_field(tmp_path):
    path = tmp_path / "r.csv"
    write_report_csv(([2001], ["p_out"], [None], [float("nan")]), path)
    data_line = path.read_text().splitlines()[1]
    assert data_line == "2001,p_out,,,0"


def test_writer_bytes_deterministic(tmp_path):
    columns = ([2000, 2001], ["x", "x"], [None, None], [0.1, float("nan")])
    write_report_csv(columns, tmp_path / "a.csv", manifest_digest="z")
    write_report_csv(columns, tmp_path / "b.csv", manifest_digest="z")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# values every writer renders as "%.12g" does, and NaN as an empty field
_ODD = [0.1, -2.5, float("inf"), -float("inf"), -0.0, 0.0, float("nan"),
        1e-300, 5e-324, 123456789.123456789, 1 / 3, 7e22, -1e-7]


def _csv_bytes(rows, digest=None) -> bytes:
    """What csv.writer writes for ``rows`` with each float formatted by
    "%.12g" (NaN empty), after the manifest line."""
    buf = io.StringIO()
    if digest:
        buf.write(f"# manifest: {digest}\n")
    csv.writer(buf, lineterminator="\n").writerows(
        [("" if np.isnan(v) else "%.12g" % v) if isinstance(v, float) else v
         for v in row] for row in rows)
    return buf.getvalue().encode("utf-8")


def test_report_writers_match_csv_writer(tmp_path):
    n = len(_ODD)
    years = list(range(1999, 1999 + n))
    stats = [f"s{i % 3}" for i in range(n)]
    t_ps = [i % 4 for i in range(n)]  # 0: no threshold
    defined = [0 if np.isnan(v) else 1 for v in _ODD]
    write_report_csv((np.array(years), stats, np.array(t_ps),
                      np.array(_ODD)), tmp_path / "r.csv", "d" * 64)
    assert (tmp_path / "r.csv").read_bytes() == _csv_bytes(
        [["year", "statistic", "t_p", "value", "defined"]]
        + [[y, s, t or "", v, d]
           for y, s, t, v, d in zip(years, stats, t_ps, _ODD, defined)],
        "d" * 64)
    write_pooled_csv((years, [y + 5 for y in years], stats, t_ps, _ODD),
                     tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_bytes() == _csv_bytes(
        [["period_start", "period_end", "statistic", "t_p", "value",
          "defined"]]
        + [[y, y + 5, s, t or "", v, d]
           for y, s, t, v, d in zip(years, stats, t_ps, _ODD, defined)])


def test_paths_and_series_writers_match_csv_writer(tmp_path):
    odd = np.array(_ODD[:12]).reshape(3, 4)
    bundle = TrajectoryBundle(
        years=np.arange(2000, 2004), line_years=np.array([2001, 2002]),
        line_values=np.array([0.5, float("inf")]),
        below_agents=np.array([3, 8]), above_agents=np.array([11]),
        below_paths=odd[:2], above_paths=odd[2:], seed=0)
    write_paths_csv(bundle, tmp_path / "paths.csv", manifest_digest="m")
    line = [float("nan"), 0.5, float("inf"), float("nan")]
    assert (tmp_path / "paths.csv").read_bytes() == _csv_bytes(
        [["year", "poverty_line", "below_3", "below_8", "above_11"]]
        + [[2000 + j, line[j], *odd[:, j]] for j in range(4)], "m")

    finite = [v for v in _ODD if not np.isinf(v)]
    series = PartialSeries(np.arange(-3, len(finite) - 3), np.array(finite))
    # the value column's name is the caller's: csv quoting still applies
    write_series(series, tmp_path / "s.csv", value_col='a,"b"')
    assert (tmp_path / "s.csv").read_bytes() == _csv_bytes(
        [["year", 'a,"b"']] + [[y, v] for y, v in zip(range(-3, 99), finite)])


def test_csv_panel_writer_matches_csv_writer(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "_PANEL_BLOCK", 2)  # several blocks
    finite = [v for v in _ODD if np.isfinite(v)]
    incomes = np.array(finite + finite[:2]).reshape(4, 3)
    write_panel(IncomePanel(years=np.arange(1990, 1993), incomes=incomes,
                            seed=1, fingerprint="f"), tmp_path, fmt="csv")
    assert (tmp_path / "panel.csv").read_bytes() == _csv_bytes(
        [["agent", "y1990", "y1991", "y1992"]]
        + [[i, *row] for i, row in enumerate(incomes.tolist())])


def test_csv_panel_keeps_its_bytes(tmp_path):
    # pinned bytes: any change to the float format shows here
    incomes = np.array([[0.1, -2.5e-7, 1 / 3, 123456789.123456789],
                        [-0.0, 1e300, 5e-324, 2.0],
                        [-1.5, 1e-5, 0.30000000000000004, 7e22]])
    write_panel(IncomePanel(years=np.arange(1999, 2003), incomes=incomes,
                            seed=3, fingerprint="f"), tmp_path, fmt="csv")
    assert (tmp_path / "panel.csv").read_bytes() == (
        b"agent,y1999,y2000,y2001,y2002\n"
        b"0,0.1,-2.5e-07,0.333333333333,123456789.123\n"
        b"1,-0,1e+300,4.94065645841e-324,2\n"
        b"2,-1.5,1e-05,0.3,7e+22\n")


def _spool(directory):
    with PanelSpool(directory, np.arange(2000, 2002), 3, seed=1) as spool:
        spool(2000, np.ones(3))


_BUNDLE = TrajectoryBundle(
    years=np.array([2000]), line_years=np.array([2000]),
    line_values=np.array([1.0]), below_agents=np.array([0]),
    above_agents=np.array([1]), below_paths=np.ones((1, 1)),
    above_paths=np.ones((1, 1)), seed=0)

_WRITERS = {
    "series": lambda d: write_series(
        AnnualSeries(np.array([2000]), np.array([1.0])), d / "s.csv"),
    "report": lambda d: write_report_csv(([2000], ["x"], [None], [0.1]),
                                         d / "r.csv"),
    "pooled": lambda d: write_pooled_csv(([2000], [2001], ["x"], [1], [0.1]),
                                         d / "p.csv"),
    "paths": lambda d: write_paths_csv(_BUNDLE, d / "paths.csv"),
    "json": lambda d: write_json({"v": 1}, d / "s.json"),
    "manifest": lambda d: write_manifest(
        RunManifest.create(1, {}, [], "0"), d / "manifest.json"),
    "panel_npy": lambda d: write_panel(_make_panel(), d, fmt="npy"),
    "panel_csv": lambda d: write_panel(_make_panel(), d, fmt="csv"),
    "spool": _spool,
}


@pytest.mark.parametrize("under", [False, True], ids=["at", "under"])
@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_writers_blocked_by_a_regular_file_raise_output_error(tmp_path,
                                                              writer, under):
    # a regular file where the output directory should be (or should
    # lead to) is a typed error that names the path, never a raw OSError
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    with pytest.raises(OutputError, match="taken"):
        _WRITERS[writer](blocker / "sub" if under else blocker)
    assert blocker.read_text() == "not a directory\n"


# ---------------------------------------------------------------------------
# manifest

def test_manifest_digest_recomputation(tmp_path):
    f = tmp_path / "in.csv"
    f.write_text("year,value\n2000,1\n")
    m = RunManifest.create(seed=7, config={"n_agents": 10},
                           input_paths=[f], version="0.1.0")
    assert m.verify()
    write_manifest(m, tmp_path / "manifest.json")
    back = read_manifest(tmp_path / "manifest.json")
    assert back.verify()
    assert back.digest == m.digest
    tampered = RunManifest(seed=8, config=m.config, inputs=m.inputs,
                           version=m.version, timestamp=m.timestamp,
                           digest=m.digest)
    assert not tampered.verify()


def test_manifest_digest_stable_across_reruns(tmp_path):
    f = tmp_path / "in.csv"
    f.write_text("year,value\n2000,1\n")
    m1 = RunManifest.create(7, {"a": 1}, [f], "0.1.0")
    m2 = RunManifest.create(7, {"a": 1}, [f], "0.1.0")
    assert m1.digest == m2.digest  # timestamp excluded from the digest


def test_manifest_input_digest_tracks_content(tmp_path):
    f = tmp_path / "in.csv"
    f.write_text("year,value\n2000,1\n")
    d1 = RunManifest.create(7, {}, [f], "0.1.0").digest
    f.write_text("year,value\n2000,2\n")
    d2 = RunManifest.create(7, {}, [f], "0.1.0").digest
    assert d1 != d2


def test_json_summary_uses_nulls(tmp_path):
    from povdyn.dataio import write_json, json_value
    write_json({"v": json_value(float("nan")), "w": json_value(0.5)},
               tmp_path / "s.json")
    data = json.loads((tmp_path / "s.json").read_text())
    assert data["v"] is None and data["w"] == 0.5
