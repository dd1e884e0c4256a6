"""End-to-end CLI runs on the committed fixtures."""

import filecmp
import itertools
import json
import math
import os
import re
import shutil
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from povdyn import calibrate, cli, dataio
from povdyn.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGENCE, EXIT_IO,
                        EXIT_OK, MAX_AGENTS, MAX_THREADS, MAX_TP,
                        build_config, build_parser, main)
from povdyn.dataio import (SPOOL_NAME, RunManifest, read_manifest,
                           read_report_csv, read_series)


def run(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# interpolate

def test_interpolate_fixture(tmp_path, fixtures_dir, capsys):
    out = tmp_path / "filled.csv"
    code = run(["interpolate", str(fixtures_dir / "hcr_base_masked.csv"),
                str(out), "--value-col", "hcr"])
    assert code == EXIT_OK
    assert "filled 12 years in 6 gaps" in capsys.readouterr().out
    filled = read_series(out, value_col="hcr")
    assert filled.is_contiguous() and len(filled) == 55


def test_interpolate_exact_values(tmp_path):
    src = tmp_path / "in.csv"
    src.write_text("year,value\n1960,10\n1963,16\n")
    out = tmp_path / "out.csv"
    assert run(["interpolate", str(src), str(out)]) == EXIT_OK
    s = read_series(out)
    assert [s.value_at(y) for y in (1960, 1961, 1962, 1963)] == \
        [10.0, 12.0, 14.0, 16.0]


# ---------------------------------------------------------------------------
# metrics on the hand panel: golden comparison

def _strip_manifest_line(path: Path) -> list[str]:
    return [l for l in path.read_text().splitlines()
            if not l.startswith("# manifest:")]


def test_metrics_matches_golden(tmp_path, fixtures_dir, monkeypatch):
    monkeypatch.chdir(fixtures_dir)
    out = tmp_path / "run"
    code = run(["metrics", "--config", "metrics_small.cfg",
                "--out", str(out)])
    assert code == EXIT_OK
    for name in ("metrics_small.csv", "pooled_small.csv", "paths_small.csv"):
        got = _strip_manifest_line(out / name)
        want = _strip_manifest_line(fixtures_dir / "golden" / name)
        assert got == want, f"{name} deviates from golden"


def test_metrics_golden_is_byte_stable(tmp_path, fixtures_dir, monkeypatch):
    # config and inputs addressed relatively: even the digest line matches
    monkeypatch.chdir(fixtures_dir)
    out = tmp_path / "run"
    assert run(["metrics", "--config", "metrics_small.cfg",
                "--out", str(out)]) == EXIT_OK
    for name in ("metrics_small.csv", "pooled_small.csv", "paths_small.csv"):
        assert filecmp.cmp(out / name, fixtures_dir / "golden" / name,
                           shallow=False)


def test_metrics_mean_pooling_matches_golden(tmp_path, fixtures_dir,
                                             monkeypatch):
    # the mean-pooled report of the fixture panel; addressed relatively,
    # so even the digest line matches
    monkeypatch.chdir(fixtures_dir)
    cfg = tmp_path / "mean.cfg"
    cfg.write_text((fixtures_dir / "metrics_small.cfg").read_text()
                   + "pooled_method = mean\n")
    out = tmp_path / "run"
    assert run(["metrics", "--config", str(cfg), "--out", str(out)]) == \
        EXIT_OK
    assert filecmp.cmp(out / "pooled_small.csv",
                       fixtures_dir / "golden" / "pooled_small_mean.csv",
                       shallow=False)


def test_metrics_zero_hcr_rules(tmp_path, fixtures_dir, monkeypatch):
    monkeypatch.chdir(fixtures_dir)
    zero = tmp_path / "hcr_zero.csv"
    zero.write_text("year,hcr\n" + "".join(f"{y},0\n"
                                           for y in range(2000, 2008)))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"panel_dir = panel_small\nhcr_zero = {zero}\n"
                   "pool_periods = 2001-2007\n"
                   "paths_below = 0\npaths_above = 2\n")
    out = tmp_path / "run"
    assert run(["metrics", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = read_report_csv(out / "metrics_zero.csv")
    for year, stat, t_p, value in rows:
        if stat in ("p_in", "p_out", "p_tx", "p_stic"):
            assert np.isnan(value)  # nobody poor: denominators empty
        elif stat == "p_esc":
            assert value == 0.0     # numerator empty, denominator N
        elif stat == "bpl_gini":
            assert np.isnan(value)


# ---------------------------------------------------------------------------
# pipeline

@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    """One fixture pipeline run with 1 thread and one with 4."""
    fixtures = Path(__file__).parent / "fixtures"
    import os
    cwd = os.getcwd()
    os.chdir(fixtures)
    try:
        outs = {}
        for threads in (1, 4):
            out = tmp_path_factory.mktemp(f"pipe_t{threads}")
            code = main(["pipeline", "--config", "pipeline_small.cfg",
                         "--out", str(out), "--threads", str(threads)])
            assert code == EXIT_OK
            outs[threads] = out
    finally:
        os.chdir(cwd)
    return outs


def test_pipeline_produces_all_outputs(pipeline_runs):
    out = pipeline_runs[1]
    expected = [
        "tau.csv", "tau_effective.csv", "residuals.csv", "replay_shares.csv",
        "fitted_shares.csv", "panel_years.npy", "panel_incomes.npy",
        "panel_meta.json", "summary.json", "manifest.json",
    ]
    for name in ("base", "mid", "high"):
        expected += [f"metrics_{name}.csv", f"pooled_{name}.csv",
                     f"paths_{name}.csv"]
    for name in expected:
        assert (out / name).exists(), name
    manifests = list(out.glob("manifest*.json"))
    assert len(manifests) == 1


def test_pipeline_thread_count_does_not_change_bytes(pipeline_runs):
    a, b = pipeline_runs[1], pipeline_runs[4]
    names = sorted(p.name for p in a.iterdir() if p.name != "manifest.json")
    for name in names:
        assert filecmp.cmp(a / name, b / name, shallow=False), name
    assert read_manifest(a / "manifest.json").digest == \
        read_manifest(b / "manifest.json").digest


def test_reports_reference_manifest_digest(pipeline_runs):
    out = pipeline_runs[1]
    digest = read_manifest(out / "manifest.json").digest
    assert read_manifest(out / "manifest.json").verify()
    for csv_file in out.glob("*.csv"):
        first = csv_file.read_text().splitlines()[0]
        assert first == f"# manifest: {digest}", csv_file.name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["manifest_digest"] == digest


def test_poverty_line_ordering_across_definitions(pipeline_runs):
    out = pipeline_runs[1]
    lines = {}
    for name in ("base", "mid", "high"):
        rows = read_report_csv(out / f"metrics_{name}.csv")
        lines[name] = {y: v for y, s, t, v in rows if s == "poverty_line"}
    years = sorted(lines["base"])
    assert all(lines["base"][y] <= lines["mid"][y] <= lines["high"][y]
               for y in years)


def test_calibration_residuals_small_on_fixture(pipeline_runs):
    out = pipeline_runs[1]
    residuals = read_series(out / "residuals.csv")
    assert float(residuals.values.max()) <= 1e-4


def test_pipeline_steps_each_year_once(tmp_path, fixtures_dir, monkeypatch):
    # the panel comes from the calibration's validation replay: no
    # second replay, and one noise draw per year (plus the initial one)
    from povdyn import calibrate, cli
    from povdyn.rng import RngStream
    monkeypatch.chdir(fixtures_dir)
    calls = {"replay": 0, "normals": 0}
    replay, normals = calibrate.replay, RngStream.normals

    def counting_replay(*args, **kwargs):
        calls["replay"] += 1
        return replay(*args, **kwargs)

    def counting_normals(self, *args, **kwargs):
        calls["normals"] += 1
        return normals(self, *args, **kwargs)

    monkeypatch.setattr(cli, "replay", counting_replay)
    monkeypatch.setattr(calibrate, "replay", counting_replay)
    monkeypatch.setattr(RngStream, "normals", counting_normals)
    out = tmp_path / "pipe"
    assert main(["pipeline", "--config", "pipeline_small.cfg",
                 "--out", str(out), "--threads", "3"]) == EXIT_OK
    targets = read_series("s50_synthetic.csv", value_col="s50")
    assert calls == {"replay": 0, "normals": len(targets)}


@pytest.mark.parametrize("stage", ["none", "calibrate", "simulate"])
def test_pipeline_leaves_no_spool(tmp_path, fixtures_dir, monkeypatch,
                                  capsys, stage):
    # the spool sits in --out while the fit runs and is gone after the
    # run, also after a fit that raises or a panel write that fails
    monkeypatch.chdir(fixtures_dir)
    out = tmp_path / "pipe"
    seen = []
    code = EXIT_OK
    if stage == "calibrate":
        search, calls = calibrate._search_tau, itertools.count()

        def failing_search(*args):
            seen.append((out / SPOOL_NAME).is_file())
            if next(calls) == 3:  # no usable rate in the fourth year
                return 0.0, math.inf, False
            return search(*args)
        monkeypatch.setattr(calibrate, "_search_tau", failing_search)
        code = EXIT_DATA
    elif stage == "simulate":
        def failing_read(self, a0, block):
            seen.append((out / SPOOL_NAME).is_file())
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(dataio.PanelSpool, "read_agents", failing_read)
        code = EXIT_IO
    assert main(["pipeline", "--config", "pipeline_small.cfg",
                 "--out", str(out)]) == code
    assert all(seen) and len(seen) == {"none": 0, "calibrate": 4,
                                       "simulate": 1}[stage]
    assert not (out / SPOOL_NAME).exists()
    err = capsys.readouterr().err
    if stage != "none":
        assert err.startswith(f"pipeline aborted in stage '{stage}'\n")


def _simulate_config(d: Path, rates, n_agents: int) -> Path:
    """Config of a simulate run from 1950 under ``rates`` (1951 on)."""
    (d / "rates.csv").write_text("year,value\n" + "".join(
        f"{1951 + i},{r!r}\n" for i, r in enumerate(rates)))
    path = d / "sim.cfg"
    path.write_text(f"rates_csv = {d / 'rates.csv'}\ninit_s50 = 0.3\n"
                    f"start_year = 1950\nn_agents = {n_agents}\nseed = 4\n")
    return path


@pytest.mark.parametrize("stage", ["none", "replay", "write"])
def test_simulate_leaves_no_spool(tmp_path, monkeypatch, capsys, stage):
    # the spool sits in --out while the replay runs and is gone after the
    # run, also after a replay that overflows or a panel write that fails
    rates = [0.01] * 6
    if stage == "replay":
        rates[2:4] = [1e308, 1e308]  # steps some income past the floats
    cfg = _simulate_config(tmp_path, rates, 300)
    out = tmp_path / "sim"
    seen = []
    step = calibrate.step

    def watched_step(*args, **kwargs):
        seen.append((out / SPOOL_NAME).is_file())
        return step(*args, **kwargs)
    monkeypatch.setattr(calibrate, "step", watched_step)
    code = EXIT_OK
    if stage == "replay":
        code = EXIT_DATA
    elif stage == "write":
        def failing_read(self, a0, block):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(dataio.PanelSpool, "read_agents", failing_read)
        code = EXIT_IO
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == code
    assert seen and all(seen)
    assert not (out / SPOOL_NAME).exists()
    err = capsys.readouterr().err
    assert err.startswith({"none": "", "replay": "error: non-finite income",
                           "write": "output error: "}[stage])


@pytest.mark.parametrize("command", ["calibrate", "simulate", "metrics",
                                     "pipeline"])
def test_out_naming_a_file_is_an_output_error(tmp_path, fixtures_dir,
                                              monkeypatch, capsys, command):
    monkeypatch.chdir(fixtures_dir)
    cfg = {"calibrate": "pipeline_small.cfg", "pipeline": "pipeline_small.cfg",
           "metrics": "metrics_small.cfg"}.get(command)
    if command == "simulate":
        cfg = str(_simulate_config(tmp_path, [0.01] * 3, 50))
    out = tmp_path / "taken"
    out.write_text("a file\n")
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"output error: cannot create "
                                           f"directory {out}")
    assert "Traceback" not in err
    assert out.read_text() == "a file\n"


def test_simulate_peak_memory_does_not_grow_with_years(tmp_path, capsys):
    # Peak, in float64 N-vectors, while a year is stepped: the state
    # being stepped and the stepped vector (2); the year's noise (1); and
    # the step's base and relief (2). That is 5. The command draws the
    # initial population in the replay call, and the replay drops its
    # name for it after the row hook, so the first step frees it. The
    # bottom share's copy and the overflow check's mask come after
    # the step's temporaries are gone and need less. Only the shares grow
    # with the years; the panel is spooled to disk. What is left under
    # the bound is the noise draw's and the panel writer's block buffers
    # and small objects.
    n = 200_000
    peaks = {}
    for n_years in (20, 60):
        d = tmp_path / f"in_{n_years}"
        d.mkdir()
        cfg = _simulate_config(d, [0.01] * n_years, n)
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", str(cfg), "--out",
                         str(tmp_path / f"out_{n_years}")]) == EXIT_OK
            _, peaks[n_years] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert abs(peaks[60] - peaks[20]) <= 8 * n
    assert max(peaks.values()) <= (5 + 1 / 2) * 8 * n


def _memory_run_inputs(d: Path, n_years: int, n_agents: int) -> Path:
    """Config of a pipeline over ``n_years`` fitted years, 3 definitions."""
    s50 = "".join(f"{1950 + i},{0.27 + 0.01 * math.sin(i / 8):.6f}\n"
                  for i in range(n_years + 1))
    (d / f"s50_{n_years}.csv").write_text("year,s50\n" + s50)
    cfg = (f"seed = 3\nn_agents = {n_agents}\n"
           f"inequality_csv = {d}/s50_{n_years}.csv\n"
           "pool_periods = 1955-1960\n")
    for name, h in (("a", 0.2), ("b", 0.35), ("c", 0.5)):
        rows = "".join(f"{1951 + i},{h}\n" for i in range(n_years))
        (d / f"hcr_{name}_{n_years}.csv").write_text("year,hcr\n" + rows)
        cfg += f"hcr_{name} = {d}/hcr_{name}_{n_years}.csv\n"
    path = d / f"run_{n_years}.cfg"
    path.write_text(cfg)
    return path


def test_calibrate_peak_memory_does_not_grow_with_years(tmp_path, capsys):
    # Peak, in float64 N-vectors: the fit with its helper thread, 6 + 1/8
    # (see test_fit_series_peak_memory_is_one_vector_above_serial). The
    # command holds no reference to the initial population, so the fit
    # frees it in the first year; when the caller held it, it was one
    # vector more for the whole fit. Drawing the population needs two
    # vectors, before the fit starts. What is left is the prefetch draw's
    # two 64 KiB block buffers (1/12 of a vector at 200,000 agents), the
    # arrays of years and the writers' text, together under 1/8.
    n = 200_000
    peaks = {}
    for n_years in (20, 60):
        cfg = _memory_run_inputs(tmp_path, n_years, n)
        tracemalloc.start()
        try:
            assert main(["calibrate", "--config", str(cfg), "--out",
                         str(tmp_path / f"out_{n_years}")]) == EXIT_OK
            _, peaks[n_years] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert abs(peaks[60] - peaks[20]) <= 8 * n
    assert max(peaks.values()) <= (6 + 1 / 8 + 1 / 8) * 8 * n


def test_pipeline_peak_memory_does_not_grow_with_years(tmp_path, capsys):
    # Peak, in float64 N-vectors, while the fit searches a year: the fit
    # with its helper thread (6, see
    # test_fit_series_peak_memory_is_one_vector_above_serial), which
    # frees the initial population in the first year; and per
    # definition the accumulator's int32 spell row, updated in place, and
    # its bool flag row (1/2 + 1/8, three definitions). That is 7 + 7/8.
    # The per-year work of the accumulators runs between searches, when
    # the fit holds three vectors, and needs less. Only arrays of years,
    # or of years squared (the count tables), grow with the years; the
    # panel is spooled to disk. What is left under the bound is the prefetch
    # draw's and the panel writer's block buffers and small objects.
    n = 200_000
    peaks = {}
    for n_years in (20, 60):
        cfg = _memory_run_inputs(tmp_path, n_years, n)
        tracemalloc.start()
        try:
            assert main(["pipeline", "--config", str(cfg), "--out",
                         str(tmp_path / f"out_{n_years}")]) == EXIT_OK
            _, peaks[n_years] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert abs(peaks[60] - peaks[20]) <= 8 * n
    assert max(peaks.values()) <= (7 + 7 / 8 + 1 / 2) * 8 * n


def test_metrics_peak_memory_is_the_panel_and_a_few_vectors(tmp_path,
                                                            capsys):
    # Peak, in float64 N-vectors: the stored panel, which metrics reads
    # whole (T + 1 vectors over T years of HCR), and per definition the
    # accumulator's int32 spell row and bool flag row (1/2 + 1/8, three
    # definitions: 1 + 7/8). Above them, the largest moment is the first
    # year's path pick: one masked copy of the column, partitioned in
    # place, beside the complement of the poor flags and a boolean mask
    # (1 + 1/8 and a little). Measured with tracemalloc around each step
    # at 20 years, that is the panel + 3.06; every other step needs
    # less: the line's partition copy and the count row's intp key one
    # vector each (+ 2.93 and + 2.97), and the within-poor Gini of the
    # 0.5 definition, which sorts its compressed poor incomes in place,
    # 0.5 for them, 0.5 for the weights and 1/16 for the negative scan
    # (+ 2.93). So the peak is under the panel + 3 + 1/4; what is left is
    # small objects and the count tables, whose size grows with the
    # square of the years but stays far under a vector (+ 3.16 at 60
    # years). So from 20 to 60 years the peak grows by the panel's 40
    # vectors, within one.
    n = 200_000
    peaks = {}
    for n_years in (20, 60):
        cfg = _memory_run_inputs(tmp_path, n_years, n)
        sim = tmp_path / f"sim_{n_years}"
        sim.mkdir()
        assert main(["simulate", "--config",
                     str(_simulate_config(sim, [0.01] * n_years, n)),
                     "--out", str(sim / "panel")]) == EXIT_OK
        with open(cfg, "a") as f:
            f.write(f"panel_dir = {sim / 'panel'}\n")
        tracemalloc.start()
        try:
            assert main(["metrics", "--config", str(cfg), "--out",
                         str(tmp_path / f"out_{n_years}")]) == EXIT_OK
            _, peaks[n_years] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert abs(peaks[60] - peaks[20] - 40 * 8 * n) <= 8 * n
    for n_years, peak in peaks.items():
        assert peak <= (n_years + 1 + 3 + 1 / 4) * 8 * n


# ---------------------------------------------------------------------------
# reruns and degenerate sizes

def test_rerun_removes_reports_of_definitions_not_written(tmp_path,
                                                          fixtures_dir,
                                                          monkeypatch):
    monkeypatch.chdir(fixtures_dir)
    out = tmp_path / "run"
    common = "panel_dir = panel_small\npool_periods = 2001-2007\n"
    both = tmp_path / "both.cfg"
    both.write_text(common + "hcr_small = hcr_small.csv\n"
                    "hcr_other = hcr_small.csv\n")
    one = tmp_path / "one.cfg"
    one.write_text(common + "hcr_small = hcr_small.csv\n")
    reports = [f"{kind}_{name}.csv" for kind in ("metrics", "pooled", "paths")
               for name in ("small", "other")]
    assert run(["metrics", "--config", str(both), "--out", str(out)]) == \
        EXIT_OK
    assert all((out / name).is_file() for name in reports)
    # files the cleanup must leave alone: other names, other directories
    keep = [out / "notes.csv", out / "metrics_other.txt",
            out / "sub" / "metrics_other.csv"]
    (out / "sub").mkdir()
    (out / "paths_dir.csv").mkdir()
    for path in keep:
        path.write_text("x")

    assert run(["metrics", "--config", str(one), "--out", str(out)]) == \
        EXIT_OK
    for name in reports:
        assert (out / name).exists() == name.endswith("_small.csv"), name
    assert all(path.read_text() == "x" for path in keep)
    assert (out / "paths_dir.csv").is_dir()
    # a rerun writes what a fresh run writes, byte for byte
    fresh = tmp_path / "fresh"
    assert run(["metrics", "--config", str(one), "--out", str(fresh)]) == \
        EXIT_OK
    extra = {"notes.csv", "metrics_other.txt", "sub", "paths_dir.csv"}
    assert {p.name for p in out.iterdir()} == \
        {p.name for p in fresh.iterdir()} | extra
    for path in fresh.iterdir():
        if path.name != "manifest.json":  # it records the run's time
            assert filecmp.cmp(path, out / path.name, shallow=False), \
                path.name

    # a definition that fails this run loses its old reports too
    bad = tmp_path / "hcr_bad.csv"
    bad.write_text("year,hcr\n1990,0.5\n1991,0.5\n")
    (out / "metrics_bad.csv").write_text("stale")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(common + f"hcr_small = hcr_small.csv\nhcr_bad = {bad}\n")
    assert run(["metrics", "--config", str(cfg), "--out", str(out)]) == \
        EXIT_OK
    assert not (out / "metrics_bad.csv").exists()
    assert (out / "metrics_small.csv").is_file()


def test_rerun_same_seed_identical_digests(tmp_path, fixtures_dir,
                                           monkeypatch):
    monkeypatch.chdir(fixtures_dir)
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run(["metrics", "--config", "metrics_small.cfg",
                    "--out", str(out)]) == EXIT_OK
        digests.append(read_manifest(out / "manifest.json").digest)
    assert digests[0] == digests[1]


def test_minimal_two_agent_pipeline(tmp_path, fixtures_dir, monkeypatch):
    monkeypatch.chdir(fixtures_dir)
    out = tmp_path / "tiny"
    code = run(["pipeline", "--config", "pipeline_small.cfg",
                "--out", str(out), "--n-agents", "2"])
    assert code == EXIT_OK
    assert (out / "summary.json").exists()


# ---------------------------------------------------------------------------
# failure modes and exit codes

def test_missing_input_file_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("inequality_csv = nowhere/missing.csv\n")
    code = run(["calibrate", "--config", str(cfg), "--out",
                str(tmp_path / "o")])
    assert code == EXIT_DATA
    assert "missing.csv" in capsys.readouterr().err


def test_unknown_config_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("not_a_key = 1\n")
    assert run(["calibrate", "--config", str(cfg)]) == EXIT_CONFIG
    assert "not_a_key" in capsys.readouterr().err


def test_bad_config_value_exit_code(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("sigma = -5\n")
    assert run(["calibrate", "--config", str(cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize("override, text, key, cap", [
    (["--n-agents", "100000000000"], "", "n_agents", MAX_AGENTS),
    ([], f"tp_max = {MAX_TP + 1}", "tp_max", MAX_TP),
    (["--threads", "100000"], "", "threads", MAX_THREADS),
    ([], f"threads = {MAX_THREADS + 1}", "threads", MAX_THREADS),
])
def test_config_above_cap_exit_code(tmp_path, capsys, override, text, key,
                                    cap):
    # before the caps, 1e11 agents ended in an untyped ArrayMemoryError,
    # and simulate would have started 100,000 threads a year. The config
    # is refused before any stage starts, so no such run begins here.
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"init_s50 = 0.3\nstart_year = 1950\n{text}\n")
    code = run(["calibrate", "--config", str(cfg), "--out",
                str(tmp_path / "o"), *override])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and str(cap) in err
    # the caps themselves are allowed
    cfg.write_text(f"tp_max = {MAX_TP}\n")
    args = build_parser().parse_args(["calibrate", "--config", str(cfg),
                                      "--n-agents", str(MAX_AGENTS),
                                      "--threads", str(MAX_THREADS)])
    built = build_config(args)
    assert (built.model.n_agents, built.threads) == (MAX_AGENTS, MAX_THREADS)


@pytest.mark.parametrize("text", [
    "paths_below = -1", "paths_above = -3", "init_s50 = nan",
    "init_s50 = inf",
])
def test_bad_report_or_start_value_exit_code(tmp_path, capsys, text):
    # checked when the config is built; before, a negative path count
    # was a ValueError traceback in the metrics stage and a non-finite
    # init_s50 one in the manifest
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"init_s50 = 0.3\nstart_year = 1950\n{text}\n")
    code = run(["calibrate", "--config", str(cfg), "--out",
                str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert text.split()[0] in capsys.readouterr().err


@pytest.mark.parametrize("value, code", [
    ("100000000000000000000", EXIT_CONFIG),
    ("-9223372036854775808", EXIT_DATA),
])
def test_start_year_far_from_the_rates_is_no_traceback(tmp_path, capsys,
                                                       value, code):
    # both ended in np.arange's "Maximum allowed size exceeded", a
    # traceback with exit 1: a start year past int64 is a config error, and
    # one that is not the year before the rates is the replay's data error
    cfg = _simulate_config(tmp_path, [0.01] * 3, 50)
    cfg.write_text(cfg.read_text().replace("1950", value))
    assert run(["simulate", "--config", str(cfg), "--out",
                str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert "start_year" in err if code == EXIT_CONFIG else "expected" in err


def test_backward_pool_period_is_a_config_error(tmp_path, fixtures_dir,
                                                monkeypatch, capsys):
    # it passed the config; the pipeline then fitted, wrote every
    # calibration and panel file, and failed every definition (exit 3)
    monkeypatch.chdir(fixtures_dir)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text((fixtures_dir / "pipeline_small.cfg").read_text()
                   + "pool_periods = 1962-1971, 1971-1962\n")
    out = tmp_path / "o"
    assert run(["pipeline", "--config", str(cfg), "--out", str(out)]) == \
        EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'1971-1962'" in err
    assert not out.exists()


@pytest.mark.parametrize("command, threads", [
    ("simulate", "1"), ("simulate", "2"), ("calibrate", "1"),
])
def test_overflow_is_a_typed_error_without_a_warning(tmp_path, fixtures_dir,
                                                     capsys, command,
                                                     threads):
    # NumPy's overflow RuntimeWarning came before the typed error, and
    # under -W error it ended the run in a traceback (exit 1); the error
    # state holds in simulate's step workers and the fit's helper thread
    if command == "simulate":
        cfg = _simulate_config(tmp_path, [0.01] * 3, 300)
    else:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"inequality_csv = {fixtures_dir / 's50_synthetic.csv'}"
                       "\nn_agents = 300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([command, "--config", str(cfg), "--mu", "1e308",
                    "--threads", threads, "--out", str(tmp_path / "o")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith({"simulate": "error: non-finite income",
                           "calibrate": "error: year 1952: no rate"}[command])


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
@pytest.mark.parametrize("value", ["0", "-0.1", "0.5000001", "0.9"])
def test_init_s50_outside_its_range_is_a_config_error(tmp_path, capsys,
                                                      command, value):
    # the lognormal start needs a bottom-half share in (0, 0.5]; before,
    # simulate drew the population and ended in main's generic branch
    # (exit 3)
    (tmp_path / "rates.csv").write_text("year,value\n1951,0.0\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"init_s50 = {value}\nstart_year = 1950\n"
                   f"rates_csv = {tmp_path / 'rates.csv'}\n")
    code = run([command, "--config", str(cfg), "--out",
                str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "init_s50" in err
    assert not (tmp_path / "o").exists()
    # the end of the range is allowed
    cfg.write_text(f"init_s50 = 0.5\nstart_year = 1950\n"
                   f"rates_csv = {tmp_path / 'rates.csv'}\n")
    args = build_parser().parse_args([command, "--config", str(cfg)])
    assert build_config(args).init_s50 == 0.5


def test_bad_threads_env_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("POVDYN_THREADS", "two")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("init_s50 = 0.3\nstart_year = 1950\n")
    assert run(["calibrate", "--config", str(cfg)]) == EXIT_CONFIG
    assert "POVDYN_THREADS" in capsys.readouterr().err
    # above the cap from the environment too, checked like --threads
    monkeypatch.setenv("POVDYN_THREADS", str(MAX_THREADS + 1))
    assert run(["calibrate", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "threads" in err and str(MAX_THREADS) in err


@pytest.mark.parametrize("override", [
    ["--n-agents", "1"], ["--mu", "nan"], ["--sigma", "-1"],
])
def test_bad_model_override_exit_code(tmp_path, capsys, override):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("init_s50 = 0.3\nstart_year = 1950\n")
    code = run(["calibrate", "--config", str(cfg), *override])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_gappy_inequality_instructs_interpolation(tmp_path, capsys):
    src = tmp_path / "s50.csv"
    src.write_text("year,s50\n1951,0.27\n1952,0.27\n1954,0.26\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"inequality_csv = {src}\nn_agents = 50\n")
    code = run(["calibrate", "--config", str(cfg), "--out",
                str(tmp_path / "o")])
    assert code == EXIT_DATA
    assert "interpolate" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    pytest.param("tau_min = -1e308\ntau_max = 1e308", "tau_min",
                 id="overflowing"),
    pytest.param("tau_max = 1.5", "tau_max", id="tau_max"),
    pytest.param("tau_min = -1.0000001", "tau_min", id="tau_min"),
    pytest.param("dt = 2.0\ntau_max = 0.75", "tau_max", id="dt"),
])
def test_bracket_past_one_step_is_a_config_error(tmp_path, capsys, text,
                                                 key):
    # past |tau*dt| = 1 the reallocation overshoots the mean; a [-2, 3]
    # bracket clamped every year, and at 1e308 the search wandered among
    # rounding residues
    src = tmp_path / "s50.csv"
    src.write_text("year,s50\n1950,0.25\n1951,0.24\n1952,0.23\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"inequality_csv = {src}\nn_agents = 10\n{text}\n")
    out = tmp_path / "o"
    code = run(["calibrate", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    pytest.param("tau_max = 1.0", id="tau_max"),
    pytest.param("tau_min = -1.0", id="tau_min"),
    pytest.param("dt = 0.5\ntau_max = 1.5", id="dt"),
])
def test_bracket_of_at_most_one_step_is_accepted(tmp_path, text):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"init_s50 = 0.3\nstart_year = 1950\n{text}\n")
    args = build_parser().parse_args(["calibrate", "--config", str(cfg)])
    calib = build_config(args).calib
    assert max(abs(calib.tau_min), abs(calib.tau_max)) >= 1.0


def test_strict_divergence_exit_code(tmp_path):
    src = tmp_path / "s50.csv"
    src.write_text("year,s50\n1951,0.27\n1952,0.45\n")  # unreachable jump
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"inequality_csv = {src}\nn_agents = 100\n"
                   "tau_min = -0.001\ntau_max = 0.001\n")
    out = tmp_path / "o"
    assert run(["calibrate", "--config", str(cfg), "--out", str(out),
                "--strict"]) == EXIT_DIVERGENCE
    # without --strict the run completes with a warning
    assert run(["calibrate", "--config", str(cfg), "--out",
                str(out)]) == EXIT_OK


def test_metrics_partial_definition_failure(tmp_path, fixtures_dir,
                                            monkeypatch, capsys):
    monkeypatch.chdir(fixtures_dir)
    bad = tmp_path / "hcr_bad.csv"  # years outside the panel
    bad.write_text("year,hcr\n1990,0.5\n1991,0.5\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"panel_dir = panel_small\nhcr_small = hcr_small.csv\n"
                   f"hcr_bad = {bad}\npool_periods = 2001-2007\n"
                   "paths_below = 1\npaths_above = 1\n")
    out = tmp_path / "run"
    assert run(["metrics", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert "small" in summary["definitions"]
    assert "bad" in summary["failed"]
    assert (out / "metrics_small.csv").exists()
    assert not (out / "metrics_bad.csv").exists()


def test_head_count_outside_unit_interval_fails_its_definition(
        tmp_path, fixtures_dir, monkeypatch):
    # used to end in an untyped ValueError traceback
    monkeypatch.chdir(fixtures_dir)
    bad = tmp_path / "hcr_bad.csv"
    bad.write_text("year,hcr\n2001,0.3\n2002,1.5\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"panel_dir = panel_small\nhcr_small = hcr_small.csv\n"
                   f"hcr_bad = {bad}\npool_periods = 2001-2002\n"
                   "paths_below = 1\npaths_above = 1\n")
    out = tmp_path / "run"
    assert run(["metrics", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert "outside [0, 1]" in summary["failed"]["bad"]


@pytest.mark.parametrize("edit, line", [("swap rows", 2),
                                        ("rename a year", 1)])
def test_metrics_checks_the_csv_panel_labels(tmp_path, fixtures_dir, capsys,
                                             edit, line):
    # the labels were not read: with agents 0 and 1 swapped, each got the
    # other's incomes, and a column named x2003 was read as 2003; exit 0
    panel = tmp_path / "panel"
    shutil.copytree(fixtures_dir / "panel_small", panel)
    rows = (panel / "panel.csv").read_text().splitlines(keepends=True)
    if edit == "swap rows":
        rows[1], rows[2] = rows[2], rows[1]
    else:
        rows[0] = rows[0].replace("y2003", "x2003")
    (panel / "panel.csv").write_text("".join(rows))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"panel_dir = {panel}\npool_periods = 2001-2007\n"
                   f"hcr_small = {fixtures_dir / 'hcr_small.csv'}\n")
    assert run(["metrics", "--config", str(cfg), "--out",
                str(tmp_path / "run")]) == EXIT_DATA
    assert f"{panel / 'panel.csv'}:{line}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pipeline", "metrics"])
def test_no_definition_fails_before_any_work(tmp_path, fixtures_dir,
                                             monkeypatch, capsys, command):
    # pipeline ran the whole fit and wrote the calibration and panel
    # files before it failed in its metrics stage; metrics read the
    # panel first, so a missing panel_dir hid the config error (exit 3)
    monkeypatch.chdir(fixtures_dir)
    cfg = tmp_path / "cfg.txt"
    if command == "pipeline":
        cfg.write_text("".join(
            line for line in Path("pipeline_small.cfg").read_text()
            .splitlines(keepends=True) if not line.startswith("hcr_")))
    else:
        cfg.write_text(f"panel_dir = {tmp_path / 'nowhere'}\n")
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == \
        EXIT_CONFIG
    assert "no poverty-line definitions" in capsys.readouterr().err
    assert not out.exists()


def test_metrics_panel_meta_missing_key_exit_code(tmp_path, fixtures_dir,
                                                  capsys):
    panel = tmp_path / "panel"
    shutil.copytree(fixtures_dir / "panel_small", panel)
    meta = json.loads((panel / "panel_meta.json").read_text())
    del meta["fingerprint"]
    (panel / "panel_meta.json").write_text(json.dumps(meta))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"panel_dir = {panel}\n"
                   f"hcr_small = {fixtures_dir / 'hcr_small.csv'}\n")
    code = run(["metrics", "--config", str(cfg), "--out",
                str(tmp_path / "run")])
    assert code == EXIT_DATA
    assert "fingerprint" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["directory", "not_utf8"])
def test_unreadable_config_exit_code(tmp_path, capsys, case):
    cfg = tmp_path / "cfg.txt"
    if case == "directory":
        cfg.mkdir()
    else:
        cfg.write_bytes("seed = 1\n# caf\u00e9\n".encode("latin-1"))
    code = run(["calibrate", "--config", str(cfg), "--out",
                str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "cfg.txt" in err


def test_hcr_file_not_utf8_exit_code(tmp_path, fixtures_dir, capsys):
    hcr = tmp_path / "hcr_latin1.csv"
    hcr.write_bytes("year,hcr,definition_name\n2000,0.4,pobreza m\u00ednima\n"
                    .encode("latin-1"))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"panel_dir = {fixtures_dir / 'panel_small'}\n"
                   f"hcr_latin1 = {hcr}\n")
    code = run(["metrics", "--config", str(cfg), "--out",
                str(tmp_path / "run")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "hcr_latin1.csv: not UTF-8" in err
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert "UTF-8" in summary["failed"]["latin1"]


def test_panel_meta_is_a_directory_exit_code(tmp_path, fixtures_dir, capsys):
    panel = tmp_path / "panel"
    shutil.copytree(fixtures_dir / "panel_small", panel)
    (panel / "panel_meta.json").unlink()
    (panel / "panel_meta.json").mkdir()
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"panel_dir = {panel}\n"
                   f"hcr_small = {fixtures_dir / 'hcr_small.csv'}\n")
    code = run(["metrics", "--config", str(cfg), "--out",
                str(tmp_path / "run")])
    assert code == EXIT_DATA
    assert "panel_meta.json" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_simulate_from_calibrated_rates(tmp_path, fixtures_dir, monkeypatch):
    monkeypatch.chdir(fixtures_dir)
    cal = tmp_path / "cal"
    assert run(["calibrate", "--config", "pipeline_small.cfg",
                "--out", str(cal), "--n-agents", "200"]) == EXIT_OK
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"rates_csv = {cal / 'tau_effective.csv'}\n"
                   "init_s50 = 0.27\nstart_year = 1951\n"
                   "n_agents = 100\nseed = 5\n")
    out = tmp_path / "sim"
    assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert (out / "shares.csv").exists()
    assert (out / "panel_incomes.npy").exists()
    shares = read_series(out / "shares.csv")
    assert shares.first_year == 1952


def test_simulate_requires_rates(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("init_s50 = 0.3\nstart_year = 1950\n")
    assert run(["simulate", "--config", str(cfg)]) == EXIT_CONFIG


def test_threads_default_from_env(monkeypatch, fixtures_dir, tmp_path):
    from povdyn.cli import build_config, build_parser
    monkeypatch.chdir(fixtures_dir)
    monkeypatch.setenv("POVDYN_THREADS", "3")
    args = build_parser().parse_args(["metrics", "--config",
                                      "metrics_small.cfg"])
    assert build_config(args).threads == 3
    args = build_parser().parse_args(["metrics", "--config",
                                      "metrics_small.cfg", "--threads", "2"])
    assert build_config(args).threads == 2


def test_out_of_range_share_note(capsys):
    from povdyn.cli import _flag_share_range
    from povdyn.series import PartialSeries
    import numpy as np
    # an undefined share (NaN) is not out of range
    _flag_share_range("shares", PartialSeries(np.array([2000, 2001, 2002]),
                                              np.array([0.4, -0.02, np.nan])))
    out = capsys.readouterr().out
    assert "[2001]" in out


# ---------------------------------------------------------------------------
# one definition fails alone; a report that cannot be written ends the run

def _two_definitions(d: Path, fixtures: Path, command: str, other) -> Path:
    """Config of ``command`` on the fixtures with the definitions ``good``
    and ``other``, ``other`` read from the file ``other``."""
    if command == "metrics":
        good = fixtures / "hcr_small.csv"
        lines = [f"panel_dir = {fixtures / 'panel_small'}",
                 "pool_periods = 2001-2003", "paths_below = 2",
                 "paths_above = 2"]
    else:
        good = fixtures / "hcr_base.csv"
        lines = ["n_agents = 200",
                 f"inequality_csv = {fixtures / 's50_synthetic.csv'}",
                 "pool_periods = 1962-1971"]
    path = d / "two.cfg"
    path.write_text("\n".join([*lines, f"hcr_good = {good}",
                               f"hcr_other = {other or good}"]) + "\n")
    return path


@pytest.mark.parametrize("command", ["metrics", "pipeline"])
def test_report_that_cannot_be_written_exits_5(tmp_path, fixtures_dir,
                                               capsys, command):
    # a report that cannot be written is an output error, not a failed
    # definition: the run ends with exit 5
    out = tmp_path / "run"
    (out / "metrics_other.csv").mkdir(parents=True)
    cfg = _two_definitions(tmp_path, fixtures_dir, command, None)
    assert main([command, "--config", str(cfg), "--out", str(out)]) \
        == EXIT_IO
    err = capsys.readouterr().err
    if command == "pipeline":
        assert err.startswith("pipeline aborted in stage 'metrics'\n")
    assert f"output error: cannot write {out / 'metrics_other.csv'}" in err
    assert (out / "metrics_good.csv").is_file()
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("command", ["metrics", "pipeline"])
def test_unreadable_hcr_file_fails_only_its_definition(tmp_path,
                                                      fixtures_dir, capsys,
                                                      command):
    gone = tmp_path / "gone" / "hcr.csv"
    cfg = _two_definitions(tmp_path, fixtures_dir, command, gone)
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out)]) \
        == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary["definitions"]) == ["good"]
    assert summary["failed"]["other"].startswith(f"cannot read {gone}")
    for prefix in ("metrics", "pooled", "paths"):
        assert (out / f"{prefix}_good.csv").is_file()
        assert not (out / f"{prefix}_other.csv").exists()
    # the manifest records the input it could not read as null
    manifest = read_manifest(out / "manifest.json")
    assert manifest.inputs[str(gone)] is None and manifest.verify()
    assert f"metrics[other] failed: cannot read {gone}" in \
        capsys.readouterr().err

    # every definition unreadable: the run fails as a data error
    cfg.write_text(cfg.read_text().replace(
        str(fixtures_dir / ("hcr_small.csv" if command == "metrics"
                            else "hcr_base.csv")), str(gone)))
    assert main([command, "--config", str(cfg), "--out", str(out)]) \
        == EXIT_DATA
    assert "all poverty-line definitions failed" in capsys.readouterr().err


def test_pool_period_outside_every_definition_fails_before_the_fit(
        tmp_path, fixtures_dir, monkeypatch, capsys):
    # each definition's periods are checked as its HCR file is read, so
    # a run whose periods fit no definition stops before the fit and
    # writes nothing
    monkeypatch.chdir(fixtures_dir)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text((fixtures_dir / "pipeline_small.cfg").read_text()
                   + "pool_periods = 1900-1910\n")
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--n-agents", "200",
                 "--out", str(out)]) == EXIT_DATA
    assert not out.exists() or not any(out.iterdir())
    err = capsys.readouterr().err
    for name in ("base", "high", "mid"):
        assert (f"metrics[{name}] failed: period 1900..1910 outside "
                "poverty panel years 1952..2006") in err
    assert err.endswith("data error: all poverty-line definitions "
                        "failed\n")


def test_pool_period_outside_one_definition_fails_only_it(
        tmp_path, fixtures_dir, monkeypatch):
    monkeypatch.chdir(fixtures_dir)
    late = tmp_path / "hcr_late.csv"
    late.write_text("year,hcr\n" + "".join(f"{y},0.4\n"
                                           for y in range(2004, 2008)))
    base = (fixtures_dir / "metrics_small.cfg").read_text()
    alone, both = tmp_path / "alone.cfg", tmp_path / "both.cfg"
    alone.write_text(base)
    both.write_text(base + f"hcr_late = {late}\n")
    for cfg in (alone, both):
        assert run(["metrics", "--config", str(cfg), "--out",
                    str(tmp_path / cfg.stem)]) == EXIT_OK
    for name in ("metrics_small.csv", "pooled_small.csv", "paths_small.csv"):
        assert _strip_manifest_line(tmp_path / "both" / name) == \
            _strip_manifest_line(tmp_path / "alone" / name)
    summary = json.loads((tmp_path / "both" / "summary.json").read_text())
    assert summary["failed"] == {"late": "period 2001..2003 outside poverty "
                                         "panel years 2004..2007"}
    assert not list((tmp_path / "both").glob("*_late.csv"))


@pytest.mark.parametrize("name", ["", "a/b", ".", "..", "../up",
                                  f"x{os.sep}y"])
def test_bad_definition_name_is_a_config_error(tmp_path, capsys, name):
    # the name is part of the report files' names: a bad one is caught
    # when the config is built, not at the first write after the fit
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"init_s50 = 0.3\nstart_year = 1950\n"
                   f"hcr_{name} = hcr.csv\n")
    assert run(["pipeline", "--config", str(cfg), "--out",
                str(tmp_path / "o")]) == EXIT_CONFIG
    assert repr(f"hcr_{name}") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # dots inside a name are fine
    cfg.write_text("hcr_wb.1.90 = hcr.csv\n")
    args = build_parser().parse_args(["pipeline", "--config", str(cfg)])
    assert list(build_config(args).hcr_files) == ["wb.1.90"]


# ---------------------------------------------------------------------------
# the config surface: README, table and manifest agree

def _readme_config_section() -> str:
    text = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    start = text.index("### Config file")
    return text[start:text.index("\n### ", start + 1)]


def _config(path: Path, text: str):
    path.write_text(text, encoding="utf-8")
    return build_config(build_parser().parse_args(
        ["pipeline", "--config", str(path)]))


def test_readme_config_example_parses_and_names_every_key(tmp_path,
                                                          monkeypatch):
    monkeypatch.delenv("POVDYN_THREADS", raising=False)
    section = _readme_config_section()
    example = _config(tmp_path / "readme.cfg", section.split("```")[1])
    assert example.seed == 42
    assert set(example.hcr_files) == {"lakdawala", "wb190"}
    # the example shows the defaults, but for the seed and the files
    default = _config(tmp_path / "empty.cfg", "")
    files = ("seed", "inequality_csv", "hcr_files")
    assert {k: v for k, v in example.flat().items() if k not in files} == \
        {k: v for k, v in default.flat().items() if k not in files}
    assert (example.out_dir, example.threads) == \
        (default.out_dir, default.threads)
    missing = [key for key in cli._KEYS
               if not re.search(rf"\b{key}\b", section)]
    assert not missing, f"README's config section does not name {missing}"


# a value other than the default for every key of the config table
_OTHER_VALUES = {
    "seed": "1", "n_agents": "50", "mu": "0.03", "sigma": "0.2",
    "dt": "0.5", "tau_min": "-0.4", "tau_max": "0.4", "tolerance": "1e-3",
    "max_iterations": "50", "smoothing_window": "3",
    "forward_rate": "effective", "inequality_csv": "a.csv",
    "init_s50": "0.3", "start_year": "1950", "rates_csv": "r.csv",
    "panel_dir": "p", "pool_periods": "1962-1970", "pooled_method": "mean",
    "tp_max": "5", "paths_below": "3", "paths_above": "4",
    "panel_format": "csv", "out_dir": "elsewhere", "threads": "2",
}
_DEPLOYMENT = ("out_dir", "threads")


def test_manifest_records_every_key_but_the_deployment_settings(
        tmp_path, monkeypatch):
    monkeypatch.delenv("POVDYN_THREADS", raising=False)
    assert set(_OTHER_VALUES) == set(cli._KEYS)

    def digest(cfg) -> str:
        return RunManifest.create(cfg.seed, cfg.flat(), [], "0").digest

    default = _config(tmp_path / "run.cfg", "")
    assert set(default.flat()) == \
        set(cli._KEYS) - set(_DEPLOYMENT) | {"hcr_files"}
    for key, value in _OTHER_VALUES.items():
        cfg = _config(tmp_path / "run.cfg", f"{key} = {value}\n")
        if key in _DEPLOYMENT:
            assert getattr(cfg, key) != getattr(default, key)
            assert cfg.flat() == default.flat(), key
        else:
            assert digest(cfg) != digest(default), key
    cfg = _config(tmp_path / "run.cfg", "hcr_x = x.csv\n")
    assert digest(cfg) != digest(default)
