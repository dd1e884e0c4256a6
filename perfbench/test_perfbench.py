"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"


def _write_all(directory: Path, seed: int) -> dict[str, bytes]:
    directory.mkdir()
    inputs.write_s50(directory / "s50.csv", seed)
    inputs.write_hcr_fixture_set(directory, seed)
    inputs.write_rates(directory / "rates.csv", seed, 1891, 2010, 0.02,
                       0.06, 40.0)
    inputs.write_hcr_levels(directory, seed, 1890, 2010,
                            workloads.STORED_LEVELS)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_deterministic_per_seed(tmp_path):
    first = _write_all(tmp_path / "a", 7)
    assert first == _write_all(tmp_path / "b", 7)
    other = _write_all(tmp_path / "c", 8)
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in first)


@pytest.mark.skipif(not FIXTURES.is_dir(), reason="needs the test fixtures")
def test_default_seed_reproduces_the_fixture_formulas(tmp_path):
    files = _write_all(tmp_path / "d", inputs.DEFAULT_SEED)
    assert files["s50.csv"] == (FIXTURES / "s50_synthetic.csv").read_bytes()
    for name in ("hcr_base.csv", "hcr_mid.csv", "hcr_high.csv"):
        assert files[name] == (FIXTURES / name).read_bytes()


def _span(sid, name, t0, t1, parent=-1, units=0):
    return (sid, name, t0, t1, parent, units)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "calibrate.fit_series", 1.0, 4.0, 0),
        _span(2, "calibrate._search_tau", 2.0, 3.0, 1),
        _span(3, "rgbm.bottom_share_of", 2.2, 2.4, 2),
        _span(4, "rgbm.bottom_share_of", 2.5, 2.6, 2),
        # two overlapping children (worker threads) and one that runs
        # past its parent's end: only the covered part inside counts
        _span(5, "rgbm.step", 5.0, 7.0, 0),
        _span(6, "rng.RngStream.normals", 5.5, 6.5, 5, units=100),
        _span(7, "rng.RngStream.normals", 6.0, 7.5, 5, units=50),
    ]
    got = spans.self_times(tree)
    want = {0: 10.0 - 3.0 - 2.0, 1: 3.0 - 1.0, 2: 1.0 - 0.3, 3: 0.2,
            4: 0.1, 5: 2.0 - 1.5, 6: 1.0, 7: 1.5}
    assert got == pytest.approx(want)

    layer = spans.layer_metrics(tree)
    assert layer["cli.self_s"] == pytest.approx(5.0)
    assert layer["calibrate.gap_evals"] == 2
    assert layer["calibrate.fit_series_s"] == pytest.approx(2.0 + 0.7)
    assert layer["rgbm.step_s"] == pytest.approx(0.5)
    assert layer["rng.draws"] == 150
    assert layer["rng.normals_s"] == pytest.approx(2.5)


def test_digests_are_pinned_for_every_workload(tmp_path):
    assert sorted(workloads.PINNED) == sorted(workloads.WORKLOADS)
    for pinned in workloads.PINNED.values():
        assert pinned and "manifest.json" not in pinned
        assert all(len(d) == 64 and int(d, 16) >= 0 for d in pinned.values())

    (tmp_path / "manifest.json").write_text('{"digest": "x"}')
    for w in workloads.WORKLOADS.values():
        w = dataclasses.replace(w, check=lambda *args: [])
        pinned = dict(workloads.PINNED[w.name])
        assert w.problems(tmp_path, tmp_path, inputs.DEFAULT_SEED,
                          pinned) == []
        name = sorted(pinned)[0]
        changed = {**pinned, name: "0" * 64}
        assert w.problems(tmp_path, tmp_path, inputs.DEFAULT_SEED,
                          changed) == [f"{name}: digest differs from the "
                                       "pinned one"]
        # other seeds give other bytes, but the same set of files
        assert w.problems(tmp_path, tmp_path, 1, changed) == []
        missing = {k: v for k, v in pinned.items() if k != name}
        assert w.problems(tmp_path, tmp_path, 1, missing)


@pytest.mark.skipif(not FIXTURES.is_dir(), reason="needs the test fixtures")
def test_traced_run_writes_the_same_bytes(tmp_path):
    shutil.copytree(FIXTURES, tmp_path / "in")
    argv = ["--", "pipeline", "--config", "pipeline_small.cfg", "--out"]
    digests = {}
    for mode in ("run", "trace"):
        subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(ROOT / "src"), mode,
             str(tmp_path / f"{mode}.json"), str(tmp_path / "spans.json"),
             *argv, f"out_{mode}"],
            cwd=tmp_path / "in", check=True, capture_output=True)
        digests[mode] = checks.output_digests(tmp_path / "in" / f"out_{mode}")
    assert digests["run"] == digests["trace"]

    data = json.loads((tmp_path / "spans.json").read_text())
    assert data["absent"] == []
    layer = spans.layer_metrics([tuple(s) for s in data["spans"]])
    assert layer["calibrate.replay_calls"] == 2
    assert layer["calibrate.years_fitted"] == 59
    # 3 definitions x 54 years x (1 transition + 10 persistence thresholds)
    assert layer["poverty.probe_calls"] == 3 * 54 * 11
