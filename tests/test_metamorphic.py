"""Metamorphic checks: ``metrics`` on transformed copies of one panel.

The panel is the fixture pipeline's (400 agents, 1950-2006, three
poverty-line definitions). Each copy is written with ``write_panel`` and
measured by ``metrics`` under the fixture's report settings; the reports
are compared below their ``# manifest:`` line, whose digest covers the
panel directory.

- Every income times 2**k, k in -3..3. Scaling by a power of 2 is exact,
  so every count, ratio and within-poor Gini keeps its bits: only the
  ``poverty_line`` rows of ``metrics_*`` and the incomes in ``paths_*``
  change, and the path bundles pick the same agents.
- The agents permuted. Lines are order statistics and counts do not see
  the order: ``metrics_*`` and ``pooled_*`` keep their bytes, and each
  path bundle picks the same agents under their new numbers. The
  within-poor Gini's total is summed in agent order, so its last bit may
  move under a permutation; on this panel its 12-digit text does not.
- The definitions renamed and listed in another order. Each one's name
  only names its files: its ``metrics_``, ``pooled_`` and ``paths_``
  reports keep their bytes below the manifest line.
- ``metrics`` run twice into one output directory, on an ``npy`` and a
  ``csv`` copy: the second run writes the first run's bytes, the
  manifest's timestamp aside, and leaves no spool behind.

The first two relations are also checked in-process, on each
definition's ``PovertyAccumulator`` fed the transformed year rows: the
lines exactly 2**k times the original (the reports round them to 12
digits), the count tables identical, and the within-poor Ginis equal to
a relative 1e-12. Hypothesis checks the same two relations on small
drawn panels (2-60 agents, 1-8 years, incomes with ties, zeros and
negatives, head counts 0 and 1 among them, a definition over any run of
the panel's years): there the lines are compared as values, since a
permutation may move a -0.0 and a 0.0 that tie at the line.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from povdyn.cli import EXIT_OK, main
from povdyn.dataio import SPOOL_NAME, read_hcr_file, read_panel, write_panel
from povdyn.poverty import IncomePanel, PovertyAccumulator
from povdyn.series import AnnualSeries

FIXTURES = Path(__file__).parent / "fixtures"


def _config(d: Path) -> Path:
    """The fixture pipeline's config with absolute input paths."""
    lines = []
    for line in (FIXTURES / "pipeline_small.cfg").read_text().splitlines():
        key, _, value = (part.strip() for part in line.partition("="))
        if key == "inequality_csv" or key.startswith("hcr_"):
            line = f"{key} = {FIXTURES / value}"
        lines.append(line)
    path = d / "pipeline.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def _measure(panel: IncomePanel, cfg: Path, d: Path) -> dict[str, list]:
    """The report lines of ``metrics`` on ``panel``, below the manifest
    line, by file name."""
    write_panel(panel, d / "panel")
    (d / "metrics.cfg").write_text(cfg.read_text()
                                   + f"panel_dir = {d / 'panel'}\n")
    assert main(["metrics", "--config", str(d / "metrics.cfg"), "--out",
                 str(d / "out")]) == EXIT_OK
    return {p.name: p.read_text().splitlines()[1:]
            for p in sorted((d / "out").glob("*_*.csv"))}


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """The fixture pipeline's panel, its config and its reports."""
    d = tmp_path_factory.mktemp("metamorphic")
    cfg = _config(d)
    assert main(["pipeline", "--config", str(cfg), "--out",
                 str(d / "pipe")]) == EXIT_OK
    panel = read_panel(d / "pipe")
    reports = _measure(panel, cfg, d / "base")
    assert len(reports) == 9
    return panel, cfg, reports


def _paths(lines: list[str]) -> dict[str, list[str]]:
    """A paths report's columns by header label."""
    header, *rows = csv.reader(lines)
    return dict(zip(header, map(list, zip(*rows))))


@pytest.mark.parametrize("k", range(-3, 4))
def test_scaling_every_income_by_a_power_of_two(tmp_path, measured, k):
    panel, cfg, want = measured
    got = _measure(IncomePanel(panel.years, panel.incomes * 2.0**k,
                               panel.seed, panel.fingerprint), cfg, tmp_path)
    assert got.keys() == want.keys()
    for name, lines in want.items():
        if name.startswith("paths_"):
            assert _paths(got[name]).keys() == _paths(lines).keys(), name
            continue
        assert len(got[name]) == len(lines), name
        for a, b in zip(lines, got[name]):
            # a metrics row: year, statistic, t_p, value, defined
            a, b = a.split(","), b.split(",")
            if name.startswith("metrics_") and a[1] == "poverty_line":
                assert b[:3] == a[:3] and b[4] == a[4] == "1"
                assert float(b[3]) == pytest.approx(float(a[3]) * 2.0**k,
                                                    rel=1e-11)
            else:
                assert a == b, (name, k)


def test_permuting_the_agents(tmp_path, measured):
    panel, cfg, want = measured
    # new agent i is old agent perm[i]
    perm = np.random.default_rng(5).permutation(panel.n_agents)
    got = _measure(IncomePanel(panel.years, panel.incomes[perm],
                               panel.seed, panel.fingerprint), cfg, tmp_path)
    assert got.keys() == want.keys()
    for name, lines in want.items():
        if not name.startswith("paths_"):
            assert got[name] == lines, name
            continue
        renamed = {}
        for label, column in _paths(got[name]).items():
            kind, _, agent = label.partition("_")
            if kind in ("below", "above"):
                label = f"{kind}_{perm[int(agent)]}"
            renamed[label] = column
        assert renamed == _paths(lines), name


def _accumulate(panel: IncomePanel, transform) -> list[PovertyAccumulator]:
    """Each fixture definition's accumulator, fed ``transform`` of every
    year row of ``panel`` in year order, as ``metrics`` feeds them."""
    accs = [PovertyAccumulator(read_hcr_file(FIXTURES / f"hcr_{name}.csv")[0],
                               (panel.first_year, panel.last_year), 5, 5,
                               name=name)
            for name in ("base", "mid", "high")]
    for year in panel.years.tolist():
        row = transform(np.ascontiguousarray(panel.column(year)))
        for acc in accs:
            acc(year, row)
    return accs


def _same_ginis(got: PovertyAccumulator, want: PovertyAccumulator) -> None:
    assert np.array_equal(np.isnan(got.bpl.gini), np.isnan(want.bpl.gini))
    assert got.bpl.gini == pytest.approx(want.bpl.gini, rel=1e-12,
                                         nan_ok=True)
    assert np.array_equal(got.bpl.negatives_floored,
                          want.bpl.negatives_floored)


@pytest.mark.parametrize("k", range(-3, 4))
def test_scaling_by_a_power_of_two_in_process(measured, k):
    panel = measured[0]
    for got, want in zip(_accumulate(panel, lambda row: row * 2.0**k),
                         _accumulate(panel, lambda row: row)):
        assert got.line.z.tobytes() == (want.line.z * 2.0**k).tobytes()
        assert np.array_equal(got.count_table(), want.count_table())
        _same_ginis(got, want)


def test_permuting_the_agents_in_process(measured):
    panel = measured[0]
    perm = np.random.default_rng(5).permutation(panel.n_agents)
    for got, want in zip(_accumulate(panel, lambda row: row[perm]),
                         _accumulate(panel, lambda row: row)):
        assert got.line.z.tobytes() == want.line.z.tobytes()
        assert np.array_equal(got.count_table(), want.count_table())
        _same_ginis(got, want)


def test_renaming_and_reordering_the_definitions(tmp_path, measured):
    panel, cfg, want = measured
    # new names that sort in another order, listed in a third order
    names = {"base": "zeta", "mid": "alpha", "high": "mu"}
    lines = cfg.read_text().splitlines()
    hcr = {line.partition("=")[0].strip()[len("hcr_"):]: line
           for line in lines if line.startswith("hcr_")}
    assert hcr.keys() == names.keys()
    renamed = tmp_path / "renamed.cfg"
    renamed.write_text("\n".join(
        [line for line in lines if not line.startswith("hcr_")]
        + [hcr[old].replace(f"hcr_{old}", f"hcr_{names[old]}", 1)
           for old in ("high", "base", "mid")]) + "\n")
    got = _measure(panel, renamed, tmp_path)
    assert len(got) == len(want)
    for old, new in names.items():
        for prefix in ("metrics_", "pooled_", "paths_"):
            assert got[f"{prefix}{new}.csv"] == want[f"{prefix}{old}.csv"], \
                (prefix, old)


@pytest.mark.parametrize("fmt", ["npy", "csv"])
def test_metrics_twice_into_one_out(tmp_path, measured, fmt):
    panel, cfg, _ = measured
    write_panel(panel, tmp_path / "panel", fmt=fmt)
    (tmp_path / "metrics.cfg").write_text(
        cfg.read_text() + f"panel_dir = {tmp_path / 'panel'}\n")
    out = tmp_path / "out"
    runs = []
    for _ in range(2):
        assert main(["metrics", "--config", str(tmp_path / "metrics.cfg"),
                     "--out", str(out)]) == EXIT_OK
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        manifest = json.loads(files.pop("manifest.json"))
        del manifest["timestamp"]  # the run's time, outside the digest
        runs.append((files, manifest))
    assert runs[0] == runs[1]
    assert SPOOL_NAME not in runs[0][0]
    assert len(runs[0][0]) == 10  # nine reports and summary.json


# ---------------------------------------------------------------------------
# the in-process relations on drawn panels

DRAWN = settings(max_examples=150, deadline=None, derandomize=True)

# incomes far from the float range's ends, so that scaling by 2**k for
# |k| <= 8 stays exact: no overflow and no subnormal result
_INCOME = st.one_of(
    st.integers(-3, 12).map(float),  # ties, zeros and negatives
    st.floats(-1e3, 1e6).filter(lambda v: v == 0 or abs(v) > 1e-200))


@st.composite
def drawn_panels(draw):
    """A small panel, one definition's head counts over a run of its
    years, and an agent permutation."""
    n_agents = draw(st.integers(2, 60))
    n_years = draw(st.integers(1, 8))
    rows = [draw(st.lists(_INCOME, min_size=n_agents, max_size=n_agents))
            for _ in range(n_years)]
    first = draw(st.integers(0, n_years - 1))
    last = draw(st.integers(first, n_years - 1))
    head_count = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    hcr = draw(st.lists(head_count, min_size=last - first + 1,
                        max_size=last - first + 1))
    perm = draw(st.permutations(range(n_agents)))
    return (np.array(rows), 2000 + first, hcr, np.array(perm),
            draw(st.integers(-8, 8)))


def _accumulate_rows(rows: np.ndarray, first: int, hcr) -> PovertyAccumulator:
    """One definition's accumulator fed the year rows of a panel from
    2000."""
    acc = PovertyAccumulator(
        AnnualSeries(np.arange(first, first + len(hcr)), hcr),
        (2000, 1999 + len(rows)), 2, 2)
    for year, row in enumerate(rows, 2000):
        acc(year, np.ascontiguousarray(row))
    return acc


@DRAWN
@given(drawn=drawn_panels())
# two agents tied at 0.0 and -0.0, head counts 0, 1/2 and 1
@example(drawn=(np.array([[0.0, -0.0], [-1.0, 2.0], [3.0, 3.0]]), 2000,
                [0.0, 0.5, 1.0], np.array([1, 0]), -8))
def test_scaling_and_permuting_drawn_panels(drawn):
    rows, first, hcr, perm, k = drawn
    want = _accumulate_rows(rows, first, hcr)
    scaled = _accumulate_rows(rows * 2.0**k, first, hcr)
    assert np.array_equal(scaled.line.z, want.line.z * 2.0**k)
    assert np.array_equal(scaled.count_table(), want.count_table())
    _same_ginis(scaled, want)
    permuted = _accumulate_rows(rows[:, perm], first, hcr)
    assert np.array_equal(permuted.line.z, want.line.z)
    assert np.array_equal(permuted.count_table(), want.count_table())
    _same_ginis(permuted, want)
