"""Property tests for the blocked panel writer and reader.

The panel lives year-major in memory and agents-major on disk; the
writer and the reader move it between the two one block of agents at a
time. These tests draw the panel shape and the block size, so panels
smaller than one block, one agent past a block and whole multiples of a
block all occur.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from povdyn import dataio
from povdyn.cli import EXIT_DATA, _push_spooled, main
from povdyn.dataio import read_panel, write_panel
from povdyn.errors import DataError
from povdyn.poverty import (IncomePanel, PovertyAccumulator,
                            sample_paths)
from povdyn.series import AnnualSeries

SETTINGS = settings(max_examples=60, deadline=None)
FILES = ("panel_incomes.npy", "panel_years.npy", "panel_meta.json")


def _panel(n_agents, n_years, seed=0):
    rng = np.random.default_rng(seed)
    return IncomePanel(years=np.arange(1990, 1990 + n_years),
                       incomes=rng.normal(1.0, 2.0, (n_agents, n_years)),
                       seed=seed, fingerprint="f")


def _write(panel, directory, spooled: bool, threads: int) -> None:
    """write_panel of ``panel``, in memory or spooled year by year, with
    ``threads`` threads asked for."""
    with contextlib.ExitStack() as stack:
        if spooled:
            spool = stack.enter_context(dataio.PanelSpool(
                directory, panel.years, panel.n_agents, panel.seed))
            for year, row in zip(panel.years.tolist(), panel.incomes.T):
                spool(year, row)
            spool.fingerprint = panel.fingerprint
            panel = spool
        write_panel(panel, directory, threads=threads)


# the default block of a 2-year panel, in agents
_DEFAULT_BLOCK = dataio._block_agents(10**9, 2)


@SETTINGS
@given(n_agents=st.integers(2, 40), n_years=st.integers(1, 9),
       block=st.sampled_from([1, 3, 7, 16, None]),
       spooled=st.booleans(), threads=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2**32 - 1))
@example(n_agents=2, n_years=1, block=None, spooled=False, threads=1,
         seed=0)
@example(n_agents=_DEFAULT_BLOCK + 1, n_years=2, block=None, spooled=True,
         threads=2, seed=1)
def test_roundtrip_and_npy_bytes(n_agents, n_years, block, spooled, threads,
                                 seed):
    # ``block`` agents per block (None: the default byte budget), from an
    # in-memory panel or a spool, with 1, 2 or 3 threads asked for (one
    # writer thread or two)
    panel = _panel(n_agents, n_years, seed)
    saved = io.BytesIO()
    np.save(saved, np.ascontiguousarray(panel.incomes))
    budget = (dataio._PANEL_BLOCK_BYTES if block is None
              else block * 8 * n_years)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dataio, "_PANEL_BLOCK_BYTES", budget):
        _write(panel, tmp, spooled, threads)
        data = (Path(tmp) / "panel_incomes.npy").read_bytes()
        back = read_panel(tmp)
        assert not (Path(tmp) / dataio.SPOOL_NAME).exists()
    assert data == saved.getvalue()  # so the SHA-256 is np.save's too
    assert np.array_equal(back.years, panel.years)
    assert np.array_equal(back.incomes, panel.incomes)
    assert back.incomes.shape == (n_agents, n_years)
    assert back.incomes.T.flags.c_contiguous
    assert (back.seed, back.fingerprint) == (panel.seed, panel.fingerprint)


@SETTINGS
@given(n_agents=st.integers(1, 30), n_years=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_spool_reads_and_writes_any_rectangle(n_agents, n_years, seed, data):
    # the spool against an in-memory (T, N) array: the row hook puts each
    # year at its own row in whatever order the years come, and each
    # (t, a0, m, k) rectangle written or read is that slice of the array;
    # IncomePanel.read gives the spool's bytes for the same panel
    panel = _panel(n_agents, n_years, seed)
    want = np.ascontiguousarray(panel.incomes.T)
    new_values = np.random.default_rng(seed + 1)
    order = data.draw(st.permutations(range(n_years)))
    with tempfile.TemporaryDirectory() as tmp, \
            dataio.PanelSpool(tmp, panel.years, n_agents, 0) as spool:
        for t in order:
            spool(int(panel.years[t]), want[t])
        for _ in range(data.draw(st.integers(1, 6))):
            t = data.draw(st.integers(0, n_years - 1))
            a0 = data.draw(st.integers(0, n_agents - 1))
            m = data.draw(st.integers(1, n_years - t))
            k = data.draw(st.integers(1, n_agents - a0))
            if data.draw(st.booleans()):
                rows = new_values.normal(size=(m, k))
                spool.write(t, a0, rows)
                want[t:t + m, a0:a0 + k] = rows
            got, held = np.empty((m, k)), np.empty((m, k))
            spool.read(t, a0, got)
            IncomePanel(panel.years, want.T, 0, "f").read(t, a0, held)
            assert got.tobytes() == want[t:t + m, a0:a0 + k].tobytes()
            assert held.tobytes() == got.tobytes()
        whole = np.empty((n_years, n_agents))
        spool.read(0, 0, whole)
    assert whole.tobytes() == want.tobytes()


@SETTINGS
@given(n_agents=st.integers(1, 40), n_years=st.integers(1, 9),
       block=st.sampled_from([1, 3, 7, 16, None]),
       fmt=st.sampled_from(["npy", "csv"]), seed=st.integers(0, 2**32 - 1))
def test_spooled_stored_panel_reads_back_every_year(n_agents, n_years, block,
                                                    fmt, seed):
    # metrics turns the stored panel year-major into a spool, block by
    # block; each year read back is the year of read_panel, bit for bit
    panel = _panel(n_agents, n_years, seed)
    budget = (dataio._PANEL_BLOCK_BYTES if block is None
              else block * 8 * n_years)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dataio, "_PANEL_BLOCK_BYTES", budget), \
            mock.patch.object(dataio, "_CSV_BLOCK_BYTES", budget):
        write_panel(panel, Path(tmp) / "panel", fmt=fmt)
        want = read_panel(Path(tmp) / "panel")
        stored = dataio.StoredPanel(Path(tmp) / "panel")
        with dataio.PanelSpool(Path(tmp) / "out", stored.years,
                               stored.n_agents, stored.seed) as spool:
            dataio.spool_panel(stored, spool)
            row = np.empty(n_agents)
            for t, year in enumerate(want.years.tolist()):
                spool.read(t, 0, row[None])
                assert row.tobytes() == want.column(year).tobytes()
        assert list((Path(tmp) / "out").iterdir()) == []
    if fmt == "npy":
        assert np.array_equal(want.incomes, panel.incomes)


@pytest.mark.parametrize("array", [
    lambda x: np.asfortranarray(x), lambda x: x.astype(np.float32),
    lambda x: x[:, :-1], lambda x: x.astype(">f8"),
])
def test_npy_incomes_other_than_written_are_rejected(tmp_path, array):
    panel = _panel(5, 3)
    write_panel(panel, tmp_path)
    np.save(tmp_path / "panel_incomes.npy", array(panel.incomes))
    with pytest.raises(DataError, match="panel_incomes.npy"):
        read_panel(tmp_path)


def _mutate(name: str, data: bytes, draw) -> bytes:
    """A change to one panel file that read_panel must reject.

    Truncation (for the metadata: at least its closing brace), trailing
    bytes, a broken ``.npy`` magic string, a non-finite income, a shifted
    year, garbage metadata, or a metadata value of the wrong type.
    """
    kinds = ["truncate"]
    if name.endswith(".npy"):
        kinds += ["append", "magic"]
    kinds.append({"panel_incomes.npy": "non_finite",
                  "panel_years.npy": "shift_year",
                  "panel_meta.json": "garbage"}[name])
    if name == "panel_meta.json":
        kinds.append("wrong_type")
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        keep = len(data) - (2 if name.endswith(".json") else 1)
        return data[:draw(st.integers(0, keep))]
    if kind == "append":
        return data + draw(st.binary(min_size=1, max_size=16))
    if kind == "magic":
        pos = draw(st.integers(0, 5))
        byte = draw(st.integers(0, 255).filter(lambda b: b != data[pos]))
        return data[:pos] + bytes([byte]) + data[pos + 1:]
    if kind == "non_finite":
        header = _npy_header_len(data)
        pos = header + 8 * draw(st.integers(0, (len(data) - header) // 8 - 1))
        value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        return data[:pos] + np.float64(value).tobytes() + data[pos + 8:]
    if kind == "shift_year":
        header = _npy_header_len(data)
        pos = header + 8 * draw(st.integers(0, (len(data) - header) // 8 - 1))
        year = int(np.frombuffer(data[pos:pos + 8], dtype=np.int64)[0])
        year += draw(st.integers(-5, 5).filter(bool))
        return data[:pos] + np.int64(year).tobytes() + data[pos + 8:]
    if kind == "garbage":
        return draw(st.binary(max_size=40))
    meta = json.loads(data)
    key = draw(st.sampled_from(sorted(meta)))
    bad = st.one_of(st.none(), st.lists(st.integers(), max_size=2))
    if key != "fingerprint":  # any string is a valid fingerprint
        bad = st.one_of(bad, st.sampled_from(["x1", "1e3x", ""]))
    if key == "format":
        bad = st.one_of(bad, st.just("parquet"))
    meta[key] = draw(bad)
    return json.dumps(meta).encode()


def _npy_header_len(data: bytes) -> int:
    f = io.BytesIO(data)
    np.lib.format.read_magic(f)
    np.lib.format.read_array_header_1_0(f)
    return f.tell()


@SETTINGS
@given(n_agents=st.integers(2, 20), n_years=st.integers(1, 6),
       name=st.sampled_from(FILES), data=st.data())
def test_damaged_panel_files_raise_data_error(n_agents, n_years, name, data):
    with tempfile.TemporaryDirectory() as tmp:
        write_panel(_panel(n_agents, n_years), tmp)
        path = Path(tmp) / name
        path.write_bytes(_mutate(name, path.read_bytes(), data.draw))
        with pytest.raises(DataError):
            read_panel(tmp)


@SETTINGS
@given(n_agents=st.integers(2, 20), n_years=st.integers(2, 6),
       name=st.sampled_from(FILES), data=st.data())
def test_damaged_panel_files_fail_metrics_before_any_report(n_agents, n_years,
                                                            name, data):
    # metrics streams the stored panel into its spool, so every check
    # must fire in that pass: exit 3 with a data error, no traceback, and
    # nothing left in --out, neither the spool nor a report
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_panel(_panel(n_agents, n_years), tmp / "panel")
        path = tmp / "panel" / name
        path.write_bytes(_mutate(name, path.read_bytes(), data.draw))
        last = 1990 + n_years - 1
        (tmp / "hcr.csv").write_text("year,hcr\n" + "".join(
            f"{y},0.5\n" for y in range(1990, last + 1)))
        (tmp / "cfg.txt").write_text(
            f"panel_dir = {tmp / 'panel'}\nhcr_a = {tmp / 'hcr.csv'}\n"
            f"pool_periods = 1990-{last}\n")
        out = tmp / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["metrics", "--config", str(tmp / "cfg.txt"),
                         "--out", str(out)])
        assert code == EXIT_DATA
        assert err.getvalue().startswith(
            "metrics aborted in stage 'metrics'\ndata error: ")
        assert "Traceback" not in err.getvalue()
        assert not out.exists() or list(out.iterdir()) == []


def test_npy_header_with_a_bytes_key_is_data_error(tmp_path):
    # a byte turned into "b" can make a header key a bytes literal; NumPy
    # then fails sorting the keys with a TypeError
    write_panel(_panel(6, 3), tmp_path)
    path = tmp_path / "panel_incomes.npy"
    raw = path.read_bytes()
    assert raw.count(b" 'shape'") == 1
    path.write_bytes(raw.replace(b" 'shape'", b"b'shape'"))
    with pytest.raises(DataError, match="unreadable .npy header"):
        read_panel(tmp_path)


@SETTINGS
@given(name=st.sampled_from(FILES), data=st.data())
def test_any_byte_damage_is_data_error_or_a_panel(name, data):
    """Overwriting any bytes never ends in an exception other than
    DataError; damage the reader cannot see (a changed payload digit)
    still gives a well-formed panel."""
    with tempfile.TemporaryDirectory() as tmp:
        write_panel(_panel(6, 3), tmp)
        path = Path(tmp) / name
        raw = bytearray(path.read_bytes())
        pos = data.draw(st.integers(0, len(raw) - 1))
        patch = data.draw(st.binary(min_size=1, max_size=8))
        raw[pos:pos + len(patch)] = patch
        path.write_bytes(bytes(raw))
        try:
            panel = read_panel(tmp)
        except DataError:
            return
        assert panel.incomes.shape == (panel.n_agents, len(panel.years))


def test_npy_header_with_a_bad_escape_is_data_error_without_a_warning(
        tmp_path):
    # NumPy parses the header as a Python literal, and compiling '\:8'
    # warns of an invalid escape sequence before the parse fails
    write_panel(_panel(6, 3), tmp_path)
    path = tmp_path / "panel_incomes.npy"
    raw = path.read_bytes()
    assert raw.count(b"'<f8'") == 1
    path.write_bytes(raw.replace(b"'<f8'", b"'\\:8'"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DataError, match="unreadable .npy header"):
            read_panel(tmp_path)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_write_panel_stripes_blocks_over_at_most_two_generators(
        tmp_path, monkeypatch, threads):
    # write_panel(threads=t) makes min(t, 2) block generators, one per
    # writer thread, each with its two buffers: generator i takes blocks
    # i, i+w, i+2w, ... of the w generators, so every block is written
    # once, and the file holds np.save's bytes
    panel = _panel(23, 3)
    saved = io.BytesIO()
    np.save(saved, np.ascontiguousarray(panel.incomes))
    made, blocks = [], []
    agent_blocks = dataio._agent_blocks

    def counted(p, first, step):
        made.append((first, step))
        for a0, block in agent_blocks(p, first, step):
            blocks.append(a0)
            yield a0, block
    monkeypatch.setattr(dataio, "_agent_blocks", counted)
    monkeypatch.setattr(dataio, "_PANEL_BLOCK_BYTES", 2 * 8 * 3)  # 2 agents
    write_panel(panel, tmp_path, threads=threads)
    assert (tmp_path / "panel_incomes.npy").read_bytes() == saved.getvalue()
    w = min(threads, dataio._PANEL_WRITERS)
    assert sorted(made) == [(i, w) for i in range(w)]
    assert sorted(blocks) == list(range(0, 23, 2))


def test_paths_gathered_by_the_row_hook_equal_the_written_panel_rows(
        tmp_path, monkeypatch):
    # as in pipeline: each year goes to the spool by its row hook, the
    # striped writer writes the panel, and then every definition is
    # measured from the spool, the years before the later definition's
    # first read twice; every bundle holds its agents' rows of the
    # written panel, bit for bit
    panel = _panel(40, 5, seed=3)
    span = (panel.first_year, panel.last_year)
    accs = {f"from_{j}": PovertyAccumulator(
        AnnualSeries(panel.years[j:], [0.3] * (5 - j)), span, 6, 6)
        for j in (0, 2)}
    monkeypatch.setattr(dataio, "_PANEL_BLOCK_BYTES", 3 * 8 * 5)  # 3 agents
    with dataio.PanelSpool(tmp_path, panel.years, 40, 0) as spool:
        for year, row in zip(panel.years.tolist(), panel.incomes.T):
            spool(year, row)
        write_panel(spool, tmp_path, threads=3)
        _push_spooled(spool, accs)
    written = read_panel(tmp_path).incomes
    assert written.tobytes() == panel.incomes.tobytes()
    for acc in accs.values():
        got = acc.bundle(seed=0)
        want = sample_paths(panel, acc.line, 6, 6, seed=0)
        for field in ("below_agents", "above_agents", "below_paths",
                      "above_paths"):
            assert getattr(got, field).tobytes() == \
                getattr(want, field).tobytes()
        assert got.below_paths.tobytes() == \
            written[got.below_agents].tobytes()
        assert got.above_paths.tobytes() == \
            written[got.above_agents].tobytes()
