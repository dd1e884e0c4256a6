"""Property tests for the blocked panel writer and reader.

The panel lives year-major in memory and agents-major on disk; the
writer and the reader move it between the two one block of agents at a
time. These tests draw the panel shape and the block size, so panels
smaller than one block, one agent past a block and whole multiples of a
block all occur.
"""

import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from povdyn import dataio
from povdyn.dataio import read_panel, write_panel
from povdyn.errors import DataError
from povdyn.poverty import IncomePanel

SETTINGS = settings(max_examples=60, deadline=None)
FILES = ("panel_incomes.npy", "panel_years.npy", "panel_meta.json")


def _panel(n_agents, n_years, seed=0):
    rng = np.random.default_rng(seed)
    return IncomePanel(years=np.arange(1990, 1990 + n_years),
                       incomes=rng.normal(1.0, 2.0, (n_agents, n_years)),
                       seed=seed, fingerprint="f")


@SETTINGS
@given(n_agents=st.integers(2, 40), n_years=st.integers(1, 9),
       block=st.sampled_from([1, 3, 7, 16, dataio._PANEL_BLOCK]),
       seed=st.integers(0, 2**32 - 1))
@example(n_agents=2, n_years=1, block=dataio._PANEL_BLOCK, seed=0)
@example(n_agents=dataio._PANEL_BLOCK + 1, n_years=2,
         block=dataio._PANEL_BLOCK, seed=1)
def test_roundtrip_and_npy_bytes(n_agents, n_years, block, seed):
    panel = _panel(n_agents, n_years, seed)
    saved = io.BytesIO()
    np.save(saved, np.ascontiguousarray(panel.incomes))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dataio, "_PANEL_BLOCK", block):
        write_panel(panel, tmp)
        data = (Path(tmp) / "panel_incomes.npy").read_bytes()
        back = read_panel(tmp)
    assert data == saved.getvalue()  # so the SHA-256 is np.save's too
    assert np.array_equal(back.years, panel.years)
    assert np.array_equal(back.incomes, panel.incomes)
    assert back.incomes.shape == (n_agents, n_years)
    assert back.incomes.T.flags.c_contiguous
    assert (back.seed, back.fingerprint) == (panel.seed, panel.fingerprint)


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
