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
import os
import queue
import tokenize
import warnings
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import DataError, OutputError, SeriesFormatError
from .series import AnnualSeries

FLOAT_FMT = "%.12g"


def json_value(x: float):
    """JSON rendering: null for NaN/inf (JSON has no non-finite numbers)."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_digest(mapping: dict) -> str:
    return hashlib.sha256(canonical_json(mapping).encode("utf-8")).hexdigest()


# bytes read per call while a file is digested
_DIGEST_BLOCK_BYTES = 64 << 10


def file_digest(path) -> str:
    """SHA-256 of a file's bytes; DataError when it cannot be read."""
    h = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            # one reused buffer: f.read(n) would allocate n bytes per call
            buf = memoryview(bytearray(_DIGEST_BLOCK_BYTES))
            while n := f.readinto(buf):
                h.update(buf[:n])
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}"
                        ) from None
    return h.hexdigest()


# ---------------------------------------------------------------------------
# output files

@contextmanager
def _output(path, mode: str = "w"):
    """Open the output file ``path``: UTF-8 text for ``mode`` "w", binary
    for a ``mode`` with "b". Any OSError while it is open, its closing
    included, becomes an OutputError that names it."""
    path = Path(path)
    try:
        with (open(path, mode) if "b" in mode else
              open(path, mode, newline="", encoding="utf-8")) as f:
            yield f
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _output_dir(path) -> Path:
    """Create the output directory ``path`` if needed; OutputError if it
    cannot be made (a regular file stands there, say)."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create directory {path}: {exc}"
                          ) from exc
    return path


def _fields(values) -> tuple[list[str], list[bool]]:
    """The fields of a float array, flattened, and which are undefined:
    12 significant digits, or an empty field for NaN."""
    values = np.asarray(values, dtype=np.float64).ravel()
    undefined = np.isnan(values).tolist()
    return ["" if u else FLOAT_FMT % v
            for v, u in zip(values.tolist(), undefined)], undefined


def _matrix(lead, values: np.ndarray) -> tuple:
    """CSV columns: the ``lead`` fields, then one column of fields per
    column of the 2-D ``values``."""
    text, width = _fields(values)[0], values.shape[1]
    return (lead, *(text[c::width] for c in range(width)))


def _write_csv(path, header, blocks, manifest_digest: str | None = None
               ) -> None:
    """A CSV file: the ``# manifest:`` line (if a digest is given), the
    header, then each block of rows, given as columns of fields. The rows
    are streamed, never joined into one string, so a report takes no more
    memory than its columns. Row fields are ints, 12-digit numbers and
    fixed names, which never need quoting; the header may hold a caller's
    column name, so it goes through ``csv.writer``."""
    with _output(path) as f:
        if manifest_digest:
            f.write(f"# manifest: {manifest_digest}\n")
        csv.writer(f, lineterminator="\n").writerow(header)
        for columns in blocks:
            f.writelines(",".join(row) + "\n" for row in zip(*columns))


# ---------------------------------------------------------------------------
# annual series

# years are stored as int64
_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)


def _parse_series(path, year_col: str, value_col: str,
                  name_col: str | None = None
                  ) -> tuple[AnnualSeries, set[str]]:
    """One pass over a year-indexed CSV.

    Returns the series of ``value_col`` and the set of stripped values
    found in ``name_col`` (empty when the column is absent or not asked
    for). Errors name the file and, for a bad row, its line number.
    """
    path = Path(path)
    pairs: list[tuple[int, float]] = []
    seen: set[int] = set()
    names: set[str] = set()
    ni = header = None
    try:
        with open(path, newline="", encoding="utf-8") as f:
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
                    if name_col in header:
                        ni = header.index(name_col)
                    continue
                if ni is not None and len(row) > ni:
                    names.add(row[ni].strip())
                try:
                    year = int(row[yi].strip())
                    value = float(row[vi].strip())
                except (ValueError, IndexError) as exc:
                    raise SeriesFormatError(
                        f"{path}:{lineno}: malformed row {row!r}: {exc}"
                    ) from None
                if not _INT64_MIN <= year <= _INT64_MAX:
                    raise SeriesFormatError(
                        f"{path}:{lineno}: year {year} out of range")
                if not math.isfinite(value):
                    raise SeriesFormatError(
                        f"{path}:{lineno}: non-finite value for year {year}")
                if year in seen:
                    raise SeriesFormatError(
                        f"{path}:{lineno}: duplicate year {year}")
                seen.add(year)
                pairs.append((year, value))
    except UnicodeDecodeError as exc:
        raise SeriesFormatError(
            f"{path}: not UTF-8 text (byte {exc.start})") from None
    except csv.Error as exc:
        raise SeriesFormatError(f"{path}: {exc}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}"
                        ) from None
    if header is None:
        raise SeriesFormatError(f"{path}: empty file (no header row)")
    if not pairs:
        raise SeriesFormatError(f"{path}: no data rows")
    return AnnualSeries.from_pairs(pairs), names


def read_series(path, year_col: str = "year", value_col: str = "value"
                ) -> AnnualSeries:
    """Parse a year-indexed CSV column into an AnnualSeries.

    Requires a header row; rejects duplicate years and malformed rows with
    the offending line number. Lines starting with '#' are skipped. A file
    that cannot be read raises DataError, one that is not UTF-8 text
    SeriesFormatError.
    """
    return _parse_series(path, year_col, value_col)[0]


def read_hcr_file(path) -> tuple[AnnualSeries, str | None]:
    """Read an HCR CSV (year, hcr [, definition_name]).

    Returns the series and the in-file definition name, if the column is
    present and single-valued.
    """
    series, names = _parse_series(path, "year", "hcr",
                                  name_col="definition_name")
    if len(names) > 1:
        raise SeriesFormatError(
            f"{path}: multiple definition names {sorted(names)}; "
            "split into one file per definition"
        )
    return series, (names.pop() if names else None)


def write_series(series: AnnualSeries, path, value_col: str = "value",
                 manifest_digest: str | None = None) -> None:
    _write_csv(path, ["year", value_col],
               [_matrix(map(str, series.years.tolist()),
                        series.values[:, None])],
               manifest_digest)


# ---------------------------------------------------------------------------
# income panels

# bytes per block buffer when the panel moves between its year-major
# memory (or spool file) and the agents-major file: a block holds as many
# agents as fit, so its buffers stay the same size however many years the
# panel has. At 60 years 2 MiB is about 4,300 agents, and the spool is
# read in stretches of 34 KiB per year
_PANEL_BLOCK_BYTES = 2 << 20

# block readers, each with its two buffers, that a threaded panel write
# holds at most, whatever the pool's size: while one thread writes its
# block another reads and transposes the next, and the file system takes
# the writes to one file one at a time, so more readers would mostly
# add buffers (on 2 cores, 2 threads wrote a 400k x 61 panel in
# 0.07-0.08 s against 0.12-0.14 s for one)
_PANEL_WRITERS = 2

SPOOL_NAME = "panel_spool.tmp"


def _block_agents(n_agents: int, n_years: int,
                  nbytes: int | None = None) -> int:
    """Agents per block of a panel: as many as fill ``nbytes`` (default
    ``_PANEL_BLOCK_BYTES``) with their incomes of every year, at least one
    and at most all."""
    nbytes = _PANEL_BLOCK_BYTES if nbytes is None else nbytes
    return max(1, min(n_agents, nbytes // (8 * n_years)))


class PanelSpool:
    """An income panel spooled to disk year-major, never held in memory.

    The spool is ``panel_spool.tmp`` in the output directory, a (T, N)
    file of float64 rows. It goes beside the outputs, not to a temporary
    directory, which may be memory-backed. It is filled in one of two
    ways. As a row hook, ``spool(year, incomes)`` appends each year's
    incomes in year order (``simulate`` and ``pipeline``, as the years
    are stepped). A stored panel, which arrives agents-major, is written
    one block of agents at a time with :meth:`write_agents`
    (:func:`spool_panel`, for ``metrics``). :func:`write_panel` reads a
    spool back one block of agents at a time, one ``os.preadv`` per year
    into the block's year-major buffer, and several threads may read at
    once. ``metrics`` reads it one year at a time (:meth:`read_year`), and
    ``metrics`` and ``pipeline`` so read back the years before the path
    agents are picked. The file is open inside the ``with`` block;
    leaving the block, by an error too, closes and deletes it, and any
    OSError inside it is an OutputError naming the spool.
    ``fingerprint`` is set by the caller once the rates are known.
    """

    def __init__(self, out_dir, years: np.ndarray, n_agents: int,
                 seed: int):
        self.path = Path(out_dir) / SPOOL_NAME
        self.years = np.asarray(years, dtype=np.int64)
        self.n_agents = n_agents
        self.seed = seed
        self.fingerprint = ""

    @property
    def first_year(self) -> int:
        return int(self.years[0])

    @property
    def last_year(self) -> int:
        return int(self.years[-1])

    def __call__(self, year: int, incomes: np.ndarray) -> None:
        """Spool the incomes of the next year."""
        self._file.write(incomes)

    def read_agents(self, a0: int, out: np.ndarray) -> None:
        """Fill ``out`` ((T, k), year-major, each row contiguous) with the
        incomes of agents ``a0 .. a0+k-1``.

        One ``os.preadv`` per year reads the agents' stretch of that
        year's row straight into the row of ``out``.
        """
        self._file.flush()
        fd = self._file.fileno()
        row_bytes = self.n_agents * 8
        for t, row in enumerate(out):
            if os.preadv(fd, [row], t * row_bytes + a0 * 8) != row.nbytes:
                raise OSError(f"{self.path}: year {int(self.years[t])} "
                              "is cut short")

    def write_agents(self, a0: int, rows: np.ndarray) -> None:
        """Write ``rows`` ((T, k), year-major, each row contiguous), the
        incomes of agents ``a0 .. a0+k-1``, at their place in every year's
        row: one ``os.pwrite`` per year, the inverse of
        :meth:`read_agents`."""
        fd = self._file.fileno()
        row_bytes = self.n_agents * 8
        for t, row in enumerate(rows):
            _pwrite_all(fd, row, t * row_bytes + a0 * 8)

    def read_year(self, t: int, out: np.ndarray) -> None:
        """Fill ``out`` (N,) with the incomes of the ``t``-th year: one
        ``os.preadv``."""
        self._file.flush()
        if os.preadv(self._file.fileno(), [out], t * out.nbytes) != \
                out.nbytes:
            raise OSError(f"{self.path}: year {int(self.years[t])} "
                          "is cut short")

    def __enter__(self) -> "PanelSpool":
        _output_dir(self.path.parent)
        self._opened = _output(self.path, "w+b")
        self._file = self._opened.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        try:
            self._opened.__exit__(*exc)
        finally:
            self.path.unlink(missing_ok=True)


class _BlockReader:
    """Reads a panel's agents one block at a time, agents-major, into
    buffers of its own, so one reader serves one thread.

    ``reader(a0)`` is the (k, T) incomes of agents ``a0 .. a0+k-1``: the
    panel's ``read_agents`` fills a year-major buffer (see
    :meth:`PanelSpool.read_agents`), which is transposed into the block
    buffer. The block is overwritten by the next call.
    """

    def __init__(self, panel):
        self.panel = panel
        n_years = len(panel.years)
        self.k = _block_agents(panel.n_agents, n_years)
        self.block = np.empty((self.k, n_years))
        self.rows = np.empty(self.k * n_years)

    def __call__(self, a0: int) -> np.ndarray:
        block = self.block[:min(self.k, self.panel.n_agents - a0)]
        rows = self.rows[:block.size].reshape(block.shape[::-1])
        self.panel.read_agents(a0, rows)
        np.copyto(block, rows.T)
        return block


def _agent_blocks(panel):
    """``(a0, block)`` over a panel's agents in order, one block at a time:
    the order of a ``csv`` panel's rows, which have no fixed offsets.

    ``block`` is the (k, T) agents-major incomes of agents ``a0 ..
    a0+k-1``, read by one :class:`_BlockReader`, so no full-size copy is
    made and the buffers stay the same size however many years the panel
    has.
    """
    read = _BlockReader(panel)
    for a0 in range(0, panel.n_agents, read.k):
        yield a0, read(a0)


def _pwrite_all(fd: int, data: np.ndarray, offset: int) -> None:
    """Write the bytes of the C-contiguous ``data`` to ``fd`` at
    ``offset``; ``os.pwrite`` may write fewer bytes than it is given."""
    view = memoryview(data).cast("B")
    while view:
        n = os.pwrite(fd, view, offset)
        view, offset = view[n:], offset + n


def _write_blocks(panel, fd: int, offset: int, pool) -> None:
    """Write a panel's agents-major incomes to ``fd`` from ``offset`` on,
    one block of agents per task on the threads of ``pool``.

    A task takes one of at most ``_PANEL_WRITERS`` :class:`_BlockReader`
    objects, reads its block with it and writes the block with
    ``os.pwrite`` at its place in the file, so the blocks may land in any
    order. The readers are handed out last in, first out, so a reader is
    made only when every one made so far is in use: a one-worker pool
    makes one. After a failure the blocks not yet started are cancelled;
    every task is finished or cancelled before the first error is raised,
    so no thread touches ``fd`` once this returns.
    """
    readers = queue.LifoQueue()
    for _ in range(_PANEL_WRITERS):
        readers.put(None)  # made on first use
    n_years = len(panel.years)

    def write(a0: int) -> None:
        read = readers.get()
        try:
            if read is None:
                read = _BlockReader(panel)
            _pwrite_all(fd, read(a0), offset + a0 * n_years * 8)
        finally:
            readers.put(read)

    k = _block_agents(panel.n_agents, n_years)
    tasks = [pool.submit(write, a0) for a0 in range(0, panel.n_agents, k)]
    try:
        wait(tasks, return_when=FIRST_EXCEPTION)
    finally:
        for task in tasks:
            task.cancel()
        wait(tasks)
    for task in tasks:
        if not task.cancelled():
            task.result()


def write_panel(panel, out_dir, fmt: str = "npy", *, _pool=None
                ) -> list[Path]:
    """Persist an income panel plus its metadata sidecar.

    ``npy`` writes raw arrays (exact, compact); ``csv`` writes a matrix at
    12 significant digits (readable, lossy) for small panels. On disk the
    incomes are agents-major, one row per agent: ``panel_incomes.npy``
    holds the (N, T) C-order array, byte for byte what ``np.save`` of
    ``panel.incomes`` as a C-order array gives. ``panel`` is an
    ``IncomePanel``, whose year-major memory is transposed into the file
    one block of agents at a time, or a :class:`PanelSpool` inside its
    ``with`` block, whose file is transposed the same way (a blocked
    external transpose); a block's buffers take about
    ``_PANEL_BLOCK_BYTES`` each.

    An ``npy`` panel is written by the threads of the private ``_pool``,
    the run's executor (``simulate`` and ``pipeline`` pass their own), or
    of a one-worker pool made for this call: each block is written with
    ``os.pwrite`` at its offset in the file, in any order (see
    :func:`_write_blocks`). A ``csv`` panel is written in agent order by
    the calling thread. OutputError names a file or directory that cannot
    be written.
    """
    out_dir = _output_dir(out_dir)
    if fmt == "npy":
        written = [out_dir / "panel_years.npy", out_dir / "panel_incomes.npy"]
        with _output(written[0], "wb") as f:
            np.save(f, panel.years)
        header = {"descr": np.lib.format.dtype_to_descr(np.dtype(float)),
                  "fortran_order": False,
                  "shape": (panel.n_agents, len(panel.years))}
        with _output(written[1], "wb") as f:
            np.lib.format.write_array_header_1_0(f, header)
            f.flush()
            with (nullcontext(_pool) if _pool is not None else
                  ThreadPoolExecutor(max_workers=1)) as pool:
                _write_blocks(panel, f.fileno(), f.tell(), pool)
    elif fmt == "csv":
        written = [out_dir / "panel.csv"]
        _write_csv(written[0],
                   ["agent"] + [f"y{int(y)}" for y in panel.years],
                   (_matrix(map(str, range(a0, a0 + len(block))), block)
                    for a0, block in _agent_blocks(panel)))
    else:
        raise ValueError(f"unknown panel format {fmt!r}")
    meta = {
        "seed": panel.seed,
        "fingerprint": panel.fingerprint,
        "n_agents": panel.n_agents,
        "first_year": panel.first_year,
        "last_year": panel.last_year,
        "format": fmt,
    }
    written.append(out_dir / "panel_meta.json")
    with _output(written[-1]) as f:
        f.write(canonical_json(meta) + "\n")
    return written


_PANEL_META_KEYS = ("seed", "fingerprint", "n_agents", "first_year",
                   "last_year", "format")

# bytes per block buffer of a ``csv`` panel being read: each value is
# parsed on its own, which costs far more than the transposes and the
# writes that larger blocks would save, and a small buffer keeps
# read_panel's peak near the panel's own size
_CSV_BLOCK_BYTES = 64 << 10


def _check_npy_header(f, path: Path, dtype, shape: tuple[int, ...]) -> None:
    """Check the header and size of the ``.npy`` file open as ``f``.

    The file must be what ``np.save`` writes for a C-order array of
    ``shape`` and ``dtype``, with nothing after the data; ``f`` is left
    at the first data byte.
    """
    try:
        if np.lib.format.read_magic(f) != (1, 0):
            raise ValueError("unsupported .npy format version")
        # NumPy parses the header as a Python literal: a damaged one can
        # warn (an invalid escape) before it fails, and only the error counts
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            file_shape, fortran_order, file_dtype = \
                np.lib.format.read_array_header_1_0(f)
    except (ValueError, TypeError, SyntaxError, tokenize.TokenError) as exc:
        raise DataError(f"{path}: unreadable .npy header ({exc})") from None
    if file_dtype != dtype or file_shape != shape or fortran_order:
        order = "Fortran" if fortran_order else "C"
        raise DataError(f"{path}: holds {file_dtype} {file_shape} in "
                        f"{order} order, expected {np.dtype(dtype)} {shape} "
                        "in C order")
    size = os.fstat(f.fileno()).st_size - f.tell()
    if size != math.prod(shape) * np.dtype(dtype).itemsize:
        raise DataError(f"{path}: {size} data bytes, expected "
                        f"{math.prod(shape)} x {np.dtype(dtype).itemsize}")


def _read_into(f, out: np.ndarray, path: Path) -> None:
    if f.readinto(out) != out.nbytes:
        raise DataError(f"{path}: file ended early")


class StoredPanel:
    """A panel written by :func:`write_panel`, read one block of agents at
    a time.

    Making one reads and checks ``panel_meta.json`` and, for an ``npy``
    panel, ``panel_years.npy``, and checks the head of the incomes file:
    the ``.npy`` header and the file's size, or the ``csv`` header row and
    that the file is long enough for the metadata's agents. So a panel
    whose metadata or headers are wrong is refused before anything is
    written. :meth:`blocks` then reads the incomes, agents-major as they
    are stored, and checks the rest. ``years``, ``n_agents``, ``seed`` and
    ``fingerprint`` are the metadata's.

    Raises DataError when the metadata is missing, unreadable, not valid
    JSON, lacks a key or names an unknown format, when a panel file cannot
    be read or parsed, is cut short or runs on past its data, when the
    files disagree with the metadata on the agent count, the year range or
    the element type (``int64`` years, ``float64`` incomes), when a
    ``csv`` panel's year headers or agent fields are not the metadata's
    years and 0, 1, 2, ... in order, and when an income is not finite.
    """

    def __init__(self, directory):
        directory = self.directory = Path(directory)
        meta_path = directory / "panel_meta.json"
        if not meta_path.exists():
            raise DataError(f"no panel_meta.json under {directory}")
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise DataError(f"cannot read {meta_path}: {exc.strerror or exc}"
                            ) from None
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
        if not isinstance(meta["fingerprint"], str):
            raise DataError(f"{meta_path}: fingerprint must be a string")
        try:
            self.seed = int(meta["seed"])
            self.n_agents = n_agents = int(meta["n_agents"])
            first, last = int(meta["first_year"]), int(meta["last_year"])
        except (ValueError, TypeError) as exc:
            raise DataError(f"{meta_path}: bad value ({exc})") from None
        n_years = last - first + 1
        if n_years < 1 or n_agents < 0:
            raise DataError(f"{meta_path}: {n_agents} agents over years "
                            f"{first}..{last}")
        self.fingerprint = meta["fingerprint"]
        self.format = meta["format"]
        self.first_year, self.last_year = first, last
        try:
            if self.format == "npy":
                path = directory / "panel_years.npy"
                with open(path, "rb") as f:
                    _check_npy_header(f, path, np.int64, (n_years,))
                    years = np.empty(n_years, dtype=np.int64)
                    _read_into(f, years, path)
            with self._open():  # the head of the incomes file
                pass
        except (OSError, ValueError, csv.Error) as exc:
            raise DataError(f"cannot read panel under {directory}: {exc}"
                            ) from None
        # sized by the files checked above, not by the metadata alone
        self.years = np.arange(first, last + 1, dtype=np.int64)
        if self.format == "npy" and not np.array_equal(years, self.years):
            raise DataError(
                f"{directory}: panel years do not match the metadata range "
                f"{first}..{last}")

    @contextmanager
    def _open(self):
        """The incomes file, its head checked, at the first agent: the
        binary file of an ``npy`` panel, a ``csv.reader`` of a ``csv``
        one."""
        n_agents = self.n_agents
        n_years = self.last_year - self.first_year + 1
        if self.format == "npy":
            path = self.directory / "panel_incomes.npy"
            with open(path, "rb") as f:
                _check_npy_header(f, path, np.float64, (n_agents, n_years))
                yield f
            return
        path = self.directory / "panel.csv"
        with open(path, newline="", encoding="utf-8") as f:
            # a field and its separator take two bytes at least: a file
            # too short for the metadata's years and agents is refused
            # before its header is built
            if os.fstat(f.fileno()).st_size < \
                    2 * (n_years + 1) * (n_agents + 1):
                raise DataError(f"{path}: too short for {n_agents} agents "
                                f"over {n_years} years")
            reader = csv.reader(f)
            header = ["agent"] + [f"y{y}" for y in
                                  range(self.first_year, self.last_year + 1)]
            if next(reader, None) != header:
                raise DataError(f"{path}:1: header is not agent, "
                                f"{header[1]}..{header[-1]}")
            yield reader

    def blocks(self):
        """``(a0, block)`` over the agents in order: ``block`` is the (k,
        T) agents-major incomes of agents ``a0 .. a0+k-1``, in one buffer
        that the next block overwrites. An ``npy`` block is one read of
        ``_PANEL_BLOCK_BYTES`` at most; a ``csv`` block is parsed one agent
        row at a time into a buffer of ``_CSV_BLOCK_BYTES`` at most. Each
        block's incomes are checked to be finite before it is yielded.
        """
        n_agents, n_years = self.n_agents, len(self.years)
        csv_panel = self.format == "csv"
        k = _block_agents(n_agents, n_years, _CSV_BLOCK_BYTES if csv_panel
                          else _PANEL_BLOCK_BYTES)
        buf = np.empty((k, n_years))
        try:
            with self._open() as f:
                if csv_panel:
                    yield from self._csv_blocks(f, buf)
                    return
                path = self.directory / "panel_incomes.npy"
                for a0 in range(0, n_agents, k):
                    block = buf[:min(k, n_agents - a0)]
                    _read_into(f, block, path)
                    self._check_finite(path, a0, block)
                    yield a0, block
        except (OSError, ValueError, IndexError, csv.Error) as exc:
            raise DataError(f"cannot read panel under {self.directory}: "
                            f"{exc}") from None

    def _csv_blocks(self, reader, buf: np.ndarray):
        """The blocks of :meth:`blocks` from the agent rows of ``reader``;
        row i's agent field must be i, and it must hold a value for each
        year."""
        path = self.directory / "panel.csv"
        n_agents, k = self.n_agents, len(buf)
        i = -1
        for i, row in enumerate(reader):
            where = f"{path}:{reader.line_num}"
            if i == n_agents:
                raise DataError(f"{where}: more than {n_agents} agents")
            if row[:1] != [str(i)]:
                raise DataError(f"{where}: agent field {row[:1]}, "
                                f"expected {i}")
            if len(row) != buf.shape[1] + 1:
                raise DataError(f"{where}: agent {i} has {len(row) - 1} "
                                f"values, expected {buf.shape[1]}")
            buf[i % k] = [float(v) for v in row[1:]]
            if i % k == k - 1:
                self._check_finite(path, i + 1 - k, buf)
                yield i + 1 - k, buf
        if i + 1 != n_agents:
            raise DataError(f"{path}: {i + 1} agents, metadata says "
                            f"{n_agents}")
        if n_agents % k:
            block = buf[:n_agents % k]
            self._check_finite(path, n_agents - len(block), block)
            yield n_agents - len(block), block

    def _check_finite(self, path: Path, a0: int, block: np.ndarray) -> None:
        """DataError naming the file, the agent and the year of the first
        income of ``block`` (agents ``a0 ..``) that is not finite."""
        if not np.isfinite(block).all():
            i, t = np.argwhere(~np.isfinite(block))[0].tolist()
            raise DataError(f"{path}: non-finite income {block[i, t]} of "
                            f"agent {a0 + i} in year {self.first_year + t}")


def spool_panel(stored: StoredPanel, spool: PanelSpool) -> None:
    """Fill ``spool`` with the incomes of ``stored``: the blocked
    transpose of :func:`write_panel` run in reverse.

    Each block of :meth:`StoredPanel.blocks` is transposed into one reused
    year-major buffer and written with :meth:`PanelSpool.write_agents`, so
    every check of the stored files is made in this pass, and memory
    holds one block and its transpose whatever the panel's size. (The
    writes on a helper thread, beside the next block's read, were slower
    on two cores: 18-22 ms against 16-18 ms for a 10k x 121 panel.)
    """
    rows = np.empty(0)
    for a0, block in stored.blocks():
        if rows.size < block.size:  # the first block is the largest
            rows = np.empty(block.size)
        by_year = rows[:block.size].reshape(block.shape[::-1])
        np.copyto(by_year, block.T)
        spool.write_agents(a0, by_year)


def read_panel(directory):
    """Load a panel written by :func:`write_panel` into an
    :class:`~povdyn.poverty.IncomePanel`, for the library: no command
    holds a whole panel.

    The panel is read by :class:`StoredPanel`, which makes every check
    and raises its DataErrors, one block of agents at a time into the
    panel's year-major memory, so the panel is held once, beside one block
    buffer of ``_PANEL_BLOCK_BYTES`` at most (``_CSV_BLOCK_BYTES`` for a
    ``csv`` file).
    """
    from .poverty import IncomePanel

    stored = StoredPanel(directory)
    by_year = np.empty((len(stored.years), stored.n_agents))
    for a0, block in stored.blocks():
        by_year[:, a0:a0 + len(block)] = block.T
    return IncomePanel(years=stored.years, incomes=by_year.T,
                       seed=stored.seed, fingerprint=stored.fingerprint)


# ---------------------------------------------------------------------------
# metric reports

def _write_stats(path, keys, columns, manifest_digest: str | None
                 ) -> None:
    """A report from its columns: the integer ``keys``, then statistic,
    t_p and value, and a defined flag. A t_p of 0 or None is an empty
    field (no spell threshold); NaN is an empty value with defined=0."""
    *ints, statistics, t_ps, values = columns
    text, undefined = _fields(values)
    _write_csv(path, [*keys, "statistic", "t_p", "value", "defined"],
               [(*(map(str, np.asarray(c).tolist()) for c in ints),
                 statistics,
                 (str(t) if t else "" for t in np.asarray(t_ps).tolist()),
                 text, ("0" if u else "1" for u in undefined))],
               manifest_digest)


def write_report_csv(columns, path, manifest_digest: str | None = None
                     ) -> None:
    """Write report columns (year, statistic, t_p, value) with defined
    flags; empty columns produce a header-only file."""
    _write_stats(path, ["year"], columns, manifest_digest)


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


def write_pooled_csv(columns, path, manifest_digest: str | None = None
                     ) -> None:
    """Write period-pooled columns (first, last, statistic, t_p, value)."""
    _write_stats(path, ["period_start", "period_end"], columns,
                 manifest_digest)


def write_paths_csv(bundle, path, manifest_digest: str | None = None) -> None:
    """Plot-ready trajectory export: line plus one column per sampled agent."""
    line = dict(zip(bundle.line_years.tolist(), bundle.line_values.tolist()))
    years = bundle.years.tolist()
    values = np.column_stack([[line.get(y, math.nan) for y in years],
                              bundle.below_paths.T, bundle.above_paths.T])
    _write_csv(path, ["year", "poverty_line"]
               + [f"below_{int(a)}" for a in bundle.below_agents]
               + [f"above_{int(a)}" for a in bundle.above_agents],
               [_matrix(map(str, years), values)], manifest_digest)


def write_json(obj, path) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    with _output(path) as f:
        f.write(text)


# ---------------------------------------------------------------------------
# run manifest

@dataclass
class RunManifest:
    """Reproducibility record for one run.

    ``digest`` covers seed, config, inputs, and version (not the
    timestamp), so reruns with identical inputs produce identical digests.
    An input that cannot be read is recorded with a null digest: the
    stage that reads it raises the DataError, so that an unreadable file
    fails only what needs it.
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
        inputs = {}
        for path in sorted(map(str, input_paths)):
            try:
                inputs[path] = file_digest(path)
            except DataError:
                inputs[path] = None
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
