"""CSV/JSON ingestion and serialization with provenance.

Writers are deterministic: fixed row order, fixed float formatting (12
significant digits), UTF-8, '.' decimal separator. Undefined statistics
(NaN) serialize as empty CSV fields and JSON nulls. Every report file
opens with a comment line referencing the run-manifest digest.
"""

from __future__ import annotations

import csv
import json
import math
import os
import stat
import tokenize
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import asdict, dataclass, field
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


# SHA-256 from the interpreter's own module: hashlib would load OpenSSL,
# whose libcrypto puts 3.6 MB into every process (9% of what importing
# povdyn.cli costs) to digest a few KB of inputs and JSON. The built-in
# hash ran at 200-260 MB/s against OpenSSL's 1.2-1.45 GB/s on a 2-vCPU
# Xeon, about 0.5 s per 100 MB of input. hashlib stays the fallback for
# an interpreter built without the module
try:
    from _sha2 import sha256 as _sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256


def config_digest(mapping: dict) -> str:
    return _sha256(canonical_json(mapping).encode("utf-8")).hexdigest()


# bytes read per call while a file is digested
_DIGEST_BLOCK_BYTES = 64 << 10


def file_digest(path) -> str:
    """SHA-256 of a file's bytes; DataError when it cannot be read."""
    h = _sha256()
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
def _output_errors(path):
    """Any OSError inside the block becomes an OutputError that names the
    output file ``path``."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _open(path, mode: str):
    return (open(path, mode) if "b" in mode else
            open(path, mode, newline="", encoding="utf-8"))


@contextmanager
def _output(path, mode: str = "w"):
    """Open the output file ``path``: UTF-8 text for ``mode`` "w", binary
    for a ``mode`` with "b".

    A new file, or one that replaces a regular file, is written under the
    temporary sibling name ``.<name>.part``, which no report glob matches,
    and ``os.replace``-d onto ``path`` once it has closed cleanly: a run
    that fails while writing it leaves the file of an earlier run whole.
    On any error the temporary file is removed. Anything else at ``path``
    (a symlink, a pipe, a device such as ``/dev/stdout``) is written in
    place, since replacing it would cut the link or the reader off. Any
    OSError, the closing and the replace included, becomes an OutputError
    that names ``path``.
    """
    path = Path(path)
    part = path.with_name(f".{path.name}.part")
    with _output_errors(path):
        try:
            staged = stat.S_ISREG(os.lstat(path).st_mode)
        except FileNotFoundError:
            staged = True
        if not staged:
            with _open(path, mode) as f:
                yield f
            return
        try:
            with _open(part, mode) as f:
                yield f
            os.replace(part, path)
        except BaseException:
            with suppress(OSError):
                part.unlink(missing_ok=True)
            raise


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

# threads that write an ``npy`` panel at most, each with its two block
# buffers, however many threads the run has: while one thread writes its
# block the other reads and transposes its next, and the file system
# takes the writes to one file one at a time, so more threads would
# mostly add buffers (on 2 cores, 2 threads wrote a 400k x 61 panel in
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
    directory, which may be memory-backed. It has two accessors, both by
    (year, agent): :meth:`write` puts a year-major rectangle of incomes at
    its place and :meth:`read` fills one, each with one positional read or
    write per year, so threads that use it share no file position. As a
    row hook, ``spool(year, incomes)`` writes the year's row at its own
    place (``simulate`` and ``pipeline``, as the years are stepped). A
    stored panel, which arrives agents-major, is written one block of
    agents at a time (:func:`spool_panel`, for ``metrics``).
    :func:`write_panel` reads a spool back one block of agents at a time,
    and its two writer threads may read at once. ``metrics`` reads it one
    year at a time; so does ``pipeline``'s measuring process, forked
    inside the block with the file open, each year as soon as the fit
    has spooled it, while the fit writes the later years and the panel
    writer reads. Both so read back the years before the path agents are
    picked. The spool is written in place, not staged as :func:`_output`
    stages a report. The file is open inside the ``with`` block; leaving
    the block, by an error too, closes and deletes it, and any OSError
    inside it is an OutputError naming the spool. A forked process must
    not leave the block: ``pipeline``'s leaves through ``os._exit``.
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
        """Spool the incomes (N,) of ``year``, in any year order."""
        self.write(year - self.first_year, 0, incomes[None])

    def read(self, t: int, a0: int, out: np.ndarray) -> None:
        """Fill ``out`` ((m, k), year-major, each row contiguous) with the
        incomes of agents ``a0 .. a0+k-1`` in the ``t``-th to
        ``t+m-1``-th years: one ``os.preadv`` per year, at offset ``(t*N
        + a0)*8`` for the first."""
        fd = self._file.fileno()
        for i, row in enumerate(out, t):
            if os.preadv(fd, [row], (i * self.n_agents + a0) * 8) != \
                    row.nbytes:
                raise OSError(f"{self.path}: year {int(self.years[i])} "
                              "is cut short")

    def write(self, t: int, a0: int, rows: np.ndarray) -> None:
        """Write ``rows`` ((m, k), year-major, each row contiguous), the
        incomes of agents ``a0 .. a0+k-1`` in the ``t``-th to
        ``t+m-1``-th years, at their place: the inverse of :meth:`read`,
        one ``os.pwrite`` per year."""
        fd = self._file.fileno()
        for i, row in enumerate(rows, t):
            _pwrite_all(fd, row, (i * self.n_agents + a0) * 8)

    def __enter__(self) -> "PanelSpool":
        _output_dir(self.path.parent)
        # left in reverse: the file is closed, then deleted, and an OSError
        # of the block, the close or the delete names the spool
        with ExitStack() as stack:
            stack.enter_context(_output_errors(self.path))
            stack.callback(self.path.unlink, missing_ok=True)
            self._file = stack.enter_context(
                open(self.path, "w+b", buffering=0))
            self._exit = stack.pop_all()
        return self

    def __exit__(self, *exc) -> bool:
        return self._exit.__exit__(*exc)


def _agent_blocks(panel, first: int = 0, step: int = 1):
    """``(a0, block)`` for every ``step``-th block of a panel's agents from
    the ``first``-th, in agent order.

    ``block`` is the (k, T) agents-major incomes of agents ``a0 ..
    a0+k-1``: the panel's ``read`` fills a year-major buffer (see
    :meth:`PanelSpool.read`), which is transposed into the block buffer.
    The generator owns both buffers, about ``_PANEL_BLOCK_BYTES`` each, so
    no full-size copy is made, they stay the same size however many years
    the panel has, and the next block overwrites the last.
    """
    n_years = len(panel.years)
    k = _block_agents(panel.n_agents, n_years)
    buf, rows = np.empty((k, n_years)), np.empty(k * n_years)
    for a0 in range(first * k, panel.n_agents, step * k):
        block = buf[:min(k, panel.n_agents - a0)]
        by_year = rows[:block.size].reshape(block.shape[::-1])
        panel.read(0, a0, by_year)
        np.copyto(block, by_year.T)
        yield a0, block


def _pwrite_all(fd: int, data: np.ndarray, offset: int) -> None:
    """Write the bytes of the C-contiguous ``data`` to ``fd`` at
    ``offset``; ``os.pwrite`` may write fewer bytes than it is given."""
    view = memoryview(data).cast("B")
    while view:
        n = os.pwrite(fd, view, offset)
        view, offset = view[n:], offset + n


def write_panel(panel, out_dir, fmt: str = "npy", *, threads: int = 1
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
    ``_PANEL_BLOCK_BYTES`` each (see :func:`_agent_blocks`).

    An ``npy`` panel is written by ``w = min(threads, _PANEL_WRITERS)``
    threads of a pool made for this call: thread i writes blocks i, i+w,
    i+2w, ... with ``os.pwrite`` at their offsets in the file, so the
    blocks may land in any order. The pool is joined before the first
    error is raised, so no thread touches the file once this returns or
    raises. A ``csv`` panel is written in agent order by the calling
    thread. OutputError names a file or directory that cannot be written.
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
            fd, offset = f.fileno(), f.tell()
            n_years, w = len(panel.years), min(threads, _PANEL_WRITERS)

            def stripe(i: int) -> None:
                for a0, block in _agent_blocks(panel, i, w):
                    _pwrite_all(fd, block, offset + a0 * n_years * 8)
            with ThreadPoolExecutor(max_workers=w) as pool:
                tasks = [pool.submit(stripe, i) for i in range(w)]
            for task in tasks:
                task.result()
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
    JSON, lacks a key, holds a seed, agent count or year that is not a
    JSON integer or names an unknown format, when a panel file cannot
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
        for key in ("seed", "n_agents", "first_year", "last_year"):
            # what write_panel writes: a float, a bool or a string that
            # int() would take is a hand edit, and no panel of this seed
            if type(meta[key]) is not int:
                raise DataError(f"{meta_path}: {key} must be a JSON "
                                f"integer, not {meta[key]!r}")
        self.seed = meta["seed"]
        self.n_agents = n_agents = meta["n_agents"]
        first, last = meta["first_year"], meta["last_year"]
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
        row at a time (:meth:`_parse_rows`) into a buffer of
        ``_CSV_BLOCK_BYTES`` at most. Each block's incomes are checked to
        be finite before it is yielded.
        """
        n_agents, n_years = self.n_agents, len(self.years)
        csv_panel = self.format == "csv"
        k = _block_agents(n_agents, n_years, _CSV_BLOCK_BYTES if csv_panel
                          else _PANEL_BLOCK_BYTES)
        buf = np.empty((k, n_years))
        path = self.directory / ("panel.csv" if csv_panel
                                 else "panel_incomes.npy")
        try:
            with self._open() as f:
                for a0 in range(0, n_agents, k):
                    block = buf[:min(k, n_agents - a0)]
                    if csv_panel:
                        self._parse_rows(f, path, a0, block)
                    else:
                        _read_into(f, block, path)
                    self._check_finite(path, a0, block)
                    yield a0, block
                if csv_panel and next(f, None) is not None:
                    raise DataError(f"{path}:{f.line_num}: more than "
                                    f"{n_agents} agents")
        except (OSError, ValueError, IndexError, csv.Error) as exc:
            raise DataError(f"cannot read panel under {self.directory}: "
                            f"{exc}") from None

    def _parse_rows(self, reader, path: Path, a0: int, block: np.ndarray
                    ) -> None:
        """Fill ``block`` with the next agent rows of ``reader``, agents
        ``a0 ..``: row i's agent field must be i, and it must hold a value
        for each year."""
        for i, values in enumerate(block, a0):
            row = next(reader, None)
            if row is None:
                raise DataError(f"{path}: {i} agents, metadata says "
                                f"{self.n_agents}")
            where = f"{path}:{reader.line_num}"
            if row[:1] != [str(i)]:
                raise DataError(f"{where}: agent field {row[:1]}, "
                                f"expected {i}")
            if len(row) != len(values) + 1:
                raise DataError(f"{where}: agent {i} has {len(row) - 1} "
                                f"values, expected {len(values)}")
            values[:] = [float(v) for v in row[1:]]

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
    year-major buffer and written with :meth:`PanelSpool.write`, so
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
        spool.write(0, a0, by_year)


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

def _numeric_environment() -> dict:
    """What the written bits depend on beyond the inputs: the NumPy and
    SciPy versions and whether NumPy runs its AVX-512 (``X86_V4``)
    kernels in this process (null where NumPy has no such level)."""
    import scipy
    from numpy._core._multiarray_umath import __cpu_features__
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "x86_v4": __cpu_features__.get("X86_V4")}


@dataclass
class RunManifest:
    """Reproducibility record for one run.

    ``digest`` covers seed, config, inputs, and version (not the
    timestamp or the environment), so reruns with identical inputs
    produce identical digests. An input that cannot be read is recorded
    with a null digest: the stage that reads it raises the DataError, so
    that an unreadable file fails only what needs it. ``environment`` is
    the numeric environment of the run (:func:`_numeric_environment`),
    also outside the digest: NumPy's ``exp`` and its partition order, and
    so some written bits, differ between its AVX-512 and AVX2 kernels.
    """

    seed: int
    config: dict
    inputs: dict
    version: str
    timestamp: str
    digest: str
    environment: dict = field(default_factory=dict)

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
                   digest=digest, environment=_numeric_environment())

    def verify(self) -> bool:
        return self.digest == config_digest({
            "seed": self.seed, "config": self.config,
            "inputs": self.inputs, "version": self.version})


def write_manifest(manifest: RunManifest, path) -> None:
    write_json(asdict(manifest), path)


def read_manifest(path) -> RunManifest:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return RunManifest(**data)
