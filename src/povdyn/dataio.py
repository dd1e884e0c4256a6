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
import tokenize
from contextlib import contextmanager
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


def file_digest(path) -> str:
    """SHA-256 of a file's bytes; DataError when it cannot be read."""
    h = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
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

# agents per block when the panel moves between its year-major memory
# (or spool file) and the agents-major file. The block buffer (1024 x 60
# years: 480 KiB) stays small next to a panel of 10k agents; on a 2-core
# Xeon 1024 read and wrote a 400k x 60 panel as fast as any size from 256
# to 8192
_PANEL_BLOCK = 1024

SPOOL_NAME = "panel_spool.tmp"


class PanelSpool:
    """An income panel that arrives one year at a time, spooled to disk.

    A spool is a row hook: ``spool(year, incomes)`` appends each year's
    incomes, in year order, to ``panel_spool.tmp`` in the output
    directory as one float64 row: a year-major (T, N) file, never held in
    memory. It goes beside the outputs, not to a temporary directory,
    which may be memory-backed. :func:`write_panel` reads it back 1,024
    agents at a time with ``os.pread``. The file is open inside the
    ``with`` block; leaving the block, by an error too, closes and
    deletes it, and any OSError inside it is an OutputError naming the
    spool. ``fingerprint`` is set by the caller once the rates are known.
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
        """Fill ``out`` ((k, T), agents-major) with agents ``a0 .. a0+k-1``.

        One ``pread`` per year: the agents' stretch of that year's row.
        """
        self._file.flush()
        fd = self._file.fileno()
        row_bytes = self.n_agents * 8
        nbytes = out.shape[0] * 8
        for t in range(out.shape[1]):
            data = os.pread(fd, nbytes, t * row_bytes + a0 * 8)
            if len(data) != nbytes:
                raise OSError(f"{self.path}: year {int(self.years[t])} "
                              "is cut short")
            out[:, t] = np.frombuffer(data)

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


def _agent_blocks(panel, on_block=None):
    """``(a0, block)`` over a panel's agents, 1,024 at a time.

    ``block`` is the (k, T) agents-major incomes of agents ``a0 ..
    a0+k-1``, in one buffer reused for every block, so no full-size copy
    is made. An in-memory panel is transposed from its year-major rows;
    a :class:`PanelSpool` is read from its file. Each block is handed to
    ``on_block``, if given, before it is yielded.
    """
    n_agents, n_years = panel.n_agents, len(panel.years)
    buf = np.empty((min(_PANEL_BLOCK, n_agents), n_years))
    for a0 in range(0, n_agents, _PANEL_BLOCK):
        block = buf[:min(_PANEL_BLOCK, n_agents - a0)]
        if isinstance(panel, PanelSpool):
            panel.read_agents(a0, block)
        else:
            np.copyto(block, panel.incomes[a0:a0 + len(block)])
        if on_block is not None:
            on_block(a0, block)
        yield a0, block


def write_panel(panel, out_dir, fmt: str = "npy", on_block=None
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
    external transpose). Each block ``(a0, block)`` is also handed to
    ``on_block``, if given, before it is written; the buffer is reused
    for the next block. OutputError names a file or directory that
    cannot be written.
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
            for _, block in _agent_blocks(panel, on_block):
                f.write(block)
    elif fmt == "csv":
        written = [out_dir / "panel.csv"]
        _write_csv(written[0],
                   ["agent"] + [f"y{int(y)}" for y in panel.years],
                   (_matrix(map(str, range(a0, a0 + len(block))), block)
                    for a0, block in _agent_blocks(panel, on_block)))
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


def _check_npy_header(f, path: Path, dtype, shape: tuple[int, ...]) -> None:
    """Check the header and size of the ``.npy`` file open as ``f``.

    The file must be what ``np.save`` writes for a C-order array of
    ``shape`` and ``dtype``, with nothing after the data; ``f`` is left
    at the first data byte.
    """
    try:
        if np.lib.format.read_magic(f) != (1, 0):
            raise ValueError("unsupported .npy format version")
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


def _read_npy_panel(directory: Path, n_agents: int, n_years: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Years and year-major (T, N) incomes of an ``npy`` panel.

    The agents-major file is read one block of agents at a time into the
    year-major array, so only one full-size copy ever exists.
    """
    path = directory / "panel_years.npy"
    with open(path, "rb") as f:
        _check_npy_header(f, path, np.int64, (n_years,))
        years = np.empty(n_years, dtype=np.int64)
        _read_into(f, years, path)
    path = directory / "panel_incomes.npy"
    with open(path, "rb") as f:
        _check_npy_header(f, path, np.float64, (n_agents, n_years))
        by_year = np.empty((n_years, n_agents))
        buf = np.empty((min(_PANEL_BLOCK, n_agents), n_years))
        for a0 in range(0, n_agents, _PANEL_BLOCK):
            block = buf[:min(_PANEL_BLOCK, n_agents - a0)]
            _read_into(f, block, path)
            by_year[:, a0:a0 + len(block)] = block.T
    return years, by_year


def _read_csv_panel(directory: Path, years: np.ndarray, n_agents: int
                    ) -> np.ndarray:
    """Year-major (T, N) incomes of a ``csv`` panel, read one agent row at
    a time. The header must be ``agent`` and ``y<year>`` for each of
    ``years``, and row i's agent field must be i."""
    path = directory / "panel.csv"
    header = ["agent"] + [f"y{int(y)}" for y in years]
    with open(path, newline="", encoding="utf-8") as f:
        # a field and its separator take two bytes at least: a file too
        # short for the metadata's agents is refused before allocating
        if os.fstat(f.fileno()).st_size < 2 * len(header) * n_agents:
            raise DataError(f"{path}: too short for {n_agents} agents")
        reader = csv.reader(f)
        if next(reader, None) != header:
            raise DataError(f"{path}:1: header is not agent, "
                            f"{header[1]}..{header[-1]}")
        by_year = np.empty((len(years), n_agents))
        i = -1
        for i, row in enumerate(reader):
            where = f"{path}:{reader.line_num}"
            if i == n_agents:
                raise DataError(f"{where}: more than {n_agents} agents")
            if row[:1] != [str(i)]:
                raise DataError(f"{where}: agent field {row[:1]}, "
                                f"expected {i}")
            if len(row) != len(header):
                raise DataError(f"{where}: agent {i} has {len(row) - 1} "
                                f"values, expected {len(years)}")
            by_year[:, i] = [float(v) for v in row[1:]]
    if i + 1 != n_agents:
        raise DataError(f"{path}: {i + 1} agents, metadata says {n_agents}")
    return by_year


def read_panel(directory):
    """Load a panel written by :func:`write_panel`.

    The incomes land in the panel's year-major memory; an ``npy`` file is
    read one block of agents at a time and a ``csv`` file one agent row
    at a time, so the panel is never held twice. Raises DataError when
    the metadata is missing, unreadable, not valid JSON, lacks a key or
    names an unknown format, when a panel file cannot be read or parsed,
    is cut short or runs on past its data, when the arrays disagree with
    the metadata on the agent count, the year range or the element type
    (``int64`` years, ``float64`` incomes), and when a ``csv`` panel's
    year headers or agent fields are not the metadata's years and
    0, 1, 2, ... in order.
    """
    from .poverty import IncomePanel

    directory = Path(directory)
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
        seed = int(meta["seed"])
        n_agents = int(meta["n_agents"])
        first, last = int(meta["first_year"]), int(meta["last_year"])
    except (ValueError, TypeError) as exc:
        raise DataError(f"{meta_path}: bad value ({exc})") from None
    n_years = last - first + 1
    if n_years < 1 or n_agents < 0:
        raise DataError(f"{meta_path}: {n_agents} agents over years "
                        f"{first}..{last}")
    try:
        if meta["format"] == "npy":
            years, by_year = _read_npy_panel(directory, n_agents, n_years)
        else:
            years = np.arange(first, last + 1, dtype=np.int64)
            by_year = _read_csv_panel(directory, years, n_agents)
    except (OSError, ValueError, IndexError) as exc:
        raise DataError(f"cannot read panel under {directory}: {exc}"
                        ) from None
    # IncomePanel checks that the years are consecutive
    if int(years[0]) != first:
        raise DataError(
            f"{directory}: panel years do not match the metadata range "
            f"{first}..{last}")
    return IncomePanel(years=years, incomes=by_year.T, seed=seed,
                       fingerprint=meta["fingerprint"])


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
