"""Poverty classification, transitions, persistence, and within-poor Gini.

Poverty lines are read off the simulated income distribution: for a head
count ratio h the line is the (K+1)-th smallest income with K = round(h*N),
and "poor" means strictly below the line, so exactly K agents are poor
whenever incomes are tie-free. Transition and persistence statistics are
count ratios over consecutive years:

    p_out(t)       = N_{P->NP}(t) / N_P(t-1)
    p_in(t)        = N_{NP->P}(t) / N_P(t)
    p_tx(t)        = (N_{NP->P}(t) + N_{P->NP}(t)) / (N_P(t) + N_P(t-1))
    p_esc(t, d)    = N_{P->NP}(t, dur(t-1) >= d) / N_NP(t)
    p_stic(t, d)   = N_{P->P}(t, dur(t-1) >= d) / N_P(t)

Every count above comes from one integer table per poverty panel: for
each year t, the agents by spell length at t-1 and status at t (see
``_count_table``). N_P(t-1) is the sum over spell lengths >= 1, and the
counts with dur(t-1) >= d are tail sums over spell lengths, so all
thresholds, all years and every pooled period read the same table.

Zero denominators yield NaN markers ("undefined"), never 0: the writers
serialize them as nulls so "no poor population" stays distinct from
"no transitions".
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NonContiguousSeriesError, UndefinedGiniError
from .rgbm import Population
from .series import AnnualSeries


@dataclass
class IncomePanel:
    """Full N x T income history of one simulation run.

    Stored year-major: one C-contiguous (n_years, n_agents) array, so
    ``column(year)`` is a contiguous row. ``incomes`` is its (n_agents,
    n_years) ``.T`` view, with the shape and indexing of an agents-major
    matrix. An agents-major (N, T) C-order input is copied once; the
    ``.T`` view of a year-major float64 array is kept without a copy.
    """

    years: np.ndarray    # int64, consecutive
    incomes: np.ndarray  # (n_agents, n_years) float64 view of (T, N) rows
    seed: int
    fingerprint: str

    def __post_init__(self):
        self.years = np.asarray(self.years, dtype=np.int64)
        incomes = np.asarray(self.incomes, dtype=np.float64)
        if incomes.ndim != 2 or incomes.shape[1] != len(self.years):
            raise DataError("panel shape does not match year range")
        if np.any(np.diff(self.years) != 1):
            raise DataError("panel years must be consecutive")
        by_year = np.ascontiguousarray(incomes.T)
        # row by row: a whole-panel mask would cost N*T bytes at once
        if not all(np.isfinite(row).all() for row in by_year):
            raise DataError("panel incomes must be finite")
        self.incomes = by_year.T

    @property
    def n_agents(self) -> int:
        return self.incomes.shape[0]

    @property
    def first_year(self) -> int:
        return int(self.years[0])

    @property
    def last_year(self) -> int:
        return int(self.years[-1])

    def index_of(self, year: int) -> int:
        i = int(year) - self.first_year
        if not 0 <= i < len(self.years):
            raise KeyError(f"year {year} outside panel range")
        return i

    def column(self, year: int) -> np.ndarray:
        return self.incomes[:, self.index_of(year)]


@dataclass
class PovertyLineSeries:
    """Per-year poverty line in model units (+inf sentinel when HCR = 1)."""

    name: str
    years: np.ndarray
    z: np.ndarray


@dataclass
class PovertyPanel:
    """Per-agent poverty flags and the count table behind the statistics.

    :func:`classify` stores the flags year-major, (t, n) C-contiguous;
    ``poor`` is their transposed (n, t) view. ``duration``, the
    consecutive-poor-year counters, is computed from the flags each time
    it is read and not kept. The count table behind every transition,
    persistence and pooled statistic is built from the flags on first use
    and kept (see :func:`_count_table`), so the flags must not change
    afterwards. The panel of a :class:`PovertyAccumulator` holds only the
    count table, built year by year, and the agent count; its ``poor`` is
    ``None``, and what needs the flags raises ValueError.
    """

    years: np.ndarray          # int64, consecutive
    poor: np.ndarray | None    # (n, t) bool
    _tail: np.ndarray | None = field(default=None, repr=False, compare=False)
    _n_agents: int = field(default=0, repr=False, compare=False)

    @property
    def n_agents(self) -> int:
        return self._n_agents if self.poor is None else self.poor.shape[0]

    def _flags(self) -> np.ndarray:
        """``poor``; ValueError for a panel that keeps no flags."""
        if self.poor is None:
            raise ValueError("this poverty panel keeps no per-agent flags")
        return self.poor

    @property
    def duration(self) -> np.ndarray:
        """(n, t) int32 consecutive-poor-year counts; 0 when non-poor.

        Left-censored: agents poor in the first year start at 1. A new
        array, the transposed view of year-major storage, on every read.
        """
        flags = self._flags()
        by_year = np.empty(flags.T.shape, dtype=np.int32)
        prev = np.zeros(self.n_agents, dtype=np.int32)
        for row, poor in zip(by_year, flags.T):
            prev = _next_duration(prev, poor, out=row)
        return by_year.T

    def index_of(self, year: int) -> int:
        i = int(year) - int(self.years[0])
        if not 0 <= i < len(self.years):
            raise KeyError(f"year {year} outside poverty panel range")
        return i


@dataclass
class TransitionProbs:
    """Annual transition probabilities (NaN = undefined)."""

    p_in: float
    p_out: float
    p_tx: float
    # entries divided by the at-risk population N_NP(t-1) instead of N_P(t);
    # an alternative normalization, not the defining one
    p_in_at_risk: float


@dataclass
class TransitionReport:
    years: np.ndarray
    p_in: np.ndarray
    p_out: np.ndarray
    p_tx: np.ndarray
    p_in_at_risk: np.ndarray


@dataclass
class PersistenceReport:
    years: np.ndarray
    # t_p -> (p_stic per year, p_esc per year)
    by_tp: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


@dataclass
class PooledMetrics:
    """Count-pooled statistics over a year range (NaN = undefined)."""

    first_year: int
    last_year: int
    t_p: int
    p_in: float
    p_out: float
    p_tx: float
    p_esc: float
    p_stic: float


@dataclass
class BplGiniReport:
    years: np.ndarray
    gini: np.ndarray               # NaN when no poor or all floored to 0
    negatives_floored: np.ndarray  # bool per year


@dataclass
class TrajectoryBundle:
    """Income paths starting just below/above the first-year poverty line."""

    years: np.ndarray
    line_years: np.ndarray
    line_values: np.ndarray
    below_agents: np.ndarray
    above_agents: np.ndarray
    below_paths: np.ndarray  # (k_below, n_years)
    above_paths: np.ndarray
    seed: int
    truncated: bool = False


def _ratio(num, den) -> np.ndarray:
    """``num / den`` elementwise; NaN where ``den`` is 0 (undefined, not 0).

    Integer counts convert to float64 exactly, so each quotient is the
    correctly rounded ratio, the same as Python's ``int / int``.
    """
    den = np.asarray(den)
    out = np.full(den.shape, np.nan)
    np.divide(num, den, out=out, where=den > 0)
    return out


def _line(x: np.ndarray, hcr: float) -> float:
    """The poverty line of :func:`poverty_line_from_hcr`, without the count."""
    if not (0.0 <= hcr <= 1.0):
        raise ValueError(f"hcr must be in [0, 1], got {hcr!r}")
    n = len(x)
    k = int(np.floor(hcr * n + 0.5))
    if k >= n:
        return float("inf")
    return float(np.partition(x, k)[k])


def poverty_line_from_hcr(pop, hcr: float) -> tuple[float, int]:
    """Poverty line reproducing a head count ratio on one income vector.

    Accepts a Population or a bare vector. Returns ``(z, poor_count)``
    where ``z`` is the (K+1)-th smallest income for K = round(hcr*N) and
    poor means strictly below ``z``. ``hcr = 1`` returns the +inf sentinel.
    """
    x = pop.incomes if isinstance(pop, Population) else np.asarray(pop)
    z = _line(x, hcr)
    return z, int(np.count_nonzero(x < z))


def _check_hcr(hcr: AnnualSeries, first_year: int, last_year: int) -> None:
    """The HCR years must be contiguous and lie inside the panel's, and
    every head count must lie in [0, 1]."""
    if not hcr.is_contiguous():
        raise NonContiguousSeriesError(
            "HCR series has gaps; run interpolation first")
    if hcr.first_year < first_year or hcr.last_year > last_year:
        raise DataError(
            f"HCR years {hcr.first_year}..{hcr.last_year} outside panel "
            f"years {first_year}..{last_year}"
        )
    bad = ~((hcr.values >= 0.0) & (hcr.values <= 1.0))
    if bad.any():
        j = int(np.argmax(bad))
        raise DataError(f"head count ratio {float(hcr.values[j])!r} "
                        f"in year {int(hcr.years[j])} is outside [0, 1]")


def _classify_row(col: np.ndarray, hcr: float, out: np.ndarray) -> float:
    """The poverty line of one year; its poor flags go into ``out``."""
    z = _line(col, hcr)
    np.less(col, z, out=out)
    return z


def _next_duration(prev: np.ndarray, poor: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """Spell lengths of a year from the previous year's (zeros before the
    first), into ``out``; ``out`` may be ``prev``."""
    np.add(prev, 1, out=out)
    return np.multiply(out, poor, out=out)


class _Spells:
    """Spell lengths and the count table, fed one year of flags at a time.

    Keeps one int32 row of spell lengths, updated in place once the
    year's count row has read it, and the (T - 1, T + 1, 2) table of
    counts. Row ``j - 1`` of the table is ``bincount(duration[j - 1] * 2
    + poor[j])``: the agents by spell length at ``j - 1`` and status at
    ``j`` (0 non-poor, 1 poor).
    """

    def __init__(self, n_agents: int, n_years: int):
        self.counts = np.zeros((max(n_years - 1, 0), n_years + 1, 2),
                               dtype=np.int64)
        self._duration = np.zeros(n_agents, dtype=np.int32)
        self._j = 0

    def push(self, poor: np.ndarray) -> None:
        j = self._j
        if j:
            key = np.multiply(self._duration, 2, dtype=np.intp)
            key += poor
            self.counts[j - 1] = np.bincount(
                key, minlength=self.counts[j - 1].size).reshape(-1, 2)
        _next_duration(self._duration, poor, out=self._duration)
        self._j = j + 1

    def tail(self) -> np.ndarray:
        """The counts summed from the longest spell down (see
        :func:`_count_table`)."""
        return np.ascontiguousarray(
            np.cumsum(self.counts[:, ::-1], axis=1)[:, ::-1])


def classify(panel: IncomePanel, hcr: AnnualSeries, name: str = "poverty"
             ) -> tuple[PovertyLineSeries, PovertyPanel]:
    """Derive the poverty-line series and flag panel from HCR data.

    The HCR years must be contiguous and lie inside the panel, and every
    head count in [0, 1]; DataError (or NonContiguousSeriesError)
    otherwise. The flags are kept, one (T, N) bool array; durations are
    computed from them on request (see :class:`PovertyPanel`),
    left-censored: agents poor in the first classified year start at 1.
    :class:`PovertyAccumulator` gives the same lines and statistics
    without keeping any per-agent array.
    """
    _check_hcr(hcr, panel.first_year, panel.last_year)
    z = np.empty(len(hcr))
    # year-major storage: every per-year read is contiguous
    poor = np.empty((len(hcr), panel.n_agents), dtype=bool)
    for j, (year, h) in enumerate(hcr):
        z[j] = _classify_row(panel.column(year), float(h), out=poor[j])
    line = PovertyLineSeries(name=name, years=hcr.years.copy(), z=z)
    return line, PovertyPanel(years=hcr.years.copy(), poor=poor.T)


def _count_table(pp: PovertyPanel) -> np.ndarray:
    """The spell-length count table of ``pp``, built on first use.

    Row ``j - 1`` describes the step from year index ``j - 1`` to ``j``:
    ``tail[j - 1, d, s]`` counts the agents whose spell length at ``j - 1``
    is at least ``d`` and whose status at ``j`` is ``s`` (0 non-poor,
    1 poor). Each row is the reverse cumulative sum over ``d`` of one
    ``bincount(duration[j - 1] * 2 + poor[j])`` (see :class:`_Spells`).
    Spell lengths at ``j - 1`` never exceed ``j``, so the last column
    (``d = T``) is all zeros and every ``t_p >= T`` reads it.
    """
    if pp._tail is None:
        spells = _Spells(pp.n_agents, len(pp.years))
        for poor in pp._flags().T:  # year-major rows, contiguous from classify
            spells.push(poor)
        pp._tail = spells.tail()
    return pp._tail


def _row(pp: PovertyPanel, t: int) -> np.ndarray:
    """The count-table row for year ``t`` (which needs year ``t - 1``)."""
    j = pp.index_of(t)
    if j == 0:
        raise DataError(f"year {t - 1} not in poverty panel")
    return _count_table(pp)[j - 1]


def _transitions(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """(p_in, p_out, p_tx, p_in_at_risk) of one row or a stack of rows."""
    n_np_cur, n_p_cur = rows[..., 0, 0], rows[..., 0, 1]
    n_out, n_stay = rows[..., 1, 0], rows[..., 1, 1]
    n_p_prev = n_out + n_stay
    n_in = n_p_cur - n_stay
    n_np_prev = n_np_cur + n_p_cur - n_p_prev
    return (_ratio(n_in, n_p_cur), _ratio(n_out, n_p_prev),
            _ratio(n_in + n_out, n_p_cur + n_p_prev),
            _ratio(n_in, n_np_prev))


def _persistence(rows: np.ndarray, t_p: int) -> tuple[np.ndarray, ...]:
    """(p_esc, p_stic) of one row or a stack of rows for threshold t_p."""
    if not 1 <= t_p:
        raise ValueError("t_p must be >= 1")
    d = min(int(t_p), rows.shape[-2] - 1)
    return (_ratio(rows[..., d, 0], rows[..., 0, 0]),
            _ratio(rows[..., d, 1], rows[..., 0, 1]))


def transition_probs(pp: PovertyPanel, t: int) -> TransitionProbs:
    """Annual in/out/crossing probabilities at year ``t`` (uses ``t-1``)."""
    p_in, p_out, p_tx, p_in_at_risk = map(float, _transitions(_row(pp, t)))
    return TransitionProbs(p_in=p_in, p_out=p_out, p_tx=p_tx,
                           p_in_at_risk=p_in_at_risk)


def persistence_probs(pp: PovertyPanel, t: int, t_p: int
                      ) -> tuple[float, float]:
    """(p_esc, p_stic) at year ``t`` for spell threshold ``t_p``.

    The duration condition dur >= t_p is evaluated at ``t-1``.
    """
    p_esc, p_stic = _persistence(_row(pp, t), t_p)
    return float(p_esc), float(p_stic)


def transition_report(pp: PovertyPanel) -> TransitionReport:
    """Transition probabilities for every year with a predecessor."""
    p_in, p_out, p_tx, p_in_at_risk = _transitions(_count_table(pp))
    return TransitionReport(years=pp.years[1:].copy(), p_in=p_in,
                            p_out=p_out, p_tx=p_tx,
                            p_in_at_risk=p_in_at_risk)


def persistence_report(pp: PovertyPanel, tp_values=range(1, 11)
                       ) -> PersistenceReport:
    """Stickiness/escape probabilities per year for each spell threshold."""
    rows = _count_table(pp)
    report = PersistenceReport(years=pp.years[1:].copy())
    for t_p in tp_values:
        esc, stic = _persistence(rows, int(t_p))
        report.by_tp[int(t_p)] = (stic, esc)
    return report


def _check_period(period, first_year: int, last_year: int
                  ) -> tuple[int, int]:
    """A pool period as ``(first, last)``; DataError unless it runs forward
    inside the poverty years ``first_year..last_year`` past the first."""
    first, last = int(period[0]), int(period[1])
    if first > last:
        raise DataError(f"invalid period {first}..{last}")
    if first < first_year or last > last_year:
        raise DataError(f"period {first}..{last} outside poverty panel "
                        f"years {first_year}..{last_year}")
    if last <= first_year:  # no year with a predecessor to evaluate
        raise DataError(f"period {first}..{last} has no evaluable years")
    return first, last


def _pooled(pp: PovertyPanel, periods, t_ps, method: str) -> np.ndarray:
    """Pooled statistics of checked periods, one row per period: p_in,
    p_out and p_tx, then p_stic and p_esc for each threshold of ``t_ps``.

    ``counts`` sums each period's count rows once (int64, exact), then
    divides. ``mean`` averages each annual statistic's defined values in
    year order, as ``np.mean`` does (``add.reduce`` over the values alone:
    for fewer than 128 values the pairwise sum runs eight accumulators, so
    padding or masking in place would move the bits).
    """
    def stats(rows):  # along a new last axis
        persist = (p for t_p in t_ps for p in _persistence(rows, t_p)[::-1])
        return np.stack([*_transitions(rows)[:3], *persist], axis=-1)

    y0, table = int(pp.years[0]), _count_table(pp)
    # table row i holds the step into year y0 + 1 + i
    spans = [(max(first, y0 + 1) - y0 - 1, last - y0)
             for first, last in periods]
    if method == "counts":
        return stats(np.stack([table[lo:hi].sum(axis=0)
                               for lo, hi in spans]))
    annual = stats(table)
    out = np.empty((len(spans), annual.shape[1]))
    for i, (lo, hi) in enumerate(spans):
        for s, values in enumerate(annual[lo:hi].T):
            v = values[~np.isnan(values)]
            out[i, s] = np.add.reduce(v) / len(v) if len(v) else np.nan
    return out


def pooled_metrics(pp: PovertyPanel, period: tuple[int, int], t_p: int,
                   method: str = "counts") -> PooledMetrics:
    """Pool transition and persistence statistics over a year range.

    ``counts`` (default) sums numerators and denominators across years
    before dividing, weighting years by exposure; ``mean`` averages the
    defined annual probabilities instead.
    """
    first, last = _check_period(period, int(pp.years[0]),
                                int(pp.years[-1]))
    if method not in ("counts", "mean"):
        raise ValueError("method must be 'counts' or 'mean'")
    p_in, p_out, p_tx, p_stic, p_esc = _pooled(
        pp, [(first, last)], [t_p], method)[0].tolist()
    return PooledMetrics(first, last, t_p, p_in, p_out, p_tx, p_esc, p_stic)


def gini(values) -> float:
    """Gini coefficient of a non-negative vector.

    Computed through the sorted form equivalent to
    sum_ij |x_i - x_j| / (2 n^2 mean). Callers floor negative values
    (the pairwise formula is not bounded in [0, 1] otherwise). The
    weighted sum is a NumPy pairwise sum, not a BLAS dot product, so
    its bits do not depend on the BLAS thread count and no BLAS worker
    thread is woken.
    """
    x = np.array(values, dtype=np.float64)  # a private copy, sorted in place
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("gini needs a non-empty 1-D vector")
    if np.any(x < 0):
        raise ValueError("gini inputs must be non-negative (floor first)")
    total = float(np.sum(x))
    if total <= 0:
        raise UndefinedGiniError("value sum must be positive")
    return _gini(x, total)


def _gini(xs: np.ndarray, total: float) -> float:
    """The Gini of non-negative ``xs``, which it sorts in place, given
    their positive ``total``, summed before the sort."""
    xs.sort()
    n = len(xs)
    # 2i - n - 1 for i = 1..n; exact integers, so the step form is exact
    weights = np.arange(1.0 - n, n, 2.0)
    # mathematically >= 0; clamp the cancellation residue for equal values
    weighted = np.sum(np.multiply(weights, xs, out=weights))
    return max(float(weighted / (n * total)), 0.0)


def _bpl_gini(col: np.ndarray, poor: np.ndarray) -> tuple[float, bool]:
    """Within-poor Gini of one year and whether negatives were floored.

    NaN when no agent is poor or every poor income floors to 0.
    """
    # compress: the same values as boolean indexing, several times
    # faster on an irregular mask; a private copy, floored and sorted in
    # place
    subset = np.compress(poor, col)
    if len(subset) == 0:
        return math.nan, False
    floored = bool(np.any(subset < 0))
    np.maximum(subset, 0.0, out=subset)
    total = float(np.sum(subset))  # in compress order, as gini sums it
    if total > 0:
        return _gini(subset, total), floored
    return math.nan, floored


def bpl_gini_series(panel: IncomePanel, pp: PovertyPanel) -> BplGiniReport:
    """Within-poor Gini per year, negatives floored to 0 and flagged;
    ValueError for a panel without flags."""
    poor = pp._flags()
    out = np.full(len(pp.years), np.nan)
    flags = np.zeros(len(pp.years), dtype=bool)
    for j, year in enumerate(pp.years):
        out[j], flags[j] = _bpl_gini(panel.column(int(year)), poor[:, j])
    return BplGiniReport(years=pp.years.copy(), gini=out,
                         negatives_floored=flags)


def _nearest(col: np.ndarray, mask: np.ndarray, k: int,
             largest: bool) -> np.ndarray:
    """The ``k`` agents of ``mask`` with the largest (or smallest) values.

    Ties at the k-th value go to the highest indices when ``largest`` and
    to the lowest otherwise: the agents a stable sort of ``col`` puts
    nearest the line. The result is ascending; fewer than ``k`` flagged
    agents returns them all. ``col`` is finite, so the infinite fill of
    one masked copy never ranks among the ``k``.
    """
    if k >= np.count_nonzero(mask):
        return np.flatnonzero(mask)
    if k == 0:  # partition rejects kth == len
        return np.empty(0, dtype=np.intp)
    vals = np.where(mask, col, -np.inf if largest else np.inf)
    pos = len(vals) - k if largest else k - 1
    vals.partition(pos)
    kth = vals[pos]
    del vals  # freed before the masks: one copy at a time
    inside = np.greater(col, kth) if largest else np.less(col, kth)
    inside &= mask
    ties = np.flatnonzero(mask & (col == kth))
    need = k - int(np.count_nonzero(inside))
    ties = ties[len(ties) - need:] if largest else ties[:need]
    inside[ties] = True
    return np.flatnonzero(inside)


def _path_agents(col: np.ndarray, is_below: np.ndarray, k_below: int,
                 k_above: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k_below`` agents nearest below the line and the ``k_above``
    nearest at or above it; ``is_below`` flags ``col`` below the line."""
    return (_nearest(col, is_below, k_below, largest=True),
            _nearest(col, ~is_below, k_above, largest=False))


def _bundle(years: np.ndarray, line: PovertyLineSeries, below: np.ndarray,
            above: np.ndarray, below_paths: np.ndarray,
            above_paths: np.ndarray, k_below: int, k_above: int,
            seed: int) -> TrajectoryBundle:
    """The bundle of the selected agents; warns when it is short."""
    truncated = len(below) < k_below or len(above) < k_above
    if truncated:
        warnings.warn(
            f"only {len(below)} below / {len(above)} above the line at "
            f"{int(line.years[0])}; requested {k_below}/{k_above}"
        )
    return TrajectoryBundle(
        years=years.copy(),
        line_years=line.years.copy(),
        line_values=line.z.copy(),
        below_agents=below,
        above_agents=above,
        below_paths=below_paths,
        above_paths=above_paths,
        seed=seed,
        truncated=truncated,
    )


def sample_paths(panel: IncomePanel, line: PovertyLineSeries, k_above: int,
                 k_below: int, seed: int) -> TrajectoryBundle:
    """Extract income paths straddling the first-year poverty line.

    Selection is deterministic: the ``k_below`` agents ranked nearest below
    the line and ``k_above`` nearest at-or-above it in the line's first
    year. ``seed`` is recorded for provenance only. Fewer candidates than
    requested returns all available with a warning.
    """
    if k_above < 0 or k_below < 0:
        raise ValueError("path counts must be >= 0")
    if k_above + k_below > panel.n_agents:
        raise ValueError("requested more paths than agents")
    col = panel.column(int(line.years[0]))
    below, above = _path_agents(col, col < line.z[0], k_below, k_above)
    return _bundle(panel.years, line, below, above,
                   panel.incomes[below, :].copy(),
                   panel.incomes[above, :].copy(), k_below, k_above, seed)


class PovertyAccumulator:
    """Every statistic of one poverty-line definition, one row at a time.

    It is its definition's row hook: ``acc(year, incomes)`` takes the
    panel's years in order and pushes those of the HCR series. For each
    year :meth:`push` computes the poverty line (a partition), the poor
    flags, the spell lengths from the previous year's, the year's row of
    the count table and the within-poor Gini; in the first year it also
    picks the ``k_below`` and ``k_above`` agents of the path bundle, as
    :func:`sample_paths` does, and :meth:`gather` keeps their incomes for
    :meth:`bundle`. Per agent it keeps one bool row and one int32 row,
    whatever the number of years, so a panel that is never held whole
    (the pipeline's, stepped by the calibration) can be measured as it is
    made. The results equal those of :func:`classify`,
    :func:`transition_report`, :func:`persistence_report`,
    :func:`pooled_metrics`, :func:`bpl_gini_series` and
    :func:`sample_paths` on the whole panel, bit for bit; those functions
    run the same per-year steps.

    Raises DataError (or NonContiguousSeriesError) when the HCR years are
    not contiguous or leave ``panel_years`` (first, last), and when a head
    count lies outside [0, 1].
    """

    def __init__(self, hcr: AnnualSeries, n_agents: int,
                 panel_years: tuple[int, int], k_below: int = 0,
                 k_above: int = 0, name: str = "poverty"):
        _check_hcr(hcr, *panel_years)
        self.hcr = hcr
        self.years = np.arange(panel_years[0], panel_years[1] + 1,
                               dtype=np.int64)
        self.line = PovertyLineSeries(name=name, years=hcr.years.copy(),
                                      z=np.empty(len(hcr)))
        self.bpl = BplGiniReport(years=hcr.years.copy(),
                                 gini=np.full(len(hcr), np.nan),
                                 negatives_floored=np.zeros(len(hcr),
                                                            dtype=bool))
        self.k_below, self.k_above = k_below, k_above
        self.below = self.above = np.empty(0, dtype=np.intp)
        self._paths: tuple[np.ndarray, np.ndarray] | None = None
        self._poor = np.empty(n_agents, dtype=bool)
        self._spells = _Spells(n_agents, len(hcr))
        self._j = 0

    def __call__(self, year: int, incomes: np.ndarray) -> None:
        """Push ``incomes`` if ``year`` is an HCR year; skip it otherwise."""
        if self.hcr.first_year <= year <= self.hcr.last_year:
            self.push(incomes)

    def push(self, col: np.ndarray) -> None:
        """Take the incomes of the next HCR year; ValueError once every
        HCR year is in."""
        j = self._j
        if j == len(self.hcr):
            raise ValueError(f"all {j} HCR years already pushed")
        poor = self._poor
        self.line.z[j] = _classify_row(col, float(self.hcr.values[j]),
                                       out=poor)
        self._spells.push(poor)
        self.bpl.gini[j], self.bpl.negatives_floored[j] = _bpl_gini(col,
                                                                     poor)
        if j == 0:
            self.below, self.above = _path_agents(col, poor, self.k_below,
                                                  self.k_above)
        self._j = j + 1

    def poverty_panel(self) -> PovertyPanel:
        """The count table of every pushed year, as a flag-free panel."""
        if self._j != len(self.hcr):
            raise ValueError(f"{self._j} of {len(self.hcr)} HCR years pushed")
        return PovertyPanel(years=self.hcr.years.copy(), poor=None,
                            _tail=self._spells.tail(),
                            _n_agents=len(self._poor))

    def gather(self, a0: int, block: np.ndarray) -> None:
        """Keep the picked agents' incomes among the (k, T) agents-major
        ``block`` of agents ``a0 .. a0+k-1`` over the panel years;
        ``a0 == 0`` starts over."""
        if a0 == 0:
            self._paths = tuple(np.empty((len(agents), len(self.years)))
                                for agents in (self.below, self.above))
        for agents, rows in zip((self.below, self.above), self._paths):
            lo, hi = np.searchsorted(agents, (a0, a0 + len(block)))
            rows[lo:hi] = block[agents[lo:hi] - a0]  # agents ascending

    def bundle(self, seed: int) -> TrajectoryBundle:
        """The path bundle of the picked agents over the panel years, from
        the incomes :meth:`gather` kept; ValueError before any block."""
        if self._paths is None:
            raise ValueError("no block of the panel gathered")
        return _bundle(self.years, self.line, self.below, self.above,
                       *self._paths, self.k_below, self.k_above, seed)
