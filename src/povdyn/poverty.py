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
    """Per-agent poverty flags and consecutive-poor-year counters.

    :func:`classify` stores both arrays year-major, (t, n) C-contiguous;
    ``poor`` and ``duration`` are their transposed (n, t) views. The
    count table behind every transition, persistence and pooled
    statistic is built from them on first use and kept (see
    :func:`_count_table`), so the flags must not change afterwards.
    """

    years: np.ndarray       # int64, consecutive
    poor: np.ndarray        # (n, t) bool
    duration: np.ndarray    # (n, t) int32; 0 when non-poor
    _tail: np.ndarray | None = field(default=None, init=False, repr=False,
                                     compare=False)

    @property
    def n_agents(self) -> int:
        return self.poor.shape[0]

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


def classify(panel: IncomePanel, hcr: AnnualSeries, name: str = "poverty"
             ) -> tuple[PovertyLineSeries, PovertyPanel]:
    """Derive the poverty-line series and flag/duration panel from HCR data.

    The HCR years must be contiguous and lie inside the panel. Durations
    are left-censored: agents poor in the first classified year start at 1.
    """
    if not hcr.is_contiguous():
        raise NonContiguousSeriesError(
            "HCR series has gaps; run interpolation first")
    if hcr.first_year < panel.first_year or hcr.last_year > panel.last_year:
        raise DataError(
            f"HCR years {hcr.first_year}..{hcr.last_year} outside panel "
            f"years {panel.first_year}..{panel.last_year}"
        )
    n_years = len(hcr)
    z = np.empty(n_years)
    # year-major storage: every per-year read below is contiguous
    poor = np.empty((n_years, panel.n_agents), dtype=bool)
    for j, (year, h) in enumerate(hcr):
        col = panel.column(year)
        z[j] = _line(col, float(h))
        np.less(col, z[j], out=poor[j])
    duration = np.empty(poor.shape, dtype=np.int32)
    duration[0] = poor[0]
    for j in range(1, n_years):
        np.multiply(duration[j - 1] + 1, poor[j], out=duration[j])
    line = PovertyLineSeries(name=name, years=hcr.years.copy(), z=z)
    return line, PovertyPanel(years=hcr.years.copy(), poor=poor.T,
                              duration=duration.T)


def _count_table(pp: PovertyPanel) -> np.ndarray:
    """The spell-length count table of ``pp``, built on first use.

    Row ``j - 1`` describes the step from year index ``j - 1`` to ``j``:
    ``tail[j - 1, d, s]`` counts the agents whose spell length at ``j - 1``
    is at least ``d`` and whose status at ``j`` is ``s`` (0 non-poor,
    1 poor). Each row is the reverse cumulative sum over ``d`` of one
    ``bincount(duration[j - 1] * 2 + poor[j])``. Spell lengths at ``j - 1``
    never exceed ``j``, so the last column (``d = T``) is all zeros and
    every ``t_p >= T`` reads it.
    """
    if pp._tail is None:
        n_years = len(pp.years)
        # year-major rows: contiguous for panels built by classify
        duration, poor = pp.duration.T, pp.poor.T
        counts = np.zeros((max(n_years - 1, 0), n_years + 1, 2),
                          dtype=np.int64)
        key = np.empty(pp.n_agents, dtype=np.intp)
        for j in range(1, n_years):
            np.multiply(duration[j - 1], 2, out=key)
            key += poor[j]
            counts[j - 1] = np.bincount(
                key, minlength=counts[j - 1].size).reshape(-1, 2)
        pp._tail = np.ascontiguousarray(
            np.cumsum(counts[:, ::-1], axis=1)[:, ::-1])
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


def pooled_metrics(pp: PovertyPanel, period: tuple[int, int], t_p: int,
                   method: str = "counts") -> PooledMetrics:
    """Pool transition and persistence statistics over a year range.

    ``counts`` (default) sums numerators and denominators across years
    before dividing, weighting years by exposure; ``mean`` averages the
    defined annual probabilities instead.
    """
    first, last = int(period[0]), int(period[1])
    if first > last:
        raise DataError(f"invalid period {first}..{last}")
    y0 = int(pp.years[0])
    if first < y0 or last > pp.years[-1]:
        raise DataError(
            f"period {first}..{last} outside poverty panel years "
            f"{y0}..{int(pp.years[-1])}"
        )
    if method not in ("counts", "mean"):
        raise ValueError("method must be 'counts' or 'mean'")
    # evaluation years need a predecessor inside the panel
    if last <= y0:
        raise DataError(f"period {first}..{last} has no evaluable years")
    # table row i holds the step into year y0 + 1 + i
    rows = _count_table(pp)[max(first, y0 + 1) - y0 - 1:last - y0]

    if method == "counts":
        rows = rows.sum(axis=0)  # one row of counts summed over the years
        pool = float
    else:
        pool = _nanmean
    p_in, p_out, p_tx, _ = _transitions(rows)
    p_esc, p_stic = _persistence(rows, t_p)
    return PooledMetrics(
        first_year=first, last_year=last, t_p=t_p,
        p_in=pool(p_in), p_out=pool(p_out), p_tx=pool(p_tx),
        p_esc=pool(p_esc), p_stic=pool(p_stic),
    )


def _nanmean(values: np.ndarray) -> float:
    """Mean of the defined (non-NaN) values in year order; NaN if none."""
    values = values[~np.isnan(values)]
    return float(np.mean(values)) if len(values) else float("nan")


def gini(values) -> float:
    """Gini coefficient of a non-negative vector.

    Computed through the sorted form equivalent to
    sum_ij |x_i - x_j| / (2 n^2 mean). Callers floor negative values
    (the pairwise formula is not bounded in [0, 1] otherwise).
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("gini needs a non-empty 1-D vector")
    if np.any(x < 0):
        raise ValueError("gini inputs must be non-negative (floor first)")
    total = float(np.sum(x))
    if total <= 0:
        raise UndefinedGiniError("value sum must be positive")
    n = len(x)
    xs = np.sort(x)
    # 2i - n - 1 for i = 1..n; exact integers, so the step form is exact
    weights = np.arange(1.0 - n, n, 2.0)
    # mathematically >= 0; clamp the cancellation residue for equal values
    return max(float(np.dot(weights, xs) / (n * total)), 0.0)


def bpl_gini_series(panel: IncomePanel, pp: PovertyPanel) -> BplGiniReport:
    """Within-poor Gini per year, negatives floored to 0 and flagged."""
    n_years = len(pp.years)
    out = np.full(n_years, np.nan)
    flags = np.zeros(n_years, dtype=bool)
    for j, year in enumerate(pp.years):
        # compress: the same values as boolean indexing, several times
        # faster on an irregular mask
        subset = np.compress(pp.poor[:, j], panel.column(int(year)))
        if len(subset) == 0:
            continue
        flags[j] = bool(np.any(subset < 0))
        floored = np.maximum(subset, 0.0)
        if float(np.sum(floored)) > 0:
            out[j] = gini(floored)
    return BplGiniReport(years=pp.years.copy(), gini=out,
                         negatives_floored=flags)


def _nearest(col: np.ndarray, idx: np.ndarray, k: int,
             largest: bool) -> np.ndarray:
    """The ``k`` agents of ``idx`` with the largest (or smallest) values.

    Ties at the k-th value go to the highest indices when ``largest`` and
    to the lowest otherwise: the agents a stable sort of ``col`` puts
    nearest the line. ``idx`` is ascending and so is the result; fewer
    than ``k`` candidates returns them all.
    """
    if k >= len(idx):
        return idx
    if k == 0:
        return idx[:0]
    vals = col[idx]
    pos = len(vals) - k if largest else k - 1
    kth = np.partition(vals, pos)[pos]
    inside = vals > kth if largest else vals < kth
    ties = np.flatnonzero(vals == kth)
    need = k - int(np.count_nonzero(inside))
    ties = ties[len(ties) - need:] if largest else ties[:need]
    inside[ties] = True
    return idx[inside]


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
    year0 = int(line.years[0])
    col = panel.column(year0)
    is_below = col < line.z[0]
    below = _nearest(col, np.flatnonzero(is_below), k_below, largest=True)
    above = _nearest(col, np.flatnonzero(~is_below), k_above, largest=False)
    truncated = len(below) < k_below or len(above) < k_above
    if truncated:
        warnings.warn(
            f"only {len(below)} below / {len(above)} above the line at "
            f"{year0}; requested {k_below}/{k_above}"
        )
    return TrajectoryBundle(
        years=panel.years.copy(),
        line_years=line.years.copy(),
        line_values=line.z.copy(),
        below_agents=below,
        above_agents=above,
        below_paths=panel.incomes[below, :].copy(),
        above_paths=panel.incomes[above, :].copy(),
        seed=seed,
        truncated=truncated,
    )
