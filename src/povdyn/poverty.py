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
    """Full N x T income history of one simulation run."""

    years: np.ndarray    # int64, consecutive
    incomes: np.ndarray  # (n_agents, n_years) float64
    seed: int
    fingerprint: str

    def __post_init__(self):
        self.years = np.asarray(self.years, dtype=np.int64)
        self.incomes = np.ascontiguousarray(self.incomes, dtype=np.float64)
        if self.incomes.ndim != 2 or self.incomes.shape[1] != len(self.years):
            raise DataError("panel shape does not match year range")
        if np.any(np.diff(self.years) != 1):
            raise DataError("panel years must be consecutive")
        if not np.all(np.isfinite(self.incomes)):
            raise DataError("panel incomes must be finite")

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
    ``poor`` and ``duration`` are their transposed (n, t) views.
    """

    years: np.ndarray       # int64, consecutive
    poor: np.ndarray        # (n, t) bool
    duration: np.ndarray    # (n, t) int32; 0 when non-poor

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


def _ratio(num: int, den: int) -> float:
    return num / den if den > 0 else float("nan")


def poverty_line_from_hcr(pop, hcr: float) -> tuple[float, int]:
    """Poverty line reproducing a head count ratio on one income vector.

    Accepts a Population or a bare vector. Returns ``(z, poor_count)``
    where ``z`` is the (K+1)-th smallest income for K = round(hcr*N) and
    poor means strictly below ``z``. ``hcr = 1`` returns the +inf sentinel.
    """
    x = pop.incomes if isinstance(pop, Population) else np.asarray(pop)
    if not (0.0 <= hcr <= 1.0):
        raise ValueError(f"hcr must be in [0, 1], got {hcr!r}")
    n = len(x)
    k = int(np.floor(hcr * n + 0.5))
    if k >= n:
        return float("inf"), n
    z = float(np.partition(x, k)[k])
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
        z[j], _ = poverty_line_from_hcr(col, float(h))
        np.less(col, z[j], out=poor[j])
    duration = np.empty(poor.shape, dtype=np.int32)
    duration[0] = poor[0]
    for j in range(1, n_years):
        np.multiply(duration[j - 1] + 1, poor[j], out=duration[j])
    line = PovertyLineSeries(name=name, years=hcr.years.copy(), z=z)
    return line, PovertyPanel(years=hcr.years.copy(), poor=poor.T,
                              duration=duration.T)


def transition_probs(pp: PovertyPanel, t: int) -> TransitionProbs:
    """Annual in/out/crossing probabilities at year ``t`` (uses ``t-1``)."""
    j = pp.index_of(t)
    if j == 0:
        raise DataError(f"year {t - 1} not in poverty panel")
    prev = pp.poor[:, j - 1]
    cur = pp.poor[:, j]
    n_out = int(np.count_nonzero(prev & ~cur))
    n_in = int(np.count_nonzero(~prev & cur))
    n_p_prev = int(np.count_nonzero(prev))
    n_p_cur = int(np.count_nonzero(cur))
    n_np_prev = pp.n_agents - n_p_prev
    return TransitionProbs(
        p_in=_ratio(n_in, n_p_cur),
        p_out=_ratio(n_out, n_p_prev),
        p_tx=_ratio(n_in + n_out, n_p_cur + n_p_prev),
        p_in_at_risk=_ratio(n_in, n_np_prev),
    )


def persistence_probs(pp: PovertyPanel, t: int, t_p: int
                      ) -> tuple[float, float]:
    """(p_esc, p_stic) at year ``t`` for spell threshold ``t_p``.

    The duration condition dur >= t_p is evaluated at ``t-1``.
    """
    if not 1 <= t_p:
        raise ValueError("t_p must be >= 1")
    j = pp.index_of(t)
    if j == 0:
        raise DataError(f"year {t - 1} not in poverty panel")
    prev = pp.poor[:, j - 1]
    cur = pp.poor[:, j]
    long_spell = prev & (pp.duration[:, j - 1] >= t_p)
    n_esc = int(np.count_nonzero(long_spell & ~cur))
    n_stick = int(np.count_nonzero(long_spell & cur))
    n_np_cur = int(np.count_nonzero(~cur))
    n_p_cur = pp.n_agents - n_np_cur
    return _ratio(n_esc, n_np_cur), _ratio(n_stick, n_p_cur)


def transition_report(pp: PovertyPanel) -> TransitionReport:
    """Transition probabilities for every year with a predecessor."""
    years = pp.years[1:]
    cols = {k: np.empty(len(years)) for k in
            ("p_in", "p_out", "p_tx", "p_in_at_risk")}
    for i, year in enumerate(years):
        tr = transition_probs(pp, int(year))
        cols["p_in"][i] = tr.p_in
        cols["p_out"][i] = tr.p_out
        cols["p_tx"][i] = tr.p_tx
        cols["p_in_at_risk"][i] = tr.p_in_at_risk
    return TransitionReport(years=years.copy(), **cols)


def persistence_report(pp: PovertyPanel, tp_values=range(1, 11)
                       ) -> PersistenceReport:
    """Stickiness/escape probabilities per year for each spell threshold."""
    years = pp.years[1:]
    report = PersistenceReport(years=years.copy())
    for t_p in tp_values:
        stic = np.empty(len(years))
        esc = np.empty(len(years))
        for i, year in enumerate(years):
            esc[i], stic[i] = persistence_probs(pp, int(year), int(t_p))
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
    if first < pp.years[0] or last > pp.years[-1]:
        raise DataError(
            f"period {first}..{last} outside poverty panel years "
            f"{int(pp.years[0])}..{int(pp.years[-1])}"
        )
    if method not in ("counts", "mean"):
        raise ValueError("method must be 'counts' or 'mean'")
    # evaluation years need a predecessor inside the panel
    years = [y for y in range(first, last + 1) if y > pp.years[0]]
    if not years:
        raise DataError(f"period {first}..{last} has no evaluable years")

    if method == "mean":
        def nanmean(vals):
            vals = [v for v in vals if not np.isnan(v)]
            return float(np.mean(vals)) if vals else float("nan")
        trs = [transition_probs(pp, y) for y in years]
        pes = [persistence_probs(pp, y, t_p) for y in years]
        return PooledMetrics(
            first_year=first, last_year=last, t_p=t_p,
            p_in=nanmean([t.p_in for t in trs]),
            p_out=nanmean([t.p_out for t in trs]),
            p_tx=nanmean([t.p_tx for t in trs]),
            p_esc=nanmean([p[0] for p in pes]),
            p_stic=nanmean([p[1] for p in pes]),
        )

    sums = dict.fromkeys(
        ("n_in", "n_out", "n_p_prev", "n_p_cur", "n_np_cur",
         "n_esc", "n_stick"), 0)
    for y in years:
        j = pp.index_of(y)
        prev = pp.poor[:, j - 1]
        cur = pp.poor[:, j]
        long_spell = prev & (pp.duration[:, j - 1] >= t_p)
        sums["n_in"] += int(np.count_nonzero(~prev & cur))
        sums["n_out"] += int(np.count_nonzero(prev & ~cur))
        sums["n_p_prev"] += int(np.count_nonzero(prev))
        sums["n_p_cur"] += int(np.count_nonzero(cur))
        sums["n_np_cur"] += int(np.count_nonzero(~cur))
        sums["n_esc"] += int(np.count_nonzero(long_spell & ~cur))
        sums["n_stick"] += int(np.count_nonzero(long_spell & cur))
    return PooledMetrics(
        first_year=first, last_year=last, t_p=t_p,
        p_in=_ratio(sums["n_in"], sums["n_p_cur"]),
        p_out=_ratio(sums["n_out"], sums["n_p_prev"]),
        p_tx=_ratio(sums["n_in"] + sums["n_out"],
                    sums["n_p_cur"] + sums["n_p_prev"]),
        p_esc=_ratio(sums["n_esc"], sums["n_np_cur"]),
        p_stic=_ratio(sums["n_stick"], sums["n_p_cur"]),
    )


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
    weights = 2.0 * np.arange(1, n + 1) - n - 1.0
    # mathematically >= 0; clamp the cancellation residue for equal values
    return max(float(np.dot(weights, xs) / (n * total)), 0.0)


def bpl_gini_series(panel: IncomePanel, pp: PovertyPanel) -> BplGiniReport:
    """Within-poor Gini per year, negatives floored to 0 and flagged."""
    n_years = len(pp.years)
    out = np.full(n_years, np.nan)
    flags = np.zeros(n_years, dtype=bool)
    for j, year in enumerate(pp.years):
        subset = panel.column(int(year))[pp.poor[:, j]]
        if len(subset) == 0:
            continue
        flags[j] = bool(np.any(subset < 0))
        floored = np.maximum(subset, 0.0)
        if float(np.sum(floored)) > 0:
            out[j] = gini(floored)
    return BplGiniReport(years=pp.years.copy(), gini=out,
                         negatives_floored=flags)


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
    order = np.argsort(col, kind="stable")
    split = int(np.searchsorted(col[order], line.z[0], side="left"))
    below = order[max(0, split - k_below):split]
    above = order[split:split + k_above]
    truncated = len(below) < k_below or len(above) < k_above
    if truncated:
        warnings.warn(
            f"only {len(below)} below / {len(above)} above the line at "
            f"{year0}; requested {k_below}/{k_above}"
        )
    below = np.sort(below)
    above = np.sort(above)
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
