"""Year-indexed series: the common currency of inputs and outputs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator

import numpy as np

from .errors import DataError, ExtrapolationRefusedError


@dataclass(frozen=True, eq=False)
class AnnualSeries:
    """An ordered (year, value) series with strictly increasing years.

    Values must be finite; statistics that can be undefined are carried in
    report structures or a :class:`PartialSeries` (as NaN) rather than in
    this type.
    """

    years: np.ndarray   # int64, strictly increasing
    values: np.ndarray  # float64, finite
    _nan_allowed: ClassVar[bool] = False

    def __post_init__(self):
        years = np.asarray(self.years, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        if years.ndim != 1 or values.ndim != 1 or len(years) != len(values):
            raise DataError("years and values must be 1-D and equal length")
        if len(years) == 0:
            raise DataError("empty series")
        if np.any(np.diff(years) <= 0):
            raise DataError("years must be strictly increasing")
        defined = np.isfinite(values)
        if self._nan_allowed:
            defined |= np.isnan(values)
        if not np.all(defined):
            raise DataError("series values must be finite")
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "AnnualSeries":
        pairs = sorted(pairs)
        years = np.array([y for y, _ in pairs], dtype=np.int64)
        values = np.array([v for _, v in pairs], dtype=np.float64)
        return cls(years, values)

    def __len__(self) -> int:
        return len(self.years)

    def __iter__(self) -> Iterator[tuple[int, float]]:
        for y, v in zip(self.years, self.values):
            yield int(y), float(v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnnualSeries):
            return NotImplemented
        return (np.array_equal(self.years, other.years)
                and np.array_equal(self.values, other.values))

    @property
    def first_year(self) -> int:
        return int(self.years[0])

    @property
    def last_year(self) -> int:
        return int(self.years[-1])

    def value_at(self, year: int) -> float:
        i = np.searchsorted(self.years, year)
        if i >= len(self.years) or self.years[i] != year:
            raise KeyError(f"year {year} not in series")
        return float(self.values[i])

    def has_year(self, year: int) -> bool:
        i = np.searchsorted(self.years, year)
        return i < len(self.years) and self.years[i] == year

    def slice_years(self, first: int, last: int) -> "AnnualSeries":
        mask = (self.years >= first) & (self.years <= last)
        if not mask.any():
            raise DataError(f"no entries in {first}..{last}")
        return type(self)(self.years[mask], self.values[mask])

    def is_contiguous(self) -> bool:
        return bool(np.all(np.diff(self.years) == 1))


class PartialSeries(AnnualSeries):
    """An annual statistic that may be undefined in some years.

    An undefined year holds NaN, which the CSV writers render as an empty
    field; infinities are still rejected. Bottom-half shares are undefined
    in a year whose total income is not positive.
    """

    _nan_allowed = True


def missing_year_blocks(series: AnnualSeries) -> list[tuple[int, int]]:
    """Interior gaps as inclusive (start, end) year blocks."""
    blocks: list[tuple[int, int]] = []
    years = series.years
    for a, b in zip(years[:-1], years[1:]):
        if b - a > 1:
            blocks.append((int(a) + 1, int(b) - 1))
    return blocks


def interpolate_missing(series: AnnualSeries,
                        full_range: tuple[int, int] | None = None
                        ) -> AnnualSeries:
    """Fill interior missing years by linear interpolation.

    Present values are preserved exactly, so the operation is idempotent.
    ``full_range`` restricts the output span; it must lie inside the
    observed span because extrapolation is refused.
    """
    lo, hi = full_range if full_range is not None else (series.first_year,
                                                        series.last_year)
    if lo > hi:
        raise DataError(f"invalid year range {lo}..{hi}")
    if lo < series.first_year or hi > series.last_year:
        raise ExtrapolationRefusedError(
            f"range {lo}..{hi} extends beyond observed years "
            f"{series.first_year}..{series.last_year}; refusing to extrapolate"
        )
    all_years = np.arange(lo, hi + 1, dtype=np.int64)
    present = np.isin(all_years, series.years)
    filled = np.interp(all_years.astype(np.float64),
                       series.years.astype(np.float64), series.values)
    # keep observed points bit-exact regardless of interp rounding
    obs = series.slice_years(lo, hi)
    filled[present] = obs.values
    return AnnualSeries(all_years, filled)
