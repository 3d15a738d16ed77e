"""Empirical CDFs — the paper's Figure 4 presents error distributions as
CDFs over flows ("70% of flows have less than 10% relative errors...")."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["Ecdf"]


class Ecdf:
    """Empirical cumulative distribution over a sample of values."""

    def __init__(self, values: Iterable[float]):
        if not isinstance(values, np.ndarray):
            values = list(values)
        self._values = np.sort(np.asarray(values, dtype=float))
        if self._values.size == 0:
            raise ValueError("cannot build a CDF from an empty sample")

    def __len__(self) -> int:
        return int(self._values.size)

    @property
    def values(self) -> np.ndarray:
        return self._values

    def fraction_below(self, x: float) -> float:
        """P(X <= x) — e.g. 'fraction of flows with relative error < 10%'."""
        return float(np.searchsorted(self._values, x, side="right")) / self._values.size

    def quantile(self, q: float) -> float:
        """Inverse CDF at q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {q}")
        return float(np.quantile(self._values, q))

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    @property
    def mean(self) -> float:
        return float(self._values.mean())

    def curve(self, points: int = 50, log_x: bool = True) -> List[Tuple[float, float]]:
        """(x, CDF(x)) pairs for plotting/printing the Figure-4 style curve.

        With ``log_x`` the x grid is logarithmic between the 1st and 99.9th
        percentiles, matching the paper's log-scale error axes.
        """
        lo = max(self.quantile(0.01), 1e-9)
        hi = max(self.quantile(0.999), lo * 10)
        if log_x:
            xs = np.logspace(np.log10(lo), np.log10(hi), points)
        else:
            xs = np.linspace(lo, hi, points)
        return [(float(x), self.fraction_below(float(x))) for x in xs]

    def summary(self) -> dict:
        """Headline numbers used in the paper's prose."""
        return {
            "n": len(self),
            "median": self.median,
            "mean": self.mean,
            "p25": self.quantile(0.25),
            "p75": self.quantile(0.75),
            "p90": self.quantile(0.90),
            "frac_below_10pct": self.fraction_below(0.10),
        }
