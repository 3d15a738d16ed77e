"""Segment-level latency-anomaly localization.

The operational goal of the architecture: "Detecting and localizing
latency-related problems at router and switch levels" — RLIR trades
localization *granularity* (segments of several routers instead of single
queues) for deployment cost, "without losing localization granularity and
estimation accuracy significantly" (paper Sections 1 and 3).

Given the per-flow latency tables each RLIR segment produces, this module
answers the operator's question: *which segment is inflating latency?*
Segments are scored by their pooled mean delay; a segment is flagged when it
exceeds the median segment by a configurable factor and an absolute floor
(so idle fabrics do not alarm on nanosecond noise).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .flowstats import FlowStatsTable, StreamingStats, pooled_stats

__all__ = ["SegmentSummary", "LocalizationReport", "localize", "flow_breakdown"]

Key = Tuple[int, int, int, int, int]


class SegmentSummary:
    """Pooled latency statistics of one measured segment."""

    __slots__ = ("name", "pooled", "n_flows")

    def __init__(self, name: str, table: FlowStatsTable):
        self.name = name
        self.pooled = pooled_stats(table)
        self.n_flows = len(table)

    @property
    def mean(self) -> float:
        return self.pooled.mean

    @property
    def samples(self) -> int:
        return self.pooled.count

    def __repr__(self) -> str:
        return (
            f"SegmentSummary({self.name!r}: mean={self.mean * 1e6:.1f}us, "
            f"flows={self.n_flows}, samples={self.samples})"
        )


class LocalizationReport:
    """Ranked segments with anomaly verdicts."""

    def __init__(
        self,
        summaries: List[SegmentSummary],
        anomalous: List[str],
        baseline_mean: float,
    ):
        self.summaries = summaries  # sorted by descending mean
        self.anomalous = anomalous
        self.baseline_mean = baseline_mean

    @property
    def culprit(self) -> Optional[str]:
        """The worst anomalous segment, if any."""
        return self.anomalous[0] if self.anomalous else None

    def as_rows(self) -> List[Tuple[str, float, int, int, bool]]:
        """(name, mean, flows, samples, anomalous?) per segment, worst first.

        Plain tuples: picklable across worker processes, cacheable on disk,
        and byte-comparable by the determinism suite — the report's live
        accumulators are not part of the value.
        """
        return [
            (s.name, s.mean, s.n_flows, s.samples, s.name in self.anomalous)
            for s in self.summaries
        ]

    def __repr__(self) -> str:
        return f"LocalizationReport(culprit={self.culprit!r}, anomalous={self.anomalous})"


def localize(
    segments: Sequence[Tuple[str, FlowStatsTable]],
    factor: float = 3.0,
    floor: float = 10e-6,
    min_samples: int = 10,
) -> LocalizationReport:
    """Flag segments whose pooled mean latency is anomalously high.

    Parameters
    ----------
    segments:
        (name, per-flow estimated latency table) per measured segment.
    factor:
        A segment is anomalous if its mean exceeds ``factor`` × the median
        segment mean.
    floor:
        ...and also exceeds this absolute floor (seconds).
    min_samples:
        Segments with fewer samples are summarized but never flagged.
    """
    if not segments:
        raise ValueError("at least one segment required")
    summaries = sorted(
        (SegmentSummary(name, table) for name, table in segments),
        key=lambda s: s.mean,
        reverse=True,
    )
    means = sorted(s.mean for s in summaries)
    mid = len(means) // 2
    baseline = means[mid] if len(means) % 2 else 0.5 * (means[mid - 1] + means[mid])
    anomalous = [
        s.name
        for s in summaries
        if s.samples >= min_samples and s.mean > factor * baseline and s.mean > floor
    ]
    return LocalizationReport(summaries, anomalous, baseline)


def flow_breakdown(
    key: Key, segments: Sequence[Tuple[str, FlowStatsTable]]
) -> Dict[str, Optional[StreamingStats]]:
    """Per-segment latency statistics of one flow (None where unmeasured).

    This is the per-flow drill-down RLI enables over aggregate schemes like
    LDA: an operator can ask where a *specific* flow spends its time.
    """
    return {name: table.get(key) for name, table in segments}
