"""Figure 4 experiment drivers: per-flow estimation accuracy CDFs.

* Figure 4(a): relative error of per-flow **mean** latency estimates,
  {adaptive, static} × {67 %, 93 %} utilization, random cross traffic.
* Figure 4(b): same for per-flow **standard deviation** estimates.
* Figure 4(c): mean estimates, **bursty vs random** cross traffic at
  {34 %, 67 %} utilization.

Both drivers enumerate their condition grid as a declarative
:class:`~repro.runner.spec.SweepSpec` and execute it through a
:class:`~repro.runner.runner.ParallelRunner` — pass ``runner=`` to fan the
conditions out over worker processes, a distributed broker/worker cluster
(:class:`~repro.distrib.runner.DistributedRunner`, or any backend from
:func:`~repro.runner.backends.make_runner`), and/or memoize them on disk;
the default is serial and uncached with identical numbers on every
backend.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.cdf import Ecdf
from ..analysis.metrics import FlowErrorJoin
from ..runner.runner import ParallelRunner
from ..runner.spec import SweepSpec
from .config import ExperimentConfig
from .workloads import ConditionSummary

__all__ = ["Fig4Curve", "run_fig4ab", "run_fig4c"]


class Fig4Curve:
    """One CDF curve of Figure 4, with its provenance."""

    def __init__(self, label: str, summary: ConditionSummary):
        self.label = label
        self.summary = summary

    @property
    def mean_join(self) -> FlowErrorJoin:
        return self.summary.mean_join

    @property
    def std_join(self) -> FlowErrorJoin:
        return self.summary.std_join

    @property
    def mean_ecdf(self) -> Ecdf:
        return Ecdf(self.mean_join.errors)

    @property
    def std_ecdf(self) -> Optional[Ecdf]:
        return Ecdf(self.std_join.errors) if len(self.std_join.errors) else None

    def summary_row(self) -> List[object]:
        """One printable row: the numbers the paper quotes in prose."""
        mean = self.mean_ecdf
        std = self.std_ecdf
        return [
            self.label,
            f"{self.summary.measured_util:.0%}",
            f"{self.summary.mean_true_latency * 1e6:.1f}",
            f"{mean.median:.3f}",
            f"{mean.fraction_below(0.10):.0%}",
            f"{std.median:.3f}" if std else "n/a",
            self.summary.sender_refs_injected,
        ]


def _curves(spec: SweepSpec, runner: Optional[ParallelRunner],
            label_of) -> List[Fig4Curve]:
    runner = runner or ParallelRunner()
    jobs = spec.jobs()
    summaries = runner.run(jobs)
    return [Fig4Curve(label_of(job), summary) for job, summary in zip(jobs, summaries)]


def run_fig4ab(cfg: Optional[ExperimentConfig] = None,
               runner: Optional[ParallelRunner] = None) -> List[Fig4Curve]:
    """The four curves of Figures 4(a) and 4(b).

    Returns curves labelled ``{scheme}, {util}`` in the paper's legend
    order: adaptive/93, static/93, adaptive/67, static/67.
    """
    cfg = cfg or ExperimentConfig()
    spec = SweepSpec.from_config(
        cfg,
        schemes=("adaptive", "static"),
        models=("random",),
        utilizations=tuple(sorted(cfg.fig4ab_utilizations, reverse=True)),
    )
    return _curves(spec, runner,
                   lambda job: f"{job.scheme}, {job.target_util:.0%}")


def run_fig4c(cfg: Optional[ExperimentConfig] = None,
              runner: Optional[ParallelRunner] = None) -> List[Fig4Curve]:
    """The four curves of Figure 4(c): bursty vs random at 34 % and 67 %.

    The paper uses the adaptive scheme's accuracy for this comparison;
    injection is held fixed (adaptive) while the cross-traffic model varies.
    """
    cfg = cfg or ExperimentConfig()
    spec = SweepSpec.from_config(
        cfg,
        schemes=("adaptive",),
        models=("bursty", "random"),
        utilizations=tuple(sorted(cfg.fig4c_utilizations, reverse=True)),
        axis_order=("model", "utilization", "scheme", "estimator", "run_seed"),
    )
    return _curves(spec, runner,
                   lambda job: f"{job.model}, {job.target_util:.0%}")
