"""Figure 5 experiment driver: reference-packet interference with regular
traffic.

"Adaptive scheme fails to adjust reference packet injection rate when a
bottleneck link is not the one which an RLI sender is monitoring.  As a
result, the adaptive scheme produces reference packets at higher rate,
which can alter the characteristics of traffic such as packet loss."

For each bottleneck utilization in the sweep we run the pipeline three
times — without references, with static injection, and with adaptive
injection — and report the *increase* in regular-packet loss rate at the
bottleneck caused by each scheme's reference packets.
"""

from __future__ import annotations

from typing import List, Optional

from ..net.packet import PacketKind
from ..runner.runner import ParallelRunner
from ..runner.spec import SweepSpec
from .config import ExperimentConfig

__all__ = ["Fig5Row", "run_fig5"]


class Fig5Row:
    """Loss-rate differences at one utilization point."""

    def __init__(
        self,
        target_util: float,
        measured_util: float,
        baseline_loss: float,
        static_loss: float,
        adaptive_loss: float,
        static_refs: int,
        adaptive_refs: int,
    ):
        self.target_util = target_util
        self.measured_util = measured_util
        self.baseline_loss = baseline_loss
        self.static_loss = static_loss
        self.adaptive_loss = adaptive_loss
        self.static_refs = static_refs
        self.adaptive_refs = adaptive_refs

    @property
    def static_diff(self) -> float:
        """Loss-rate increase caused by static-scheme references."""
        return self.static_loss - self.baseline_loss

    @property
    def adaptive_diff(self) -> float:
        return self.adaptive_loss - self.baseline_loss

    def __repr__(self) -> str:
        return (
            f"Fig5Row(util={self.measured_util:.3f}, "
            f"static={self.static_diff:+.6f}, adaptive={self.adaptive_diff:+.6f})"
        )


def run_fig5(cfg: Optional[ExperimentConfig] = None, n_seeds: int = 3,
             runner: Optional[ParallelRunner] = None) -> List[Fig5Row]:
    """The Figure-5 sweep (random cross-traffic model, utilization 82–98 %).

    Loss-rate differences are tiny (the paper's y-axis tops out at 7×10⁻⁴),
    so each point averages ``n_seeds`` cross-traffic selections; within one
    seed the regular trace and cross selection are identical across the
    three runs, making the difference a paired comparison.

    The 3 × ``n_seeds`` × |utilizations| conditions are independent; pass a
    parallel ``runner`` to fan them out.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1: {n_seeds}")
    cfg = cfg or ExperimentConfig()
    runner = runner or ParallelRunner()
    spec = SweepSpec.from_config(
        cfg,
        schemes=(None, "static", "adaptive"),
        models=("random",),
        utilizations=tuple(cfg.fig5_utilizations),
        run_seeds=tuple(range(n_seeds)),
        axis_order=("utilization", "run_seed", "scheme", "model", "estimator"),
    )
    summaries = iter(runner.run(spec))
    rows = []
    for util in cfg.fig5_utilizations:
        measured = base_loss = static_loss = adaptive_loss = 0.0
        static_refs = adaptive_refs = 0
        for _seed in range(n_seeds):
            baseline = next(summaries)
            static = next(summaries)
            adaptive = next(summaries)
            measured += baseline.measured_util
            base_loss += baseline.loss_rate(PacketKind.REGULAR)
            static_loss += static.loss_rate(PacketKind.REGULAR)
            adaptive_loss += adaptive.loss_rate(PacketKind.REGULAR)
            static_refs += static.refs_injected
            adaptive_refs += adaptive.refs_injected
        rows.append(
            Fig5Row(
                target_util=util,
                measured_util=measured / n_seeds,
                baseline_loss=base_loss / n_seeds,
                static_loss=static_loss / n_seeds,
                adaptive_loss=adaptive_loss / n_seeds,
                static_refs=static_refs // n_seeds,
                adaptive_refs=adaptive_refs // n_seeds,
            )
        )
    return rows
