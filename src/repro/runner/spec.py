"""Declarative sweep specifications: picklable job descriptors.

A :class:`JobSpec` freezes *everything* one pipeline condition depends on —
the full :class:`~repro.experiments.config.ExperimentConfig` state plus the
condition axes (injection scheme, cross-traffic model, target utilization,
estimator, per-run seed and any ablation overrides).  Because the descriptor
is a frozen dataclass of plain values it is picklable (so it can cross a
``multiprocessing`` boundary) and hashable into a stable cache token (so the
:class:`~repro.runner.cache.ResultCache` can content-address its result).

:class:`SweepSpec` enumerates a cartesian grid of conditions in a
deterministic, declared nesting order — the declarative form of the loops
the experiment drivers used to write by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

__all__ = ["JobSpec", "SweepSpec"]

ConfigItems = Tuple[Tuple[str, object], ...]

# grid axes a SweepSpec can nest over, in their default nesting order
_AXES = ("utilization", "scheme", "model", "estimator", "run_seed")


def _freeze(value: object) -> object:
    """Tuples for lists so config items stay hashable."""
    if isinstance(value, list):
        return tuple(value)
    return value


def config_items(cfg: Any) -> ConfigItems:
    """The full, ordered (name, value) state of an ExperimentConfig."""
    return tuple(sorted((k, _freeze(v)) for k, v in vars(cfg).items()))


@dataclass(frozen=True)
class JobSpec:
    """One self-contained pipeline condition, ready to run anywhere.

    ``scheme=None`` means no reference injection (Figure 5's baselines).
    ``static_n`` overrides the static scheme's 1-and-n gap (injection-gap
    ablation); ``clock_offset`` desynchronizes the receiver clock by that
    many seconds (sync-error ablation); ``max_flows`` bounds the receiver's
    flow tables (memory ablation); ``quantiles`` turns on streaming P²
    per-flow quantile tracking (tail-accuracy study); ``aqm="red"`` swaps
    the tail-drop bottleneck queues for RED (AQM study, drop-decision seed
    derived from ``run_seed``).
    """

    config: ConfigItems
    scheme: Optional[str]
    model: str
    target_util: float
    estimator: str = "linear"
    run_seed: int = 0
    static_n: Optional[int] = None
    clock_offset: float = 0.0
    max_flows: Optional[int] = None
    quantiles: Tuple[float, ...] = ()
    aqm: Optional[str] = None

    @classmethod
    def from_config(cls, cfg: Any, scheme: Optional[str], model: str,
                    target_util: float, **overrides: Any) -> "JobSpec":
        """Build a spec from a live ExperimentConfig plus condition axes."""
        return cls(
            config=config_items(cfg),
            scheme=scheme,
            model=model,
            target_util=target_util,
            **overrides,
        )

    def experiment_config(self) -> Any:
        """Reconstruct the ExperimentConfig this job was frozen from."""
        from ..experiments.config import config_from_items

        return config_from_items(self.config)

    def cache_token(self) -> dict:
        """Stable, JSON-serializable identity for content addressing."""
        return {
            "kind": "condition",
            "config": {k: list(v) if isinstance(v, tuple) else v for k, v in self.config},
            "scheme": self.scheme,
            "model": self.model,
            "target_util": self.target_util,
            "estimator": self.estimator,
            "run_seed": self.run_seed,
            "static_n": self.static_n,
            "clock_offset": self.clock_offset,
            "max_flows": self.max_flows,
            "quantiles": self.quantiles,
            "aqm": self.aqm,
        }

    def prepare(self) -> None:
        """Pre-build the shared workload (traces) in the parent process.

        Called by the runner before forking workers so children inherit the
        generated traces instead of regenerating them per process.  The
        traces stay columnar: the fast path never touches packet objects.
        """
        from ..experiments.workloads import workload_for

        workload_for(self.config)

    def run(self) -> Any:
        """Execute the condition; returns a picklable ConditionSummary."""
        from ..experiments.workloads import run_condition_job

        return run_condition_job(self)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative cartesian grid of pipeline conditions.

    ``axis_order`` controls loop nesting (outermost first) so drivers can
    reproduce their historical enumeration order exactly — e.g. Figure 4(a)
    nests utilization-major/scheme-minor while Figure 4(c) is model-major.
    """

    config: ConfigItems
    schemes: Tuple[Optional[str], ...] = ("adaptive",)
    models: Tuple[str, ...] = ("random",)
    utilizations: Tuple[float, ...] = (0.93,)
    estimators: Tuple[str, ...] = ("linear",)
    run_seeds: Tuple[int, ...] = (0,)
    axis_order: Tuple[str, ...] = _AXES
    static_n: Optional[int] = None
    clock_offset: float = 0.0

    @classmethod
    def from_config(cls, cfg: Any, **axes: Any) -> "SweepSpec":
        return cls(config=config_items(cfg), **axes)

    def __post_init__(self) -> None:
        if sorted(self.axis_order) != sorted(_AXES):
            raise ValueError(
                f"axis_order must be a permutation of {_AXES}: {self.axis_order}"
            )

    def _axis_values(self, axis: str) -> Sequence:
        return {
            "utilization": self.utilizations,
            "scheme": self.schemes,
            "model": self.models,
            "estimator": self.estimators,
            "run_seed": self.run_seeds,
        }[axis]

    def jobs(self) -> List[JobSpec]:
        """Enumerate the grid in ``axis_order`` nesting (outermost first)."""
        assignments: List[dict] = [{}]
        for axis in self.axis_order:
            assignments = [
                {**partial, axis: value}
                for partial in assignments
                for value in self._axis_values(axis)
            ]
        return [
            JobSpec(
                config=self.config,
                scheme=a["scheme"],
                model=a["model"],
                target_util=a["utilization"],
                estimator=a["estimator"],
                run_seed=a["run_seed"],
                static_n=self.static_n,
                clock_offset=self.clock_offset,
            )
            for a in assignments
        ]

    def __len__(self) -> int:
        return (
            len(self.schemes)
            * len(self.models)
            * len(self.utilizations)
            * len(self.estimators)
            * len(self.run_seeds)
        )
