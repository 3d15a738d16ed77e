"""The four studies the benchmark drives, and the checks on their output.

Each study goes through the public drivers of ``repro.experiments`` on the
columnar path.  A study renders its result as the text a user would read;
the benchmark compares those texts across the cold, warm and distributed
passes, against the golden fixtures, and against the per-object path.
"""

from __future__ import annotations

import importlib
import inspect
import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import (
    ExperimentConfig,
    derive_seed,
    run_fig4ab,
    run_fig4c,
    run_fig5,
    run_localization_study,
    run_multihop_ablation,
)
from repro.experiments.workloads import PipelineWorkload
from repro.sim.topology import FatTree, LinkParams
from repro.traffic.crosstraffic import CalibrationError, UniformModel
from repro.traffic.synthetic import TraceConfig, generate_fattree_trace

GOLDEN_DIR = Path("tests") / "golden"

# In-process memos a cold study must not find warm: traces, workloads and
# recorded simulation logs.  Names that a later version drops are skipped.
_MEMOS = (
    ("repro.experiments.workloads", ("_trace_cache", "_workload_cache")),
    ("repro.experiments.extension_jobs", ("_SIM_CACHE", "_SIM_PINNED")),
)


def clear_memos() -> None:
    """Empty every in-process memo the studies consult."""
    for module_name, names in _MEMOS:
        module = importlib.import_module(module_name)
        for name in names:
            memo = getattr(module, name, None)
            if memo is not None:
                memo.clear()


def path_kwargs(driver: Callable, columnar: bool) -> Optional[dict]:
    """Keyword arguments that select the columnar or the per-object path.

    This is the one place a study chooses its path.  While a driver takes
    ``batch`` the choice is explicit; once columnar is the only selectable
    path the columnar call passes nothing, and the per-object path is
    reported as unavailable (``None``) so its check is not attempted.
    """
    if "batch" in inspect.signature(driver).parameters:
        return {"batch": columnar}
    return {} if columnar else None


class Study:
    """One workload: input sizes, the timed study, and its checks.

    ``nonzero`` and ``zero`` name the per-layer metrics this workload must
    and must not exercise, beyond ``spans.ALWAYS_NONZERO``; a wrapper
    installed in the wrong place breaks the pattern and fails the traced
    run.
    """

    name = ""
    nonzero: Tuple[str, ...] = ()
    zero: Tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def feasible(self) -> bool:
        """Whether the drivers accept this seed's inputs at both sizes."""
        return True

    def inputs(self) -> int:
        """Generate the study's input traces; return its packet-hop count."""
        raise NotImplementedError

    def run(self, runner, columnar: bool = True, tiny: bool = False) -> Optional[str]:
        """Run the study through *runner*; return the printed result.

        ``tiny`` runs it at a size small enough for the per-object path
        and for the warm-up.  ``None`` means the requested path is not
        selectable any more.
        """
        raise NotImplementedError

    def checks(self, runner_factory) -> List[Tuple[str, Optional[bool]]]:
        """Output checks beyond pass agreement: (name, passed or None)."""
        columnar = self.run(runner_factory(), columnar=True, tiny=True)
        per_object = self.run(runner_factory(), columnar=False, tiny=True)
        outcome = None if per_object is None else columnar == per_object
        return [("tiny columnar rows equal the per-object rows", outcome)]


# ----------------------------------------------------------------------
# pipeline studies


def _pipeline_packets(workload: PipelineWorkload,
                      selections: List[Tuple[str, float, int]],
                      conditions_per_selection: int) -> int:
    """Regular packets x conditions x 2 hops, plus selected cross packets.

    Cross traffic joins at the second switch only, so it counts once.
    """
    regular = len(workload.regular)
    total = 0
    for model, util, run_seed in selections:
        cross = len(workload.cross_arrivals_batch(model, util, seed=run_seed))
        total += conditions_per_selection * (2 * regular + cross)
    return total


class _ConfigStudy(Study):
    """A study of the pipeline workload built from an ExperimentConfig."""

    scale = 0.0
    tiny_scale = 0.01

    def config(self, tiny: bool = False) -> ExperimentConfig:
        return ExperimentConfig(scale=self.tiny_scale if tiny else self.scale,
                                seed=self.seed)

    def max_utilization(self, cfg: ExperimentConfig) -> float:
        raise NotImplementedError

    def feasible(self) -> bool:
        """A heavy-tailed regular trace can outweigh the cross trace so much
        that no selection reaches the top utilization: the drivers raise
        ``CalibrationError`` for such a seed, so the benchmark skips it."""
        try:
            for tiny in (False, True):
                cfg = self.config(tiny)
                PipelineWorkload(cfg).selection_probability(self.max_utilization(cfg))
        except CalibrationError:
            return False
        return True


class Fig4Pipeline(_ConfigStudy):
    name = "fig4_pipeline"
    scale = 0.15
    nonzero = ("traffic.select_s", "sim.pipeline.self_s", "core.observe_s",
               "core.observe_rows", "experiments.summarize_s")
    zero = ("sim.chain.self_s", "sim.fatpath.self_s", "sim.ecmp.choose_s",
            "core.replay_s", "core.replay_rows")

    def max_utilization(self, cfg):
        return max(cfg.fig4ab_utilizations + cfg.fig4c_utilizations)

    def inputs(self) -> int:
        cfg = self.config()
        workload = PipelineWorkload(cfg)
        # fig4ab: two schemes share each (random, util) selection; fig4c:
        # one scheme per (model, util)
        fig4ab = _pipeline_packets(
            workload, [("random", u, 0) for u in cfg.fig4ab_utilizations], 2)
        fig4c = _pipeline_packets(
            workload, [(m, u, 0) for m in ("bursty", "random")
                       for u in cfg.fig4c_utilizations], 1)
        return fig4ab + fig4c

    def run(self, runner, columnar=True, tiny=False):
        kwargs = path_kwargs(run_fig4ab, columnar)
        if kwargs is None:
            return None
        cfg = self.config(tiny)
        curves = (run_fig4ab(cfg, runner=runner, **kwargs)
                  + run_fig4c(cfg, runner=runner, **kwargs))
        return "\n".join(
            f"{c.summary_row()!r} {c.summary.mean_true_latency!r} "
            f"{len(c.mean_join.errors)}"
            for c in curves)

    def checks(self, runner_factory):
        # the fixtures were made on the per-object path
        golden = json.loads((GOLDEN_DIR / "fig4ab_scale0.01_seed7.json").read_text())
        cfg = ExperimentConfig(scale=golden["scale"], seed=golden["seed"])
        got = [{"label": c.label, "row": c.summary_row()}
               for c in run_fig4ab(cfg, runner=runner_factory(),
                                   **path_kwargs(run_fig4ab, True))]
        return [("columnar fig4ab rows match the golden fixture",
                 got == golden["curves"])]


class Fig5Overload(_ConfigStudy):
    name = "fig5_overload"
    scale = 0.03
    n_seeds = 3
    nonzero = ("traffic.select_s", "sim.pipeline.self_s", "sim.queue.drop_frac",
               "core.observe_s", "experiments.summarize_s")
    zero = ("sim.chain.self_s", "sim.fatpath.self_s", "sim.ecmp.choose_s",
            "core.replay_s", "core.replay_rows")

    def max_utilization(self, cfg):
        return max(cfg.fig5_utilizations)

    def inputs(self) -> int:
        cfg = self.config()
        workload = PipelineWorkload(cfg)
        # the three schemes of one (util, run_seed) share its selection
        return _pipeline_packets(
            workload, [("random", u, s) for u in cfg.fig5_utilizations
                       for s in range(self.n_seeds)], 3)

    def run(self, runner, columnar=True, tiny=False):
        kwargs = path_kwargs(run_fig5, columnar)
        if kwargs is None:
            return None
        rows = run_fig5(self.config(tiny), n_seeds=1 if tiny else self.n_seeds,
                        runner=runner, **kwargs)
        return "\n".join(_fig5_text(r) for r in rows)

    def checks(self, runner_factory):
        golden = json.loads((GOLDEN_DIR / "fig5_scale0.01_seed7.json").read_text())
        cfg = ExperimentConfig(scale=golden["scale"], seed=golden["seed"])
        rows = run_fig5(cfg, n_seeds=golden["n_seeds"], runner=runner_factory(),
                        **path_kwargs(run_fig5, True))
        return [("columnar fig5 rows match the golden fixture",
                 [_fig5_fields(r) for r in rows] == golden["rows"])]


def _fig5_fields(row) -> Dict[str, object]:
    return {
        "target_util": row.target_util,
        "measured_util": row.measured_util,
        "baseline_loss": row.baseline_loss,
        "static_loss": row.static_loss,
        "adaptive_loss": row.adaptive_loss,
        "static_refs": row.static_refs,
        "adaptive_refs": row.adaptive_refs,
    }


def _fig5_text(row) -> str:
    return repr(sorted(_fig5_fields(row).items()))


# ----------------------------------------------------------------------
# extension studies


class MultihopReplay(_ConfigStudy):
    name = "multihop_replay"
    scale = 0.1
    nonzero = ("traffic.select_s", "sim.chain.self_s", "core.observe_s",
               "core.replay_s", "core.replay_rows")
    zero = ("sim.pipeline.self_s", "sim.fatpath.self_s", "sim.ecmp.choose_s",
            "experiments.summarize_s")
    hops = (1, 2, 4, 8)
    utilization = 0.80

    def max_utilization(self, cfg):
        return self.utilization

    def inputs(self) -> int:
        cfg = self.config()
        workload = PipelineWorkload(cfg)
        prob = workload.selection_probability(self.utilization)
        total = len(workload.regular) * sum(self.hops)
        # hop h carries its own cross selection in every chain longer than h
        for hop in range(max(self.hops)):
            model = UniformModel(prob, seed=derive_seed(self.seed, "multihop-cross", hop))
            chains = sum(1 for n in self.hops if n > hop)
            total += chains * len(model.arrivals_batch(workload.cross))
        return total

    def run(self, runner, columnar=True, tiny=False):
        kwargs = path_kwargs(run_multihop_ablation, columnar)
        if kwargs is None:
            return None
        rows = run_multihop_ablation(self.config(tiny), hops=self.hops,
                                     utilization=self.utilization, runner=runner,
                                     run_seed=self.seed, **kwargs)
        return repr(rows)


class FattreeLocalize(Study):
    name = "fattree_localize"
    n_packets = 40_000
    nonzero = ("sim.fatpath.self_s", "sim.ecmp.choose_s", "core.replay_s",
               "core.replay_rows")
    zero = ("traffic.select_s", "sim.pipeline.self_s", "sim.chain.self_s",
            "experiments.summarize_s")
    tiny_packets = 3_000
    # every measured and incast pair crosses pods: edge, agg, core, agg, edge
    queues_per_packet = 5

    def inputs(self) -> int:
        # the same fabric and traces run_localization_study builds
        ft = FatTree(4, LinkParams(rate_bps=100e6, buffer_bytes=256 * 1024))
        measured_pairs = [(ft.host_address(0, 0, h), ft.host_address(1, 0, g))
                          for h in range(2) for g in range(2)]
        incast_pairs = [(ft.host_address(p, e, h), ft.host_address(1, 0, g))
                        for p in (2, 3) for e in range(2) for h in range(2)
                        for g in range(2)]
        measured = generate_fattree_trace(
            TraceConfig(duration=1.0, n_packets=self.n_packets), measured_pairs,
            seed=derive_seed(self.seed, "localize-measured"))
        incast = generate_fattree_trace(
            TraceConfig(duration=1.0, n_packets=3 * self.n_packets), incast_pairs,
            seed=derive_seed(self.seed, "localize-incast"))
        return self.queues_per_packet * (len(measured) + len(incast))

    def run(self, runner, columnar=True, tiny=False):
        kwargs = path_kwargs(run_localization_study, columnar)
        if kwargs is None:
            return None
        report = run_localization_study(
            n_packets=self.tiny_packets if tiny else self.n_packets,
            demux_method="reverse-ecmp", runner=runner, run_seed=self.seed, **kwargs)
        return f"{report.culprit!r} {report.as_rows()!r}"


STUDIES = {cls.name: cls for cls in (Fig4Pipeline, Fig5Overload, MultihopReplay,
                                     FattreeLocalize)}
