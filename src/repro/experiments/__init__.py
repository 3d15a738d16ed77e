"""Experiment drivers regenerating every quantitative figure/table of the
paper, plus ablations."""

from .._exports import lazy_exports

_EXPORTS = {
    "run_baseline_comparison": "ablations",
    "run_estimator_ablation": "ablations",
    "run_injection_sweep": "ablations",
    "run_sync_error_ablation": "ablations",
    "ExperimentConfig": "config",
    "default_scale": "config",
    "derive_seed": "config",
    "run_aqm_comparison": "extensions",
    "run_granularity_comparison": "extensions",
    "run_localization_study": "extensions",
    "run_memory_ablation": "extensions",
    "run_mesh_study": "extensions",
    "run_multihop_ablation": "extensions",
    "run_ptp_study": "extensions",
    "run_tail_accuracy": "extensions",
    "Fig4Curve": "fig4",
    "run_fig4ab": "fig4",
    "run_fig4c": "fig4",
    "Fig5Row": "fig5",
    "run_fig5": "fig5",
    "PlacementJob": "placement",
    "PlacementRow": "placement",
    "run_placement": "placement",
    "ConditionResult": "workloads",
    "ConditionSummary": "workloads",
    "PipelineWorkload": "workloads",
    "run_condition": "workloads",
    "run_condition_job": "workloads",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
