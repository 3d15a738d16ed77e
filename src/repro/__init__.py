"""repro — RLIR: flow-level latency measurements across routers.

A faithful, fully self-contained reproduction of

    P. Singh, M. Lee, S. Kumar, R. R. Kompella,
    "Enabling Flow-level Latency Measurements across Routers in Data
    Centers", USENIX HotICE 2011.

Layers (see DESIGN.md for the full inventory):

* :mod:`repro.net`      — packets, flows, prefixes, ToS marks
* :mod:`repro.sim`      — queues, switches, ECMP, fat-trees, event engine
* :mod:`repro.traffic`  — synthetic traces, cross-traffic models, flow meter
* :mod:`repro.core`     — RLI senders/receivers and the RLIR architecture
* :mod:`repro.baselines`— LDA, Multiflow, trajectory sampling
* :mod:`repro.analysis` — relative errors, CDFs, reports
* :mod:`repro.experiments` — drivers for every figure/table

Quickstart::

    from repro.experiments import ExperimentConfig, PipelineWorkload, run_condition
    from repro.analysis import flow_mean_errors, Ecdf

    workload = PipelineWorkload(ExperimentConfig(scale=0.05))
    run = run_condition(workload, scheme="static", model="random", target_util=0.93)
    join = flow_mean_errors(run.receiver.flow_estimated, run.receiver.flow_true)
    print("median per-flow relative error:", Ecdf(join.errors).median)
"""

from ._exports import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "analysis": "analysis",
    "baselines": "baselines",
    "core": "core",
    "net": "net",
    "sim": "sim",
    "traffic": "traffic",
    "AdaptiveInjection": "core.injection",
    "FlowStatsTable": "core.flowstats",
    "InterpolationBuffer": "core.interpolation",
    "RliReceiver": "core.receiver",
    "RliSender": "core.sender",
    "RlirDeployment": "core.rlir",
    "StaticInjection": "core.injection",
    "FatTree": "sim.topology",
    "ChainConfig": "sim.chain",
    "SwitchChain": "sim.chain",
    "TwoSwitchPipeline": "sim.pipeline",
    "Trace": "traffic.trace",
    "TraceConfig": "traffic.synthetic",
    "generate_trace": "traffic.synthetic",
}

__all__ = [*sorted(_EXPORTS), "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
