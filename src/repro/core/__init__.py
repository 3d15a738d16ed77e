"""The paper's contribution: RLI instances and the RLIR partial deployment.

Public surface: injection policies, sender/receiver instances, the
demultiplexers that make RLI work *across* routers, placement planning, and
anomaly localization.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "Demux": "demux",
    "PathClassifierDemux": "demux",
    "SingleSenderDemux": "demux",
    "UpstreamPrefixDemux": "demux",
    "BoundedFlowStatsTable": "flowstats",
    "FlowStatsTable": "flowstats",
    "StreamingStats": "flowstats",
    "FullRliDeployment": "full_rli",
    "FullRliResult": "full_rli",
    "AdaptiveInjection": "injection",
    "InjectionPolicy": "injection",
    "StaticInjection": "injection",
    "ESTIMATORS": "interpolation",
    "Estimate": "interpolation",
    "InterpolationBuffer": "interpolation",
    "linear_interpolate": "interpolation",
    "LocalizationReport": "localization",
    "SegmentSummary": "localization",
    "flow_breakdown": "localization",
    "localize": "localization",
    "MarkingClassifier": "marking",
    "assign_marks": "marking",
    "MeshResult": "mesh",
    "RlirMesh": "mesh",
    "PlacementInstance": "placement",
    "RlirPlacement": "placement",
    "instances_all_tor_pairs_enumerated": "placement",
    "instances_all_tor_pairs_paper": "placement",
    "instances_full_deployment": "placement",
    "instances_interface_pair": "placement",
    "instances_tor_pair": "placement",
    "FlowQuantileTable": "quantiles",
    "P2Quantile": "quantiles",
    "RliReceiver": "receiver",
    "ReverseEcmpClassifier": "reverse_ecmp",
    "RlirDeployment": "rlir",
    "RlirResult": "rlir",
    "REFERENCE_PACKET_SIZE": "sender",
    "RefTemplate": "sender",
    "RliSender": "sender",
    "EwmaUtilization": "utilization",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
