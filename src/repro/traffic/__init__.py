"""Workload substrate: synthetic traces, cross-traffic injection, and
YAF-like flow metering."""

from .._exports import lazy_exports

_EXPORTS = {
    "PacketBatch": "batch",
    "BurstyModel": "crosstraffic",
    "CalibrationError": "crosstraffic",
    "UniformModel": "crosstraffic",
    "calibrate_selection_probability": "crosstraffic",
    "load_csv": "csvio",
    "save_csv": "csvio",
    "BoundedPareto": "distributions",
    "DEFAULT_SIZE_MIX": "distributions",
    "LognormalGaps": "distributions",
    "PacketSizeMix": "distributions",
    "FlowMeter": "flowmeter",
    "FlowRecord": "flowmeter",
    "TraceConfig": "synthetic",
    "generate_fattree_trace": "synthetic",
    "generate_trace": "synthetic",
    "Trace": "trace",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
