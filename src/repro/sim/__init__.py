"""Discrete-event network simulation substrate.

Provides the queues, switches, clocks, ECMP hashing, topologies and drivers
on which the RLI/RLIR measurement architecture is evaluated: the switch
chain (whose two-hop case is the paper's Figure-3 pipeline) and full k-ary
fat-trees for the across-routers experiments.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "ChainConfig": "chain",
    "ChainPrefix": "chain",
    "ChainResult": "chain",
    "SwitchChain": "chain",
    "Clock": "clock",
    "DriftingClock": "clock",
    "OffsetClock": "clock",
    "PerfectClock": "clock",
    "EcmpHasher": "ecmp",
    "craft_dport_for_port": "ecmp",
    "Engine": "engine",
    "Port": "link",
    "TwoSwitchPipeline": "pipeline",
    "PtpExchange": "ptp",
    "PtpSession": "ptp",
    "FifoQueue": "queue",
    "QueueStats": "queue",
    "RedQueue": "red",
    "EcmpGroup": "switch",
    "LOCAL_DELIVERY": "switch",
    "Switch": "switch",
    "FatTree": "topology",
    "LinkParams": "topology",
    "Topology": "topology",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
