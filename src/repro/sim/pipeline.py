"""The paper's simulation environment (Figure 3): a two-switch pipeline.

    Packet trace ──► Traffic divider ──► [Switch 1] ──► [Switch 2] ──► sink
                          │  cross           ▲ RLI sender    ▲ bottleneck
                          └──────────► Cross-traffic injector   RLI receiver

Regular traffic traverses Switch 1 (where the RLI sender taps the egress
queue and injects reference packets) and then Switch 2.  Cross traffic skips
Switch 1 and joins at Switch 2, whose utilization is controlled by the
cross-traffic injection model.  The RLI receiver observes packets departing
Switch 2 and produces per-flow latency estimates of the regular traffic.

The pipeline is the two-hop :class:`~repro.sim.chain.SwitchChain` with its
cross traffic at hop 1: it takes a ``ChainConfig(n_hops=2, …)``, runs the
chain's object path and columnar path, and returns a
:class:`~repro.sim.chain.ChainResult` whose ``arrivals``/``drops`` count
Switch 2.  Sender and receiver follow the chain's protocols.
"""

from __future__ import annotations

from typing import Optional

from .chain import ChainConfig, ChainResult, SwitchChain, _run_columnar

__all__ = ["TwoSwitchPipeline"]


class TwoSwitchPipeline(SwitchChain):
    """Drive one run of the Figure-3 environment: ``cross`` (sorted
    ``(arrival, packet)`` pairs, or a batch on the columnar path) joins
    at Switch 2.

    Its :meth:`run_batch` counts under ``pipeline.run_batch``, so a run's
    ``batch.fastpath``/``batch.fallback`` counts tell pipeline studies
    from chain studies.
    """

    def __init__(self, config: Optional[ChainConfig] = None):
        config = config or ChainConfig(n_hops=2)
        if config.n_hops != 2:
            raise ValueError(f"a two-switch pipeline has 2 hops, not {config.n_hops}")
        super().__init__(config)

    def run(self, regular, cross=(), sender=None, receiver=None,
            duration: Optional[float] = None) -> ChainResult:
        """:meth:`SwitchChain.run` with *cross* at Switch 2."""
        return super().run(regular, {1: cross}, sender, receiver, duration)

    def run_batch(self, regular, cross=None, sender=None, receiver=None,
                  duration: Optional[float] = None,
                  prefix=None) -> ChainResult:
        """:meth:`SwitchChain.run_batch` with *cross* at Switch 2."""
        return _run_columnar(self, "pipeline.run_batch", regular, {1: cross},
                             sender, receiver, duration, prefix)
