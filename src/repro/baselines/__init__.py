"""Comparison baselines from the paper's related work: LDA (aggregate),
Multiflow (NetFlow two-sample), and trajectory sampling."""

from .._exports import lazy_exports

_EXPORTS = {
    "Lda": "lda",
    "LdaEstimate": "lda",
    "MultiflowEstimator": "multiflow",
    "TrajectorySampler": "trajectory",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
