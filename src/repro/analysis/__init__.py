"""Metrics, CDFs and text reporting used by tests, examples and benches."""

from .._exports import lazy_exports

_EXPORTS = {
    "Ecdf": "cdf",
    "FlowErrorJoin": "metrics",
    "flow_mean_errors": "metrics",
    "flow_std_errors": "metrics",
    "relative_error": "metrics",
    "ascii_cdf": "plot",
    "ascii_series": "plot",
    "format_cdf_series": "report",
    "format_table": "report",
    "pct": "report",
    "us": "report",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
