"""repro.obs — zero-perturbation tracing, metrics, and run artifacts.

Stdlib-only observability layer (ISSUE 9).  Three surfaces:

* :mod:`repro.obs.trace` — ``with span("name"):`` wall-clock spans with
  a one-attribute-check no-op fast path when disabled;
* :mod:`repro.obs.metrics` — named counters/gauges/histograms plus the
  batch fast-path ``fallback(site, reason)`` helper;
* :mod:`repro.obs.export` — per-run JSON artifacts under
  ``artifacts/obs/``, Chrome trace-event export, and the deterministic
  ``(process, seq)`` merge of worker-process buffers.

Kernel scope (``repro/sim``, ``repro/core``) may import only
``repro.obs.metrics`` — enforced by reprolint's OBS rule family — so
telemetry can never touch simulation state, float order, or a clock
inside a kernel.  Everything else may import this package directly.

Enable with ``--obs`` on the CLI, ``REPRO_OBS=1`` in the environment,
or :func:`enable` programmatically.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "disable": "_state",
    "enable": "_state",
    "enabled": "_state",
    "process_label": "_state",
    "set_process_label": "_state",
    "set_verbose": "_state",
    "verbose": "_state",
    "ARTIFACT_DIR": "export",
    "SCHEMA_ID": "export",
    "build_artifact": "export",
    "drain_payload": "export",
    "fold_metrics": "export",
    "fold_payload": "export",
    "load_schema": "export",
    "merged_spans": "export",
    "reset_foreign": "export",
    "span_summary": "export",
    "validate_artifact": "export",
    "write_artifact": "export",
    "write_chrome_trace": "export",
    "MetricsRegistry": "metrics",
    "count": "metrics",
    "drain_registry": "metrics",
    "fallback": "metrics",
    "gauge": "metrics",
    "merge_snapshot": "metrics",
    "observe": "metrics",
    "registry_snapshot": "metrics",
    "reset_metrics": "metrics",
    "reset_notes": "metrics",
    "taken": "metrics",
    "drain_spans": "trace",
    "reset_spans": "trace",
    "span": "trace",
    "spans_snapshot": "trace",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
