"""Regenerate the golden fixtures under ``tests/golden/``.

Usage (from the repo root)::

    PYTHONPATH=src python tests/make_golden.py

Only run this when an *intentional* change shifts the reproduction numbers
(a new estimator default, a recalibrated workload, …) — the golden tests
exist precisely so refactors that should NOT move the numbers (like sweep
parallelization) can prove they didn't.  Commit the regenerated JSON
together with the change that moved the numbers and say why in the commit.

The fixtures are always generated on the per-object reference path
(:func:`reference_path.reference_path`); the golden tests assert the
default columnar path reproduces them bit-for-bit.
"""

import json
import pathlib
import sys

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# tiny but non-degenerate: ~2k regular packets, full condition grids
GOLDEN_SCALE = 0.01
GOLDEN_SEED = 7
GOLDEN_FIG5_SEEDS = 2
GOLDEN_MULTIHOP_HOPS = (1, 2, 3, 4, 8)


def golden_config():
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig(scale=GOLDEN_SCALE, seed=GOLDEN_SEED)


def compute_fig4ab():
    """Figure 4(a)/4(b) summary rows (strings/ints, exact)."""
    from repro.experiments.fig4 import run_fig4ab

    return {
        "scale": GOLDEN_SCALE,
        "seed": GOLDEN_SEED,
        "curves": [
            {"label": c.label, "row": c.summary_row()}
            for c in run_fig4ab(golden_config())
        ],
    }


def compute_fig5():
    """Figure 5 rows (raw floats — simulation is bit-deterministic)."""
    from repro.experiments.fig5 import run_fig5

    return {
        "scale": GOLDEN_SCALE,
        "seed": GOLDEN_SEED,
        "n_seeds": GOLDEN_FIG5_SEEDS,
        "rows": [
            {
                "target_util": r.target_util,
                "measured_util": r.measured_util,
                "baseline_loss": r.baseline_loss,
                "static_loss": r.static_loss,
                "adaptive_loss": r.adaptive_loss,
                "static_refs": r.static_refs,
                "adaptive_refs": r.adaptive_refs,
            }
            for r in run_fig5(golden_config(), n_seeds=GOLDEN_FIG5_SEEDS)
        ],
    }


def compute_aqm():
    """Tail-drop vs RED bottleneck condition summaries, as
    :func:`~repro.experiments.extensions.run_aqm_comparison` builds them
    (floats as ``float.hex``, so the JSON pins every bit)."""
    from repro.experiments.workloads import run_condition_job
    from repro.runner.spec import JobSpec

    rows = []
    for aqm in (None, "red"):
        job = JobSpec.from_config(golden_config(), "static", "random", 0.95,
                                  run_seed=0, aqm=aqm)
        summary = run_condition_job(job)
        join = summary.mean_join
        rows.append({
            "aqm": aqm,
            "arrivals2": summary.arrivals2,
            "drops2": summary.drops2,
            "measured_util": summary.measured_util.hex(),
            "utilization1": summary.utilization1.hex(),
            "refs_injected": summary.refs_injected,
            "mean_join": {
                "errors": [float(e).hex() for e in join.errors],
                "joined": join.joined,
                "skipped_missing": join.skipped_missing,
                "skipped_zero": join.skipped_zero,
            },
        })
    return {"scale": GOLDEN_SCALE, "seed": GOLDEN_SEED, "rows": rows}


def compute_multihop():
    """Multihop ablation rows: (chain length, median flow-mean relative
    error, mean true latency), floats as ``float.hex``."""
    from repro.experiments.extensions import run_multihop_ablation

    return {
        "scale": GOLDEN_SCALE,
        "seed": GOLDEN_SEED,
        "rows": [
            {"n_hops": n_hops, "median_error": median.hex(),
             "mean_true_latency": latency.hex()}
            for n_hops, median, latency
            in run_multihop_ablation(golden_config(), hops=GOLDEN_MULTIHOP_HOPS)
        ],
    }


def main() -> int:
    from reference_path import reference_path

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, compute in (("fig4ab", compute_fig4ab), ("fig5", compute_fig5),
                          ("aqm", compute_aqm), ("multihop", compute_multihop)):
        path = GOLDEN_DIR / f"{name}_scale{GOLDEN_SCALE}_seed{GOLDEN_SEED}.json"
        with reference_path():
            doc = compute()
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
