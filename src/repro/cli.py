"""Command-line interface: ``repro-rlir``.

Operator-facing entry points for the library's main workflows:

    repro-rlir generate-trace --packets 50000 --out regular.npz
    repro-rlir trace-info regular.npz
    repro-rlir convert regular.npz regular.csv
    repro-rlir fig4a [--scale 0.1] [--jobs 4]             # likewise fig4b/fig4c/fig5
    repro-rlir fig4a --backend distributed --jobs 2       # embedded cluster
    repro-rlir placement --k 4 8 16
    repro-rlir extensions [multihop granularity ...] [--jobs 4 --shards 4]
    repro-rlir localize [--demux reverse-ecmp] [--jobs 4 --shards 4]
    repro-rlir cache info|clear
    repro-rlir fig4a --obs [--obs-trace] [--verbose]      # telemetry artifact
    repro-rlir obs artifacts/obs/run-*.json               # summarize one
    repro-rlir broker --listen 0.0.0.0:7077               # standing cluster…
    repro-rlir worker --connect HOST:7077                 # …one per machine
    repro-rlir fig4a --broker HOST:7077                   # …drive it
    repro-rlir broker-stats --connect HOST:7077           # live counters
    repro-rlir shape --listen :7177 --upstream HOST:7077 --latency-ms 500 \\
        --jitter-ms 200 --seed 1                          # degraded-link relay

Experiment subcommands print the same rows/series the paper's figures plot
(and the benches assert on), plus terminal CDF plots.  Their condition
sweeps run through :mod:`repro.runner`: ``--jobs N`` fans conditions out
over N worker processes, and results are memoized under ``.repro-cache/``
(keyed by config, code version, and seeds) unless ``--no-cache`` is given —
a repeated invocation answers from the cache in milliseconds.  For the
``extensions`` and ``localize`` studies ``--shards S`` additionally splits
each condition's per-flow estimation over S flow shards with bitwise
identical output (see ``repro.core.replay``).

``--backend`` picks the execution backend explicitly: ``serial``,
``process`` (the multiprocessing pool ``--jobs`` implies), or
``distributed`` — a broker/worker cluster (see ``repro.distrib``) that is
either embedded (spawning ``--jobs`` local workers) or external
(``--broker HOST:PORT``, pointing at a ``repro-rlir broker`` with
``repro-rlir worker`` processes attached from any number of machines).
Every backend prints byte-identical experiment output.

``--obs`` records zero-perturbation telemetry (``repro.obs``): spans,
counters, and histograms across the runner, cache, batch kernels, and —
on the distributed backend — the broker and workers, written as a JSON
artifact under ``artifacts/obs/`` when the command finishes
(``--obs-trace`` additionally emits a Perfetto-loadable Chrome trace).
Experiment stdout is byte-identical with ``--obs`` on: everything the
flag adds goes to stderr or the artifact file.  ``--verbose`` surfaces
once-per-sweep stderr notes when a simulation falls back from the
columnar fast path to the object path (see ``docs/observability.md``).

Each simulation runs on the columnar fast path — pipeline, multihop
chain, or layered fat-tree driver as the study demands — wherever it
applies, with byte-identical output either way
(``docs/internals-batch.md``); the full operator guide lives in
``docs/running.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro-rlir argument parser (see module docstring)."""
    parser = argparse.ArgumentParser(
        prog="repro-rlir",
        description="RLIR: flow-level latency measurements across routers "
                    "(Singh et al., HotICE 2011) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-trace", help="synthesize an OC-192-like trace")
    gen.add_argument("--packets", type=int, default=50_000)
    gen.add_argument("--duration", type=float, default=2.0)
    gen.add_argument("--mean-flow-pkts", type=float, default=15.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--src-base", default="10.1.0.0")
    gen.add_argument("--dst-base", default="10.2.0.0")
    gen.add_argument("--out", required=True, help=".npz or .csv path")

    info = sub.add_parser("trace-info", help="summarize a saved trace")
    info.add_argument("path")

    conv = sub.add_parser("convert", help="convert a trace between npz and csv")
    conv.add_argument("src")
    conv.add_argument("dst")

    for fig, description in (
        ("fig4a", "per-flow mean-latency accuracy CDFs"),
        ("fig4b", "per-flow std-dev accuracy CDFs"),
        ("fig4c", "bursty vs random cross-traffic accuracy"),
        ("fig5", "reference-packet loss interference sweep"),
    ):
        p = sub.add_parser(fig, help=f"reproduce {description}")
        p.add_argument("--scale", type=float, default=None,
                       help="workload scale (default: REPRO_SCALE or 1.0)")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--no-plot", action="store_true")
        _add_runner_flags(p)
        if fig == "fig5":
            p.add_argument("--seeds", type=int, default=3,
                           help="cross-traffic selections averaged per point")

    plc = sub.add_parser("placement", help="deployment-complexity table")
    plc.add_argument("--k", type=int, nargs="+", default=[4, 8, 16, 32, 48])
    plc.add_argument("--enumerate-up-to", type=int, default=16)
    _add_runner_flags(plc)

    cache = sub.add_parser("cache", help="inspect or clear the sweep result cache")
    cache.add_argument("action", choices=["info", "clear"])
    cache.add_argument("--cache-dir", default=None,
                       help="cache directory (default: .repro-cache)")
    cache.add_argument("--obs-dir", default=None, metavar="DIR",
                       help="obs artifact directory for the lifetime "
                            "hit/miss/put totals (default: artifacts/obs)")

    obsp = sub.add_parser("obs", help="summarize a recorded obs run artifact")
    obsp.add_argument("artifact", help="path to an artifacts/obs/run-*.json")
    obsp.add_argument("--no-validate", action="store_true",
                      help="skip schema validation of the artifact")

    bst = sub.add_parser("broker-stats",
                         help="query a running broker's metrics snapshot")
    bst.add_argument("--connect", required=True, metavar="HOST:PORT",
                     help="broker address to query")
    bst.add_argument("--authkey", default=None,
                     help="cluster auth secret (default: REPRO_DISTRIB_AUTHKEY "
                          "env or built-in)")
    bst.add_argument("--timeout", type=float, default=10.0,
                     help="seconds to wait for the stats reply (default 10)")
    bst.add_argument("--json", action="store_true",
                     help="print the raw snapshot as JSON")

    wrk = sub.add_parser("worker", help="run one distributed-sweep worker")
    wrk.add_argument("--connect", required=True, metavar="HOST:PORT",
                     help="broker address to join")
    wrk.add_argument("--cache-dir", default=None,
                     help="shared result cache to consult/publish (optional)")
    wrk.add_argument("--heartbeat", type=float, default=2.0,
                     help="seconds between liveness heartbeats (default 2)")
    wrk.add_argument("--authkey", default=None,
                     help="cluster auth secret (default: REPRO_DISTRIB_AUTHKEY "
                          "env or built-in)")
    wrk.add_argument("--reconnects", type=int, default=5,
                     help="consecutive failed reconnect attempts before "
                          "giving the broker up for dead (default 5)")

    brk = sub.add_parser("broker", help="run a standalone sweep broker")
    brk.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                     help="bind address; port 0 picks one (default 127.0.0.1:0)")
    brk.add_argument("--heartbeat-timeout", type=float, default=10.0,
                     help="seconds of worker silence before requeueing its "
                          "jobs (default 10)")
    brk.add_argument("--max-retries", type=int, default=2,
                     help="chunk retry budget before structured failure "
                          "(default 2)")
    brk.add_argument("--authkey", default=None,
                     help="cluster auth secret (default: REPRO_DISTRIB_AUTHKEY "
                          "env or built-in)")
    brk.add_argument("--journal-dir", default=None, metavar="DIR",
                     help="persist queue state here so a restarted broker "
                          "resumes unfinished sweeps (restart with the same "
                          "port and the same DIR)")
    brk.add_argument("--max-hedges-per-chunk", type=int, default=1,
                     help="duplicate dispatches allowed per tail chunk stuck "
                          "on a slow worker; 0 disables hedging (default 1)")

    shp = sub.add_parser(
        "shape", help="run a degraded-link relay in front of a broker")
    shp.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                     help="bind address; port 0 picks one (default 127.0.0.1:0)")
    shp.add_argument("--upstream", required=True, metavar="HOST:PORT",
                     help="broker (or other peer) to relay to")
    shp.add_argument("--latency-ms", type=float, default=0.0,
                     help="one-way delay added to every message (default 0)")
    shp.add_argument("--jitter-ms", type=float, default=0.0,
                     help="uniform ±jitter around the base latency (default 0)")
    shp.add_argument("--bandwidth-kbps", type=float, default=None,
                     help="throttle to this many kilobits/s (default: none)")
    shp.add_argument("--reorder-window", type=int, default=0,
                     help="messages may overtake at most this many others "
                          "(default 0: in-order)")
    shp.add_argument("--stutter-rate", type=float, default=0.0,
                     help="probability a message freezes the link (default 0)")
    shp.add_argument("--stutter-ms", type=float, default=0.0,
                     help="length of each stutter freeze (default 0)")
    shp.add_argument("--seed", type=int, default=0,
                     help="seed for jitter/reorder/stutter draws; same seed "
                          "and traffic replays the same degradation "
                          "(default 0)")

    ext = sub.add_parser("extensions", help="run the extension studies")
    ext.add_argument("studies", nargs="*", default=[], metavar="STUDY",
                     help=f"studies to run (default: all of "
                          f"{', '.join(EXTENSION_STUDIES)})")
    ext.add_argument("--scale", type=float, default=None,
                     help="workload scale (default: REPRO_SCALE or 1.0)")
    ext.add_argument("--seed", type=int, default=42,
                     help="trace seed for pipeline-based studies")
    ext.add_argument("--run-seed", type=int, default=0,
                     help="base seed for per-run random streams")
    _add_runner_flags(ext, shards=True)

    loc = sub.add_parser("localize", help="run the RLIR localization demo")
    loc.add_argument("--demux", choices=["marking", "reverse-ecmp"],
                     default="reverse-ecmp")
    loc.add_argument("--packets", type=int, default=20_000)
    loc.add_argument("--run-seed", type=int, default=0,
                     help="base seed for the scenario's traces")
    _add_runner_flags(loc, shards=True)

    return parser


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {raw}")
    return value


# selectable study names; per-study dispatch lives in _cmd_extensions
EXTENSION_STUDIES = ("multihop", "granularity", "memory", "ptp", "tail",
                     "mesh", "aqm")


def _add_runner_flags(p: argparse.ArgumentParser, shards: bool = False) -> None:
    """Sweep-runner knobs shared by every experiment subcommand."""
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes for the condition sweep (default 1)")
    p.add_argument("--backend", choices=("auto", "serial", "process", "distributed"),
                   default="auto",
                   help="execution backend (default auto: serial for --jobs 1, "
                        "a process pool otherwise; distributed runs a "
                        "broker/worker cluster)")
    p.add_argument("--broker", default=None, metavar="HOST:PORT",
                   help="drive an external distributed broker instead of "
                        "embedding one (implies --backend distributed)")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the on-disk result cache")
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory (default: .repro-cache)")
    if shards:
        p.add_argument("--shards", type=_positive_int, default=1,
                       help="flow shards per condition for the studies that "
                            "support within-condition sharding (default 1)")
    p.add_argument("--obs", action="store_true",
                   help="record spans/counters and write a run artifact "
                        "under artifacts/obs/ (stdout stays byte-identical)")
    p.add_argument("--obs-dir", default=None, metavar="DIR",
                   help="artifact directory for --obs (default: artifacts/obs)")
    p.add_argument("--obs-trace", action="store_true",
                   help="with --obs, also write a Chrome trace-event file "
                        "(Perfetto-loadable)")
    p.add_argument("--verbose", action="store_true",
                   help="stderr notes when a simulation falls back from the "
                        "columnar fast path (once per site+reason per sweep)")


# ----------------------------------------------------------------------
# subcommand implementations (imports are local so --help stays instant)


def _cmd_generate_trace(args) -> int:
    from .traffic.csvio import save_csv
    from .traffic.synthetic import TraceConfig, generate_trace

    cfg = TraceConfig(
        duration=args.duration,
        n_packets=args.packets,
        mean_flow_pkts=args.mean_flow_pkts,
        src_base=args.src_base,
        dst_base=args.dst_base,
    )
    trace = generate_trace(cfg, seed=args.seed)
    if args.out.endswith(".csv"):
        save_csv(trace, args.out)
    else:
        trace.save(args.out)
    print(f"wrote {trace!r} -> {args.out}")
    return 0


def _load_any(path: str):
    from .traffic.csvio import load_csv
    from .traffic.trace import Trace

    return load_csv(path) if path.endswith(".csv") else Trace.load(path)


def _cmd_trace_info(args) -> int:
    trace = _load_any(args.path)
    print(f"name:      {trace.name}")
    print(f"packets:   {len(trace)}")
    print(f"flows:     {trace.n_flows}")
    print(f"duration:  {trace.duration:.3f}s")
    print(f"bytes:     {trace.total_bytes}")
    print(f"mean rate: {trace.mean_rate_bps() / 1e6:.2f} Mb/s")
    return 0


def _cmd_convert(args) -> int:
    from .traffic.csvio import save_csv

    trace = _load_any(args.src)
    if args.dst.endswith(".csv"):
        save_csv(trace, args.dst)
    else:
        trace.save(args.dst)
    print(f"converted {args.src} -> {args.dst} ({len(trace)} packets)")
    return 0


def _fig_config(args):
    from .experiments.config import ExperimentConfig

    return ExperimentConfig(scale=args.scale, seed=args.seed)


def _make_runner(args):
    from .runner import DEFAULT_CACHE_DIR, ResultCache, make_runner

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    backend = getattr(args, "backend", "auto")
    broker = getattr(args, "broker", None)
    progress = None
    if backend == "distributed" or broker is not None:
        from .distrib.progress import ProgressPrinter

        progress = ProgressPrinter()  # stderr only: stdout stays diffable
    return make_runner(backend=backend, jobs=args.jobs, cache=cache,
                       broker=broker, progress=progress)


def _print_fig4(curves, show_plot: bool, std: bool = False) -> None:
    from .analysis.plot import ascii_cdf
    from .analysis.report import format_table

    headers = ["series", "util", "true mean (us)", "median RE(mean)",
               "flows RE<10%", "median RE(std)", "refs"]
    print(format_table(headers, [c.summary_row() for c in curves]))
    if show_plot:
        curves_by_label = {
            c.label: (c.std_ecdf if std else c.mean_ecdf)
            for c in curves
            if (c.std_ecdf if std else c.mean_ecdf) is not None
        }
        print()
        print(ascii_cdf(curves_by_label))


def _cmd_fig4a(args) -> int:
    from .experiments.fig4 import run_fig4ab

    _print_fig4(run_fig4ab(_fig_config(args), runner=_make_runner(args)),
                not args.no_plot)
    return 0


def _cmd_fig4b(args) -> int:
    from .experiments.fig4 import run_fig4ab

    _print_fig4(run_fig4ab(_fig_config(args), runner=_make_runner(args)),
                not args.no_plot, std=True)
    return 0


def _cmd_fig4c(args) -> int:
    from .experiments.fig4 import run_fig4c

    _print_fig4(run_fig4c(_fig_config(args), runner=_make_runner(args)),
                not args.no_plot)
    return 0


def _cmd_fig5(args) -> int:
    from .analysis.plot import ascii_series
    from .analysis.report import format_table
    from .experiments.fig5 import run_fig5

    rows = run_fig5(_fig_config(args), n_seeds=args.seeds,
                    runner=_make_runner(args))
    print(format_table(
        ["target util", "measured util", "baseline loss", "static diff", "adaptive diff"],
        [[f"{r.target_util:.2f}", f"{r.measured_util:.3f}", f"{r.baseline_loss:.6f}",
          f"{r.static_diff:+.6f}", f"{r.adaptive_diff:+.6f}"] for r in rows],
    ))
    if not args.no_plot:
        print()
        print(ascii_series(
            {
                "static": [(r.measured_util, r.static_diff) for r in rows],
                "adaptive": [(r.measured_util, r.adaptive_diff) for r in rows],
            },
            x_label="bottleneck utilization",
        ))
    return 0


def _cmd_placement(args) -> int:
    from .analysis.report import format_table
    from .experiments.placement import run_placement

    rows = run_placement(ks=tuple(args.k), enumerate_up_to=args.enumerate_up_to,
                         runner=_make_runner(args))
    print(format_table(
        ["k", "iface pair", "ToR pair", "all pairs (paper)",
         "all pairs (enum)", "full deploy", "RLIR/full"],
        [r.as_list() for r in rows],
    ))
    return 0


def _cmd_localize(args) -> int:
    from .analysis.report import format_table, us
    from .experiments.extensions import run_localization_study

    report = run_localization_study(
        n_packets=args.packets,
        demux_method=args.demux,
        runner=_make_runner(args),
        shards=args.shards,
        run_seed=args.run_seed,
    )
    print(format_table(
        ["segment", "mean latency", "flows", "anomalous?"],
        [[s.name, us(s.mean), s.n_flows,
          "YES" if s.name in report.anomalous else ""] for s in report.summaries],
    ))
    print(f"\nculprit: {report.culprit}")
    return 0


def _cmd_extensions(args) -> int:
    from .analysis.report import format_table
    from .experiments.config import ExperimentConfig
    from .experiments import extensions as ext

    studies = list(args.studies) or list(EXTENSION_STUDIES)
    unknown = sorted(set(studies) - set(EXTENSION_STUDIES))
    if unknown:
        print(f"unknown studies: {', '.join(unknown)} "
              f"(choose from {', '.join(EXTENSION_STUDIES)})", file=sys.stderr)
        return 2
    cfg = ExperimentConfig(scale=args.scale, seed=args.seed)
    scale = cfg.scale
    runner = _make_runner(args)
    seed = args.run_seed

    def banner(title):
        print(f"\n== {title} ==")

    if "multihop" in studies:
        rows = ext.run_multihop_ablation(cfg, runner=runner,
                                         shards=args.shards, run_seed=seed)
        banner("multihop: accuracy vs measured-segment length")
        print(format_table(
            ["hops", "median RE(mean)", "true mean (us)"],
            [[h, f"{m:.4f}", f"{lat * 1e6:.1f}"] for h, m, lat in rows]))
    if "granularity" in studies:
        rows = ext.run_granularity_comparison(
            n_packets=max(4000, int(20_000 * scale)), runner=runner,
            shards=args.shards)
        banner("granularity: full RLI vs RLIR")
        print(format_table(
            ["deployment", "instances", "segments", "culprit", "granularity"],
            [[r.name, r.instances, r.n_segments, r.culprit,
              "single queue" if r.pinned_to_single_queue else "segment"]
             for r in rows]))
    if "memory" in studies:
        rows = ext.run_memory_ablation(cfg, runner=runner, run_seed=seed)
        banner("memory: receiver flow-table bound")
        print(format_table(
            ["max flows", "retained", "evicted samples", "median RE"],
            [[b if b is not None else "unbounded", kept, ev, f"{m:.4f}"]
             for b, kept, ev, m in rows]))
    if "ptp" in studies:
        rows = ext.run_ptp_study(runner=runner, run_seed=seed)
        banner("ptp: residual sync error vs path jitter")
        print(format_table(
            ["jitter (us)", "mean |residual| (us)"],
            [[f"{j * 1e6:.1f}", f"{r * 1e6:.3f}"] for j, r in rows]))
    if "tail" in studies:
        results = ext.run_tail_accuracy(cfg, runner=runner, run_seed=seed)
        banner("tail: per-flow quantile accuracy")
        print(format_table(
            ["quantile", "flows", "median RE"],
            [[f"p{int(q * 100)}", len(e), f"{e.median:.4f}"]
             for q, e in sorted(results.items())]))
    if "mesh" in studies:
        rows = ext.run_mesh_study(
            n_packets_per_pair=max(5000, int(15_000 * scale)),
            runner=runner, run_seed=seed)
        banner("mesh: shared-core RLIR, three ToR pairs")
        print(format_table(
            ["pair", "flows (seg2)", "seg2 median RE", "e2e median RE"],
            [[pair, flows, f"{s2:.4f}", f"{e2:.4f}"]
             for pair, flows, s2, e2 in rows]))
    if "aqm" in studies:
        rows = ext.run_aqm_comparison(cfg, runner=runner, run_seed=seed)
        banner("aqm: tail-drop vs RED bottleneck")
        print(format_table(
            ["discipline", "regular loss", "median RE", "ref drops"],
            [[n, f"{loss:.5f}", f"{m:.4f}", d] for n, loss, m, d in rows]))
    return 0


def _obs_lifetime_totals(obs_dir: Optional[str]) -> dict:
    """Sum cache counters across every persisted obs run artifact.

    Unreadable or non-artifact files are skipped — the totals are a
    convenience aggregate, not a source of truth.
    """
    import glob
    import json
    import os

    from .obs import ARTIFACT_DIR

    totals = {"runs": 0, "cache.hit": 0.0, "cache.miss": 0.0, "cache.put": 0.0}
    pattern = os.path.join(obs_dir or ARTIFACT_DIR, "run-*.json")
    for path in sorted(glob.glob(pattern)):
        if path.endswith(".trace.json"):
            continue
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            counters = doc["counters"]
        except (OSError, ValueError, KeyError, TypeError):
            continue
        if not isinstance(counters, dict):
            continue
        totals["runs"] += 1
        for key in ("cache.hit", "cache.miss", "cache.put"):
            value = counters.get(key, 0)
            if isinstance(value, (int, float)):
                totals[key] += value
    return totals


def _cmd_cache(args) -> int:
    from .runner import DEFAULT_CACHE_DIR, ResultCache

    cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
        return 0
    stats = cache.stats()
    print(f"cache dir: {cache.root}")
    print(f"entries:   {stats['entries']}")
    if stats["orphans"]:
        print(f"orphans:   {stats['orphans']} interrupted writes (cache clear removes)")
    print(f"bytes:     {stats['bytes']}")
    print(f"code:      {cache.fingerprint[:16]}…")
    totals = _obs_lifetime_totals(args.obs_dir)
    if totals["runs"]:
        hits = int(totals["cache.hit"])
        misses = int(totals["cache.miss"])
        puts = int(totals["cache.put"])
        looked = hits + misses
        rate = f" ({hits / looked:.0%} hit rate)" if looked else ""
        print(f"lifetime:  {hits} hits / {misses} misses / {puts} puts "
              f"across {totals['runs']} recorded run(s){rate}")
    return 0


def _cmd_obs(args) -> int:
    import json

    from .analysis.report import format_table
    from .obs import span_summary, validate_artifact

    try:
        with open(args.artifact, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"repro-rlir obs: cannot read {args.artifact}: {exc}",
              file=sys.stderr)
        return 2
    if not args.no_validate:
        errors = validate_artifact(doc)
        if errors:
            print(f"repro-rlir obs: {args.artifact} fails schema validation:",
                  file=sys.stderr)
            for err in errors[:20]:
                print(f"  {err}", file=sys.stderr)
            return 1
    meta = doc.get("meta", {})
    spans = doc.get("spans", [])
    processes = sorted({rec["process"] for rec in spans})
    print(f"artifact:  {args.artifact}")
    print(f"schema:    {doc.get('schema')}")
    print(f"created:   {meta.get('created')}")
    print(f"command:   {' '.join(meta.get('argv', []))}")
    print(f"processes: {len(processes)} ({', '.join(processes)})"
          if processes else "processes: 0")
    summary = span_summary(spans)
    if summary:
        print()
        print(format_table(
            ["span", "count", "total (s)", "max (s)"],
            [[name, int(stat["count"]), f"{stat['total_s']:.4f}",
              f"{stat['max_s']:.4f}"] for name, stat in summary.items()],
        ))
    counters = doc.get("counters", {})
    if counters:
        print()
        print(format_table(
            ["counter", "value"],
            [[key, f"{value:g}"] for key, value in sorted(counters.items())],
        ))
    gauges = doc.get("gauges", {})
    if gauges:
        print()
        print(format_table(
            ["gauge", "value"],
            [[key, f"{value:g}"] for key, value in sorted(gauges.items())],
        ))
    hists = doc.get("histograms", {})
    if hists:
        print()
        print(format_table(
            ["histogram", "count", "mean", "min", "max"],
            [[key, int(h["count"]),
              f"{h['total'] / h['count']:.4g}" if h["count"] else "-",
              f"{h['min']:.4g}", f"{h['max']:.4g}"]
             for key, h in sorted(hists.items())],
        ))
    return 0


def _cmd_broker_stats(args) -> int:
    import json
    import time as _time
    from multiprocessing.connection import Client

    from .analysis.report import format_table
    from .distrib.protocol import authkey_from_env, parse_address
    from .runner.cache import code_fingerprint

    try:
        address = parse_address(args.connect)
    except ValueError as exc:
        print(f"repro-rlir broker-stats: error: {exc}", file=sys.stderr)
        return 2
    try:
        conn = Client(address, authkey=authkey_from_env(args.authkey))
    except (OSError, EOFError) as exc:
        print(f"repro-rlir broker-stats: cannot connect to {args.connect}: "
              f"{exc}", file=sys.stderr)
        return 1
    try:
        conn.send(("hello", "driver", code_fingerprint(), {"stats_only": True}))
        reply = conn.recv()
        if reply[0] == "reject":
            print(f"repro-rlir broker-stats: rejected: {reply[1]}",
                  file=sys.stderr)
            return 1
        conn.send(("stats",))
        deadline = _time.monotonic() + args.timeout
        snapshot = None
        while _time.monotonic() < deadline:
            if not conn.poll(0.2):
                continue
            message = conn.recv()
            if message[0] == "stats":
                snapshot = message[1]
                break
        try:
            conn.send(("bye",))
        except (OSError, ValueError):
            pass
    except (EOFError, ConnectionError, OSError) as exc:
        print(f"repro-rlir broker-stats: connection lost: {exc}",
              file=sys.stderr)
        return 1
    finally:
        conn.close()
    if snapshot is None:
        print(f"repro-rlir broker-stats: no stats reply within "
              f"{args.timeout}s", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    print(f"broker:  {args.connect}")
    for section in ("counters", "gauges"):
        entries = snapshot.get(section, {})
        if entries:
            print()
            print(format_table(
                [section[:-1], "value"],
                [[key, f"{value:g}"]
                 for key, value in sorted(entries.items())],
            ))
    hists = snapshot.get("histograms", {})
    if hists:
        print()
        print(format_table(
            ["histogram", "count", "mean", "min", "max"],
            [[key, int(h["count"]),
              f"{h['total'] / h['count']:.4g}" if h["count"] else "-",
              f"{h['min']:.4g}", f"{h['max']:.4g}"]
             for key, h in sorted(hists.items())],
        ))
    return 0


def _cmd_worker(args) -> int:
    from .distrib.protocol import parse_address
    from .distrib.worker import worker_main

    try:
        parse_address(args.connect)
    except ValueError as exc:
        print(f"repro-rlir worker: error: {exc}", file=sys.stderr)
        return 2
    return worker_main(
        connect=args.connect,
        cache_dir=args.cache_dir,
        heartbeat=args.heartbeat,
        authkey=args.authkey,
        reconnects=args.reconnects,
    )


def _cmd_broker(args) -> int:
    from .distrib.broker import Broker
    from .distrib.protocol import authkey_from_env, format_address, parse_address
    from .runner.cache import code_fingerprint

    broker = Broker(
        address=parse_address(args.listen),
        authkey=authkey_from_env(args.authkey),
        heartbeat_timeout=args.heartbeat_timeout,
        max_retries=args.max_retries,
        journal_dir=args.journal_dir,
        max_hedges_per_chunk=args.max_hedges_per_chunk,
    )
    resumed = broker.sweep_count()
    print(f"broker listening on {format_address(broker.address)} "
          f"(code {code_fingerprint()[:12]}…)"
          + (f", resumed {resumed} journaled sweep(s)" if resumed else ""),
          flush=True)
    try:
        broker.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        broker.close()
    return 0


def _cmd_shape(args) -> int:
    from .distrib.protocol import format_address, parse_address
    from .distrib.shaping import LinkShape, ShapingProxy

    shape = LinkShape(
        latency=args.latency_ms / 1000.0,
        jitter=args.jitter_ms / 1000.0,
        # kilobits/s -> bytes/s
        bandwidth=(args.bandwidth_kbps * 125.0
                   if args.bandwidth_kbps else None),
        reorder_window=max(0, args.reorder_window),
        stutter_rate=args.stutter_rate,
        stutter_duration=args.stutter_ms / 1000.0,
    )
    proxy = ShapingProxy(
        upstream=parse_address(args.upstream),
        shape=shape,
        listen=parse_address(args.listen),
        seed=args.seed,
    )
    proxy.start()
    print(f"shaping {format_address(proxy.address)} -> {args.upstream} "
          f"({shape!r}, seed {args.seed})", flush=True)
    try:
        proxy.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        proxy.close()
    return 0


_COMMANDS = {
    "generate-trace": _cmd_generate_trace,
    "trace-info": _cmd_trace_info,
    "convert": _cmd_convert,
    "fig4a": _cmd_fig4a,
    "fig4b": _cmd_fig4b,
    "fig4c": _cmd_fig4c,
    "fig5": _cmd_fig5,
    "placement": _cmd_placement,
    "extensions": _cmd_extensions,
    "localize": _cmd_localize,
    "cache": _cmd_cache,
    "obs": _cmd_obs,
    "broker-stats": _cmd_broker_stats,
    "worker": _cmd_worker,
    "broker": _cmd_broker,
    "shape": _cmd_shape,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    broker = getattr(args, "broker", None)
    if broker is not None:
        from .distrib.protocol import parse_address
        from .runner.backends import validate_backend_options

        try:
            validate_backend_options(getattr(args, "backend", "auto"), broker)
            parse_address(broker)
        except ValueError as exc:
            parser.error(str(exc))
    obs_on = bool(getattr(args, "obs", False))
    if obs_on or getattr(args, "verbose", False):
        from repro import obs

        if obs_on:
            obs.enable(process="driver")
        if getattr(args, "verbose", False):
            obs.set_verbose(True)
    code = _COMMANDS[args.command](args)
    if obs_on:
        # after the command so the artifact sees the whole run; the path
        # note goes to stderr — experiment stdout must stay byte-identical
        # with --obs on (the obs-smoke CI lane diffs it)
        from repro import obs

        path = obs.write_artifact(
            meta={"command": args.command},
            out_dir=getattr(args, "obs_dir", None),
            chrome_trace=bool(getattr(args, "obs_trace", False)),
        )
        print(f"[repro.obs] wrote {path}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
