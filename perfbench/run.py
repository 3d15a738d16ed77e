"""Outside-in benchmark of the RLIR reproduction: one study per workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig4_pipeline --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seconds 24

One process drives one study at a time (a closed loop with one client)
through the public drivers of ``repro.experiments`` on the serial backend
and the columnar path.  ``--trace 0`` prints the end-to-end metrics,
measured with tracing off; ``--trace 1`` makes a separate traced run and
prints the per-layer metrics.  The last line of stdout is the result
JSON; the line before it carries the host record, sample counts and
checks, and the same record (plus spans, when traced) is written under
``.perfbench-work/results/``.
"""

from __future__ import annotations

import os
import sys

# Pin native thread pools before numpy is imported anywhere, and keep
# telemetry off unless the traced run turns it on.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("REPRO_OBS", "REPRO_OBS_VERBOSE", "REPRO_OBS_PROCESS"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostinfo  # noqa: E402

WORKLOADS = ("fig4_pipeline", "fig5_overload", "multihop_replay", "fattree_localize")
WORK_DIR = Path(".perfbench-work")
SETUP_REPEATS = 5
# A warm pass takes a few tens of milliseconds, too short to average out
# the host's drift, so each round makes several: some before and some after
# its distributed pass, so that they see different moments of the host.
WARM_BEFORE_DIST, WARM_AFTER_DIST = 2, 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import repro.experiments; "
                "print(time.perf_counter() - t)")


class Checks:
    """Output checks counted against checks attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list = []

    def record(self, name: str, outcome) -> None:
        """Count *outcome*: True passes, False fails, None is not attempted."""
        if outcome is None:
            return
        self.attempted += 1
        if not outcome:
            self.failures.append(name)


class Bench:
    """Drives one workload's passes and counts the output checks."""

    def __init__(self, study_cls, seed: int, run_dir: Path) -> None:
        from repro.runner.backends import make_runner
        from repro.runner.cache import ResultCache

        self.study_cls = study_cls
        self.seed = seed
        self.run_dir = run_dir
        self.make_runner = make_runner
        self.ResultCache = ResultCache
        self.checks = Checks()
        self.skipped_seeds: set = set()
        self._dirs = 0

    def fresh_cache(self):
        self._dirs += 1
        return self.ResultCache(str(self.run_dir / f"cache{self._dirs}"))

    def timed(self, study, runner):
        """One study with every in-process memo cold; (seconds, output)."""
        from studies import clear_memos

        clear_memos()
        gc.collect()
        start = time.perf_counter()
        output = study.run(runner)
        return time.perf_counter() - start, output

    def serial(self, study, cache=None):
        """A serial pass; without *cache*, a cold one on a private cache."""
        if cache is not None:
            return self.timed(study, self.make_runner("serial", cache=cache))
        cache = self.fresh_cache()
        try:
            return self.timed(study, self.make_runner("serial", cache=cache))
        finally:
            shutil.rmtree(cache.root, ignore_errors=True)

    def distributed(self, study, workers: int):
        cache = self.fresh_cache()
        runner = self.make_runner("distributed", jobs=workers, cache=cache)
        try:
            return self.timed(study, runner)
        finally:
            runner.close()
            shutil.rmtree(cache.root, ignore_errors=True)

    def studies(self):
        """The studies of input seeds ``1000 * seed + k``, k = 0, 1, ...

        Each round studies fresh inputs: trace sizes are heavy-tailed and
        vary by about 13 % across seeds, so one input per run would make a
        run's time depend on the trace it drew, while a run's medians over
        rounds cover about ten traces.  Seeds the drivers reject (see
        ``Study.feasible``) are skipped and recorded.
        """
        from studies import clear_memos

        k = 0
        while True:
            study = self.study_cls(1000 * self.seed + k)
            k += 1
            clear_memos()
            if study.feasible():
                yield study
            else:
                self.skipped_seeds.add(study.seed)

    def setup_sample(self, study) -> float:
        """Import repro in a fresh interpreter, generate inputs, warm up."""
        from studies import clear_memos

        env = dict(os.environ, PYTHONPATH="src")
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                               capture_output=True, text=True, check=True,
                               timeout=120)
        import_s = float(probe.stdout.strip().splitlines()[-1])
        clear_memos()
        gc.collect()
        start = time.perf_counter()
        study.inputs()
        study.run(self.make_runner("serial"), tiny=True)
        return import_s + time.perf_counter() - start

    def output_checks(self) -> None:
        study = next(self.studies())
        for name, outcome in study.checks(lambda: self.make_runner("serial")):
            self.checks.record(name, outcome)


def measure(bench: Bench, seconds: float, workers: int, setup: list,
            details: dict) -> dict:
    """Closed-loop rounds: a cold, a warm and a distributed pass each.

    Times are scaled by the host factor: the reference loop time over the
    median of the loop timed before and after every round.  The host's
    speed drifts by tens of percent from minute to minute, and the factor
    cancels that drift; the unscaled medians stay in ``details``.
    """
    cold, warm, dist, rates, cal = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    for index, study in enumerate(bench.studies()):
        packets = study.inputs()
        cache = bench.fresh_cache()
        cal.append(hostinfo.python_loop_seconds())
        cold_s, cold_out = bench.serial(study, cache)
        warm_outs = []
        for _ in range(WARM_BEFORE_DIST):
            warm_s, output = bench.serial(study, cache)
            warm.append(warm_s)
            warm_outs.append(output)
        dist_s, dist_out = bench.distributed(study, workers)
        for _ in range(WARM_AFTER_DIST):
            warm_s, output = bench.serial(study, cache)
            warm.append(warm_s)
            warm_outs.append(output)
        cal.append(hostinfo.python_loop_seconds())
        shutil.rmtree(cache.root, ignore_errors=True)
        bench.checks.record(f"round {index}: warm passes print what the cold pass printed",
                            all(output == cold_out for output in warm_outs))
        bench.checks.record(f"round {index}: distributed pass prints what the cold "
                            f"pass printed", dist_out == cold_out)
        cold.append(cold_s)
        dist.append(dist_s)
        rates.append(packets / cold_s)
        if time.perf_counter() >= deadline:
            break
    details["samples"] = {"wall_s": cold, "warm_wall_s": warm, "dist_wall_s": dist,
                          "pkts_per_s": rates, "python_loop_s": cal}
    raw = {"wall_s": statistics.median(cold), "pkts_per_s": statistics.median(rates),
           "warm_wall_s": statistics.median(warm), "dist_wall_s": statistics.median(dist),
           "setup_s": statistics.median(setup)}
    factor = hostinfo.REFERENCE_LOOP_S / statistics.median(cal)
    details["unscaled"] = raw
    details["host_factor"] = factor
    metrics = {name: (value * factor, "s") for name, value in raw.items()}
    metrics["pkts_per_s"] = (raw["pkts_per_s"] / factor, "1/s")
    return metrics


def measure_traced(bench: Bench, seconds: float, workers: int, details: dict) -> dict:
    """Per round: an untraced, an obs-on and a traced cold pass, then a
    traced warm pass; one distributed pass with obs on at the end."""
    from repro import obs

    from spans import Tracer, layer_metrics

    tracer = Tracer()
    plain, with_obs, traced, cache_bytes = [], [], [], []
    obs.reset_metrics()
    deadline = time.perf_counter() + seconds
    for index, study in enumerate(bench.studies()):
        plain_s, plain_out = bench.serial(study)
        obs.enable()
        try:
            obs_s, obs_out = bench.serial(study)
        finally:
            obs.disable()
        cache = bench.fresh_cache()
        tracer.install()
        try:
            tracer.study = f"cold{index}"
            traced_s, cold_out = bench.serial(study, cache)
            tracer.study = f"warm{index}"
            _, warm_out = bench.serial(study, cache)
        finally:
            tracer.uninstall()
        for label, output in (("obs-on", obs_out), ("traced", cold_out),
                              ("traced warm", warm_out)):
            bench.checks.record(f"round {index}: {label} pass prints what the cold "
                                f"pass printed", output == plain_out)
        plain.append(plain_s)
        with_obs.append(obs_s)
        traced.append(traced_s)
        cache_bytes.append(cache.stats()["bytes"])
        shutil.rmtree(cache.root, ignore_errors=True)
        if time.perf_counter() >= deadline:
            break
    rounds = index + 1
    batch_counters = obs.registry_snapshot()["counters"]
    obs.reset_metrics()
    obs.enable()
    try:
        _, dist_out = bench.distributed(study, workers)
        broker_counters = obs.registry_snapshot()["counters"]
    finally:
        obs.disable()
        obs.reset_metrics()
        obs.reset_spans()
    metrics, coverage = layer_metrics(
        tracer, rounds, bench.study_cls, batch_counters, broker_counters,
        cache_bytes, plain, with_obs, traced)
    bench.checks.record("distributed pass prints what the cold pass printed",
                        dist_out == plain_out)
    for name, outcome in coverage:
        bench.checks.record(name, outcome)
    details["samples"] = {"untraced_wall_s": plain, "obs_wall_s": with_obs,
                          "traced_wall_s": traced}
    details["spans"] = tracer.dump()
    return metrics


def run_workload(args) -> int:
    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (src/repro not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))

    from studies import STUDIES

    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)).resolve()
    os.environ["TMPDIR"] = str(run_dir)
    tempfile.tempdir = str(run_dir)
    try:
        details = {"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "host": hostinfo.host_record()}
        bench = Bench(STUDIES[args.workload], args.seed, run_dir)
        # one worker leaves a core to the driver and broker; never more
        # workers than cores
        workers = max(1, hostinfo.nproc() - 1)
        details["dist_workers"] = workers
        setup_studies = bench.studies()
        setup = [bench.setup_sample(next(setup_studies)) for _ in range(SETUP_REPEATS)]
        details["setup_samples"] = setup
        if args.trace:
            metrics = measure_traced(bench, args.seconds, workers, details)
        else:
            metrics = measure(bench, args.seconds, workers, setup, details)
        bench.output_checks()
        if not args.trace:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = (peak, "MB")
        details["host"]["loadavg_after"] = list(os.getloadavg())
        details["skipped_seeds"] = sorted(bench.skipped_seeds)
        details["checks_failed"] = bench.checks.failures
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": not bench.checks.failures,
        "attempted": bench.checks.attempted,
        "failed": len(bench.checks.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    out_dir = WORK_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    record = dict(details, result=result)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    details.pop("spans", None)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Run every workload in turn, one process at a time, and tabulate."""
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, __file__, "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True)
        if proc.returncode != 0 and not proc.stdout.strip():
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        status = status or proc.returncode
        print(f"{workload}: correct={result['correct']} "
              f"checks={result['attempted'] - result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
