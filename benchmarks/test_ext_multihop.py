"""Extension bench: RLI accuracy across a growing multi-router segment.

The RLIR premise is that one sender/receiver pair can measure across
several queues ("implementing RLI across routers").  This bench stresses
that premise: independent cross traffic at every hop of an N-switch chain,
accuracy as a function of segment length.
"""

from conftest import print_banner

from repro.analysis.report import format_table
from repro.experiments.extensions import run_multihop_ablation


def test_ext_multihop(benchmark, bench_config, bench_runner):
    rows = benchmark.pedantic(
        run_multihop_ablation, args=(bench_config,),
        kwargs={"runner": bench_runner},
        rounds=1, iterations=1)

    print_banner("Extension: accuracy vs measured-segment length (80% util/hop)")
    print(format_table(
        ["hops in segment", "median RE(mean)", "true mean latency (us)"],
        [[hops, f"{median:.4f}", f"{latency * 1e6:.1f}"]
         for hops, median, latency in rows],
    ))

    # latency grows with hops (sum of queues) ...
    latencies = [latency for _, _, latency in rows]
    assert latencies == sorted(latencies)
    # ... and interpolation keeps tracking it: error stays bounded
    for hops, median, _ in rows:
        assert median < 0.6, f"accuracy collapsed at {hops} hops"
