"""Extension bench: the paper's central trade-off, measured.

"By only upgrading a few routers ... we can considerably reduce the
deployment costs, but the disadvantage is that there will be an increase in
the localization granularity."  One slow queue is injected into a k=4
fabric; full RLI and RLIR both localize it — at hop vs segment granularity —
with their respective instance budgets.
"""

from conftest import print_banner

from repro.analysis.report import format_table
from repro.experiments.config import default_scale
from repro.experiments.extensions import run_granularity_comparison


def test_ext_granularity(benchmark, bench_runner):
    n_packets = max(4000, int(20_000 * default_scale()))
    rows = benchmark.pedantic(
        run_granularity_comparison,
        kwargs={"n_packets": n_packets, "runner": bench_runner},
        rounds=1, iterations=1)

    print_banner("Extension: full RLI vs RLIR — cost vs localization granularity")
    print(format_table(
        ["deployment", "instances", "segments", "culprit named", "granularity"],
        [[r.name, r.instances, r.n_segments, r.culprit,
          "single queue" if r.pinned_to_single_queue else "multi-router segment"]
         for r in rows],
    ))

    full, rlir = rows
    # both localize the fault...
    assert full.culprit == "C:cores->agg0"  # the exact degraded hop
    assert rlir.culprit == "seg2:to-dst-tor"  # the containing segment
    # ...but RLIR does it with fewer instances and coarser granularity
    assert rlir.instances < full.instances
    assert full.pinned_to_single_queue and not rlir.pinned_to_single_queue
