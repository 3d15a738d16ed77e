#!/usr/bin/env python3
"""Tail-latency SLO monitoring with per-flow quantile estimates.

The paper's motivation is latency-critical services ("a search query ...
needs to be processed within a few 100ms"; trading platforms losing
arbitrage to microseconds).  SLOs on such services are *tail* SLOs.  This
example runs the two-switch environment with a quantile-enabled RLI
receiver (streaming P² estimators, O(1) state per flow per quantile) and
produces the report an operator would page on: flows whose estimated p99
latency violates a budget — checked against ground truth to show the
report's precision.

Run:  python examples/tail_slo_monitoring.py
"""

from repro.analysis.report import format_table, us
from repro.core.receiver import RliReceiver
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import PipelineWorkload
from repro.net.addressing import int_to_ip
from repro.sim.chain import SwitchChain


def main():
    config = ExperimentConfig(scale=0.05, seed=9)
    workload = PipelineWorkload(config)
    print(f"workload: {workload.regular}; bottleneck at ~93% utilization\n")

    sender = workload.make_sender("adaptive")
    receiver = RliReceiver(
        demux=workload.make_receiver().demux,
        quantiles=(0.5, 0.95, 0.99),
    )
    # the two-switch environment is the two-hop chain, cross traffic
    # joining at switch 2 (hop 1)
    SwitchChain(workload.pipeline_config).run_batch(
        workload.regular,
        {1: workload.cross_arrivals_batch("random", 0.93)},
        sender=sender,
        receiver=receiver,
        duration=config.duration,
    )
    receiver.finalize()

    # SLO: p99 one-way latency through the measured segment under budget
    budget = 10e-3
    violations = []
    for key, estimated in receiver.flow_estimated_quantiles.items():
        stats = receiver.flow_true.get(key)
        if stats is None or stats.count < 20:
            continue  # tails of tiny flows are not actionable
        if estimated[0.99] > budget:
            truth = receiver.flow_true_quantiles.get(key)
            violations.append((key, stats.count, estimated, truth))

    violations.sort(key=lambda item: -item[2][0.99])
    print(f"flows with >= 20 packets breaching p99 <= {us(budget)}: "
          f"{len(violations)}\n")
    rows = []
    for key, count, est, truth in violations[:12]:
        rows.append([
            f"{int_to_ip(key[0])}:{key[2]}->{int_to_ip(key[1])}:{key[3]}",
            count,
            us(est[0.5]), us(est[0.95]), us(est[0.99]),
            us(truth[0.99]),
            "true breach" if truth[0.99] > budget else "false alarm",
        ])
    print(format_table(
        ["flow", "pkts", "est p50", "est p95", "est p99", "true p99", "verdict"],
        rows,
    ))

    true_breaches = sum(1 for _, _, _, t in violations if t[0.99] > budget)
    if violations:
        print(f"\nreport precision: {true_breaches}/{len(violations)} "
              f"flagged flows truly breach the budget")


if __name__ == "__main__":
    main()
