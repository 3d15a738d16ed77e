#!/usr/bin/env python3
"""How long can an RLIR segment get?

RLIR trades localization granularity for deployment cost by letting one
sender/receiver pair measure across several routers.  This example drives
the same workload through chains of 1..8 switches — independent cross
traffic at every hop — and shows that linear interpolation keeps tracking
per-flow latency as the measured segment grows, because the summed queueing
delay gets *larger* (and relative error correspondingly smaller), exactly
the regime the paper observed at high utilization.

It also compares the estimator strategies along the way, and renders the
error CDFs as a terminal plot.

Run:  python examples/multihop_segments.py
"""

from repro.analysis.cdf import Ecdf
from repro.analysis.metrics import flow_mean_errors
from repro.analysis.plot import ascii_cdf
from repro.analysis.report import format_table, us
from repro.core.demux import SingleSenderDemux
from repro.core.flowstats import pooled_stats
from repro.core.injection import StaticInjection
from repro.core.receiver import RliReceiver
from repro.core.sender import RliSender
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import PipelineWorkload
from repro.sim.chain import ChainConfig, SwitchChain
from repro.traffic.crosstraffic import UniformModel, calibrate_selection_probability


def main():
    config = ExperimentConfig(scale=0.03, seed=5)
    workload = PipelineWorkload(config)
    utilization = 0.8
    prob = calibrate_selection_probability(
        workload.cross, workload.regular.total_bytes, workload.rate_bps,
        config.duration, utilization)
    print(f"workload: {workload.regular}, each hop at ~{utilization:.0%} "
          f"utilization (cross selection p={prob:.2f})\n")

    rows = []
    cdfs = {}
    for hops in (1, 2, 4, 8):
        sender = RliSender(1, workload.rate_bps, StaticInjection(50))
        receiver = RliReceiver(SingleSenderDemux(1, [workload.regular_prefix]))
        cross = {h: UniformModel(prob, seed=100 + h).arrivals_batch(workload.cross)
                 for h in range(hops)}
        chain = SwitchChain(ChainConfig(
            n_hops=hops, rate_bps=workload.rate_bps,
            buffer_bytes=config.buffer_bytes, proc_delay=config.proc_delay))
        result = chain.run_batch(workload.regular, cross,
                                 sender=sender, receiver=receiver,
                                 duration=config.duration)
        receiver.finalize()
        join = flow_mean_errors(receiver.flow_estimated, receiver.flow_true)
        ecdf = Ecdf(join.errors)
        cdfs[f"{hops} hop(s)"] = ecdf

        pooled = pooled_stats(receiver.flow_true)
        rows.append([hops, us(pooled.mean), f"{ecdf.median:.1%}",
                     f"{ecdf.fraction_below(0.10):.0%}",
                     f"{result.regular_loss_rate:.2%}"])

    print(format_table(
        ["segment length", "true mean latency", "median RE",
         "flows RE<10%", "loss"],
        rows,
    ))
    print("\nper-flow mean relative-error CDFs:\n")
    print(ascii_cdf(cdfs, width=56, height=12))


if __name__ == "__main__":
    main()
