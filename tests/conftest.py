"""Shared fixtures: tiny-scale workloads and small topologies."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import PipelineWorkload
from repro.sim.topology import FatTree, LinkParams
from repro.traffic.synthetic import TraceConfig, generate_trace

# the per-object reference switch, as a fixture for every test module
from reference_path import reference  # noqa: F401


@pytest.fixture(scope="session")
def tiny_config():
    """~2k regular packets: fast enough for every test."""
    return ExperimentConfig(scale=0.01, seed=7)


@pytest.fixture(scope="session")
def tiny_workload(tiny_config):
    return PipelineWorkload(tiny_config)


@pytest.fixture(scope="session")
def small_trace():
    cfg = TraceConfig(duration=0.5, n_packets=3000, mean_flow_pkts=10.0)
    return generate_trace(cfg, seed=3, name="small")


@pytest.fixture()
def fattree4():
    return FatTree(4, LinkParams(rate_bps=1e9, buffer_bytes=256 * 1024))


@pytest.fixture()
def fattree8():
    return FatTree(8, LinkParams(rate_bps=1e9, buffer_bytes=256 * 1024))
