"""perfbench's probe table names the entry points the studies run.

``perfbench/spans.py::ENTRY_POINTS`` wraps each layer's entry point by
name, and the traced benchmark books a study's time to those spans.  A
renamed entry point fails ``Tracer.install``; a pipeline study that
entered through the chain's ``run_batch`` (or the reverse) would book its
time to the other span.  Both fail here, in tier 1, and not only in the
traced benchmark run.
"""

import importlib.util
import pathlib

import pytest

from repro.experiments.extension_jobs import MultihopJob
from repro.experiments.workloads import run_condition
from repro.runner.spec import config_items
from repro.sim.chain import SwitchChain
from repro.sim.pipeline import TwoSwitchPipeline

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = (TwoSwitchPipeline.run_batch, SwitchChain.run_batch)
    tracer = spans.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
    assert (TwoSwitchPipeline.run_batch, SwitchChain.run_batch) == originals


def span_names(tracer):
    return {name for name, *_ in tracer.spans}


def test_a_pipeline_condition_records_pipeline_spans_only(tracer, tiny_workload):
    run_condition(tiny_workload, "static", "random", 0.67)
    names = span_names(tracer)
    assert {"sim.pipeline", "sim.queue", "core.observe"} <= names
    assert "sim.chain" not in names


def test_a_multihop_chain_records_chain_spans_only(tracer, tiny_config):
    MultihopJob(config_items(tiny_config), 2, 0.8).run()
    names = span_names(tracer)
    assert {"sim.chain", "sim.queue", "core.observe"} <= names
    assert "sim.pipeline" not in names
