"""One path selection: the fast path picks itself and changes no output.

No option selects the columnar fast path or the per-object reference; the
simulations take the fast path wherever it applies.  These tests pin both
halves of that contract at the CLI:

* each command prints the same stdout on its default run and under
  ``reference_path`` (every simulation forced onto the per-object
  reference), and
* a default run really takes the fast path — a silently blocked fast path
  would keep the numbers but make every run several times slower.
"""

import os

import pytest

from repro import obs
from repro.cli import main
from repro.experiments.workloads import run_condition

from reference_path import REASON, drop_recorded_sims, reference_path

# argv, and the fast-path sites the command's simulations go through
COMMANDS = {
    "fig4a": (["fig4a", "--scale", "0.02", "--no-cache", "--no-plot"],
              ("pipeline",)),
    "extensions": (["extensions", "multihop", "mesh", "--scale", "0.02",
                    "--no-cache"], ("chain", "fatpath")),
    "localize": (["localize", "--packets", "6000", "--no-cache"],
                 ("fatpath",)),
}


@pytest.fixture
def counters():
    """obs recording on for the test; returns a counter-prefix summer."""
    saved = os.environ.get("REPRO_OBS")
    obs.reset_metrics()
    obs.enable()

    def total(prefix):
        return sum(value for key, value
                   in obs.registry_snapshot()["counters"].items()
                   if key.startswith(prefix))

    yield total
    obs.disable()
    obs.reset_metrics()
    if saved is not None:
        os.environ["REPRO_OBS"] = saved


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_identical_on_the_reference_path(name, capsys):
    argv, sites = COMMANDS[name]
    assert main(argv) == 0
    columnar = capsys.readouterr().out
    with reference_path() as forced:
        assert main(argv) == 0
    reference = capsys.readouterr().out
    assert all(forced[site] > 0 for site in sites), forced
    assert reference == columnar


@pytest.mark.parametrize("argv", [
    ["fig4a", "--scale", "0.02", "--no-plot"],
    ["localize", "--packets", "6000"],
], ids=["fig4a", "localize"])
def test_default_run_takes_the_fast_path(argv, counters, tmp_path,
                                         monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a cold default result cache
    drop_recorded_sims()  # and no simulation recorded by an earlier test
    assert main(argv) == 0
    capsys.readouterr()
    assert counters("batch.fastpath") > 0
    assert counters("batch.fallback") == 0


def test_reference_fixture_forces_and_counts_the_fallback(
        reference, counters, tiny_workload):
    run_condition(tiny_workload, "adaptive", "random", 0.67)
    assert reference["pipeline"] == 1
    assert counters(f"batch.fallback[pipeline.run_batch:{REASON}]") == 1
    assert counters("batch.fastpath") == 0
