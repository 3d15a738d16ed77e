"""Force every simulation onto the per-object reference path (tests only).

The columnar fast paths select themselves: ``TwoSwitchPipeline.run_batch``
and ``SwitchChain.run_batch`` ask their ``_fast_path_blocker`` whether the
scan applies, and the fat-tree deployments ask
:func:`repro.sim.fatpath.try_fast_path`.  :func:`reference_path` makes all
three refuse, so every driver, job and CLI command runs its existing
per-object fallback — the oracle each fast path is checked against.

Use it with a serial runner and no result cache: a cached result was
computed by whichever path ran first.  The in-process memo of recorded
shard-job simulations is dropped on entry and on exit for the same reason.
"""

import contextlib
from collections import Counter

import pytest

REASON = "reference-forced"


def drop_recorded_sims():
    """Empty the shard jobs' in-process memo of recorded simulations."""
    from repro.experiments import extension_jobs

    extension_jobs._SIM_CACHE.clear()
    extension_jobs._SIM_PINNED.clear()


@contextlib.contextmanager
def reference_path():
    """Within the block every fast-path entry falls back.

    Yields a :class:`~collections.Counter` of the refusals per site
    (``"pipeline"``, ``"chain"``, ``"fatpath"``), so a test can assert the
    reference actually ran.  Each refusal is counted under
    ``batch.fallback`` with reason :data:`REASON`, like a natural one.
    """
    from repro.core import mesh, rlir
    from repro.obs import metrics as obs_metrics
    from repro.sim.chain import SwitchChain
    from repro.sim.pipeline import TwoSwitchPipeline

    forced: Counter = Counter()

    def refuse(site):
        def blocker(self, *args):
            forced[site] += 1
            return REASON
        return blocker

    def no_fast_path(*args, **kwargs):
        forced["fatpath"] += 1
        obs_metrics.fallback("fatpath", REASON)
        return False

    drop_recorded_sims()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(TwoSwitchPipeline, "_fast_path_blocker",
                          refuse("pipeline"))
            patch.setattr(SwitchChain, "_fast_path_blocker", refuse("chain"))
            # the deployments imported try_fast_path by name
            patch.setattr(mesh, "try_fast_path", no_fast_path)
            patch.setattr(rlir, "try_fast_path", no_fast_path)
            yield forced
    finally:
        drop_recorded_sims()


@pytest.fixture
def reference():
    """Run the whole test on the per-object reference path."""
    with reference_path() as forced:
        yield forced
