"""Benchmark harness configuration.

Every bench regenerates one figure/table of the paper at the scale set by
``REPRO_SCALE`` (default 1.0 ≈ a 1:100 scale model of the paper's traces)
and prints the same rows/series the paper plots.  EXPERIMENTS.md records
paper-vs-measured for each.

The sweep-heavy benches route their condition grids through a shared
:class:`~repro.runner.runner.ParallelRunner`; ``pytest --jobs 4`` fans the
conditions out over 4 worker processes and ``--no-cache`` disables the
on-disk result cache (see the repo-root ``conftest.py`` for the options).
"""

import pathlib
import sys
import warnings

import pytest

from repro.experiments.config import ExperimentConfig
from repro.runner import DEFAULT_CACHE_DIR, ParallelRunner, ResultCache

# the per-object reference switch (reference_path) lives with the tests
_TESTS_DIR = str(pathlib.Path(__file__).resolve().parent.parent / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.append(_TESTS_DIR)


@pytest.fixture(scope="session")
def bench_config():
    """One shared config so the (expensive) traces are generated once."""
    return ExperimentConfig()


@pytest.fixture(scope="session")
def bench_runner(request):
    """Shared sweep runner honoring --jobs/--no-cache/--cache-dir.

    Caching lets interrupted bench sessions resume and lets benches that
    share conditions (fig4a/fig4b) compute them once — but a warm cache
    makes pytest-benchmark's timings measure cache reads, not simulation,
    so any run with cache hits ends with a loud notice.
    """
    jobs = request.config.getoption("--jobs", default=1) or 1
    no_cache = request.config.getoption("--no-cache", default=False)
    cache_dir = request.config.getoption("--cache-dir", default=None)
    cache = None if no_cache else ResultCache(cache_dir or DEFAULT_CACHE_DIR)
    runner = ParallelRunner(jobs=jobs, cache=cache)
    yield runner
    if runner.cache_hits:
        warnings.warn(
            f"{runner.cache_hits} sweep condition(s) were answered from "
            f"{runner.cache.root}/ — benchmark timings do NOT reflect "
            f"regeneration cost; rerun with --no-cache (or `repro-rlir "
            f"cache clear`) for honest numbers.",
            stacklevel=1,
        )


def print_banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
