"""Repo-level pytest configuration.

* Registers the ``slow`` marker and applies it to everything under
  ``benchmarks/`` — each bench regenerates a full paper figure at
  ``REPRO_SCALE``, minutes of work at default scale — so a quick CI lane
  can run ``pytest -m "not slow"`` while the bench lane runs
  ``pytest benchmarks``.
* Adds the sweep-runner knobs ``--jobs`` / ``--no-cache`` /
  ``--cache-dir`` consumed by the ``bench_runner`` fixture in
  ``benchmarks/conftest.py`` (mirroring the ``repro-rlir`` CLI flags).
* Registers the ``reprolint`` marker and the ``--reprolint`` flag: tests
  marked ``reprolint`` (the full-tree invariant lint and the mypy gate
  in ``tests/test_reprolint.py``) are skipped unless ``--reprolint`` is
  passed, so ``pytest --reprolint`` is the local one-command lint lane
  while plain ``pytest`` stays fast.  ``tools/`` is put on ``sys.path``
  here so those tests can ``import reprolint`` without an env tweak.
"""

import pathlib
import sys

# make `import reprolint` work for the linter's own test suite (the
# package is pure-stdlib AST analysis; it never imports repro)
_TOOLS_DIR = str(pathlib.Path(__file__).resolve().parent / "tools")
if _TOOLS_DIR not in sys.path:
    sys.path.insert(0, _TOOLS_DIR)


# mirrors repro.cli._positive_int — kept separate because conftest must not
# require src/ on sys.path at collection time
def _positive_int(raw):
    value = int(raw)
    if value < 1:
        raise ValueError(f"must be a positive integer: {raw}")
    return value


def pytest_addoption(parser):
    group = parser.getgroup("repro sweep runner")
    group.addoption("--jobs", type=_positive_int, default=1,
                    help="worker processes for experiment sweeps (default 1)")
    group.addoption("--no-cache", action="store_true", default=False,
                    help="disable the on-disk sweep result cache")
    group.addoption("--cache-dir", default=None,
                    help="sweep result cache directory (default: .repro-cache)")
    group.addoption("--reprolint", action="store_true", default=False,
                    help="also run the reprolint/mypy gate tests "
                         "(marked 'reprolint', skipped by default)")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: full-scale paper benchmark (deselect with -m 'not slow')",
    )
    config.addinivalue_line(
        "markers",
        "reprolint: whole-tree lint/type gate (enable with --reprolint)",
    )


def pytest_collection_modifyitems(config, items):
    import pytest

    root = pathlib.Path(str(config.rootpath))
    run_lint = config.getoption("--reprolint")
    skip_lint = pytest.mark.skip(
        reason="lint gate runs only with --reprolint")
    for item in items:
        if "reprolint" in item.keywords and not run_lint:
            item.add_marker(skip_lint)
        try:
            rel = pathlib.Path(str(item.fspath)).relative_to(root)
        except ValueError:
            continue
        if rel.parts and rel.parts[0] == "benchmarks":
            item.add_marker(pytest.mark.slow)
