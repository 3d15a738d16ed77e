"""Start-up cost: every ``repro`` package exports lazily (PEP 562).

Each check runs in a fresh interpreter, because this test process has
long since imported most of the package.  A distributed worker imports
``repro.distrib.worker``, then the class module of each job it unpickles;
none of that may drag in modules its jobs never run.  An embedded
cluster's workers start through ``repro.distrib.worker_cli``, so they
never load the CLI either (``repro-rlir worker`` does, and still leaves
numpy unloaded).
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.runner.spec import JobSpec

SRC_ROOT = str(Path(__file__).resolve().parent.parent / "src")

PACKAGES = ("repro", "repro.analysis", "repro.baselines", "repro.core",
            "repro.distrib", "repro.experiments", "repro.net", "repro.obs",
            "repro.runner", "repro.sim", "repro.traffic")

# Modules a fig4 pipeline job never runs.
NOT_FOR_FIG4 = ("repro.sim.engine", "repro.sim.topology", "repro.baselines",
                "repro.core.placement", "repro.core.mesh",
                "repro.experiments.ablations")


def fresh(script, *args, stdin=None):
    """Run *script* in a new interpreter over this checkout; its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC_ROOT)
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          input=stdin, capture_output=True, check=True,
                          timeout=120)
    return done.stdout.decode()


def test_unpickling_a_fig4_job_loads_only_what_it_runs():
    job = JobSpec.from_config(ExperimentConfig(scale=0.01), "static",
                              "random", 0.93)
    blob = pickle.dumps(job)
    # unpickle the job, then import what JobSpec.run imports
    loaded = fresh("import pickle, sys\n"
                   "job = pickle.loads(sys.stdin.buffer.read())\n"
                   "import repro.experiments.workloads\n"
                   "print(*sorted(sys.modules))\n", stdin=blob).split()
    assert "repro.runner.spec" in loaded
    assert "repro.experiments.workloads" in loaded
    assert not [name for name in loaded
                if name.startswith(NOT_FOR_FIG4)]


def test_worker_import_leaves_numpy_unloaded():
    loaded = fresh("import sys, repro.cli, repro.distrib.worker\n"
                   "print(*sorted(sys.modules))\n").split()
    assert "repro.distrib.worker" in loaded
    assert "numpy" not in loaded


def test_spawned_worker_never_loads_the_cli(capfd):
    from repro.distrib import DistributedRunner

    runner = DistributedRunner(workers=1)
    try:
        # the worker reports every module it imports on stderr, which the
        # runner relays line by line
        runner.spawn_worker(extra_env={"PYTHONPROFILEIMPORTTIME": "1"})
        assert runner.wait_for_workers(1, timeout=60)
    finally:
        runner.close()
    loaded = {line.rsplit("|", 1)[-1].strip()
              for line in capfd.readouterr().err.splitlines()
              if "import time:" in line}
    assert "repro.distrib.worker" in loaded
    assert not [name for name in loaded if name.startswith("repro.cli")]


PACKAGE_CHECK = """
import importlib, pkgutil, sys

name = sys.argv[1]
package = importlib.import_module(name)
submodules = sorted(info.name for info in pkgutil.iter_modules(package.__path__)
                    if not info.name.startswith("__"))
for sub in submodules:
    assert getattr(package, sub) is importlib.import_module(f"{name}.{sub}"), sub
for export, source in package._EXPORTS.items():
    # an export named like a submodule would be shadowed once it loads
    assert export == source or export not in submodules, export
namespace = {}
exec(f"from {name} import *", namespace)
listed = dir(package)
for export in package.__all__:
    assert namespace[export] is getattr(package, export), export
    assert export in listed, export
try:
    package.no_such_export
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
assert not hasattr(package, "__wrapped__")
print(len(package.__all__))
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    assert int(fresh(PACKAGE_CHECK, package)) > 0
