"""Tests for the reprolint invariant checker (tools/reprolint).

Two layers:

* **Fixture tests** (always run): each rule family must fire on the
  checked-in bad fixtures under ``tests/fixtures/reprolint/`` at known
  lines, suppressions with a justification must silence a finding,
  suppressions *without* one must not (and must raise META001), and the
  ``CACHE_KEY_EXEMPT`` / ``PREPARE_KEY_EXEMPT`` allowlists must be
  honoured.  The fixtures are never imported — only parsed.
* **Gate tests** (``@pytest.mark.reprolint``, enabled with
  ``pytest --reprolint``): the real tree must be clean, the CLI must
  exit 0 on it, and mypy (when installed) must pass the committed
  ``mypy.ini``.  These are the CI lint lane.

``conftest.py`` puts ``tools/`` on ``sys.path`` so ``import reprolint``
works without environment tweaks.
"""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

from reprolint import ALL_RULES, lint_file, run_paths
from reprolint.rules import RULES_BY_ID

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures" / "reprolint"


def findings_for(relpath):
    """(rule, line) pairs for one fixture file, plus the raw findings."""
    found = lint_file(FIXTURES / relpath, ALL_RULES)
    return [(f.rule, f.line) for f in found], found


def rule_lines(pairs, rule):
    return sorted(line for r, line in pairs if r == rule)


# ----------------------------------------------------------------------
# rule registry sanity


class TestRegistry:
    def test_all_rule_ids_unique(self):
        ids = [r.id for r in ALL_RULES]
        assert len(ids) == len(set(ids))

    def test_every_family_present(self):
        families = {r.id[:3] for r in ALL_RULES}
        assert {"DET", "KEY", "LOC", "BAT", "OBS", "IMP"} <= families

    def test_rules_have_descriptions(self):
        for rule in ALL_RULES:
            assert rule.description
            assert rule.severity in ("error", "warning")
        assert RULES_BY_ID["DET001"].severity == "error"


# ----------------------------------------------------------------------
# determinism family


class TestDeterminismRules:
    PAIRS, RAW = findings_for("src/repro/sim/bad_determinism.py")

    def test_det001_wall_clock_and_entropy(self):
        assert rule_lines(self.PAIRS, "DET001") == [16, 17, 18]

    def test_det002_global_rng(self):
        assert rule_lines(self.PAIRS, "DET002") == [23, 24, 25]

    def test_seeded_rng_not_flagged(self):
        # random.Random(seed) / np.random.default_rng(seed) at 30-31
        assert not any(line in (30, 31) for _, line in self.PAIRS)

    def test_det003_unordered_set_iteration(self):
        assert rule_lines(self.PAIRS, "DET003") == [37, 39, 46]

    def test_sorted_iteration_not_flagged(self):
        assert 40 not in rule_lines(self.PAIRS, "DET003")

    def test_justified_suppression_silences(self):
        assert 41 not in rule_lines(self.PAIRS, "DET003")

    def test_unjustified_suppression_fires_and_flags_meta(self):
        # line 46 keeps its DET003 *and* gains a META001
        assert 46 in rule_lines(self.PAIRS, "DET003")
        assert 46 in rule_lines(self.PAIRS, "META001")

    def test_out_of_scope_path_is_ignored(self):
        src = (FIXTURES / "src/repro/sim/bad_determinism.py").read_text()
        found = lint_file(pathlib.Path("elsewhere/module.py"),
                          ALL_RULES, source=src)
        assert not [f for f in found if f.rule.startswith("DET")]


# ----------------------------------------------------------------------
# cache-key family


class TestCacheKeyRules:
    PAIRS, RAW = findings_for("src/repro/runner/spec.py")

    def test_key001_missing_token_field(self):
        assert rule_lines(self.PAIRS, "KEY001") == [28]
        (msg,) = [f.message for f in self.RAW if f.rule == "KEY001"]
        assert "run_seed" in msg and "LeakyJob" in msg

    def test_cache_key_exempt_honoured(self):
        # `label` is also missing but allowlisted
        assert not any("label" in f.message for f in self.RAW)

    def test_key002_missing_prepare_field(self):
        assert rule_lines(self.PAIRS, "KEY002") == [41]
        (msg,) = [f.message for f in self.RAW if f.rule == "KEY002"]
        assert "batch" in msg and "shard" not in msg

    def test_complete_job_clean(self):
        # fields reached through a helper method count as read
        assert not any("CompleteJob" in f.message for f in self.RAW)

    def test_key003_malformed_allowlist(self):
        src = (
            "CACHE_KEY_EXEMPT = {'Job.field': ''}\n"
            "class Job:\n"
            "    x: int\n"
            "    def cache_token(self):\n"
            "        return {'x': self.x}\n"
        )
        found = lint_file(pathlib.Path("src/repro/runner/spec.py"),
                          ALL_RULES, source=src)
        assert any(f.rule == "KEY003" for f in found)


# ----------------------------------------------------------------------
# lock-discipline family


class TestLockRules:
    PAIRS, RAW = findings_for("src/repro/distrib/broker.py")

    def test_constructor_and_locked_paths_clean(self):
        flagged = {line for _, line in self.PAIRS}
        # __init__ body and good_path must produce nothing
        assert not flagged & set(range(11, 25))

    def test_lock001_unlocked_collection(self):
        assert rule_lines(self.PAIRS, "LOCK001") == [27]

    def test_lock002_unlocked_value_state(self):
        assert rule_lines(self.PAIRS, "LOCK002") == [30, 45]

    def test_holds_annotation_trusted_in_body(self):
        # _book touches driver.sweeps/journal at 33-34 under holds=_lock
        assert not any(line in (33, 34) for _, line in self.PAIRS)

    def test_lock003_holds_callee_needs_lock(self):
        assert rule_lines(self.PAIRS, "LOCK003") == [37]

    def test_lock004_unguarded_send_and_journal(self):
        assert rule_lines(self.PAIRS, "LOCK004") == [40, 45]

    def test_justified_suppression_silences(self):
        assert 48 not in {line for _, line in self.PAIRS}


# ----------------------------------------------------------------------
# batch-parity family


class TestBatchParityRules:
    PAIRS, RAW = findings_for("src/repro/sim/bad_batch.py")

    def test_batch001_orphan_fast_paths(self):
        assert rule_lines(self.PAIRS, "BATCH001") == [10, 14]

    def test_siblinged_and_private_batch_clean(self):
        flagged = rule_lines(self.PAIRS, "BATCH001")
        assert not set(flagged) & {22, 28, 31}

    def test_batch003_reassociating_reductions(self):
        assert rule_lines(self.PAIRS, "BATCH003") == [36, 37]

    def test_sequential_spellings_clean(self):
        assert not set(rule_lines(self.PAIRS, "BATCH003")) & {38, 39}

    def test_justified_suppression_silences(self):
        assert 40 not in rule_lines(self.PAIRS, "BATCH003")

    def test_batch002_ungated_foreign_call(self):
        pairs, _ = findings_for("src/repro/sim/bad_batch_gate.py")
        assert rule_lines(pairs, "BATCH002") == [9]

    def test_batch004_scan_certificate_outside_the_kernel(self):
        pairs, _ = findings_for("src/repro/sim/bad_scan.py")
        assert rule_lines(pairs, "BATCH004") == [8, 12, 13]

    def test_batch004_busy_period_fold_outside_the_kernel(self):
        pairs, _ = findings_for("src/repro/sim/bad_fold.py")
        assert rule_lines(pairs, "BATCH004") == [8, 12, 13]

    def test_batch004_kernel_module_clean(self):
        for fixture in ("bad_scan.py", "bad_fold.py"):
            src = (FIXTURES / "src/repro/sim" / fixture).read_text()
            found = lint_file(pathlib.Path("src/repro/sim/queue.py"),
                              ALL_RULES, source=src)
            assert not [f for f in found if f.rule == "BATCH004"], fixture

    def test_batch005_interpolation_outside_the_estimate_kernel(self):
        pairs, _ = findings_for("src/repro/core/bad_estimate.py")
        assert rule_lines(pairs, "BATCH005") == [8, 12, 13]

    def test_batch005_kernel_module_clean(self):
        src = (FIXTURES / "src/repro/core/bad_estimate.py").read_text()
        found = lint_file(pathlib.Path("src/repro/core/interpolation.py"),
                          ALL_RULES, source=src)
        assert not [f for f in found if f.rule == "BATCH005"]

    def test_batch006_grouped_fold_outside_the_flow_table(self):
        pairs, _ = findings_for("src/repro/core/bad_flow_fold.py")
        assert rule_lines(pairs, "BATCH006") == [9, 13, 14]

    def test_batch006_flow_table_module_clean(self):
        src = (FIXTURES / "src/repro/core/bad_flow_fold.py").read_text()
        found = lint_file(pathlib.Path("src/repro/core/flowstats.py"),
                          ALL_RULES, source=src)
        assert not [f for f in found if f.rule == "BATCH006"]

    def test_batch002_getattr_string_gate_passes(self):
        src = (
            "def run(rx, cols):\n"
            "    if getattr(rx, 'batch_capable', False):\n"
            "        return rx.observe_batch(cols)\n"
            "    return [rx.observe(c, 0.0) for c in cols]\n"
        )
        found = lint_file(pathlib.Path("src/repro/sim/gated.py"),
                          ALL_RULES, source=src)
        assert not [f for f in found if f.rule == "BATCH002"]


# ----------------------------------------------------------------------
# observability family


class TestObsRules:
    PAIRS, RAW = findings_for("src/repro/sim/bad_obs.py")

    def test_obs002_banned_imports(self):
        assert rule_lines(self.PAIRS, "OBS002") == [7, 8, 9]

    def test_metrics_imports_clean(self):
        assert not any(line in (10, 11) for _, line in self.PAIRS)

    def test_obs001_clock_calls(self):
        assert rule_lines(self.PAIRS, "OBS001") == [15, 17, 18, 19]

    def test_obs003_consumed_counter_returns(self):
        assert rule_lines(self.PAIRS, "OBS003") == [26, 27, 29]

    def test_statement_counters_clean(self):
        assert not any(line in (24, 25) for _, line in self.PAIRS)

    def test_justified_suppression_silences(self):
        assert 33 not in rule_lines(self.PAIRS, "OBS001")

    def test_out_of_scope_path_is_ignored(self):
        # the runner/distrib layers legitimately use the span API
        src = (FIXTURES / "src/repro/sim/bad_obs.py").read_text()
        found = lint_file(pathlib.Path("src/repro/runner/runner.py"),
                          ALL_RULES, source=src)
        assert not [f for f in found if f.rule.startswith("OBS")]

    def test_relative_metrics_import_clean(self):
        src = ("from ..obs import metrics as obs_metrics\n"
               "def f():\n"
               "    obs_metrics.count('sim.x')\n")
        found = lint_file(pathlib.Path("src/repro/sim/m.py"),
                          ALL_RULES, source=src)
        assert not [f for f in found if f.rule.startswith("OBS")]

    def test_relative_trace_import_flagged(self):
        src = "from ..obs import trace\n"
        found = lint_file(pathlib.Path("src/repro/sim/m.py"),
                          ALL_RULES, source=src)
        assert [f.rule for f in found] == ["OBS002"]


# ----------------------------------------------------------------------
# lazy package exports


class TestImportRules:
    LAZY = ('"""A package."""\n'
            "from typing import TYPE_CHECKING\n"
            "from .._exports import lazy_exports\n"
            "if TYPE_CHECKING:\n"
            "    from .queue import FifoQueue\n"
            "_EXPORTS = {'FifoQueue': 'queue'}\n"
            "__all__ = sorted(_EXPORTS)\n"
            "__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)\n"
            "def build():\n"
            "    from .queue import FifoQueue\n"
            "    return FifoQueue\n")

    @staticmethod
    def imp_lines(path, src):
        found = lint_file(pathlib.Path(path), ALL_RULES, source=src)
        return [f.line for f in found if f.rule == "IMP001"]

    def test_imp001_eager_reexports(self):
        pairs, _ = findings_for("src/repro/sim/__init__.py")
        assert rule_lines(pairs, "IMP001") == [3, 4, 5, 6, 8]

    def test_lazy_table_clean(self):
        assert self.imp_lines("src/repro/sim/__init__.py", self.LAZY) == []
        assert self.imp_lines("src/repro/__init__.py",
                              "from ._exports import lazy_exports\n") == []

    def test_plain_module_out_of_scope(self):
        src = (FIXTURES / "src/repro/sim/__init__.py").read_text()
        assert self.imp_lines("src/repro/sim/chain.py", src) == []


# ----------------------------------------------------------------------
# engine mechanics


class TestEngine:
    def test_syntax_error_is_meta002(self):
        found = lint_file(pathlib.Path("src/repro/sim/broken.py"),
                          ALL_RULES, source="def oops(:\n")
        assert [f.rule for f in found] == ["META002"]

    def test_unparseable_annotation_is_meta001(self):
        src = "x = 1  # reprolint: disable\n"
        found = lint_file(pathlib.Path("src/repro/sim/m.py"),
                          ALL_RULES, source=src)
        assert any(f.rule == "META001" for f in found)

    def test_multi_rule_disable(self):
        src = ("import numpy as np\n"
               "def f(values):\n"
               "    return np.sum(values)"
               "  # reprolint: disable=BATCH003,DET003 -- integer totals\n")
        found = lint_file(pathlib.Path("src/repro/sim/m.py"),
                          ALL_RULES, source=src)
        assert not [f for f in found if f.rule == "BATCH003"]

    def test_disable_wrong_rule_does_not_silence(self):
        src = ("import numpy as np\n"
               "def f(values):\n"
               "    return np.sum(values)"
               "  # reprolint: disable=DET001 -- wrong rule id\n")
        found = lint_file(pathlib.Path("src/repro/sim/m.py"),
                          ALL_RULES, source=src)
        assert [f.rule for f in found] == ["BATCH003"]

    def test_finding_format(self):
        found = lint_file(pathlib.Path("src/repro/sim/m.py"),
                          ALL_RULES,
                          source="import time\nt = time.time()\n")
        assert len(found) == 1
        text = found[0].format()
        assert text.startswith("src/repro/sim/m.py:2: error: DET001:")

    def test_run_paths_on_fixture_tree(self):
        findings, n_files = run_paths([str(FIXTURES)])
        assert n_files >= 5
        rules_hit = {f.rule for f in findings}
        assert {"DET001", "DET002", "DET003", "KEY001", "KEY002",
                "LOCK001", "LOCK002", "LOCK003", "LOCK004",
                "BATCH001", "BATCH002", "BATCH003", "BATCH004", "BATCH005",
                "BATCH006", "OBS001", "OBS002", "OBS003", "IMP001"} <= rules_hit


# ----------------------------------------------------------------------
# CLI


class TestCli:
    ENV_PATH = str(REPO / "tools")

    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "reprolint", *args],
            capture_output=True, text=True, cwd=str(REPO),
            env={"PYTHONPATH": self.ENV_PATH, "PATH": "/usr/bin:/bin",
                 "HOME": "/tmp"},
        )

    def test_findings_exit_1(self):
        proc = self._run(str(FIXTURES))
        assert proc.returncode == 1
        assert "BATCH002" in proc.stdout
        assert "bad_batch_gate.py:9" in proc.stdout

    def test_select_narrows_rules(self):
        proc = self._run("--select", "DET003", str(FIXTURES))
        assert proc.returncode == 1
        assert "DET003" in proc.stdout
        assert "LOCK001" not in proc.stdout

    def test_unknown_rule_exit_2(self):
        proc = self._run("--select", "NOPE999", str(FIXTURES))
        assert proc.returncode == 2

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        for rule in ALL_RULES:
            assert rule.id in proc.stdout


# ----------------------------------------------------------------------
# the real gate (CI lint lane; enable locally with --reprolint)


@pytest.mark.reprolint
class TestTreeGate:
    def test_full_tree_clean(self):
        findings, n_files = run_paths([str(REPO / "src"),
                                       str(REPO / "tools")])
        assert n_files > 50
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_cli_clean_exit_0(self):
        proc = subprocess.run(
            [sys.executable, "-m", "reprolint", "src", "tools"],
            capture_output=True, text=True, cwd=str(REPO),
            env={"PYTHONPATH": str(REPO / "tools"),
                 "PATH": "/usr/bin:/bin", "HOME": "/tmp"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    @pytest.mark.skipif(importlib.util.find_spec("mypy") is None,
                        reason="mypy not installed in this environment")
    def test_mypy_gate(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file", "mypy.ini"],
            capture_output=True, text=True, cwd=str(REPO),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
