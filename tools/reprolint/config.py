"""Repo-specific configuration for the reprolint rule families.

Scopes are posix-path *fragments* matched by substring, so the same
rules fire both on the real tree (``src/repro/sim/...``) and on the
checked-in bad fixtures under ``tests/fixtures/reprolint/src/repro/...``
that keep the rules honest.
"""

from __future__ import annotations

# -- determinism (DET) --------------------------------------------------

# Simulation, estimation, traffic, and experiment-driver code must be a
# pure function of (config, seeds).  Runner/distrib code may consult the
# wall clock for timeouts and heartbeats; these paths may not.
DETERMINISM_SCOPE = (
    "repro/sim/",
    "repro/core/",
    "repro/traffic/",
    "repro/experiments/",
)

# Banned call targets, matched against the last two dotted components of
# the callee (so `self.clock.now()` does not false-positive on
# `datetime.now`).  Wall clocks and OS entropy both make output depend
# on when/where the run happened.
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
    "os.urandom", "os.getrandbits", "uuid.uuid1", "uuid.uuid4",
})

# `random.X(...)` / `np.random.X(...)` calls hit interpreter-global RNG
# state, which parallel/sharded execution orders differently run to run.
# Constructing an explicitly seeded generator is the sanctioned idiom.
RANDOM_MODULE_ALLOWED = frozenset({"Random"})
NP_RANDOM_ALLOWED = frozenset({
    "default_rng", "Generator", "RandomState", "SeedSequence", "PCG64",
})

# -- cache keys (KEY) ---------------------------------------------------

CACHEKEY_SCOPE = (
    "runner/spec.py",
    "experiments/extension_jobs.py",
)

# Module-level allowlist names a job module may define to exempt fields:
#   CACHE_KEY_EXEMPT = {"ClassName.field": "why it cannot change results"}
#   PREPARE_KEY_EXEMPT = {"ClassName.field": "why the prepared artifact
#                          is shared across values of this field"}
CACHE_EXEMPT_NAME = "CACHE_KEY_EXEMPT"
PREPARE_EXEMPT_NAME = "PREPARE_KEY_EXEMPT"

# -- lock discipline (LOCK) ---------------------------------------------

LOCK_SCOPE = ("distrib/broker.py", "distrib/shaping.py")

# Broker attributes guarded by `self._lock` (PR 6's hand audit, now
# mechanical).  `_wake` is a Condition built on `_lock`, so holding
# either name holds the same lock.
BROKER_LOCK_NAMES = frozenset({"_lock", "_wake"})
BROKER_GUARDED_SELF = frozenset({
    "_workers", "_drivers", "_sweeps", "_idle", "_pending", "_assignments",
    "_suspects", "_dead", "_conns",
})
# Attributes of the _Sweep/_Driver value objects that the same lock
# guards.  (Worker liveness fields — `alive`, `last_seen` — are
# deliberately absent: they are monotonic flags with benign races,
# documented in broker.py.)
BROKER_GUARDED_VALUE = frozenset({
    "remaining", "settled", "finished", "driver_id", "journal",
    "total", "done", "retries", "failures", "sweeps",
    "hedged", "hedges", "chunk_ewma",
})
SEND_LOCK_NAME = "send_lock"

# -- batch parity (BATCH) -----------------------------------------------

BATCH_SCOPE = ("repro/sim/", "repro/core/")

# Public `*_batch` entry points whose object-path sibling does not follow
# the `strip _batch` naming convention.
BATCH_SIBLING_MAP = {
    "extend_batch": "append",     # columnar bulk append vs scalar append
    "classify_batch": "__call__", # vectorized classifier vs callable
}

# Float reductions whose operation order differs from the sequential
# object path (np.sum is pairwise; see docs/internals-batch.md).  The
# sanctioned spellings are np.add.reduce / np.add.accumulate.
BANNED_REDUCERS = frozenset({"sum", "nansum", "cumsum", "prod", "cumprod",
                             "dot", "matmul", "einsum"})
NUMPY_NAMES = frozenset({"np", "numpy"})

# The tail-drop certificate every drop-tested queue scan needs, and the
# busy-period fold of the one FIFO kernel.  Only the kernel module may
# use them, so a reference anywhere else is a re-inlined copy of the
# scan (BATCH004).
SCAN_KERNEL_NAMES = ("_drop_free_threshold", "_busy_periods")
SCAN_KERNEL_MODULE = "repro/sim/queue.py"

# The per-stream interpolation every estimate is computed with.  Only the
# one estimate kernel's module (which defines it) may use it, so a
# reference anywhere else is a re-inlined estimate half (BATCH005).
ESTIMATE_PRIMITIVE = "interpolate_batch"
ESTIMATE_KERNEL_MODULE = "repro/core/interpolation.py"

# The grouped Welford fold behind every flow table.  Only the flow-table
# module may use it, so a reference anywhere else folds flows outside the
# one columnar table (BATCH006).
FLOW_FOLD_PRIMITIVE = "welford_grouped"
FLOW_TABLE_MODULE = "repro/core/flowstats.py"

# Only sim-layer modules orchestrate foreign batch objects; they must
# gate on `batch_capable` before calling another object's `*_batch`.
BATCH_GATE_SCOPE = ("repro/sim/",)

# -- observability (OBS) ------------------------------------------------

# Kernel scope (everything the DET rules keep pure) may reach the obs
# layer only through its clock-free counter surface: importing
# `repro.obs.metrics` is allowed, the package itself / trace / export
# are not — they read `time.perf_counter`, which DET001 deliberately
# exempts inside `repro/obs/` (outside DETERMINISM_SCOPE) and which
# must therefore never be re-imported back into kernel scope.
OBS_KERNEL_SCOPE = DETERMINISM_SCOPE

# The one importable repro.obs submodule in kernel scope.
OBS_ALLOWED_SUBMODULE = "metrics"

# Clock-bearing obs entry points, matched at call sites (OBS001).
OBS_CLOCK_CALLS = frozenset({
    "span", "spans_snapshot", "drain_spans", "reset_spans",
    "drain_payload", "merged_spans", "build_artifact", "write_artifact",
    "write_chrome_trace", "span_summary",
})

# Public metrics functions; all return None, so kernel-scope call sites
# must be bare statements (OBS003) — a used return value would mean
# telemetry feeding back into simulation control flow.
OBS_METRIC_CALLS = frozenset({
    "count", "gauge", "observe", "taken", "fallback", "reset_notes",
})

# -- lazy package exports (IMP) -----------------------------------------

# Package `__init__`s under this fragment export through an `_EXPORTS`
# table resolved on first use; the helper module that builds the hooks is
# the one repro module they may import at module level.
LAZY_INIT_SCOPE = ("repro/",)
EXPORTS_HELPER = "_exports"
