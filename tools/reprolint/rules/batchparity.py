"""BATCH rules: the columnar fast path must mirror the object path.

The repo's contract (docs/internals-batch.md): every batch entry point
has an object-path sibling producing bitwise-identical results, callers
gate on ``batch_capable`` with a fallback, and batch kernels perform
float operations in the exact order of the sequential path — which
bans reassociating numpy reductions like ``np.sum`` (pairwise) where
the object path accumulated left-to-right.

BATCH001  public `*_batch` method/function without an object-path
          sibling (same class/module; see BATCH_SIBLING_MAP for
          non-obvious pairs)
BATCH002  sim module calls a foreign `*_batch` method but never
          consults `batch_capable` — no fallback gate
BATCH003  float-reassociating reduction (np.sum / .sum() / np.dot /
          cumsum / prod / einsum) in batch-kernel scope; spell it
          np.add.reduce / np.add.accumulate, or suppress with a
          justification when the dtype makes it exact (integers)
BATCH004  reference to the queue scans' drop-free certificate or the
          FIFO kernel's busy-period fold outside sim/queue.py — a
          re-inlined copy of the one queue-scan kernel
BATCH005  reference to `interpolate_batch` outside core/interpolation.py
          — a re-inlined copy of the one estimate kernel
BATCH006  reference to `welford_grouped` outside core/flowstats.py — a
          flow fold outside the one columnar flow table
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from ..engine import FileContext, Rule, dotted_chain
from .. import config

Findings = Iterator[Tuple[int, str]]


def _check_siblings(ctx: FileContext) -> Findings:
    if not ctx.in_scope(config.BATCH_SCOPE):
        return
    module_defs = {n.name for n in ctx.tree.body
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    containers = [("module", ctx.tree, module_defs)]
    for node in ctx.tree.body:
        if isinstance(node, ast.ClassDef):
            names = {m.name for m in node.body
                     if isinstance(m, (ast.FunctionDef,
                                       ast.AsyncFunctionDef))}
            containers.append((f"class {node.name}", node, names))
    for where, container, names in containers:
        for member in container.body:
            if not isinstance(member, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            name = member.name
            if not name.endswith("_batch") or name.startswith("_"):
                continue
            sibling = config.BATCH_SIBLING_MAP.get(
                name, name[: -len("_batch")])
            if sibling not in names:
                yield member.lineno, (
                    f"{where}: public fast path {name}() has no "
                    f"object-path sibling {sibling}() — every batch "
                    f"entry point needs a bitwise-identical scalar "
                    f"twin (see docs/internals-batch.md)"
                )


def _check_gate(ctx: FileContext) -> Findings:
    if not ctx.in_scope(config.BATCH_GATE_SCOPE):
        return
    gated = any(
        (isinstance(node, ast.Attribute) and node.attr == "batch_capable")
        or (isinstance(node, ast.Name) and node.id == "batch_capable")
        # getattr(obj, "batch_capable", False)-style duck-typed gates
        or (isinstance(node, ast.Constant) and node.value == "batch_capable")
        for node in ast.walk(ctx.tree)
    )
    if gated:
        return
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        name = node.func.attr
        if not name.endswith("_batch") or name.startswith("_"):
            continue
        if (isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("self", "cls")):
            continue  # own fast path, not a foreign object's
        yield node.lineno, (
            f"module calls {name}() on a collaborator but never checks "
            f"batch_capable — add the capability gate and object-path "
            f"fallback (docs/internals-batch.md)"
        )
        return  # one finding per module is enough


def _check_reducers(ctx: FileContext) -> Findings:
    if not ctx.in_scope(config.BATCH_SCOPE):
        return
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        attr = node.func.attr
        if attr not in config.BANNED_REDUCERS:
            continue
        chain = dotted_chain(node.func)
        if len(chain) == 2 and chain[0] in config.NUMPY_NAMES:
            spelled = f"{chain[0]}.{attr}"
        else:
            spelled = f".{attr}()"
        yield node.lineno, (
            f"{spelled} reassociates float additions (pairwise order) "
            f"and breaks bitwise parity with the sequential object "
            f"path; use np.add.reduce / np.add.accumulate, or suppress "
            f"with a justification if the dtype makes order immaterial"
        )


def _references(ctx: FileContext, name: str) -> Iterator[int]:
    """Lines that import, name or access attribute *name*."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom):
            used = any(alias.name == name for alias in node.names)
        else:
            used = ((isinstance(node, ast.Name) and node.id == name)
                    or (isinstance(node, ast.Attribute) and node.attr == name))
        if used:
            yield node.lineno


def _foreign_references(ctx: FileContext, names, module: str) -> Iterator[Tuple[int, str]]:
    """(line, name) of every use of *names* outside their owning *module*."""
    if ctx.posix_path.endswith(module):
        return
    for name in names:
        for lineno in _references(ctx, name):
            yield lineno, name


def _check_scan_copies(ctx: FileContext) -> Findings:
    for lineno, name in _foreign_references(
            ctx, config.SCAN_KERNEL_NAMES, config.SCAN_KERNEL_MODULE):
        yield lineno, (
            f"{name} outside sim/queue.py: a FIFO queue scan belongs "
            f"in the one kernel there (FifoQueue.offer_batch / "
            f"tapped_scan), not in a re-inlined copy"
        )


def _check_estimate_copies(ctx: FileContext) -> Findings:
    for lineno, name in _foreign_references(
            ctx, (config.ESTIMATE_PRIMITIVE,), config.ESTIMATE_KERNEL_MODULE):
        yield lineno, (
            f"{name} outside core/interpolation.py: estimates come from "
            f"the one estimate kernel there (estimate_streams), which live "
            f"observation and log replay share, not from a re-inlined copy"
        )


def _check_fold_copies(ctx: FileContext) -> Findings:
    for lineno, name in _foreign_references(
            ctx, (config.FLOW_FOLD_PRIMITIVE,), config.FLOW_TABLE_MODULE):
        yield lineno, (
            f"{name} outside core/flowstats.py: per-flow Welford state is "
            f"folded by the one columnar flow table there "
            f"(fold_flow_samples / FlowStatsTable.fold_grouped), not by a "
            f"copy that builds its own per-flow accumulators"
        )


RULES = [
    Rule("BATCH001", "error",
         "public *_batch entry point without an object-path sibling",
         _check_siblings),
    Rule("BATCH002", "error",
         "foreign *_batch call without a batch_capable gate",
         _check_gate),
    Rule("BATCH003", "error",
         "float-reassociating numpy reduction in batch-kernel scope",
         _check_reducers),
    Rule("BATCH004", "error",
         "queue-scan kernel helper used outside the scan kernel module",
         _check_scan_copies),
    Rule("BATCH005", "error",
         "per-stream interpolation used outside the estimate kernel module",
         _check_estimate_copies),
    Rule("BATCH006", "error",
         "grouped Welford fold used outside the flow-table module",
         _check_fold_copies),
]
