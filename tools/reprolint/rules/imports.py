"""IMP rules: importing a package costs nothing until a name is used.

IMP001  a ``repro`` package ``__init__.py`` imports a ``repro`` module at
        module level.  Every package re-exports through its ``_EXPORTS``
        table (``repro._exports.lazy_exports``), so a process loads only
        the modules it names; one eager import in an ``__init__`` would
        load that module, and all it imports, into every process that
        touches the package — a distributed worker included.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from ..engine import FileContext, Rule
from .. import config

Findings = Iterator[Tuple[int, str]]


def _module_level(tree: ast.Module) -> Iterator[ast.AST]:
    """Nodes that run when the module runs: function and class bodies and
    ``if TYPE_CHECKING:`` blocks left out."""
    stack: List[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            stack.extend(node.orelse)
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _repro_imports(node: ast.AST) -> Iterator[str]:
    """The ``repro`` modules *node* imports, as written."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name.split(".")[0] == "repro":
                yield alias.name
    elif isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level or module.split(".")[0] == "repro":
            yield "." * node.level + module


def _check_eager_reexport(ctx: FileContext) -> Findings:
    if not (ctx.posix_path.endswith("/__init__.py")
            and ctx.in_scope(config.LAZY_INIT_SCOPE)):
        return
    for node in _module_level(ctx.tree):
        for module in _repro_imports(node):
            if module.split(".")[-1] == config.EXPORTS_HELPER:
                continue
            yield node.lineno, (
                f"package __init__ imports {module} at module level; "
                f"list its names in _EXPORTS so they resolve on first use"
            )


RULES = [
    Rule("IMP001", "error",
         "package __init__ imports a repro module at module level",
         _check_eager_reexport),
]
