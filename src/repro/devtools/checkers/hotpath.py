"""Hot-path checker: no per-step allocation, no silent float64 promotion.

PR 4 made the integrator loops allocation-free (every step writes into
preallocated buffers via ``out=``); PR 6 added a float32 throughput tier
whose speedup evaporates if an intermediate silently promotes to float64.
Both properties are invisible to tests until someone benchmarks, so this
checker pins them statically for the declared hot modules.

Rules
-----
``hotpath-alloc``
    Inside a ``for``/``while`` loop body (or comprehension) of a hot module:
    an allocating numpy call (``np.zeros``/``np.empty``/``np.concatenate``/
    ...), an ``out=``-capable numpy ufunc called *without* ``out=``, or an
    ``.astype(...)`` copy.  Allocations before the loop are setup and pass.
``hotpath-dtype``
    In a float32-capable context — a function taking a ``dtype`` parameter,
    or any method of a ``Throughput*`` class — a numpy array-constructor
    call without an explicit ``dtype=`` silently defaults to float64.

Setup escapes: a function whose ``def`` line (or the contiguous comment
block above a call) carries ``# repro-lint: hot-setup`` is exempt from
``hotpath-alloc``, as are ``__init__``/``__post_init__`` and functions named
in the ``setup`` config list — buffer construction is setup wherever it
lexically lives.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Optional

from repro.devtools.analyzer import Checker, Finding, LintConfig, ModuleSource, dotted_name

_NP_ROOTS = ("np", "numpy")

_ALLOCATING = {
    "zeros", "ones", "empty", "full", "array", "asarray", "ascontiguousarray",
    "copy", "concatenate", "stack", "vstack", "hstack", "column_stack",
    "tile", "repeat", "arange", "linspace", "where", "outer",
    "zeros_like", "ones_like", "empty_like", "full_like",
}

_OUT_CAPABLE = {
    "add", "subtract", "multiply", "divide", "true_divide", "floor_divide",
    "mod", "remainder", "power", "sin", "cos", "tan", "exp", "log", "sqrt",
    "abs", "absolute", "negative", "minimum", "maximum", "clip",
}

_ARRAY_CONSTRUCTORS = {
    "array", "asarray", "zeros", "ones", "empty", "full", "arange", "linspace",
}

_SETUP_NAMES = {"__init__", "__post_init__"}


def _np_call(name: Optional[str]) -> Optional[str]:
    """The numpy function name if ``name`` is ``np.<f>``/``numpy.<f>``."""
    if name is None:
        return None
    head, _, tail = name.partition(".")
    if head in _NP_ROOTS and tail and "." not in tail:
        return tail
    return None


def _has_keyword(node: ast.Call, keyword: str) -> bool:
    return any(k.arg == keyword for k in node.keywords)


class HotPathChecker(Checker):
    name = "hotpath"
    rules = ("hotpath-alloc", "hotpath-dtype")
    DEFAULTS: Dict[str, Any] = {
        "paths": [
            "src/repro/dynamics/integrators.py",
            "src/repro/dynamics/batched.py",
            "src/repro/core/stages.py",
        ],
        #: Function names exempt from hotpath-alloc (buffer construction).
        "setup": [],
    }

    def check_module(self, module: ModuleSource, config: LintConfig) -> List[Finding]:
        setup_names = set(self.options(config).get("setup", ())) | _SETUP_NAMES
        findings: List[Finding] = []

        def is_setup(func: ast.AST) -> bool:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
            if func.name in setup_names:
                return True
            def_line = module.lines[func.lineno - 1]
            return "repro-lint: hot-setup" in def_line

        def f32_context(stack: List[ast.AST]) -> bool:
            for owner in reversed(stack):
                if isinstance(owner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    params = list(owner.args.args) + list(owner.args.kwonlyargs)
                    if any(arg.arg == "dtype" for arg in params):
                        return True
                if isinstance(owner, ast.ClassDef) and owner.name.startswith("Throughput"):
                    return True
            return False

        def visit(node: ast.AST, stack: List[ast.AST], loop_depth: int) -> None:
            pushed = False
            entered_loop = 0
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack = stack + [node]
                pushed = True
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    loop_depth = 0  # a nested def starts its own loop context
            if isinstance(
                node,
                (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp),
            ):
                entered_loop = 1
            if isinstance(node, ast.Call):
                self._check_call(node, stack, loop_depth, is_setup, f32_context, module, findings)
            for child in ast.iter_child_nodes(node):
                visit(child, stack, loop_depth + entered_loop)

        visit(module.tree, [], 0)
        return findings

    def _check_call(
        self,
        node: ast.Call,
        stack: List[ast.AST],
        loop_depth: int,
        is_setup: Any,
        f32_context: Any,
        module: ModuleSource,
        findings: List[Finding],
    ) -> None:
        name = dotted_name(node.func)
        np_name = _np_call(name)
        owner = next(
            (
                item
                for item in reversed(stack)
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ),
            None,
        )
        in_hot_loop = loop_depth > 0 and not (owner is not None and is_setup(owner))
        if in_hot_loop:
            if np_name in _ALLOCATING:
                findings.append(
                    Finding(
                        rule="hotpath-alloc",
                        path=module.relpath,
                        line=node.lineno,
                        message=f"allocating `{name}(...)` inside a hot loop body",
                        hint=(
                            "preallocate before the loop and write in place, or mark "
                            "the function `# repro-lint: hot-setup`"
                        ),
                    )
                )
            elif np_name in _OUT_CAPABLE and not _has_keyword(node, "out"):
                findings.append(
                    Finding(
                        rule="hotpath-alloc",
                        path=module.relpath,
                        line=node.lineno,
                        message=(
                            f"`{name}(...)` allocates a temporary in a hot loop; "
                            "an out= form exists"
                        ),
                        hint="pass out=<preallocated buffer>",
                    )
                )
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                findings.append(
                    Finding(
                        rule="hotpath-alloc",
                        path=module.relpath,
                        line=node.lineno,
                        message=".astype(...) copies inside a hot loop body",
                        hint="convert once during setup",
                    )
                )
        if (
            np_name in _ARRAY_CONSTRUCTORS
            and not _has_keyword(node, "dtype")
            and f32_context(stack)
        ):
            findings.append(
                Finding(
                    rule="hotpath-dtype",
                    path=module.relpath,
                    line=node.lineno,
                    message=(
                        f"`{name}(...)` without dtype= in a float32-capable context "
                        "defaults to float64"
                    ),
                    hint="pass dtype= (the dtype parameter or np.float32) explicitly",
                )
            )
