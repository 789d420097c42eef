"""Dead-code checker: every module and top-level symbol serves an entry point.

Project-level rule ``dead-code``, in two layers.

**Modules**: import reachability over ``src/repro`` from the declared entry
points —

* :data:`ROOTS`: ``repro.cli`` (the ``msropm`` console script),
  ``repro.service`` and ``repro.campaigns.builtin``;
* the public library API, the names in ``repro.__all__``;
* every ``examples/*.py`` script and every ``perfbench/`` file (the
  benchmark is read-only, so what it runs stays);
* the modules in :data:`ALLOWLIST`, each kept for a stated reason.

An import statement anywhere in a reached module (function-local lazy
imports included) reaches its target.  A package ``__init__`` is different:
a name it only re-exports reaches just the module it comes from, so
``from repro import MSROPM`` reaches ``repro.core.machine`` and nothing else
``repro/__init__.py`` imports.  A name the ``__init__`` assigns itself
(``CHECKERS = [...]``) reaches the imports its value uses; any other
statement there runs, and so reaches, on every load.  Imports are read as
absolute: the package has no relative imports.

**Symbols**: every top-level function and class of a reached module must be
*named* by reached code.  Names are identifiers (``Name``, attribute and
import names), matched by spelling alone, so a name reaches every top-level
symbol of that spelling: the rule errs toward keeping.  Reached code is

* the module-level statements of every reached module, except the
  ``from ... import`` re-exports of a package ``__init__``;
* the body of every reached symbol, so a symbol only a dead symbol names is
  dead too (its own body never reaches it);
* every ``examples/*.py`` script, and every ``perfbench/`` file together
  with its dotted strings (``"Class.method"`` in the traced ``PLAN``);
* ``repro.__all__``, every symbol of an :data:`ALLOWLIST` module, and the
  entries of :data:`SYMBOL_ALLOWLIST`.

Findings: every module no root reaches, every top-level symbol no reached
code names, and every allowlist entry that names something missing or
already reached, or gives no reason.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.devtools.analyzer import Checker, Finding, LintConfig

#: Modules a user or a process starts from.
ROOTS: Tuple[str, ...] = ("repro.cli", "repro.service", "repro.campaigns.builtin")

#: Modules kept although no root reaches them: module -> one-line reason.
ALLOWLIST: Dict[str, str] = {
    "repro.experiments.ablations": (
        "paper §2.3/§4.1 trade-offs and the multi- vs single-stage claim "
        "(test_msropm_outperforms_single_stage_on_its_problem)"
    ),
    "repro.experiments.energy_landscape": (
        "paper Fig. 3 self-annealing: the anneal lowers the vector-Potts "
        "energy and SHIL binarizes the phases"
    ),
}

#: Top-level symbols kept although no reached code names them:
#: ``"module.symbol"`` -> one-line reason.
SYMBOL_ALLOWLIST: Dict[str, str] = {
    "repro.dynamics.integrators.integrate_rk4": (
        "reference integrator the Euler-Maruyama paths are checked against "
        "(tests/test_dynamics.py, tests/test_hotpath.py)"
    ),
    "repro.dynamics.integrators.integrate_scipy": (
        "adaptive scipy reference for the fixed-step integrators (tests/test_dynamics.py)"
    ),
    "repro.experiments.table1_stats.power_scaling_series": (
        "paper Table 1 power column at full problem sizes "
        "(benchmarks/test_bench_table1_statistics.py)"
    ),
}

_CHECKER_PATH = "src/repro/devtools/checkers/dead_code.py"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_Symbol = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]

#: ``(module, name)``: importing ``name`` from ``module`` (``None`` = the
#: whole module).  A bare string is a name bound in the importing
#: ``__init__`` itself, resolved lazily through its exports.
_Request = Tuple[str, Optional[str]]
_Ref = Union[_Request, str]


class _Module:
    """One parsed module: what loading it reaches, and what each name reaches."""

    def __init__(self, name: str, relpath: str, tree: ast.Module, is_package: bool) -> None:
        self.name = name
        self.relpath = relpath
        self.tree = tree
        self.is_package = is_package
        #: Reached whenever the module is loaded.
        self.on_load: List[_Ref] = []
        #: Name -> what reaching that name reaches (packages only).
        self.exports: Dict[str, List[_Ref]] = {}
        if not is_package:
            self.on_load = list(_imports(tree))
            return
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    self.exports[alias.asname or alias.name] = [(stmt.module or "", alias.name)]
                continue
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            refs: List[_Ref] = [*_imports(stmt), *sorted(names)]
            if not isinstance(stmt, ast.Assign):
                self.on_load.extend(refs)
                continue
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.exports.setdefault(target.id, []).extend(refs)

    def symbols(self) -> List[_Symbol]:
        """The top-level functions and classes."""
        return [stmt for stmt in self.tree.body if isinstance(stmt, _DEFS)]

    def module_level(self) -> List[ast.stmt]:
        """Statements outside every top-level symbol, less ``__init__`` re-exports."""
        return [
            stmt
            for stmt in self.tree.body
            if not isinstance(stmt, _DEFS)
            and not (self.is_package and isinstance(stmt, ast.ImportFrom))
        ]


#: ``"module.symbol"`` -> the module and its top-level definition.
_Symbols = Dict[str, Tuple[_Module, _Symbol]]


def _imports(tree: ast.AST) -> List[_Request]:
    """Every import statement anywhere under ``tree`` as requests."""
    refs: List[_Request] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            refs.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            refs.extend((node.module or "", alias.name) for alias in node.names)
    return refs


def _names(nodes: Iterable[ast.AST]) -> Set[str]:
    """Every identifier used under ``nodes``."""
    found: Set[str] = set()
    for tree in nodes:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.update(node.name.split("."))
                if node.asname:
                    found.add(node.asname)
    return found


def _dotted_strings(tree: ast.AST) -> Set[str]:
    """Every string constant under ``tree`` spelled like ``a.b.c``."""
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and all(part.isidentifier() for part in node.value.split("."))
    }


def _public_api(modules: Dict[str, _Module]) -> List[str]:
    """The string entries of ``repro.__all__``."""
    package = modules.get("repro")
    if package is None:
        return []
    for stmt in package.tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return [
                node.value
                for node in ast.walk(stmt.value)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
            ]
    return []


def _scan_modules(root: Path) -> Dict[str, _Module]:
    """Every module under ``<root>/src/repro`` keyed by dotted name."""
    modules: Dict[str, _Module] = {}
    src = root / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        name = ".".join(parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules[name] = _Module(name, path.relative_to(root).as_posix(), tree, is_package)
    return modules


def _scripts(root: Path) -> List[Tuple[ast.Module, bool]]:
    """Each ``examples/*.py`` and ``perfbench/`` file, flagged True for perfbench."""
    paths = [(path, False) for path in sorted((root / "examples").glob("*.py"))]
    paths += [(path, True) for path in sorted((root / "perfbench").rglob("*.py"))]
    return [
        (ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), is_bench)
        for path, is_bench in paths
    ]


class _Reachability:
    """Worklist walk over import requests; ``reached`` grows monotonically."""

    def __init__(self, modules: Dict[str, _Module]) -> None:
        self.modules = modules
        self.reached: Set[str] = set()
        self._seen: Set[_Request] = set()
        self._names: Set[Tuple[str, str]] = set()

    def walk(self, requests: List[_Request]) -> None:
        pending: List[Tuple[Optional[_Module], _Ref]] = [(None, r) for r in requests]
        while pending:
            owner, ref = pending.pop()
            if isinstance(ref, tuple):
                pending.extend(self._request(*ref))
            elif owner is not None and ref in owner.exports and (owner.name, ref) not in self._names:
                self._names.add((owner.name, ref))
                pending.extend((owner, r) for r in owner.exports[ref])

    def _request(self, target: str, name: Optional[str]) -> List[Tuple[Optional[_Module], _Ref]]:
        if name is not None and f"{target}.{name}" in self.modules:
            target, name = f"{target}.{name}", None
        module = self.modules.get(target)
        if module is None or (target, name) in self._seen:
            return []
        self._seen.add((target, name))
        work: List[Tuple[Optional[_Module], _Ref]] = []
        parts = target.split(".")
        for depth in range(1, len(parts) + 1):
            prefix = ".".join(parts[:depth])
            loaded = self.modules.get(prefix)
            if loaded is not None and prefix not in self.reached:
                self.reached.add(prefix)
                work.extend((loaded, r) for r in loaded.on_load)
        if module.is_package:
            names = list(module.exports) if name is None else [name]
            work.extend((module, n) for n in names)
        return work


class DeadCodeChecker(Checker):
    name = "dead-code"
    rules = ("dead-code",)

    def __init__(
        self,
        allowlist: Optional[Dict[str, str]] = None,
        symbol_allowlist: Optional[Dict[str, str]] = None,
    ) -> None:
        self.allowlist = ALLOWLIST if allowlist is None else allowlist
        self.symbol_allowlist = SYMBOL_ALLOWLIST if symbol_allowlist is None else symbol_allowlist

    def check_project(self, root: Path, config: LintConfig) -> List[Finding]:
        modules = _scan_modules(root)
        scripts = _scripts(root)
        public = _public_api(modules)
        walker = _Reachability(modules)
        requests: List[_Request] = [(name, None) for name in ROOTS]
        requests.extend(("repro", name) for name in public)
        for tree, is_bench in scripts:
            requests.extend(_imports(tree))
            if is_bench:
                requests.extend((name, None) for name in _dotted_strings(tree) & set(modules))
        walker.walk(requests)

        findings = self._stale_modules(modules, walker.reached)
        walker.walk([(name, None) for name in self.allowlist])
        for name, module in sorted(modules.items()):
            if name not in walker.reached:
                findings.append(
                    _finding(
                        module.relpath,
                        1,
                        f"module '{name}' is not reachable from any entry point",
                        "delete it, import it from an entry point, or add it "
                        "to ALLOWLIST in devtools/checkers/dead_code.py with a reason",
                    )
                )

        reached = [modules[name] for name in sorted(walker.reached)]
        symbols: _Symbols = {
            f"{module.name}.{stmt.name}": (module, stmt)
            for module in reached
            for stmt in module.symbols()
        }
        seeds = set(public)
        for tree, is_bench in scripts:
            seeds |= _names([tree])
            if is_bench:
                seeds.update(*(text.split(".") for text in _dotted_strings(tree)))
        for module in reached:
            seeds |= _names(module.module_level())
        roots = [key for key, (module, _) in symbols.items() if module.name in self.allowlist]
        live = _named_closure(symbols, seeds, roots)
        findings.extend(self._stale_symbols(symbols, live))
        live = _named_closure(symbols, seeds, roots + list(self.symbol_allowlist))
        for key, (module, stmt) in sorted(symbols.items()):
            if key not in live:
                kind = "class" if isinstance(stmt, ast.ClassDef) else "function"
                findings.append(
                    _finding(
                        module.relpath,
                        stmt.lineno,
                        f"{kind} '{key}' is not reachable from any entry point",
                        "delete it, use it from reached code, or add it to "
                        "SYMBOL_ALLOWLIST in devtools/checkers/dead_code.py with a reason",
                    )
                )
        return findings

    def _stale_modules(self, modules: Dict[str, _Module], reached: Set[str]) -> List[Finding]:
        findings: List[Finding] = []
        for kept, reason in sorted(self.allowlist.items()):
            problem: Optional[str] = None
            if kept not in modules:
                problem = "names a module that does not exist"
            elif kept in reached:
                problem = "names a module the entry points already reach"
            elif not reason.strip():
                problem = "gives no reason"
            if problem:
                findings.append(_stale(f"allowlist entry '{kept}' {problem}", "ALLOWLIST"))
        return findings

    def _stale_symbols(self, symbols: _Symbols, live: Set[str]) -> List[Finding]:
        findings: List[Finding] = []
        for kept, reason in sorted(self.symbol_allowlist.items()):
            problem: Optional[str] = None
            if kept not in symbols:
                problem = "names no top-level function or class of a reached module"
            elif kept in live:
                problem = "names a symbol the entry points already reach"
            elif not reason.strip():
                problem = "gives no reason"
            if problem:
                findings.append(
                    _stale(f"symbol allowlist entry '{kept}' {problem}", "SYMBOL_ALLOWLIST")
                )
        return findings


def _named_closure(symbols: _Symbols, seeds: Set[str], roots: List[str]) -> Set[str]:
    """Keys of every symbol the seed names or a live symbol's body names."""
    by_name: Dict[str, List[str]] = {}
    for key, (_, stmt) in symbols.items():
        by_name.setdefault(stmt.name, []).append(key)
    live: Set[str] = set()
    pending = [key for key in roots if key in symbols]
    names = set(seeds)
    for name in seeds:
        pending.extend(by_name.get(name, ()))
    while pending:
        key = pending.pop()
        if key in live:
            continue
        live.add(key)
        for name in _names([symbols[key][1]]) - names:
            names.add(name)
            pending.extend(by_name.get(name, ()))
    return live


def _finding(path: str, line: int, message: str, hint: str) -> Finding:
    return Finding(rule="dead-code", path=path, line=line, message=message, hint=hint)


def _stale(message: str, table: str) -> Finding:
    return _finding(
        _CHECKER_PATH, 1, message, f"drop the entry from {table}, or give the reason it is kept"
    )
