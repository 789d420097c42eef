"""Dead-code checker: every module under ``src/repro`` serves an entry point.

Project-level rule ``dead-code``: import reachability over ``src/repro``
from the declared entry points —

* :data:`ROOTS`: ``repro.cli`` (the ``msropm`` console script),
  ``repro.service`` and ``repro.campaigns.builtin``;
* every ``examples/*.py`` script;
* the modules in :data:`ALLOWLIST`, each kept for a stated reason.

An import statement anywhere in a reached module (function-local lazy
imports included) reaches its target.  A package ``__init__`` is different:
a name it only re-exports reaches just the module it comes from, so
``from repro import MSROPM`` reaches ``repro.core.machine`` and nothing else
``repro/__init__.py`` imports.  A name the ``__init__`` assigns itself
(``CHECKERS = [...]``) reaches the imports its value uses; any other
statement there runs, and so reaches, on every load.  Imports are read as
absolute: the package has no relative imports.

Findings: every module no root reaches, and every allowlist entry that
names a missing module or one the roots already reach, or gives no reason.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

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

_CHECKER_PATH = "src/repro/devtools/checkers/dead_code.py"

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


def _imports(tree: ast.AST) -> List[_Request]:
    """Every import statement anywhere under ``tree`` as requests."""
    refs: List[_Request] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            refs.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            refs.extend((node.module or "", alias.name) for alias in node.names)
    return refs


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

    def __init__(self, allowlist: Optional[Dict[str, str]] = None) -> None:
        self.allowlist = ALLOWLIST if allowlist is None else allowlist

    def check_project(self, root: Path, config: LintConfig) -> List[Finding]:
        modules = _scan_modules(root)
        walker = _Reachability(modules)
        requests: List[_Request] = [(name, None) for name in ROOTS]
        for script in sorted((root / "examples").glob("*.py")):
            text = script.read_text(encoding="utf-8")
            requests.extend(_imports(ast.parse(text, filename=str(script))))
        walker.walk(requests)

        findings: List[Finding] = []
        for kept, reason in sorted(self.allowlist.items()):
            problem: Optional[str] = None
            if kept not in modules:
                problem = "names a module that does not exist"
            elif kept in walker.reached:
                problem = "names a module the entry points already reach"
            elif not reason.strip():
                problem = "gives no reason"
            if problem:
                findings.append(
                    Finding(
                        rule="dead-code",
                        path=_CHECKER_PATH,
                        line=1,
                        message=f"allowlist entry '{kept}' {problem}",
                        hint="drop the entry from ALLOWLIST, or give the reason it is kept",
                    )
                )
        walker.walk([(name, None) for name in self.allowlist])
        for name, module in sorted(modules.items()):
            if name not in walker.reached:
                findings.append(
                    Finding(
                        rule="dead-code",
                        path=module.relpath,
                        line=1,
                        message=f"module '{name}' is not reachable from any entry point",
                        hint=(
                            "delete it, import it from an entry point, or add it "
                            "to ALLOWLIST in devtools/checkers/dead_code.py with a reason"
                        ),
                    )
                )
        return findings
