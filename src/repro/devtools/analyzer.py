"""Core of the ``repro-lint`` static analyzer.

Architecture: a file walker parses every in-scope Python file exactly once
(:class:`ModuleSource`), hands the AST to each registered checker that
declares interest in the file (:class:`Checker.applies_to`), and collects
:class:`Finding` records (rule id, ``file:line``, message, fix hint).
Project-level checkers (the schema manifest) run once against the repo root
instead of per file.

Suppressions are inline and must carry a reason::

    value = time.time()  # repro-lint: disable=determinism-wallclock -- why

A ``disable`` directive may sit on the offending line or in the contiguous
comment block directly above it.  A directive *without* a ``-- reason`` is
inert and is itself reported (rule ``lint-suppression``), so the repo can
never accumulate unexplained escapes.

Configuration lives in ``pyproject.toml`` under ``[tool.repro-lint]`` and
merges over the defaults coded here.  The coded defaults are authoritative:
``tomllib`` only exists on Python >= 3.11, so on older interpreters the
pyproject section is ignored and the defaults must match it.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - version-dependent
    tomllib = None  # type: ignore[assignment]

#: Version of the JSON findings report layout.
REPORT_SCHEMA_VERSION = 1

_DISABLE_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9_,-]+)"
    r"(?:\s+--\s*(?P<reason>\S.*))?"
)

_COMMENT_ONLY_RE = re.compile(r"^\s*#")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative POSIX path
    line: int
    message: str
    hint: str = ""

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }
        if self.hint:
            record["hint"] = self.hint
        return record

    def render(self) -> str:
        text = f"{self.path}:{self.line}: [{self.rule}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass
class LintConfig:
    """Effective analyzer configuration (defaults merged with pyproject)."""

    root: Path
    #: Walk roots, repo-relative.
    paths: List[str] = field(default_factory=lambda: ["src/repro", "benchmarks"])
    #: Repo-relative prefixes never scanned (the analyzer itself, fixtures).
    exclude: List[str] = field(default_factory=lambda: ["src/repro/devtools"])
    #: checker name -> checker option dict (see each checker's DEFAULTS).
    options: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: ``"rule:path"`` or ``"rule:path:line"`` entries accepted as legacy
    #: baseline findings (kept empty in this repo — fix, don't baseline).
    baseline: List[str] = field(default_factory=list)

    def checker_options(self, name: str, defaults: Dict[str, Any]) -> Dict[str, Any]:
        merged = dict(defaults)
        merged.update(self.options.get(name, {}))
        return merged

    def is_baselined(self, finding: Finding) -> bool:
        keys = (
            f"{finding.rule}:{finding.path}",
            f"{finding.rule}:{finding.path}:{finding.line}",
        )
        return any(entry in keys for entry in self.baseline)


@dataclass
class ModuleSource:
    """One parsed in-scope Python file."""

    path: Path
    relpath: str
    text: str
    tree: ast.Module
    lines: List[str]

    @classmethod
    def parse(cls, path: Path, root: Path) -> "ModuleSource":
        text = path.read_text(encoding="utf-8")
        relpath = path.relative_to(root).as_posix()
        tree = ast.parse(text, filename=relpath)
        return cls(path=path, relpath=relpath, text=text, tree=tree, lines=text.splitlines())


class Checker:
    """Base class: one named checker owning one or more rule ids."""

    #: Unique checker name (also a valid ``--rule`` filter value).
    name: str = ""
    #: Rule ids this checker can emit.
    rules: Tuple[str, ...] = ()
    #: Default option dict, overridable via ``[tool.repro-lint.<name>]``.
    DEFAULTS: Dict[str, Any] = {}

    def applies_to(self, relpath: str, config: LintConfig) -> bool:
        scope = self.options(config).get("paths", ())
        return any(relpath == p or relpath.startswith(p.rstrip("/") + "/") for p in scope)

    def options(self, config: LintConfig) -> Dict[str, Any]:
        return config.checker_options(self.name, self.DEFAULTS)

    def check_module(self, module: ModuleSource, config: LintConfig) -> List[Finding]:
        return []

    def check_project(self, root: Path, config: LintConfig) -> List[Finding]:
        return []


# ----------------------------------------------------------------------
# AST helpers shared by checkers.

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ----------------------------------------------------------------------
# Suppressions.

def _directives(module: ModuleSource) -> Dict[int, Tuple[List[str], bool]]:
    """Line number -> (disabled rules, has_reason) for every directive."""
    found: Dict[int, Tuple[List[str], bool]] = {}
    for index, line in enumerate(module.lines, start=1):
        match = _DISABLE_RE.search(line)
        if match:
            rules = [r for r in match.group("rules").split(",") if r]
            found[index] = (rules, match.group("reason") is not None)
    return found


def _suppressed(
    finding: Finding,
    directives: Dict[int, Tuple[List[str], bool]],
    lines: List[str],
) -> bool:
    """True if a reasoned directive covers the finding's line.

    A directive applies to its own line and, when it sits in a comment-only
    block, to the first code line below that block — so multi-line
    explanations can precede the offending statement.
    """
    line = finding.line
    candidates = [line]
    # Walk upward through the contiguous comment block above the line.
    cursor = line - 1
    while cursor >= 1 and _COMMENT_ONLY_RE.match(lines[cursor - 1] if cursor <= len(lines) else ""):
        candidates.append(cursor)
        cursor -= 1
    for candidate in candidates:
        entry = directives.get(candidate)
        if entry is None:
            continue
        rules, has_reason = entry
        if has_reason and (finding.rule in rules or "all" in rules):
            return True
    return False


# ----------------------------------------------------------------------
# Configuration.

def load_config(root: Path) -> LintConfig:
    """Defaults merged with ``[tool.repro-lint]`` (when tomllib exists)."""
    config = LintConfig(root=root)
    pyproject = root / "pyproject.toml"
    if tomllib is None or not pyproject.is_file():
        return config
    try:
        data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return config
    section = data.get("tool", {}).get("repro-lint", {})
    if not isinstance(section, dict):
        return config
    if isinstance(section.get("paths"), list):
        config.paths = [str(p) for p in section["paths"]]
    if isinstance(section.get("exclude"), list):
        config.exclude = [str(p) for p in section["exclude"]]
    if isinstance(section.get("baseline"), list):
        config.baseline = [str(p) for p in section["baseline"]]
    for key, value in section.items():
        if isinstance(value, dict):
            config.options[key] = dict(value)
    return config


def all_checkers() -> List[Checker]:
    """Instantiate the registered checker suite."""
    from repro.devtools.checkers import CHECKERS

    return [cls() for cls in CHECKERS]


def _rule_filter(checkers: List[Checker], rules: Optional[Sequence[str]]) -> Tuple[List[Checker], Optional[set]]:
    """Resolve ``--rule`` values (checker names or rule ids) to a rule set."""
    if not rules:
        return checkers, None
    allowed: set = set()
    for value in rules:
        matched = False
        for checker in checkers:
            if value == checker.name:
                allowed.update(checker.rules)
                matched = True
            elif value in checker.rules:
                allowed.add(value)
                matched = True
        if not matched:
            raise ValueError(f"unknown rule or checker {value!r}")
    active = [c for c in checkers if allowed.intersection(c.rules)]
    return active, allowed


def iter_python_files(root: Path, config: LintConfig) -> Iterable[Path]:
    """Every ``*.py`` under the configured walk roots, excluded prefixes cut."""
    for base in config.paths:
        base_path = root / base
        if not base_path.is_dir():
            continue
        for path in sorted(base_path.rglob("*.py")):
            relpath = path.relative_to(root).as_posix()
            if any(
                relpath == ex or relpath.startswith(ex.rstrip("/") + "/")
                for ex in config.exclude
            ):
                continue
            yield path


def run_lint(
    root: Path,
    rules: Optional[Sequence[str]] = None,
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Run the checker suite over the repo; return sorted findings."""
    root = Path(root).resolve()
    config = config or load_config(root)
    checkers, allowed = _rule_filter(all_checkers(), rules)
    findings: List[Finding] = []
    for path in iter_python_files(root, config):
        relpath = path.relative_to(root).as_posix()
        applicable = [c for c in checkers if c.applies_to(relpath, config)]
        if not applicable:
            continue
        try:
            module = ModuleSource.parse(path, root)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="parse-error",
                    path=relpath,
                    line=exc.lineno or 1,
                    message=f"cannot parse: {exc.msg}",
                )
            )
            continue
        directives = _directives(module)
        for lineno, (_, has_reason) in sorted(directives.items()):
            if not has_reason:
                findings.append(
                    Finding(
                        rule="lint-suppression",
                        path=relpath,
                        line=lineno,
                        message="suppression without a reason is inert",
                        hint="append ' -- <why this line is exempt>' to the directive",
                    )
                )
        for checker in applicable:
            for finding in checker.check_module(module, config):
                if not _suppressed(finding, directives, module.lines):
                    findings.append(finding)
    for checker in checkers:
        findings.extend(checker.check_project(root, config))
    if allowed is not None:
        allowed = set(allowed) | {"parse-error", "lint-suppression"}
        findings = [f for f in findings if f.rule in allowed]
    findings = [f for f in findings if not config.is_baselined(f)]
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings


# ----------------------------------------------------------------------
# Reporters.

def render_text(findings: List[Finding]) -> str:
    if not findings:
        return "repro-lint: 0 findings"
    body = "\n".join(finding.render() for finding in findings)
    return f"{body}\nrepro-lint: {len(findings)} finding(s)"


def render_json(findings: List[Finding]) -> str:
    payload = {
        "schema": "repro-lint/findings",
        "report_version": REPORT_SCHEMA_VERSION,
        "count": len(findings),
        "findings": [finding.to_dict() for finding in findings],
    }
    return json.dumps(payload, indent=2) + "\n"
