"""Determinism checker: no ambient entropy in hash/execution paths.

Job hashes, generated-graph recipes, and campaign resume all assume that the
same inputs replay to the same bytes on any host.  Three things break that
silently: wall-clock reads, RNG streams not derived from the job seed, and
iteration over unordered containers (``set``, directory listings) whose
order leaks into results or hashes.

Rules
-----
``determinism-wallclock``
    ``time.time``/``time.time_ns``/``datetime.now``-family calls.
``determinism-rng``
    ``os.urandom``, stdlib ``random.*``, or direct ``np.random.*`` use; all
    randomness must flow through :mod:`repro.rng` so replica streams stay
    seed-derived and reproducible.
``determinism-unsorted-iter``
    ``for``/comprehension iteration over a ``set(...)``/set literal or a
    filesystem enumeration (``glob``/``iterdir``/``listdir``/``scandir``/
    ``os.walk``) that is not wrapped in ``sorted(...)``.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List

from repro.devtools.analyzer import (
    Checker,
    Finding,
    LintConfig,
    ModuleSource,
    dotted_name,
)

_WALLCLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
}

_RNG_EXACT = {"os.urandom"}

_RNG_PREFIXES = ("np.random.", "numpy.random.", "random.")

_FS_ENUM_ATTRS = {"glob", "iglob", "rglob", "iterdir"}

_FS_ENUM_EXACT = {"os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob"}


class DeterminismChecker(Checker):
    name = "determinism"
    rules = (
        "determinism-wallclock",
        "determinism-rng",
        "determinism-unsorted-iter",
    )
    DEFAULTS: Dict[str, Any] = {
        "paths": [
            "src/repro/runtime/jobs.py",
            "src/repro/runtime/baselines.py",
            "src/repro/campaigns",
            "src/repro/obs",
            "src/repro/service",
            "src/repro/workloads",
        ],
    }

    def check_module(self, module: ModuleSource, config: LintConfig) -> List[Finding]:
        findings: List[Finding] = []

        def flag(rule: str, node: ast.AST, message: str, hint: str) -> None:
            findings.append(
                Finding(
                    rule=rule,
                    path=module.relpath,
                    line=getattr(node, "lineno", 1),
                    message=message,
                    hint=hint,
                )
            )

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                if name in _WALLCLOCK:
                    flag(
                        "determinism-wallclock",
                        node,
                        f"wall-clock read `{name}()` in a determinism-scoped module",
                        "derive ordering/identity from job content, not the clock",
                    )
                elif name in _RNG_EXACT or name.startswith(_RNG_PREFIXES):
                    flag(
                        "determinism-rng",
                        node,
                        f"ambient RNG `{name}()` bypasses the seeded replica streams",
                        "route randomness through repro.rng (make_rng/iteration_seeds)",
                    )
            elif isinstance(node, (ast.For, ast.comprehension)):
                iterator = node.iter
                unsorted = self._unsorted_source(iterator)
                if unsorted is not None:
                    flag(
                        "determinism-unsorted-iter",
                        iterator,
                        f"iteration over unordered `{unsorted}` leaks container order",
                        "wrap the iterable in sorted(...)",
                    )
        return findings

    @staticmethod
    def _unsorted_source(iterator: ast.AST) -> "str | None":
        """The unordered-source label if ``iterator`` is one, else ``None``."""
        if isinstance(iterator, ast.Set):
            return "set literal"
        if not isinstance(iterator, ast.Call):
            return None
        name = dotted_name(iterator.func)
        if name == "set":
            return "set(...)"
        if name in _FS_ENUM_EXACT:
            return name
        if (
            isinstance(iterator.func, ast.Attribute)
            and iterator.func.attr in _FS_ENUM_ATTRS
        ):
            return f".{iterator.func.attr}(...)"
        return None
