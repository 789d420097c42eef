"""Tests of the repro-lint static analyzer (src/repro/devtools/).

Two layers:

* a fixture corpus of minimal good/bad snippets per rule — every bad
  snippet must produce exactly its expected finding, every good snippet
  none — pinning each checker's detection power and its false-positive
  boundary;
* schema-manifest round-trips on a copied mini-repo proving the coupling
  discipline end to end: a hashed-field addition without a version bump
  fails lint and blocks ``regen-manifest``; with the bump, regeneration
  succeeds and lint returns to zero.
"""

from __future__ import annotations

import ast
import json
import shutil
from pathlib import Path

import pytest

from repro.devtools import schema
from repro.devtools.analyzer import (
    Finding,
    LintConfig,
    ModuleSource,
    render_json,
    render_text,
    run_lint,
)
from repro.devtools.checkers.atomicity import AtomicityChecker
from repro.devtools.checkers.dead_code import DeadCodeChecker
from repro.devtools.checkers.determinism import DeterminismChecker
from repro.devtools.checkers.hotpath import HotPathChecker
from repro.devtools.checkers.schema_coupling import SchemaCouplingChecker

REPO_ROOT = Path(__file__).resolve().parent.parent


def check(checker, source: str, relpath: str = "pkg/mod.py"):
    """Run one checker's module pass over a source snippet."""
    module = ModuleSource(
        path=Path(relpath),
        relpath=relpath,
        text=source,
        tree=ast.parse(source),
        lines=source.splitlines(),
    )
    config = LintConfig(root=REPO_ROOT)
    return checker.check_module(module, config)


def rules_of(findings):
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# Determinism checker.


class TestDeterminismChecker:
    def test_wallclock_read_flagged(self):
        findings = check(
            DeterminismChecker(),
            "import time\n\ndef f():\n    return time.time()\n",
        )
        assert rules_of(findings) == ["determinism-wallclock"]
        assert findings[0].line == 4

    def test_datetime_now_flagged(self):
        findings = check(
            DeterminismChecker(),
            "import datetime\n\ndef f():\n    return datetime.datetime.now()\n",
        )
        assert rules_of(findings) == ["determinism-wallclock"]

    def test_numpy_random_flagged(self):
        findings = check(
            DeterminismChecker(),
            "import numpy as np\n\ndef f(seed):\n    return np.random.default_rng(seed)\n",
        )
        assert rules_of(findings) == ["determinism-rng"]
        assert "repro.rng" in findings[0].hint

    def test_stdlib_random_flagged(self):
        findings = check(
            DeterminismChecker(),
            "import random\n\ndef f():\n    return random.randint(0, 9)\n",
        )
        assert rules_of(findings) == ["determinism-rng"]

    def test_os_urandom_flagged(self):
        findings = check(
            DeterminismChecker(),
            "import os\n\ndef f():\n    return os.urandom(8)\n",
        )
        assert rules_of(findings) == ["determinism-rng"]

    def test_set_iteration_flagged(self):
        findings = check(
            DeterminismChecker(),
            "def f(xs):\n    for x in set(xs):\n        print(x)\n",
        )
        assert rules_of(findings) == ["determinism-unsorted-iter"]
        assert findings[0].line == 2

    def test_glob_iteration_flagged(self):
        findings = check(
            DeterminismChecker(),
            "from pathlib import Path\n\ndef f(root):\n"
            "    return [p for p in Path(root).glob('*.json')]\n",
        )
        assert rules_of(findings) == ["determinism-unsorted-iter"]

    def test_sorted_wrappers_pass(self):
        findings = check(
            DeterminismChecker(),
            "def f(xs, root):\n"
            "    for x in sorted(set(xs)):\n"
            "        print(x)\n"
            "    for p in sorted(root.glob('*.json')):\n"
            "        print(p)\n",
        )
        assert findings == []

    def test_seeded_rng_passes(self):
        findings = check(
            DeterminismChecker(),
            "from repro.rng import make_rng\n\ndef f(seed):\n"
            "    rng = make_rng(seed)\n    return rng.integers(1, 10)\n",
        )
        assert findings == []

    def test_dict_iteration_passes(self):
        # Dict iteration is insertion-ordered, hence deterministic.
        findings = check(
            DeterminismChecker(),
            "def f(d):\n    for key in d:\n        print(key, d[key])\n",
        )
        assert findings == []


# ----------------------------------------------------------------------
# Atomicity checker.


class TestAtomicityChecker:
    def test_truncating_open_flagged(self):
        findings = check(
            AtomicityChecker(),
            "def publish(path, data):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(data)\n",
        )
        assert rules_of(findings) == ["atomic-write"]
        assert "atomic" in findings[0].hint

    def test_write_text_flagged(self):
        findings = check(
            AtomicityChecker(),
            "def publish(path, data):\n    path.write_text(data)\n",
        )
        assert rules_of(findings) == ["atomic-write"]

    def test_handrolled_tempfile_flagged(self):
        findings = check(
            AtomicityChecker(),
            "import tempfile\n\ndef publish(d):\n"
            "    return tempfile.NamedTemporaryFile(dir=d, delete=False)\n",
        )
        assert rules_of(findings) == ["atomic-write"]

    def test_append_and_read_modes_pass(self):
        findings = check(
            AtomicityChecker(),
            "def journal(path, line):\n"
            "    with open(path, 'a') as handle:\n"
            "        handle.write(line)\n"
            "    with open(path, 'rb+') as handle:\n"
            "        handle.truncate(0)\n"
            "    with open(path) as handle:\n"
            "        return handle.read()\n",
        )
        assert findings == []

    def test_blessed_helper_passes(self):
        findings = check(
            AtomicityChecker(),
            "from repro.runtime.atomic import write_atomic_json\n\n"
            "def publish(path, payload):\n"
            "    write_atomic_json(path, payload, indent=2)\n",
        )
        assert findings == []


# ----------------------------------------------------------------------
# Hot-path checker.


class TestHotPathChecker:
    def test_allocation_in_loop_flagged(self):
        findings = check(
            HotPathChecker(),
            "import numpy as np\n\ndef step(n):\n"
            "    for _ in range(n):\n"
            "        buf = np.zeros(4)\n",
        )
        assert rules_of(findings) == ["hotpath-alloc"]
        assert findings[0].line == 5

    def test_outless_ufunc_in_loop_flagged(self):
        findings = check(
            HotPathChecker(),
            "import numpy as np\n\ndef step(theta, n):\n"
            "    for _ in range(n):\n"
            "        theta = np.sin(theta)\n",
        )
        assert rules_of(findings) == ["hotpath-alloc"]
        assert "out=" in findings[0].message

    def test_astype_in_loop_flagged(self):
        findings = check(
            HotPathChecker(),
            "import numpy as np\n\ndef step(theta, n):\n"
            "    for _ in range(n):\n"
            "        low = theta.astype(np.float32)\n",
        )
        assert rules_of(findings) == ["hotpath-alloc"]

    def test_prealloc_then_inplace_passes(self):
        findings = check(
            HotPathChecker(),
            "import numpy as np\n\ndef step(theta, n):\n"
            "    buf = np.empty_like(theta)\n"
            "    for _ in range(n):\n"
            "        np.sin(theta, out=buf)\n"
            "        np.add(theta, buf, out=theta)\n",
        )
        assert findings == []

    def test_hot_setup_annotation_exempts(self):
        findings = check(
            HotPathChecker(),
            "import numpy as np\n\n"
            "def build_buffers(shapes):  # repro-lint: hot-setup\n"
            "    return [np.zeros(s) for s in shapes]\n",
        )
        assert findings == []

    def test_init_is_setup(self):
        findings = check(
            HotPathChecker(),
            "import numpy as np\n\nclass Recorder:\n"
            "    def __init__(self, slots):\n"
            "        self.frames = [np.empty(s) for s in slots]\n",
        )
        assert findings == []

    def test_missing_dtype_in_f32_context_flagged(self):
        findings = check(
            HotPathChecker(),
            "import numpy as np\n\ndef final(phases, dtype=np.float32):\n"
            "    return np.array(phases)\n",
        )
        assert rules_of(findings) == ["hotpath-dtype"]
        assert "float64" in findings[0].message

    def test_throughput_class_requires_dtype(self):
        findings = check(
            HotPathChecker(),
            "import numpy as np\n\nclass ThroughputModel:\n"
            "    def state(self, n):\n"
            "        return np.zeros(n)\n",
        )
        assert rules_of(findings) == ["hotpath-dtype"]

    def test_explicit_dtype_passes(self):
        findings = check(
            HotPathChecker(),
            "import numpy as np\n\ndef final(phases, dtype=np.float32):\n"
            "    return np.array(phases, dtype=dtype)\n",
        )
        assert findings == []

    def test_plain_context_needs_no_dtype(self):
        findings = check(
            HotPathChecker(),
            "import numpy as np\n\ndef reference(phases):\n"
            "    return np.array(phases)\n",
        )
        assert findings == []


# ----------------------------------------------------------------------
# Suppressions, config scoping, and the walker (via run_lint).


def _mini_repo(tmp_path: Path, source: str) -> LintConfig:
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(source, encoding="utf-8")
    return LintConfig(
        root=tmp_path,
        paths=["pkg"],
        exclude=[],
        options={"determinism": {"paths": ["pkg"]}},
    )


class TestSuppressions:
    def test_reasoned_suppression_silences(self, tmp_path):
        config = _mini_repo(
            tmp_path,
            "import time\n\ndef f():\n"
            "    return time.time()  # repro-lint: disable=determinism-wallclock -- display only\n",
        )
        findings = run_lint(tmp_path, rules=["determinism"], config=config)
        assert findings == []

    def test_comment_block_above_suppresses(self, tmp_path):
        config = _mini_repo(
            tmp_path,
            "import time\n\ndef f():\n"
            "    # repro-lint: disable=determinism-wallclock -- event timestamps\n"
            "    # are observability metadata, never hashed.\n"
            "    return time.time()\n",
        )
        findings = run_lint(tmp_path, rules=["determinism"], config=config)
        assert findings == []

    def test_reasonless_suppression_is_inert_and_flagged(self, tmp_path):
        config = _mini_repo(
            tmp_path,
            "import time\n\ndef f():\n"
            "    return time.time()  # repro-lint: disable=determinism-wallclock\n",
        )
        findings = run_lint(tmp_path, rules=["determinism"], config=config)
        assert sorted(rules_of(findings)) == [
            "determinism-wallclock",
            "lint-suppression",
        ]

    def test_unrelated_rule_does_not_suppress(self, tmp_path):
        config = _mini_repo(
            tmp_path,
            "import time\n\ndef f():\n"
            "    return time.time()  # repro-lint: disable=atomic-write -- wrong rule\n",
        )
        findings = run_lint(tmp_path, rules=["determinism"], config=config)
        assert rules_of(findings) == ["determinism-wallclock"]

    def test_baseline_entry_drops_finding(self, tmp_path):
        config = _mini_repo(tmp_path, "import time\n\ndef f():\n    return time.time()\n")
        config.baseline = ["determinism-wallclock:pkg/mod.py"]
        findings = run_lint(tmp_path, rules=["determinism"], config=config)
        assert findings == []

    def test_out_of_scope_module_is_not_checked(self, tmp_path):
        config = _mini_repo(tmp_path, "import time\n\ndef f():\n    return time.time()\n")
        config.options = {"determinism": {"paths": ["elsewhere"]}}
        findings = run_lint(tmp_path, rules=["determinism"], config=config)
        assert findings == []

    def test_unknown_rule_filter_raises(self, tmp_path):
        config = _mini_repo(tmp_path, "x = 1\n")
        with pytest.raises(ValueError, match="unknown rule"):
            run_lint(tmp_path, rules=["nosuch"], config=config)


# ----------------------------------------------------------------------
# Reporters.


class TestReporters:
    FINDING = Finding(
        rule="determinism-rng",
        path="pkg/mod.py",
        line=7,
        message="ambient RNG",
        hint="use repro.rng",
    )

    def test_text_report(self):
        text = render_text([self.FINDING])
        assert "pkg/mod.py:7: [determinism-rng] ambient RNG" in text
        assert "1 finding(s)" in text
        assert render_text([]) == "repro-lint: 0 findings"

    def test_json_report_round_trips(self):
        payload = json.loads(render_json([self.FINDING]))
        assert payload["schema"] == "repro-lint/findings"
        assert payload["count"] == 1
        assert payload["findings"][0] == {
            "rule": "determinism-rng",
            "path": "pkg/mod.py",
            "line": 7,
            "message": "ambient RNG",
            "hint": "use repro.rng",
        }


# ----------------------------------------------------------------------
# Schema-hash coupling.

#: The dataclass field line the simulated schema change inserts before.
_ANCHOR = "replica_start: int = 0"


def _copy_schema_sources(tmp_path: Path) -> Path:
    """Copy the fingerprinted sources (+ manifest) into a mini repo root."""
    for relpath in list(schema.SOURCES.values()) + [schema.MANIFEST_PATH]:
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(REPO_ROOT / relpath, target)
    return tmp_path


def _add_hashed_field(root: Path, bump_version: bool) -> None:
    jobs_path = root / schema.SOURCES["jobs"]
    source = jobs_path.read_text(encoding="utf-8")
    assert source.count(_ANCHOR) == 1
    source = source.replace(_ANCHOR, f"new_knob: int = 7\n    {_ANCHOR}")
    if bump_version:
        source = source.replace("JOB_SCHEMA_VERSION = 4", "JOB_SCHEMA_VERSION = 5")
    jobs_path.write_text(source, encoding="utf-8")


class TestSchemaManifest:
    def test_checked_in_manifest_matches_head(self):
        assert schema.load_manifest(REPO_ROOT) == schema.compute_manifest(REPO_ROOT)

    def test_manifest_contains_hashed_surfaces(self):
        manifest = schema.compute_manifest(REPO_ROOT)
        solve = manifest["surfaces"]["solve_job"]
        assert "total_iterations" in solve["fields"]
        assert "job_schema" in solve["describe_keys"]
        assert "precision" in manifest["surfaces"]["msropm_config"]["fields"]
        assert "KingsGraphSpec" in manifest["surfaces"]["graph_specs"]["classes"]
        assert manifest["versions"]["JOB_SCHEMA_VERSION"] == 4

    def test_field_addition_without_bump_fails_lint(self, tmp_path):
        root = _copy_schema_sources(tmp_path)
        _add_hashed_field(root, bump_version=False)
        findings = SchemaCouplingChecker().check_project(root, LintConfig(root=root))
        assert rules_of(findings) == ["schema-manifest"]
        assert "without bumping JOB_SCHEMA_VERSION" in findings[0].message

    def test_field_addition_with_bump_needs_regen_then_passes(self, tmp_path):
        root = _copy_schema_sources(tmp_path)
        _add_hashed_field(root, bump_version=True)
        checker = SchemaCouplingChecker()
        # Bump done but manifest stale: still a finding, pointing at regen.
        stale = checker.check_project(root, LintConfig(root=root))
        assert rules_of(stale) == ["schema-manifest"]
        assert "regenerated" in stale[0].message
        # regen-manifest accepts the bumped change and restores zero findings.
        schema.regenerate(root)
        assert checker.check_project(root, LintConfig(root=root)) == []

    def test_regenerate_refuses_unbumped_change(self, tmp_path):
        root = _copy_schema_sources(tmp_path)
        _add_hashed_field(root, bump_version=False)
        with pytest.raises(schema.SchemaExtractionError, match="bump JOB_SCHEMA_VERSION"):
            schema.regenerate(root)
        # --force overrides for provably non-semantic refactors.
        schema.regenerate(root, force=True)
        assert SchemaCouplingChecker().check_project(root, LintConfig(root=root)) == []

    def test_overrides_simulate_changes_without_touching_disk(self):
        jobs_rel = schema.SOURCES["jobs"]
        source = (REPO_ROOT / jobs_rel).read_text(encoding="utf-8")
        changed = source.replace(_ANCHOR, f"new_knob: int = 7\n    {_ANCHOR}")
        baseline = schema.compute_manifest(REPO_ROOT)
        simulated = schema.compute_manifest(REPO_ROOT, overrides={jobs_rel: changed})
        assert "new_knob" in simulated["surfaces"]["solve_job"]["fields"]
        assert schema.unbumped_changes(baseline, simulated) == [
            ("solve_job", "JOB_SCHEMA_VERSION")
        ]

    def test_missing_manifest_is_a_finding(self, tmp_path):
        root = _copy_schema_sources(tmp_path)
        (root / schema.MANIFEST_PATH).unlink()
        findings = SchemaCouplingChecker().check_project(root, LintConfig(root=root))
        assert rules_of(findings) == ["schema-manifest"]
        assert "missing" in findings[0].message


# ----------------------------------------------------------------------
# Dead-code checker (project-level import reachability).


def _write_tree(root: Path, files: dict) -> Path:
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


def _dead_code(root: Path, allowlist=None, symbol_allowlist=None):
    checker = DeadCodeChecker(allowlist=allowlist or {}, symbol_allowlist=symbol_allowlist or {})
    return checker.check_project(root, LintConfig(root=root))


def _flagged_paths(findings):
    assert set(rules_of(findings)) <= {"dead-code"}
    return sorted(finding.path for finding in findings)


_TREE = {
    "src/repro/__init__.py": "",
    "src/repro/cli.py": (
        "from repro.core import solve\n\ndef main():\n    return solve()\n\n"
        "if __name__ == '__main__':\n    main()\n"
    ),
    "src/repro/core/__init__.py": (
        "from repro.core.machine import solve\nfrom repro.core.legacy import old\n"
    ),
    "src/repro/core/machine.py": (
        "def solve():\n    from repro.core.helpers import helper\n    return helper()\n"
    ),
    "src/repro/core/helpers.py": "def helper():\n    return 1\n",
    "src/repro/core/legacy.py": "def old():\n    return 0\n",
    "src/repro/orphan.py": "import repro.core.helpers\n",
    "src/repro/study.py": "from repro.science import measure\n",
    "src/repro/science.py": "def measure():\n    return 2\n",
}


class TestDeadCodeChecker:
    def test_unreached_module_flagged(self, tmp_path):
        root = _write_tree(tmp_path, _TREE)
        paths = _flagged_paths(_dead_code(root))
        assert "src/repro/orphan.py" in paths
        # A function-local import in a reached module counts as reaching.
        assert "src/repro/core/helpers.py" not in paths

    def test_module_reached_only_through_init_reexport_flagged(self, tmp_path):
        root = _write_tree(tmp_path, _TREE)
        assert _flagged_paths(_dead_code(root)) == [
            "src/repro/core/legacy.py",
            "src/repro/orphan.py",
            "src/repro/science.py",
            "src/repro/study.py",
        ]

    def test_allowlisted_module_and_its_imports_pass(self, tmp_path):
        root = _write_tree(tmp_path, _TREE)
        findings = _dead_code(root, allowlist={"repro.study": "kept for a paper figure"})
        assert _flagged_paths(findings) == ["src/repro/core/legacy.py", "src/repro/orphan.py"]

    def test_example_scripts_are_entry_points(self, tmp_path):
        root = _write_tree(
            tmp_path, {**_TREE, "examples/demo.py": "from repro.core import old\n"}
        )
        assert "src/repro/core/legacy.py" not in _flagged_paths(_dead_code(root))

    def test_stale_allowlist_entries_flagged(self, tmp_path):
        root = _write_tree(tmp_path, _TREE)
        findings = _dead_code(
            root,
            allowlist={
                "repro.gone": "deleted long ago",
                "repro.core.machine": "reached by the CLI anyway",
                "repro.orphan": " ",
                "repro.study": "kept on purpose",
            },
        )
        allowlist_path = "src/repro/devtools/checkers/dead_code.py"
        assert [f.message for f in findings if f.path == allowlist_path] == [
            "allowlist entry 'repro.core.machine' names a module the entry points already reach",
            "allowlist entry 'repro.gone' names a module that does not exist",
            "allowlist entry 'repro.orphan' gives no reason",
        ]
        assert [f.path for f in findings if f.path != allowlist_path] == [
            "src/repro/core/legacy.py"
        ]

    def test_names_an_init_defines_keep_their_imports(self, tmp_path):
        root = _write_tree(
            tmp_path,
            {
                "src/repro/__init__.py": "",
                "src/repro/cli.py": "from repro.checks import CHECKERS\n",
                "src/repro/checks/__init__.py": (
                    "from repro.checks.first import First\n"
                    "from repro.checks.second import Second\n"
                    "from repro.checks.unused import Unused\n\n"
                    "CHECKERS = [First, Second]\n"
                ),
                "src/repro/checks/first.py": "class First:\n    pass\n",
                "src/repro/checks/second.py": "class Second:\n    pass\n",
                "src/repro/checks/unused.py": "class Unused:\n    pass\n",
            },
        )
        assert _flagged_paths(_dead_code(root)) == ["src/repro/checks/unused.py"]

    def test_service_and_campaign_roots_are_entry_points(self, tmp_path):
        root = _write_tree(
            tmp_path,
            {
                "src/repro/__init__.py": "",
                "src/repro/cli.py": "",
                "src/repro/service.py": "import repro.http\n",
                "src/repro/http.py": "",
                "src/repro/campaigns/__init__.py": "",
                "src/repro/campaigns/builtin.py": "from repro.plans import plan\n",
                "src/repro/plans.py": "def plan():\n    return []\n",
                "src/repro/spare.py": "",
            },
        )
        assert _flagged_paths(_dead_code(root)) == ["src/repro/spare.py"]

    def test_import_cycle_is_walked_once(self, tmp_path):
        root = _write_tree(
            tmp_path,
            {
                "src/repro/__init__.py": "",
                "src/repro/cli.py": "import repro.ping\n",
                "src/repro/ping.py": "import repro.pong\n",
                "src/repro/pong.py": "from repro.ping import *\nimport repro.tail\n",
                "src/repro/tail.py": "",
                "src/repro/island_a.py": "import repro.island_b\n",
                "src/repro/island_b.py": "import repro.island_a\n",
            },
        )
        # A cycle no root reaches stays unreached: neither member is a root.
        assert _flagged_paths(_dead_code(root)) == [
            "src/repro/island_a.py",
            "src/repro/island_b.py",
        ]

    def test_submodule_named_in_from_import_is_reached(self, tmp_path):
        root = _write_tree(
            tmp_path,
            {**_TREE, "src/repro/cli.py": "from repro.core import legacy, solve\n\nlegacy.old()\n"},
        )
        assert "src/repro/core/legacy.py" not in _flagged_paths(_dead_code(root))

    def test_dotted_import_loads_every_parent_package(self, tmp_path):
        root = _write_tree(
            tmp_path,
            {
                "src/repro/__init__.py": "",
                "src/repro/cli.py": "import repro.deep.inner.leaf\n",
                "src/repro/deep/__init__.py": "",
                "src/repro/deep/inner/__init__.py": "",
                "src/repro/deep/inner/leaf.py": "",
                "src/repro/deep/inner/sibling.py": "",
            },
        )
        assert _flagged_paths(_dead_code(root)) == ["src/repro/deep/inner/sibling.py"]

    def test_init_statements_run_on_every_load(self, tmp_path):
        root = _write_tree(
            tmp_path,
            {
                "src/repro/__init__.py": "",
                "src/repro/cli.py": "from repro.plugins import hook\n",
                "src/repro/plugins/__init__.py": (
                    "from repro.plugins.hooks import hook\n"
                    "from repro.plugins.registry import register\n"
                    "from repro.plugins.extra import unused\n\n"
                    "register(hook)\n"
                ),
                "src/repro/plugins/hooks.py": "def hook():\n    pass\n",
                "src/repro/plugins/registry.py": "def register(fn):\n    return fn\n",
                "src/repro/plugins/extra.py": "def unused():\n    pass\n",
            },
        )
        assert _flagged_paths(_dead_code(root)) == ["src/repro/plugins/extra.py"]

    def test_finding_names_the_module_and_the_fix(self, tmp_path):
        root = _write_tree(tmp_path, _TREE)
        finding = next(f for f in _dead_code(root) if f.path == "src/repro/orphan.py")
        assert finding.rule == "dead-code"
        assert finding.line == 1
        assert finding.message == "module 'repro.orphan' is not reachable from any entry point"
        assert "ALLOWLIST" in finding.hint

    def test_repo_has_no_dead_modules(self):
        assert run_lint(REPO_ROOT, rules=["dead-code"]) == []


_SYMBOL_TREE = {
    "src/repro/__init__.py": (
        "from repro.api import public\nfrom repro.api import unlisted\n\n__all__ = ['public']\n"
    ),
    "src/repro/api.py": (
        "def public():\n    return 1\n\n\n"
        "def unlisted():\n    return 2\n"
    ),
    "src/repro/cli.py": (
        "from repro.core import solve\n\n\n"
        "def main():\n    return solve()\n\n\n"
        "if __name__ == '__main__':\n    main()\n"
    ),
    "src/repro/core/__init__.py": "from repro.core.machine import solve, spare\n",
    "src/repro/core/machine.py": (
        "import repro.core.tools\n\n\n"
        "def solve():\n    return _step()\n\n\n"
        "def _step():\n    return 0\n\n\n"
        "def spare():\n    return _only_spare()\n\n\n"
        "def _only_spare():\n    return spare()\n\n\n"
        "class Traced:\n    def run(self):\n        return 3\n"
    ),
    "src/repro/core/tools.py": "def shown():\n    return 4\n\n\ndef helper():\n    return 5\n",
    "src/repro/orphan.py": "from repro.core.tools import helper\n\nhelper()\n",
}


def _flagged_symbols(findings):
    assert set(rules_of(findings)) <= {"dead-code"}
    return sorted(
        finding.message.split("'")[1]
        for finding in findings
        if finding.message.startswith(("function ", "class "))
    )


def _repro_packages():
    import pkgutil

    import repro

    return ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
    ]


class TestDeadCodeSymbols:
    def test_unnamed_functions_are_flagged(self, tmp_path):
        root = _write_tree(tmp_path, _SYMBOL_TREE)
        flagged = _flagged_symbols(_dead_code(root))
        # Named only by a package ``__init__`` re-export, by its own body or by
        # a dead sibling: each is dead.
        assert "repro.core.machine.spare" in flagged
        assert "repro.core.machine._only_spare" in flagged
        assert "repro.api.unlisted" in flagged
        # Named by a reached caller (through the package) or by module-level code.
        assert "repro.core.machine.solve" not in flagged
        assert "repro.core.machine._step" not in flagged
        assert "repro.cli.main" not in flagged

    @pytest.mark.parametrize(
        "cli, lib, flagged",
        [
            pytest.param(
                "", "import functools\n\n@functools.lru_cache\ndef cached():\n    return 1\n",
                ["cached"], id="a-decorator-is-not-a-use",
            ),
            pytest.param("", "async def fetch():\n    return 1\n", ["fetch"], id="async-def"),
            pytest.param(
                "def main(spec: repro.lib.Spec) -> None:\n    pass\n\nmain(None)\n",
                "class Spec:\n    pass\n", [], id="an-annotation-is-a-use",
            ),
            pytest.param(
                "def main(spec: 'Spec') -> None:\n    pass\n\nmain(None)\n",
                "class Spec:\n    pass\n", ["Spec"], id="a-string-annotation-is-not",
            ),
            pytest.param(
                "", "def one():\n    return 1\n\nREGISTRY = {'one': one}\n", [],
                id="own-module-level-registry",
            ),
            pytest.param(
                "", "def loop(n):\n    return loop(n - 1) if n else 0\n", ["loop"],
                id="recursion-is-not-a-use",
            ),
            pytest.param(
                "repro.lib.Box().get()\n",
                "def helper():\n    return 1\n\n\nclass Box:\n    def get(self):\n"
                "        return helper()\n",
                [], id="method-of-a-live-class",
            ),
            pytest.param(
                "",
                "def helper():\n    return 1\n\n\nclass Box:\n    def get(self):\n"
                "        return helper()\n",
                ["Box", "helper"], id="method-of-a-dead-class",
            ),
            pytest.param(
                "from repro.lib import helper as aid\n\naid()\n",
                "def helper():\n    return 1\n", [], id="import-alias",
            ),
            pytest.param(
                "def run():\n    return 2\n\nrun()\n", "def run():\n    return 1\n", [],
                id="names-match-by-spelling",
            ),
            pytest.param(
                "TARGET = 'repro.lib.helper'\n", "def helper():\n    return 1\n", ["helper"],
                id="a-dotted-string-outside-perfbench-is-not",
            ),
            pytest.param("", "def _private():\n    return 1\n", ["_private"], id="private-names"),
        ],
    )
    def test_what_counts_as_naming_a_symbol(self, tmp_path, cli, lib, flagged):
        root = _write_tree(
            tmp_path,
            {
                "src/repro/__init__.py": "",
                "src/repro/cli.py": "import repro.lib\n" + cli,
                "src/repro/lib.py": lib,
            },
        )
        symbols = _flagged_symbols(_dead_code(root))
        assert [name for name in symbols if name.startswith("repro.lib.")] == [
            f"repro.lib.{name}" for name in flagged
        ]

    def test_function_named_only_by_an_unreached_module_is_flagged(self, tmp_path):
        root = _write_tree(tmp_path, _SYMBOL_TREE)
        findings = _dead_code(root)
        assert "src/repro/orphan.py" in _flagged_paths(findings)
        assert "repro.core.tools.helper" in _flagged_symbols(findings)

    def test_public_api_is_a_root(self, tmp_path):
        root = _write_tree(tmp_path, _SYMBOL_TREE)
        assert "repro.api.public" not in _flagged_symbols(_dead_code(root))

    def test_perfbench_plan_strings_and_example_imports_keep_symbols(self, tmp_path):
        root = _write_tree(tmp_path, _SYMBOL_TREE)
        before = _flagged_symbols(_dead_code(root))
        assert {"repro.core.machine.Traced", "repro.core.tools.shown"} <= set(before)
        _write_tree(
            tmp_path,
            {
                "perfbench/layers.py": (
                    'PLAN = (("repro.core.machine", "Traced.run", "core.run", "core", {}),)\n'
                ),
                "examples/demo.py": "from repro.core.tools import shown\n\nshown()\n",
            },
        )
        after = _flagged_symbols(_dead_code(root))
        assert sorted(set(before) - set(after)) == [
            "repro.core.machine.Traced",
            "repro.core.tools.shown",
        ]

    def test_symbols_of_an_allowlisted_module_are_kept(self, tmp_path):
        root = _write_tree(tmp_path, _SYMBOL_TREE)
        findings = _dead_code(root, allowlist={"repro.orphan": "kept for a paper figure"})
        assert "src/repro/orphan.py" not in _flagged_paths(findings)
        assert "repro.core.tools.helper" not in _flagged_symbols(findings)

    def test_symbol_allowlist_keeps_and_stale_entries_are_flagged(self, tmp_path):
        root = _write_tree(tmp_path, _SYMBOL_TREE)
        findings = _dead_code(
            root,
            symbol_allowlist={
                "repro.core.machine.spare": "reference the tests compare against",
                "repro.core.machine.solve": "reached by the CLI anyway",
                "repro.core.machine.gone": "deleted long ago",
                "repro.api.unlisted": "",
            },
        )
        allowlist_path = "src/repro/devtools/checkers/dead_code.py"
        assert [f.message for f in findings if f.path == allowlist_path] == [
            "symbol allowlist entry 'repro.api.unlisted' gives no reason",
            "symbol allowlist entry 'repro.core.machine.gone' names no top-level "
            "function or class of a reached module",
            "symbol allowlist entry 'repro.core.machine.solve' names a symbol the "
            "entry points already reach",
        ]
        flagged = _flagged_symbols(findings)
        # An allowlisted symbol keeps what its body names.
        assert "repro.core.machine.spare" not in flagged
        assert "repro.core.machine._only_spare" not in flagged

    def test_symbol_finding_names_the_symbol_and_its_line(self, tmp_path):
        root = _write_tree(tmp_path, _SYMBOL_TREE)
        finding = next(
            f for f in _dead_code(root) if "'repro.core.machine.Traced'" in f.message
        )
        assert finding.path == "src/repro/core/machine.py"
        assert finding.line == 20
        assert finding.message == (
            "class 'repro.core.machine.Traced' is not reachable from any entry point"
        )
        assert "SYMBOL_ALLOWLIST" in finding.hint

    @pytest.mark.parametrize("package", _repro_packages())
    def test_every_package_all_resolves(self, package):
        """Each ``repro.*`` package exports exactly names it can resolve."""
        import importlib

        module = importlib.import_module(package)
        exported = getattr(module, "__all__", [])
        assert len(exported) == len(set(exported))
        assert [name for name in exported if not hasattr(module, name)] == []

    def test_public_api_root_is_repro_all(self):
        """The checker's public-API root is exactly ``repro.__all__``."""
        import repro
        from repro.devtools.checkers.dead_code import _public_api, _scan_modules

        assert _public_api(_scan_modules(REPO_ROOT)) == list(repro.__all__)


# ----------------------------------------------------------------------
# The repo itself and the CLI entry points.


class TestRepoIsClean:
    def test_repo_lints_to_zero_findings(self):
        assert run_lint(REPO_ROOT) == []

    def test_cli_dev_lint(self, capsys):
        from repro.cli import main

        assert main(["dev", "lint", "--root", str(REPO_ROOT)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_cli_dev_lint_json(self, capsys):
        from repro.cli import main

        assert main(["dev", "lint", "--format", "json", "--root", str(REPO_ROOT)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "schema": "repro-lint/findings",
            "report_version": 1,
            "count": 0,
            "findings": [],
        }

    def test_cli_regen_check(self, capsys):
        from repro.cli import main

        assert main(["dev", "regen-manifest", "--check", "--root", str(REPO_ROOT)]) == 0
        assert "current" in capsys.readouterr().out

    def test_module_entry_point(self, capsys):
        from repro.devtools.__main__ import main as devtools_main

        assert devtools_main(["--root", str(REPO_ROOT), "lint"]) == 0
