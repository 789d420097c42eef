"""Every function the traced benchmark wraps must still exist.

``perfbench/layers.py`` names the ``repro`` functions its traced run wraps.
``install()`` skips an entry whose target is gone, and the per-layer metrics
it feeds then read 0 — indistinguishable from a large improvement.  This test
resolves every entry exactly as ``install()`` does (class attributes must be
defined on the named class itself, not inherited) without wrapping anything,
so a refactor that deletes or renames a traced function fails here.
"""

from __future__ import annotations

import functools
import importlib
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench import layers  # noqa: E402 - needs the repository root on sys.path


def test_every_plan_entry_resolves():
    for name in layers.PRELOAD:
        importlib.import_module(name)
    missing = []
    for module_name, path, _span, _layer, _options in layers.PLAN:
        _owner, _attribute, original = layers._resolve(module_name, path)
        if original is None or not callable(original):
            missing.append(f"{module_name}:{path}")
    assert missing == []


def test_job_hash_is_a_cached_property():
    jobs = importlib.import_module("repro.runtime.jobs")
    assert isinstance(jobs.Job.__dict__.get("job_hash"), functools.cached_property)
