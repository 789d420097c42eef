"""Workload zoo: a declarative registry of benchmark problem families.

The paper evaluates the MSROPM only on King's graphs; the zoo is what turns
the runtime built in earlier iterations into *breadth* of evaluation.  A
:class:`WorkloadFamily` packages one problem family — how to build an
instance, which parameter grid to default to, how instance seeds derive from
a base seed, and where reference solutions come from.  A
:class:`WorkloadSpec` is one declarative instantiation of a family (family
name + parameter grid + seed policy) and expands to concrete
:class:`WorkloadInstance` values, each carrying the content-addressed
:class:`repro.runtime.jobs.GraphSpec` the experiment runtime schedules and
caches by.

Content addressing is the design center: a generated ensemble member is
identified by its *recipe* (family + parameters + seed, via
:class:`repro.runtime.jobs.GeneratedGraphSpec`), never by the materialized
adjacency, so cache keys are bit-stable across processes and invocations.
Deterministic families (King's boards, bundled DIMACS instances) use the
runtime's existing shape/file-hash specs.

Built-in families live in :mod:`repro.workloads.families` and are registered
lazily on first lookup, so importing the runtime never drags in generators.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.graphs.graph import Graph
from repro.runtime.jobs import GraphSpec, _sha256_text, canonical_json

#: Problem kinds a family can declare.
WORKLOAD_KINDS = ("coloring", "maxcut")


@dataclass(frozen=True)
class ReferenceSolution:
    """Reference-solution metadata for normalizing and judging accuracies.

    Attributes
    ----------
    kind:
        ``"coloring"`` or ``"maxcut"`` (copied from the family).
    num_colors:
        Colors the workload is solved with (4 for the paper's problems,
        2 for max-cut scenarios).
    colorable:
        Whether a proper ``num_colors``-coloring is known to exist
        (``None`` = unknown; meaningful for coloring workloads only).
    reference_cut:
        Cut value accuracies are normalized against (max-cut workloads only).
    provider:
        Where the reference came from (``"closed-form"``,
        ``"four-colour-theorem"``, ``"backtracking"``, ``"known"``,
        ``"upper-bound"`` or ``"unknown"``) — reported in ``workloads show``.
    """

    kind: str
    num_colors: int
    colorable: Optional[bool] = None
    reference_cut: Optional[float] = None
    provider: str = "unknown"


@dataclass(frozen=True)
class WorkloadInstance:
    """One concrete problem of the zoo: a family member with its runtime spec."""

    family: str
    label: str
    params: Tuple[Tuple[str, Any], ...]
    seed: Optional[int]
    spec: GraphSpec
    kind: str
    num_colors: int

    def build(self) -> Graph:
        """Materialize the instance's graph (delegates to the runtime spec)."""
        return self.spec.build()

    def reference(self, graph: Optional[Graph] = None) -> ReferenceSolution:
        """Compute the instance's reference solution via its family's provider.

        Pass the already-built ``graph`` when one is at hand — generated specs
        rebuild on every :meth:`build` call, and providers that inspect the
        graph (e.g. the backtracking 4-colorability check) should not force a
        second construction.
        """
        if graph is None:
            graph = self.build()
        return get_family(self.family).reference_provider(self, graph)

    def edge_weights(self, graph: Optional[Graph] = None) -> Optional[Dict]:
        """Per-edge weights of the instance, or ``None`` for unit weights.

        Only families with a ``weights_provider`` (e.g. weighted max-cut
        ensembles) carry weights; the provider derives them deterministically
        from the instance recipe (params + seed), so the same instance always
        weighs its edges identically in every process.
        """
        family = get_family(self.family)
        if family.weights_provider is None:
            return None
        if graph is None:
            graph = self.build()
        return family.weights_provider(dict(self.params), self.seed, graph)

    @property
    def params_dict(self) -> Dict[str, Any]:
        """The instance parameters as a plain dictionary."""
        return dict(self.params)


@dataclass(frozen=True)
class WorkloadFamily:
    """One registered problem family of the workload zoo.

    ``spec_factory(params, seed)`` returns the content-addressed
    :class:`GraphSpec` of an instance; for seeded (ensemble) families it
    receives the derived instance seed, for deterministic families ``None``.
    ``reference_provider(instance, graph)`` receives the built graph so it
    never has to construct one itself.  ``builder`` is required for families
    whose instances are described by a
    :class:`repro.runtime.jobs.GeneratedGraphSpec` — it is the function that
    spec dispatches back to at build time.
    """

    name: str
    description: str
    kind: str
    seeded: bool
    default_grid: Tuple[Mapping[str, Any], ...]
    spec_factory: Callable[[Dict[str, Any], Optional[int]], GraphSpec]
    reference_provider: Callable[[WorkloadInstance, Graph], ReferenceSolution]
    builder: Optional[Callable[[Dict[str, Any], Optional[int]], Graph]] = None
    num_colors: int = 4
    replicates: int = 1
    #: Optional per-edge weight derivation ``(params, seed, graph) -> weights``
    #: for weighted problem families.  Must be deterministic in its recipe
    #: arguments (the weights ride implicitly in the instance's content hash,
    #: which covers family + params + seed).
    weights_provider: Optional[
        Callable[[Dict[str, Any], Optional[int], Graph], Dict]
    ] = None

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"workload kind must be one of {WORKLOAD_KINDS}, got {self.kind!r}"
            )
        if not self.default_grid:
            raise ConfigurationError(f"family {self.name!r} needs a non-empty default grid")
        if self.replicates < 1:
            raise ConfigurationError(f"replicates must be >= 1, got {self.replicates}")


@dataclass(frozen=True)
class WorkloadSpec:
    """A declarative workload: family + parameter grid + seed policy.

    ``grid=None`` uses the family's default grid; ``replicates=None`` its
    default replicate count.  Deterministic families ignore the seed policy
    (their instances carry no seed).  :meth:`expand` is pure and stable: the
    same spec always expands to the same instances, with the same derived
    seeds, in the same order — which is what makes the scenario matrix
    cache-hittable across invocations and identical across worker counts.
    """

    family: str
    grid: Optional[Tuple[Mapping[str, Any], ...]] = None
    base_seed: int = 2025
    replicates: Optional[int] = None

    def expand(self) -> List[WorkloadInstance]:
        """Expand to concrete instances (one per grid point and replicate)."""
        family = get_family(self.family)
        grid = self.grid if self.grid is not None else family.default_grid
        replicates = self.replicates if self.replicates is not None else family.replicates
        if replicates < 1:
            raise ConfigurationError(f"replicates must be >= 1, got {replicates}")
        if not family.seeded and self.replicates is not None and self.replicates > 1:
            raise ConfigurationError(
                f"family {family.name!r} is deterministic (unseeded); "
                f"replicates={self.replicates} would produce identical instances"
            )
        instances: List[WorkloadInstance] = []
        for point_index, params in enumerate(grid):
            params = dict(params)
            for replicate in range(replicates if family.seeded else 1):
                seed = (
                    derive_instance_seed(self.base_seed, family.name, point_index, replicate)
                    if family.seeded
                    else None
                )
                spec = family.spec_factory(params, seed)
                instances.append(
                    WorkloadInstance(
                        family=family.name,
                        label=spec.label,
                        params=tuple(sorted(params.items())),
                        seed=seed,
                        spec=spec,
                        kind=family.kind,
                        num_colors=family.num_colors,
                    )
                )
        return instances


def derive_instance_seed(base_seed: int, family: str, point_index: int, replicate: int) -> int:
    """Derive a stable instance seed from the spec's seed policy.

    The derivation hashes the *content* ``(base_seed, family, point, replicate)``
    with SHA-256, so it is identical across processes, platforms and Python
    hash randomization — a requirement for generated-ensemble cache keys.
    """
    payload = f"{base_seed}/{family}/{point_index}/{replicate}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:4], "big")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, WorkloadFamily] = {}
_BUILTINS_LOADED = False
_BUILTINS_LOADING = False


def _ensure_builtins() -> None:
    """Load the built-in families exactly once (lazily, to avoid import cycles).

    The loading flag guards against re-entry (families.py itself calls
    :func:`register_family` at import time); the loaded flag is only set on
    a *successful* import, so a failed load is retried — loudly — rather than
    leaving a silently partial registry.
    """
    global _BUILTINS_LOADED, _BUILTINS_LOADING
    if _BUILTINS_LOADED or _BUILTINS_LOADING:
        return
    _BUILTINS_LOADING = True
    try:
        import repro.workloads.families  # noqa: F401  (registers on import)

        _BUILTINS_LOADED = True
    finally:
        _BUILTINS_LOADING = False


def register_family(family: WorkloadFamily) -> WorkloadFamily:
    """Register a family under its name (duplicate names are an error).

    Built-in families are loaded first, so a user family colliding with a
    built-in name fails here, immediately, instead of poisoning the lazy
    builtin import at the first later lookup.
    """
    _ensure_builtins()
    if family.name in _REGISTRY:
        raise ConfigurationError(f"workload family {family.name!r} is already registered")
    _REGISTRY[family.name] = family
    return family


def get_family(name: str) -> WorkloadFamily:
    """Look up a registered family by name."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload family {name!r}; available: {', '.join(family_names())}"
        ) from None


def family_names() -> List[str]:
    """Names of all registered families, in registration order."""
    _ensure_builtins()
    return list(_REGISTRY)


def iter_families() -> List[WorkloadFamily]:
    """All registered families, in registration order."""
    _ensure_builtins()
    return list(_REGISTRY.values())


def build_family_graph(name: str, params: Dict[str, Any], seed: Optional[int]) -> Graph:
    """Build a generated-family graph from its recipe (GeneratedGraphSpec hook)."""
    family = get_family(name)
    if family.builder is None:
        raise ConfigurationError(f"workload family {name!r} has no generator builder")
    return family.builder(params, seed)


# ----------------------------------------------------------------------
# Reference-solution caching
# ----------------------------------------------------------------------
#: Version of the cached reference-solution payload.  Bump when providers
#: change in a result-affecting way; old entries then miss and recompute.
REFERENCE_SCHEMA_VERSION = 1

#: Payload namespace within the runtime's :class:`ResultCache`.
REFERENCE_CACHE_KIND = "reference"


def reference_cache_key(instance: WorkloadInstance) -> Optional[str]:
    """Content hash identifying ``instance``'s reference solution, or ``None``.

    The key derives from the graph spec's content fingerprint plus the
    workload kind and color budget — everything the reference providers
    consume — so it is stable across processes and invocations.  Instances
    whose spec does not build deterministically (seedless generated
    ensembles) have no stable identity and return ``None`` (uncacheable).
    """
    if not instance.spec.deterministic:
        return None
    # Same canonical-JSON + SHA-256 recipe as every other runtime content hash.
    payload = {
        "reference_schema": REFERENCE_SCHEMA_VERSION,
        "graph": instance.spec.fingerprint(),
        "family": instance.family,
        "kind": instance.kind,
        "num_colors": instance.num_colors,
    }
    return _sha256_text(canonical_json(payload))


def cached_reference(
    instance: WorkloadInstance,
    graph: Optional[Graph] = None,
    cache=None,
) -> ReferenceSolution:
    """The instance's reference solution, served from ``cache`` when possible.

    ``cache`` is a :class:`repro.runtime.cache.ResultCache` (or ``None`` for
    the uncached path).  References depend only on the content-addressed graph
    spec, so scenario-matrix reruns — and any experiment sharing the cache
    directory — skip the exact backtracking colorability searches and
    reference-cut computations after the first run.
    """
    key = reference_cache_key(instance) if cache is not None else None
    if key is not None:
        payload = cache.load_payload(REFERENCE_CACHE_KIND, key)
        if payload is not None:
            try:
                return ReferenceSolution(**payload)
            except TypeError:
                pass  # foreign/stale payload shape: recompute and overwrite
    reference = instance.reference(graph)
    if key is not None:
        cache.store_payload(REFERENCE_CACHE_KIND, key, asdict(reference))
    return reference


def default_workload(family: str, base_seed: int = 2025) -> WorkloadSpec:
    """The family's default workload spec (default grid and seed policy)."""
    get_family(family)  # validate the name early
    return WorkloadSpec(family=family, base_seed=base_seed)


def expand_workloads(
    families: Optional[Sequence[str]] = None, base_seed: int = 2025
) -> List[WorkloadInstance]:
    """Expand the default workloads of ``families`` (``None`` = the whole zoo)."""
    names = list(families) if families is not None else family_names()
    instances: List[WorkloadInstance] = []
    for name in names:
        instances.extend(default_workload(name, base_seed=base_seed).expand())
    return instances
