"""Per-tenant engine registry for the HTTP serving tier.

Multi-tenancy model: every tenant gets its **own**
:class:`~repro.service.ExplanationEngine`, lazily materialized by a shared
factory on the tenant's first request, with its own caches (and, given
``summary_cache_bytes``, its own summary byte cap of that size).  Isolation
is therefore at the cache level — one tenant's hot queries can never evict
another tenant's summaries, and a tenant hammering ``append_rows`` only
bumps its own data versions — while the expensive immutable inputs
(memory-mapped shards on disk, the shared :class:`~repro.dataframe.Table`
in single-dataset mode) are shared by construction.

Tenant names come from the ``X-Repro-Tenant`` header; they are restricted to
``[A-Za-z0-9._-]`` (max 64 chars) so a hostile header can neither grow an
unbounded registry key space of junk nor smuggle path fragments into
store-backed snapshots.
"""

from __future__ import annotations

import re
from typing import Callable

from repro.analysis.lockwatch import named_lock
from repro.service.engine import ExplanationEngine
from repro.service.server import ProtocolError

_TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


def validate_tenant(tenant: str) -> str:
    """Return ``tenant`` if well-formed, else raise ``bad_request``."""
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise ProtocolError(
            "bad_request",
            "tenant names must match [A-Za-z0-9._-]{1,64}")
    return tenant


class TenantRegistry:
    """Lazily materializes one isolated engine per tenant.

    Parameters
    ----------
    factory:
        ``factory(tenant) -> ExplanationEngine`` building a fully registered
        engine; called at most once per tenant, under the registry lock.
    default_dataset:
        The dataset name requests fall back to when they carry none.
    max_tenants:
        Hard cap on distinct tenants; the cap turns a tenant-name flood into
        a structured ``bad_request`` instead of unbounded engine growth.
    """

    def __init__(self, factory: Callable[[str], ExplanationEngine],
                 default_dataset: str, max_tenants: int = 64):
        if max_tenants < 1:
            raise ValueError("max_tenants must be at least 1")
        self._factory = factory
        self.default_dataset = default_dataset
        self.max_tenants = max_tenants
        self._lock = named_lock("TenantRegistry._lock")
        self._engines: dict[str, ExplanationEngine] = {}  # guarded-by: _lock
        self._hooks: list[Callable[[ExplanationEngine], None]] = []

    def on_materialize(self, hook: Callable[[ExplanationEngine], None]) -> None:
        """Run ``hook(engine)`` on every engine the registry creates.

        The server uses this to attach its shared :class:`ServingMetrics` to
        each tenant engine.  Register hooks before serving starts — the list
        is read without locking afterwards.
        """
        self._hooks.append(hook)

    def engine_for(self, tenant: str) -> ExplanationEngine:
        """The tenant's engine, creating it on first use."""
        validate_tenant(tenant)
        with self._lock:
            engine = self._engines.get(tenant)
            if engine is None:
                if len(self._engines) >= self.max_tenants:
                    raise ProtocolError(
                        "bad_request",
                        f"tenant limit reached ({self.max_tenants}); "
                        f"tenant {tenant!r} was not materialized")
                engine = self._factory(tenant)
                for hook in self._hooks:
                    hook(engine)
                self._engines[tenant] = engine
            return engine

    def tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._engines)

    def engines(self) -> list[tuple[str, ExplanationEngine]]:
        with self._lock:
            return sorted(self._engines.items())

    def snapshot_all(self) -> dict:
        """Snapshot every store-backed tenant engine (graceful shutdown).

        Tenants without a backing store are reported as ``null`` rather than
        failing the drain.
        """
        snapshots = {}
        for tenant, engine in self.engines():
            try:
                snapshots[tenant] = engine.snapshot()
            except ValueError:
                snapshots[tenant] = None  # no backing store for this tenant
        return snapshots

    # ------------------------------------------------------------------ factories

    @classmethod
    def from_store(cls, store, default_dataset: str | None = None,
                   max_tenants: int = 64, **engine_kwargs) -> "TenantRegistry":
        """A registry whose tenants each restore from one shared store.

        Every tenant engine memory-maps the same shard files (the OS page
        cache shares the bytes) but owns its caches; ``engine_kwargs``
        (``summary_cache_size``, ``summary_cache_bytes``) size each one.
        ``default_dataset`` defaults to the store's first dataset by name.

        Snapshots are **not** shared: only the reserved ``default`` tenant
        writes back to the store on :meth:`snapshot_all`, so tenants cannot
        overwrite each other's (identical-origin) warm state concurrently.
        """
        from repro.storage import DatasetStore

        if not isinstance(store, DatasetStore):
            store = DatasetStore(store)
        names = store.dataset_names()
        if not names:
            raise ValueError(f"store at {store.root} has no datasets")
        if default_dataset is None:
            default_dataset = names[0]
        if default_dataset not in names:
            raise ValueError(f"default dataset {default_dataset!r} not in "
                             f"store (has: {', '.join(names)})")

        def factory(tenant: str) -> ExplanationEngine:
            engine = ExplanationEngine.from_store(store, **engine_kwargs)
            if tenant != "default":
                # Non-default tenants must not write back to the shared
                # store: concurrent appends would race on its committed
                # version, so they serve (and append) in memory only.
                engine.detach_store()
            return engine

        return cls(factory, default_dataset, max_tenants=max_tenants)

    @classmethod
    def single_dataset(cls, name: str, table, dag=None, config=None,
                       grouping_attributes=None, treatment_attributes=None,
                       max_tenants: int = 64, **engine_kwargs
                       ) -> "TenantRegistry":
        """A registry whose tenants all serve one in-memory dataset.

        The immutable :class:`~repro.dataframe.Table` object is shared by
        every tenant engine (reads only; appends re-register a fresh table
        inside the appending tenant's engine, leaving the others untouched).
        """

        def factory(tenant: str) -> ExplanationEngine:
            engine = ExplanationEngine(**engine_kwargs)
            engine.register_dataset(
                name, table, dag=dag, config=config,
                grouping_attributes=grouping_attributes,
                treatment_attributes=treatment_attributes)
            return engine

        return cls(factory, name, max_tenants=max_tenants)
