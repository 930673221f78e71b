"""Named tenants: one :class:`~repro.session.Session` each, plus quotas.

A tenant is the serving unit of isolation.  Its :class:`TenantSpec` binds a
name to a ``(database, mappings, links)`` triple, an
:class:`~repro.policy.ExecutionPolicy` of per-tenant defaults, a **query
catalog** (the named :class:`~repro.core.target_query.TargetQuery` plans
clients may invoke — plans never travel over the wire), and a
:class:`TenantQuota` bounding how much of the server one tenant may occupy.

:class:`Tenant` is deliberately synchronous: :meth:`Tenant.execute` maps one
parsed request onto the session/database API and returns a complete response
envelope, assigning the per-tenant ``seq`` number under a lock.  The asyncio
server drives it from a worker thread (one logical worker per tenant, so a
tenant's requests execute in admission order); tests and the serial-replay
harness drive it directly, with no sockets or event loop in sight — which is
exactly what makes "concurrent serving is byte-identical to a serial replay"
a checkable statement (:func:`serial_replay`).
"""

from __future__ import annotations

import logging
import re
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterator, Mapping, Sequence

from repro.obs.trace import activate
from repro.policy import ExecutionPolicy, suggest
from repro.serving.protocol import (
    ProtocolError,
    batch_payload,
    encode_response,
    error_response,
    ok_response,
    result_payload,
    stats_payload,
)
from repro.session import Session

__all__ = [
    "TenantQuota",
    "TenantSpec",
    "Tenant",
    "TenantRegistry",
    "serial_replay",
]

#: The serving layer's slow-request log writes here, tenant label included.
logger = logging.getLogger("repro.serving")

#: Tenant names become metric label values and span names; keep them boring.
_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@dataclass(frozen=True)
class TenantQuota:
    """Admission-control bounds for one tenant.

    ``queue_limit`` bounds the tenant's pending-request queue: an arriving
    request that finds the queue full is **load-shed** with a structured
    ``overloaded`` refusal carrying ``retry_after_seconds`` (the
    ``Retry-After`` hint) — the server never buffers a tenant without bound
    and one hot tenant cannot starve the others' queues.  ``max_batch``
    bounds how many queries a single ``query_many`` request may carry.

    ``mapping_budget_cap`` clamps the ``mapping_limit`` of any ``budget`` a
    ``query`` or ``top_k`` request carries (absent or larger requested limits
    are capped down, smaller ones kept) — a tenant allowed only bounded
    budgeted work cannot request an unbounded drive.  The cap is
    deterministic, so capped requests still replay byte-identically.
    """

    queue_limit: int = 16
    max_batch: int = 64
    retry_after_seconds: float = 0.05
    mapping_budget_cap: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.queue_limit, int) or self.queue_limit <= 0:
            raise ValueError(
                f"queue_limit must be a positive int, got {self.queue_limit!r}"
            )
        if not isinstance(self.max_batch, int) or self.max_batch <= 0:
            raise ValueError(
                f"max_batch must be a positive int, got {self.max_batch!r}"
            )
        if self.retry_after_seconds <= 0:
            raise ValueError(
                "retry_after_seconds must be a positive number, "
                f"got {self.retry_after_seconds!r}"
            )
        if self.mapping_budget_cap is not None and (
            not isinstance(self.mapping_budget_cap, int)
            or isinstance(self.mapping_budget_cap, bool)
            or self.mapping_budget_cap < 0
        ):
            raise ValueError(
                "mapping_budget_cap must be a non-negative int (or None), "
                f"got {self.mapping_budget_cap!r}"
            )

    def describe(self) -> dict[str, Any]:
        return {
            "queue_limit": self.queue_limit,
            "max_batch": self.max_batch,
            "retry_after_seconds": self.retry_after_seconds,
            "mapping_budget_cap": self.mapping_budget_cap,
        }


@dataclass
class TenantSpec:
    """Everything needed to build (and rebuild) one tenant.

    A spec is intentionally re-instantiable: the serial-replay harness builds
    a *fresh* tenant from the same spec to check byte-identity, so specs for
    replayed tenants should be constructed from deterministic builders (a
    scenario factory), not from already-mutated live objects.
    """

    name: str
    database: Any
    mappings: Any
    links: Any = None
    policy: ExecutionPolicy | None = None
    #: name → :class:`~repro.core.target_query.TargetQuery` clients may run
    catalog: dict[str, Any] = field(default_factory=dict)
    quota: TenantQuota = field(default_factory=TenantQuota)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not _NAME.match(self.name):
            raise ValueError(
                "tenant name must match [A-Za-z0-9_.-]+ "
                f"(it becomes a metric label), got {self.name!r}"
            )
        if not self.catalog:
            raise ValueError(
                f"tenant {self.name!r} needs a non-empty query catalog "
                "(clients invoke queries by name; plans never cross the wire)"
            )

    @classmethod
    def from_scenario(
        cls,
        name: str,
        scenario,
        policy: ExecutionPolicy | None = None,
        catalog: Mapping[str, Any] | None = None,
        quota: TenantQuota | None = None,
    ) -> "TenantSpec":
        """A spec over a scenario-shaped object (``database``/``mappings``).

        With no explicit ``catalog`` the tenant serves the Table III paper
        queries defined on the scenario's target schema.
        """
        if catalog is None:
            from repro.workloads.queries import queries_for_target

            schema = scenario.target_schema
            catalog = {
                spec.query_id: spec.build(schema)
                for spec in queries_for_target(schema.name)
            }
        return cls(
            name=name,
            database=scenario.database,
            mappings=scenario.mappings,
            links=getattr(scenario, "links", None),
            policy=policy,
            catalog=dict(catalog),
            quota=quota if quota is not None else TenantQuota(),
        )


class Tenant:
    """One live tenant: a session, its catalog, and the request dispatcher.

    ``metrics`` (optional) is the *server-level*
    :class:`~repro.obs.metrics.MetricsRegistry`: request latency and
    slow-request counters land there under a ``tenant`` label, while the
    session's own registry stays tenant-agnostic (the server injects the
    tenant label when merging ``/metrics``).
    """

    def __init__(self, spec: TenantSpec, metrics=None):
        self.spec = spec
        self.name = spec.name
        self.quota = spec.quota
        self.catalog = dict(spec.catalog)
        self.session = Session(
            spec.database, spec.mappings, links=spec.links, policy=spec.policy
        )
        self._metrics = metrics
        self._lock = threading.Lock()
        self._seq = 0
        #: recent slow requests (bounded), mirroring ``Session.slow_queries``
        #: but carrying the tenant and op labels the serving layer knows
        self.slow_requests: deque[dict[str, Any]] = deque(maxlen=128)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def database(self):
        return self.session.database

    def close(self) -> None:
        """Drain and close the tenant's session (idempotent)."""
        self.session.close()

    def describe(self) -> dict[str, Any]:
        """The ``tenants`` op's view of this tenant."""
        policy = self.session.policy
        return {
            "name": self.name,
            "queries": sorted(self.catalog),
            "relations": sorted(self.database.relation_names),
            "quota": self.quota.describe(),
            "policy": policy.describe(),
            "closed": self.session.closed,
        }

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute(self, request: dict[str, Any]) -> dict[str, Any]:
        """Run one admitted request to completion; never raises.

        Requests execute strictly one at a time per tenant (the lock) and
        receive the per-tenant ``seq`` in that order — the order a serial
        replay must follow to reproduce every response byte.  All failures,
        expected or not, come back as structured error envelopes.
        """
        request_id = request.get("id")
        op = request.get("op")
        started = perf_counter()
        with self._lock:
            self._seq += 1
            seq = self._seq
            try:
                result = self._dispatch(op, request)
                response = ok_response(request_id, result, tenant=self.name, seq=seq)
            except ProtocolError as err:
                response = error_response(request_id, err, tenant=self.name, seq=seq)
            except Exception as err:  # noqa: BLE001 - the wire never sees a traceback
                internal = ProtocolError(
                    "internal", f"{type(err).__name__}: {err}"
                )
                response = error_response(
                    request_id, internal, tenant=self.name, seq=seq
                )
        self._observe(op, request, perf_counter() - started, response)
        return response

    def _dispatch(self, op: str, request: dict[str, Any]) -> dict[str, Any]:
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ProtocolError(
                "unknown-op", f"op {op!r} is not a tenant operation"
            )
        if self.session.closed and op != "stats":
            # stats stay readable after close() — everything else is refused
            # with the session's documented error, structured for the wire.
            raise ProtocolError("closed", "session is closed")
        with self._span(op, request):
            return handler(request)

    @contextmanager
    def _span(self, op: str, request: dict[str, Any]) -> Iterator[None]:
        """The ``serve:<tenant>`` root span every traced request nests under."""
        tracer = self.session.tracer
        if tracer is None:
            yield
            return
        attributes = {"op": op}
        query = request.get("query")
        if isinstance(query, str):
            attributes["query"] = query
        with activate(tracer), tracer.span(f"serve:{self.name}", **attributes):
            yield

    # ------------------------------------------------------------------ #
    # op handlers (raise ProtocolError for anything the wire got wrong)
    # ------------------------------------------------------------------ #
    def _op_query(self, request) -> dict[str, Any]:
        query = self._catalog_query(request.get("query"))
        overrides = {**self._overrides(request), **self._budget(request)}
        result = self._session_call(
            lambda: self.session.query(query, **overrides)
        )
        return result_payload(result)

    def _op_query_many(self, request) -> dict[str, Any]:
        names = request.get("queries")
        if not isinstance(names, list) or not names:
            raise ProtocolError(
                "bad-request", 'query_many requires "queries": a non-empty list'
            )
        if len(names) > self.quota.max_batch:
            raise ProtocolError(
                "bad-request",
                f"batch of {len(names)} queries exceeds tenant "
                f"{self.name!r} quota max_batch={self.quota.max_batch}",
            )
        if request.get("budget") is not None:
            raise ProtocolError(
                "bad-overrides",
                'budget applies to the "query" and "top_k" ops only, not '
                "'query_many' (it is a stop rule of anytime and top-k)",
            )
        queries = [self._catalog_query(name) for name in names]
        overrides = self._overrides(request)
        batch = self._session_call(
            lambda: self.session.query_many(queries, **overrides)
        )
        return batch_payload(batch)

    def _op_top_k(self, request) -> dict[str, Any]:
        query = self._catalog_query(request.get("query"))
        k = request.get("k")
        if k is not None and (not isinstance(k, int) or isinstance(k, bool)):
            raise ProtocolError(
                "bad-request", f"k must be a positive integer, got {k!r}"
            )
        overrides = {**self._overrides(request), **self._budget(request)}
        result = self._session_call(
            lambda: self.session.top_k(query, k=k, **overrides)
        )
        return result_payload(result)

    def _op_explain(self, request) -> dict[str, Any]:
        query = self._catalog_query(request.get("query"))
        mapping_index = request.get("mapping_index", 0)
        if not isinstance(mapping_index, int) or isinstance(mapping_index, bool):
            raise ProtocolError(
                "bad-request",
                f"mapping_index must be an integer, got {mapping_index!r}",
            )
        analyze = bool(request.get("analyze", False))
        text = self._session_call(
            lambda: self.session.explain(
                query, mapping_index=mapping_index, analyze=analyze
            )
        )
        return {"query": query.name, "text": text}

    def _op_stats(self, request) -> dict[str, Any]:
        return stats_payload(self.session.stats)

    # -- writes: the PR 6 delta API over the wire ----------------------- #
    def _op_append_rows(self, request) -> dict[str, Any]:
        relation, rows = self._write_target(request, rows_required=True)
        delta = self.database.append_rows(relation, rows)
        return self._write_payload("append_rows", relation, len(rows), delta)

    def _op_update_rows(self, request) -> dict[str, Any]:
        relation, rows = self._write_target(request, rows_required=True)
        positions = self._positions(request)
        delta = self.database.update_rows(relation, positions, rows)
        return self._write_payload("update_rows", relation, len(positions), delta)

    def _op_delete_rows(self, request) -> dict[str, Any]:
        relation, _ = self._write_target(request, rows_required=False)
        positions = self._positions(request)
        delta = self.database.delete_rows(relation, positions)
        return self._write_payload("delete_rows", relation, len(positions), delta)

    def _op_set_relation(self, request) -> dict[str, Any]:
        from repro.relational.relation import Relation

        relation, rows = self._write_target(request, rows_required=True)
        columns = self.database.relation(relation).columns
        self.database.set_relation(
            relation, Relation(columns, rows, name=relation)
        )
        return self._write_payload("set_relation", relation, len(rows), None)

    # ------------------------------------------------------------------ #
    # shared request plumbing
    # ------------------------------------------------------------------ #
    def _catalog_query(self, name):
        if not isinstance(name, str):
            raise ProtocolError(
                "bad-request",
                f'a query is named by a string, got {name!r} '
                f"(available: {sorted(self.catalog)})",
            )
        query = self.catalog.get(name)
        if query is None:
            raise ProtocolError(
                "unknown-query",
                f"tenant {self.name!r} has no query {name!r}"
                f"{suggest(name, self.catalog)} "
                f"(available: {sorted(self.catalog)})",
            )
        return query

    def _overrides(self, request) -> dict[str, Any]:
        overrides = request.get("overrides", {})
        if not isinstance(overrides, dict):
            raise ProtocolError(
                "bad-overrides",
                f"overrides must be a JSON object, got {type(overrides).__name__}",
            )
        if any(not isinstance(key, str) for key in overrides):
            raise ProtocolError(
                "bad-overrides", "override names must be strings"
            )
        if "parallel" in overrides:
            raise ProtocolError(
                "bad-overrides",
                "parallel is not wire-configurable (it is a ParallelConfig "
                "object); set it in the tenant's ExecutionPolicy instead",
            )
        for name in ("budget", "budget_ms"):
            if name in overrides:
                raise ProtocolError(
                    "bad-overrides",
                    f"{name} is not an override: pass the top-level "
                    '"budget" request field (validated and quota-capped; '
                    "wall-clock budgets are not wire-admissible)",
                )
        return dict(overrides)

    def _budget(self, request) -> dict[str, Any]:
        """The request's validated, quota-capped budget as an override (or ``{}``).

        The ``query`` and ``top_k`` ops read it: a budget is a stop rule of
        the anytime and top-k methods.  Only the deterministic limits are
        wire-admissible: a ``wall_ms`` budget cut depends on the serving
        machine's clock, so a budgeted response carrying one could never
        replay byte-identically — it is refused here, not silently dropped.
        Unknown fields get the same did-you-mean ``bad-overrides`` error
        every policy boundary produces.
        """
        spec = request.get("budget")
        if spec is None:
            return {}
        if not isinstance(spec, dict):
            raise ProtocolError(
                "bad-overrides",
                "budget must be a JSON object of Budget fields "
                f"(mapping_limit, eunit_limit), got {type(spec).__name__}",
            )
        if "wall_ms" in spec:
            raise ProtocolError(
                "bad-overrides",
                "wall_ms is not wire-admissible (a wall-clock cut is not "
                "reproducible under serial replay); use mapping_limit or "
                "eunit_limit",
            )
        from repro.anytime.budget import Budget

        try:
            budget = Budget.from_spec(spec)
        except ValueError as err:
            raise ProtocolError("bad-overrides", str(err)) from None
        cap = self.quota.mapping_budget_cap
        if cap is not None:
            budget = budget.capped(cap)
        return {"budget": budget}

    def _session_call(self, call):
        """Run one session call, mapping its ValueErrors onto the wire.

        The session boundary already produces the did-you-mean texts
        (:class:`~repro.policy.ExecutionPolicy` validation); they are
        forwarded verbatim inside a structured ``bad-overrides`` error.
        """
        try:
            return call()
        except ValueError as err:
            raise ProtocolError("bad-overrides", str(err)) from None
        except RuntimeError as err:
            if "closed" in str(err):
                raise ProtocolError("closed", str(err)) from None
            raise

    def _write_target(self, request, rows_required: bool):
        relation = request.get("relation")
        if not isinstance(relation, str) or not relation:
            raise ProtocolError(
                "bad-write", 'a write requires "relation": a non-empty string'
            )
        if not self.database.has_relation(relation):
            raise ProtocolError(
                "bad-write",
                f"tenant {self.name!r} has no relation {relation!r}"
                f"{suggest(relation, self.database.relation_names)} "
                f"(available: {sorted(self.database.relation_names)})",
            )
        rows = request.get("rows")
        if rows is None and not rows_required:
            return relation, []
        if not isinstance(rows, list) or any(
            not isinstance(row, (list, tuple)) for row in rows
        ):
            raise ProtocolError(
                "bad-write", '"rows" must be a list of rows (each a list)'
            )
        return relation, [tuple(row) for row in rows]

    def _positions(self, request) -> Sequence[int]:
        positions = request.get("positions")
        if (
            not isinstance(positions, list)
            or not positions
            or any(
                not isinstance(p, int) or isinstance(p, bool) or p < 0
                for p in positions
            )
        ):
            raise ProtocolError(
                "bad-write",
                '"positions" must be a non-empty list of non-negative integers',
            )
        return positions

    def _write_payload(self, op, relation, rows_affected, delta) -> dict[str, Any]:
        return {
            "op": op,
            "relation": relation,
            "rows_affected": rows_affected,
            # Version tokens are process-global and therefore not wire-safe;
            # the delta *kind* tells the client which invalidation path ran.
            "delta": None if delta is None else delta.kind,
        }

    # ------------------------------------------------------------------ #
    # observation (latency + slow-request log, tenant label attached)
    # ------------------------------------------------------------------ #
    def _observe(self, op, request, elapsed: float, response) -> None:
        if self._metrics is not None and self._metrics.enabled:
            self._metrics.histogram(
                "repro_server_request_seconds",
                "End-to-end wall-clock of tenant-executed requests.",
                labels={"tenant": self.name},
            ).observe(elapsed)
        threshold = self.session.policy.slow_query_seconds
        if threshold is None or elapsed < threshold:
            return
        record = {
            "tenant": self.name,
            "op": op,
            "query": request.get("query"),
            "seconds": round(elapsed, 6),
            "threshold": threshold,
        }
        self.slow_requests.append(record)
        if self._metrics is not None and self._metrics.enabled:
            self._metrics.counter(
                "repro_server_slow_requests_total",
                "Tenant requests slower than the tenant's slow_query_seconds.",
                labels={"tenant": self.name},
            ).inc()
        logger.warning(
            "tenant %s slow request %s (%s): %.1f ms (threshold %.1f ms)",
            self.name,
            op,
            record["query"],
            elapsed * 1000,
            threshold * 1000,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tenant({self.name!r}, queries={len(self.catalog)}, seq={self._seq})"


class TenantRegistry:
    """The server's name → :class:`Tenant` map (insertion-ordered)."""

    def __init__(self, specs: Sequence[TenantSpec], metrics=None):
        if not specs:
            raise ValueError("a server needs at least one TenantSpec")
        self._tenants: dict[str, Tenant] = {}
        for spec in specs:
            if spec.name in self._tenants:
                raise ValueError(f"duplicate tenant name {spec.name!r}")
            self._tenants[spec.name] = Tenant(spec, metrics=metrics)

    def get(self, name: str) -> Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise ProtocolError(
                "unknown-tenant",
                f"no tenant named {name!r}{suggest(name, self._tenants)} "
                f"(tenants: {sorted(self._tenants)})",
            )
        return tenant

    def items(self):
        return self._tenants.items()

    @property
    def names(self) -> list[str]:
        return list(self._tenants)

    def close_all(self) -> None:
        """``Session.close()`` every tenant (drains in-flight; idempotent)."""
        for tenant in self._tenants.values():
            tenant.close()

    def __len__(self) -> int:
        return len(self._tenants)

    def __iter__(self) -> Iterator[Tenant]:
        return iter(self._tenants.values())


def serial_replay(spec: TenantSpec, requests: Sequence[dict[str, Any]]) -> list[bytes]:
    """Execute ``requests`` in order on a fresh, isolated tenant.

    This is the reference semantics of the serving invariant: a tenant served
    concurrently (among other tenants, under admission control) must produce
    exactly these frames for the same per-tenant request order.  Callers pass
    the *executed* requests in ``seq`` order (load-shed refusals never reach
    a tenant, so they are not part of the replay).
    """
    tenant = Tenant(spec)
    try:
        return [encode_response(tenant.execute(request)) for request in requests]
    finally:
        tenant.close()
