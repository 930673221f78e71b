"""Multi-tenant asyncio serving front end over persistent sessions.

The package turns the session API (:class:`repro.session.Session`) into a
network service without changing a single answer byte:

* :mod:`~repro.serving.protocol` — the versioned JSON-lines wire protocol
  (requests, structured errors, deterministic result payloads, canonical
  frame encoding);
* :mod:`~repro.serving.tenants` — named tenants: one session + policy
  defaults + query catalog + admission quota each, and the synchronous
  per-tenant executor the determinism story rests on;
* :mod:`~repro.serving.server` — the asyncio TCP server: bounded per-tenant
  admission queues, load shedding with Retry-After hints, one sequential
  worker per tenant, graceful drain, merged ``/metrics``;
* :mod:`~repro.serving.client` — a pipelining JSON-lines client used by the
  tests, the load benchmark and the docs examples.

The pinned invariant (ARCHITECTURE.md): serving N tenants concurrently is
**byte-identical** to running each tenant's admitted requests serially on an
isolated session — :func:`~repro.serving.tenants.serial_replay` is the
reference implementation of that statement, and ``tests/serving/`` plus the
``serving-load`` row of ``benchmarks/system/claims.py`` gate it.
"""

from repro.serving.client import ServingClient
from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    OPS,
    PROTOCOL_VERSION,
    SERVER_OPS,
    TENANT_OPS,
    WRITE_OPS,
    ProtocolError,
    encode_response,
    error_response,
    ok_response,
    parse_request,
)
from repro.serving.server import ReproServer
from repro.serving.tenants import (
    Tenant,
    TenantQuota,
    TenantRegistry,
    TenantSpec,
    serial_replay,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "SERVER_OPS",
    "TENANT_OPS",
    "WRITE_OPS",
    "ProtocolError",
    "ReproServer",
    "ServingClient",
    "Tenant",
    "TenantQuota",
    "TenantRegistry",
    "TenantSpec",
    "encode_response",
    "error_response",
    "ok_response",
    "parse_request",
    "serial_replay",
]
