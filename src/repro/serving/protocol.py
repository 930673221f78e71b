"""The serving wire protocol: versioned JSON-lines request/response frames.

One request per line, one response per line.  Responses are **not** ordered —
a connection may pipeline requests to several tenants and each tenant worker
answers at its own pace — so every request carries a client-chosen ``id``
that the response echoes back.  The envelope is deliberately tiny::

    → {"op": "query", "id": 7, "tenant": "excel", "query": "Q1",
       "overrides": {"method": "e-mqo"}}
    ← {"id": 7, "ok": true, "tenant": "excel", "seq": 3,
       "result": {...}, "v": 1}

    → {"op": "query", "id": 8, "tenant": "excel", "query": "Q99"}
    ← {"id": 8, "ok": false, "tenant": "excel", "seq": 4, "error":
       {"code": "unknown-query", "message": "..."}, "v": 1}

``seq`` is the per-tenant execution sequence number: replaying a tenant's
requests in ``seq`` order through an isolated session produces byte-identical
response frames (the serving invariant, gated by ``tests/serving/`` and the
``serving-load`` row of ``benchmarks/system/claims.py``).  To keep that byte-identity meaningful
the result payloads contain only deterministic values — ranked answers,
probabilities and operator/cache counters; wall-clock lives in ``/metrics``,
never in a response body.

Every malformed input maps onto a structured :class:`ProtocolError` (with the
same did-you-mean texts the :class:`~repro.policy.ExecutionPolicy` boundary
produces) — a client can always ``json.loads`` what comes back, whatever it
sent.
"""

from __future__ import annotations

import json
from typing import Any

from repro.policy import suggest

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "OPS",
    "TENANT_OPS",
    "SERVER_OPS",
    "WRITE_OPS",
    "ProtocolError",
    "parse_request",
    "ok_response",
    "error_response",
    "encode_response",
    "answer_payload",
    "result_payload",
    "batch_payload",
    "stats_payload",
]

#: Wire protocol version; requests may pin it via ``"v"`` (optional).
PROTOCOL_VERSION = 1

#: Upper bound of one request frame (a line, newline included).  Oversized
#: frames are refused with a structured ``bad-frame`` error — an unbounded
#: line would otherwise buffer without limit server-side.
MAX_FRAME_BYTES = 1 << 20

#: Write operations, mapped 1:1 onto the delta-aware
#: :class:`~repro.relational.database.Database` write API (plus the wholesale
#: ``set_relation`` path).
WRITE_OPS = ("append_rows", "update_rows", "delete_rows", "set_relation")

#: Operations addressed to one tenant (these require ``"tenant"`` and run
#: through that tenant's admission queue, in admission order).
TENANT_OPS = ("query", "query_many", "top_k", "explain", "stats") + WRITE_OPS

#: Operations answered by the server itself, out of band of any tenant queue.
SERVER_OPS = ("metrics", "healthz", "tenants", "drain")

#: Every operation the protocol knows.
OPS = TENANT_OPS + SERVER_OPS


class ProtocolError(Exception):
    """A structured request failure: an error ``code`` plus a message.

    ``retry_after_seconds`` is set on load-shed refusals (the client should
    back off at least that long before retrying); ``request_id`` carries the
    offending request's ``id`` when it could still be extracted, so the error
    response can be matched to its request.
    """

    def __init__(
        self,
        code: str,
        message: str,
        retry_after_seconds: float | None = None,
        request_id: Any = None,
    ):
        super().__init__(message)
        self.code = code
        self.message = message
        self.retry_after_seconds = retry_after_seconds
        self.request_id = request_id

    def payload(self) -> dict[str, Any]:
        """The ``error`` object of an error response."""
        payload: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.retry_after_seconds is not None:
            payload["retry_after_seconds"] = self.retry_after_seconds
        return payload


def _jsonable(value: Any) -> Any:
    """JSON scalar/containers pass through; anything else renders as str."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return str(value)


# --------------------------------------------------------------------------- #
# request parsing
# --------------------------------------------------------------------------- #
def parse_request(line: str) -> dict[str, Any]:
    """One wire line → a validated request dict (or :class:`ProtocolError`).

    Validates the *envelope* only (frame size, JSON shape, protocol version,
    op name, id shape, tenant presence); op-specific fields (``query``,
    ``rows``, ``overrides``...) are validated by the tenant executing the
    request, so their errors carry the tenant's did-you-mean context.
    """
    if len(line.encode("utf-8", errors="replace")) > MAX_FRAME_BYTES:
        raise ProtocolError(
            "bad-frame",
            f"request frame exceeds {MAX_FRAME_BYTES} bytes",
        )
    text = line.strip()
    if not text:
        raise ProtocolError("bad-frame", "empty request frame")
    try:
        request = json.loads(text)
    except ValueError as err:
        raise ProtocolError("bad-frame", f"invalid JSON: {err}") from None
    if not isinstance(request, dict):
        raise ProtocolError(
            "bad-request",
            f"a request must be a JSON object, got {type(request).__name__}",
        )
    request_id = request.get("id")
    if request_id is not None and not isinstance(request_id, (str, int, float)):
        raise ProtocolError(
            "bad-request",
            "request id must be a JSON scalar (string or number)",
        )
    version = request.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "bad-request",
            f"unsupported protocol version {version!r} "
            f"(this server speaks v{PROTOCOL_VERSION})",
            request_id=request_id,
        )
    op = request.get("op")
    if op is None:
        raise ProtocolError(
            "bad-request",
            f"request has no \"op\" (valid ops: {sorted(OPS)})",
            request_id=request_id,
        )
    if not isinstance(op, str):
        raise ProtocolError(
            "bad-request",
            f"op must be a string naming one of {sorted(OPS)}, got {op!r}",
            request_id=request_id,
        )
    op_key = op.lower()
    if op_key not in OPS:
        raise ProtocolError(
            "unknown-op",
            f"unknown op {op!r}{suggest(op, OPS)} (valid ops: {sorted(OPS)})",
            request_id=request_id,
        )
    if op_key in TENANT_OPS:
        tenant = request.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError(
                "bad-request",
                f"op {op_key!r} requires a \"tenant\" (a non-empty string)",
                request_id=request_id,
            )
    normalized = dict(request)
    normalized["op"] = op_key
    return normalized


# --------------------------------------------------------------------------- #
# response envelopes
# --------------------------------------------------------------------------- #
def ok_response(
    request_id: Any,
    result: dict[str, Any],
    tenant: str | None = None,
    seq: int | None = None,
) -> dict[str, Any]:
    """A success envelope (``seq`` set on tenant-executed requests)."""
    response: dict[str, Any] = {
        "id": request_id,
        "ok": True,
        "result": result,
        "v": PROTOCOL_VERSION,
    }
    if tenant is not None:
        response["tenant"] = tenant
    if seq is not None:
        response["seq"] = seq
    return response


def error_response(
    request_id: Any,
    error: ProtocolError,
    tenant: str | None = None,
    seq: int | None = None,
) -> dict[str, Any]:
    """A failure envelope carrying the structured error payload."""
    if request_id is None:
        request_id = error.request_id
    response: dict[str, Any] = {
        "id": request_id,
        "ok": False,
        "error": error.payload(),
        "v": PROTOCOL_VERSION,
    }
    if tenant is not None:
        response["tenant"] = tenant
    if seq is not None:
        response["seq"] = seq
    return response


def encode_response(response: dict[str, Any]) -> bytes:
    """Canonical frame bytes: sorted keys, compact separators, one ``\\n``.

    This is *the* serialization both the live server and the serial-replay
    harness use, so "byte-identical responses" is a statement about actual
    frames, not about parsed dictionaries.
    """
    return (
        json.dumps(_jsonable(response), sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
        + b"\n"
    )


# --------------------------------------------------------------------------- #
# result payloads (deterministic by construction)
# --------------------------------------------------------------------------- #
def answer_payload(answers) -> dict[str, Any]:
    """A :class:`~repro.core.answer.ProbabilisticAnswer` in rank order.

    ``ranked()`` sorts by decreasing probability with a total tie-break, so
    the payload is independent of tuple insertion order — the one part of an
    answer that may legitimately vary with evaluation strategy.
    """
    return {
        "tuples": [
            {
                "rank": ranked.rank,
                "values": list(ranked.values),
                "probability": ranked.probability,
            }
            for ranked in answers.ranked()
        ],
        "empty_probability": answers.empty_probability,
    }


def _counters(stats) -> dict[str, Any]:
    """The deterministic counters of one ExecutionStats (no wall-clock)."""
    return {
        "source_queries": stats.source_queries,
        "source_operators": stats.source_operators,
        "reformulations": stats.reformulations,
        "plan_cache_hits": stats.plan_cache_hits,
        "plan_cache_misses": stats.plan_cache_misses,
        "operators_saved": stats.operators_saved,
        "rows_scanned": stats.rows_scanned,
    }


def result_payload(result) -> dict[str, Any]:
    """One :class:`~repro.core.evaluators.base.EvaluationResult` on the wire.

    A budgeted result (the ``budget`` request field of ``query`` or
    ``top_k``, or ``method="anytime"``) additionally carries its interval
    section: per-tuple ``[lb, ub]`` bounds, the global unexplored mass and
    the ``exhausted``/``converged`` flags.  All of it is deterministic under the
    wire-admissible (mapping/e-unit) budgets, so budgeted responses stay
    inside the serial-replay byte-identity envelope.
    """
    payload = {
        "evaluator": result.evaluator,
        "query": result.query.name,
        "answers": answer_payload(result.answers),
        "counters": _counters(result.stats),
    }
    intervals = getattr(result, "intervals", None)
    if intervals is not None:
        payload["anytime"] = {
            "intervals": [
                {"values": list(iv.values), "lb": iv.lb, "ub": iv.ub}
                for iv in intervals
            ],
            "unexplored_mass": result.unexplored_mass,
            "exhausted": result.exhausted,
            "converged": result.converged,
        }
    return payload


def batch_payload(batch) -> dict[str, Any]:
    """One :class:`~repro.core.evaluators.batch.BatchResult` on the wire."""
    return {
        "results": [result_payload(result) for result in batch.results],
        "counters": _counters(batch.stats),
    }


def stats_payload(stats) -> dict[str, Any]:
    """A :class:`~repro.session.SessionStats` snapshot, wall-clock excluded.

    Everything else in the snapshot is a deterministic counter, so the
    ``stats`` op stays inside the byte-identity envelope; per-request and
    per-stage wall-clock is served by ``/metrics`` instead.
    """
    snapshot = stats.snapshot()
    snapshot.pop("seconds", None)
    return snapshot
