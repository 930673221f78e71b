"""Serving-layer anytime: the ``budget`` request field, end to end.

Budgets cross the wire only in their deterministic form (mapping/e-unit
limits — ``wall_ms`` is refused, not dropped), are capped by the tenant's
``mapping_budget_cap`` quota, and the budgeted responses stay inside the
serial-replay byte-identity envelope the concurrency battery pins.
"""

from __future__ import annotations

import asyncio

from repro.core.answer import ProbabilisticAnswer
from repro.serving import ReproServer, TenantQuota, serial_replay
from repro.serving.protocol import answer_payload

from tests.serving.conftest import connect, make_spec, run


def _server(quota=None):
    return ReproServer([make_spec("alpha", quota=quota)])


# --------------------------------------------------------------------------- #
# the budget field: happy path
# --------------------------------------------------------------------------- #
def test_budgeted_query_returns_interval_section():
    async def scenario():
        async with _server() as server:
            client = await connect(server)
            try:
                partial = await client.query(
                    "alpha", "q2", budget={"mapping_limit": 0}
                )
                assert partial["ok"] is True
                anytime = partial["result"]["anytime"]
                assert partial["result"]["evaluator"] == "anytime"
                assert anytime["exhausted"] is False
                assert anytime["unexplored_mass"] > 0
                assert anytime["intervals"] == []

                full = await client.query("alpha", "q2", budget={})
                assert full["ok"] is True
                anytime = full["result"]["anytime"]
                assert anytime["exhausted"] and anytime["converged"]
                assert anytime["unexplored_mass"] == 0.0
                for interval in anytime["intervals"]:
                    assert interval["lb"] == interval["ub"]

                # An unbudgeted query keeps the exact payload shape: the
                # anytime section appears only when the budget field routes
                # the request to the anytime evaluator.
                exact = await client.query("alpha", "q2")
                assert "anytime" not in exact["result"]
                assert exact["result"]["answers"] == full["result"]["answers"]
            finally:
                await client.close()

    run(scenario())


def test_budgeted_top_k_carries_the_anytime_section():
    async def scenario():
        async with _server() as server:
            client = await connect(server)
            try:
                plain = await client.top_k("alpha", "q_phone", k=1)
                assert "anytime" not in plain["result"]
                budgeted = await client.top_k(
                    "alpha", "q_phone", k=1, budget={"mapping_limit": 10_000}
                )
                anytime = budgeted["result"]["anytime"]
                # an unreachable budget stops where top-k's own rule does
                assert anytime["converged"] is True
                assert budgeted["result"]["answers"] == plain["result"]["answers"]
                assert budgeted["result"]["counters"] == plain["result"]["counters"]
                assert anytime["intervals"][0]["values"] == ["456"]
            finally:
                await client.close()

    run(scenario())


def test_quota_caps_the_wire_budget():
    # Capped tenant: a huge requested mapping_limit is clamped to 0, so the
    # run executes nothing.  The same request on an uncapped tenant drains
    # the frontier completely.
    async def scenario():
        async with ReproServer(
            [
                make_spec("capped", quota=TenantQuota(mapping_budget_cap=0)),
                make_spec("open"),
            ]
        ) as server:
            client = await connect(server)
            try:
                budget = {"mapping_limit": 10_000}
                capped = await client.query("capped", "q2", budget=budget)
                open_ = await client.query("open", "q2", budget=budget)
                assert capped["result"]["anytime"]["exhausted"] is False
                assert capped["result"]["anytime"]["unexplored_mass"] > 0
                assert open_["result"]["anytime"]["exhausted"] is True

                # the cap clamps a top_k budget the same way
                capped = await client.top_k("capped", "q2", k=1, budget=budget)
                open_ = await client.top_k("open", "q2", k=1, budget=budget)
                assert capped["result"]["anytime"]["converged"] is False
                assert capped["result"]["counters"]["source_operators"] == 0
                assert open_["result"]["anytime"]["converged"] is True
            finally:
                await client.close()

    run(scenario())


# --------------------------------------------------------------------------- #
# the budget field: refusals
# --------------------------------------------------------------------------- #
def _assert_bad_overrides(response, *needles):
    assert response["ok"] is False
    assert response["error"]["code"] == "bad-overrides"
    for needle in needles:
        assert needle in response["error"]["message"]


def test_wall_ms_is_not_wire_admissible():
    async def scenario():
        async with _server() as server:
            client = await connect(server)
            try:
                response = await client.query(
                    "alpha", "q2", budget={"wall_ms": 5.0}
                )
                _assert_bad_overrides(response, "wall_ms", "serial replay")
            finally:
                await client.close()

    run(scenario())


def test_budget_field_validation_errors():
    async def scenario():
        async with _server() as server:
            client = await connect(server)
            try:
                typo = await client.query(
                    "alpha", "q2", budget={"mapping_limits": 1}
                )
                _assert_bad_overrides(typo, "did you mean 'mapping_limit'")

                not_dict = await client.query("alpha", "q2", budget=7)
                _assert_bad_overrides(not_dict, "JSON object", "int")

                negative = await client.query(
                    "alpha", "q2", budget={"eunit_limit": -1}
                )
                _assert_bad_overrides(negative)
            finally:
                await client.close()

    run(scenario())


def test_budget_applies_to_query_and_top_k_not_query_many():
    async def scenario():
        async with _server() as server:
            client = await connect(server)
            try:
                top_k = await client.top_k(
                    "alpha", "q2", k=1, budget={"mapping_limit": 0}
                )
                assert top_k["ok"] is True
                assert top_k["result"]["evaluator"] == "top-k"
                assert top_k["result"]["anytime"]["exhausted"] is False
                assert top_k["result"]["answers"] == answer_payload(
                    ProbabilisticAnswer()
                )
                wall = await client.top_k(
                    "alpha", "q2", k=1, budget={"wall_ms": 5.0}
                )
                _assert_bad_overrides(wall, "wall_ms", "serial replay")

                many = await client.request(
                    "query_many",
                    tenant="alpha",
                    queries=["q0", "q1"],
                    budget={"mapping_limit": 1},
                )
                _assert_bad_overrides(many, '"top_k" ops only', "query_many")
            finally:
                await client.close()

    run(scenario())


def test_budget_is_not_an_override():
    async def scenario():
        async with _server() as server:
            client = await connect(server)
            try:
                for name in ("budget", "budget_ms"):
                    response = await client.query(
                        "alpha", "q2", overrides={name: {"mapping_limit": 1}}
                    )
                    _assert_bad_overrides(response, name, "top-level")
            finally:
                await client.close()

    run(scenario())


# --------------------------------------------------------------------------- #
# budgeted requests inside the byte-identity envelope
# --------------------------------------------------------------------------- #
def test_budgeted_requests_replay_byte_identically():
    """Concurrent budgeted (query and top_k) + exact traffic matches a serial run."""
    script = [
        {"op": "query", "tenant": "alpha", "query": "q2",
         "budget": {"mapping_limit": 2}},
        {"op": "query", "tenant": "alpha", "query": "q0"},
        {"op": "query", "tenant": "alpha", "query": "q2",
         "budget": {"eunit_limit": 1}},
        {"op": "query", "tenant": "alpha", "query": "q2", "budget": {}},
        {"op": "query", "tenant": "alpha", "query": "q_phone",
         "budget": {"mapping_limit": 0}},
        {"op": "top_k", "tenant": "alpha", "query": "q_phone", "k": 1,
         "budget": {"eunit_limit": 1}},
        {"op": "top_k", "tenant": "alpha", "query": "q2", "k": 2,
         "budget": {"mapping_limit": 2}},
    ]

    async def client_loop(server):
        client = await connect(server)
        try:
            sent = {}
            futures = []
            for _ in range(2):
                for fields in script:
                    request = dict(fields)
                    future = await client.send(
                        request.pop("op"), **request
                    )
                    futures.append(future)
                    sent[client._next_id] = dict(fields)
            responses = [await future for future in futures]
            return [
                (sent[response["id"]], response, client.frames[response["id"]])
                for response in responses
            ]
        finally:
            await client.close()

    async def scenario():
        quota = TenantQuota(queue_limit=64)
        async with ReproServer([make_spec("alpha", quota=quota)]) as server:
            transcripts = await asyncio.gather(
                *(client_loop(server) for _ in range(3))
            )
        triples = [triple for transcript in transcripts for triple in transcript]
        triples.sort(key=lambda triple: triple[1]["seq"])
        seqs = [response["seq"] for _, response, _ in triples]
        assert seqs == list(range(1, len(seqs) + 1))
        return triples

    triples = run(scenario())
    assert all(response["ok"] for _, response, _ in triples)
    requests = [
        {**request, "id": response["id"]} for request, response, _ in triples
    ]
    live_frames = [frame for _, _, frame in triples]
    quota = TenantQuota(queue_limit=64)
    replayed = serial_replay(make_spec("alpha", quota=quota), requests)
    assert live_frames == replayed
