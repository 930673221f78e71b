"""Session-level anytime: budget routing, metrics, spans, resume accounting.

``session.query(q, budget=...)`` / ``budget_ms=...`` route to the anytime
evaluator, the returned result resumes *through the session* (refinement
steps land in the lifetime totals and the anytime gauges/counters), and the
``phase:anytime`` span shows up in traced calls.
"""

from __future__ import annotations

import pytest

from repro import AnytimeResult, Budget, ExecutionPolicy, Session
from repro.datagen.paper_example import build_paper_example


@pytest.fixture()
def example():
    return build_paper_example()


def _session(example, **policy_fields):
    return Session(
        example.database,
        example.mappings,
        links=example.links,
        policy=ExecutionPolicy(**policy_fields),
    )


class TestBudgetRouting:
    def test_budget_override_implies_anytime(self, example):
        with _session(example) as s:
            result = s.query(example.q2(), budget={"mapping_limit": 1})
            assert isinstance(result, AnytimeResult)
            assert result.evaluator == "anytime"
            assert not result.exhausted

    def test_budget_ms_shorthand_implies_anytime(self, example):
        with _session(example) as s:
            result = s.query(example.q2(), budget_ms=60_000)
            assert isinstance(result, AnytimeResult)
            assert result.exhausted  # a minute is unreachable here

    def test_budget_and_budget_ms_conflict(self, example):
        with _session(example) as s:
            with pytest.raises(ValueError, match="not both"):
                s.query(example.q2(), budget=Budget(), budget_ms=5.0)

    def test_explicit_non_anytime_method_rejects_budget(self, example):
        with _session(example) as s:
            with pytest.raises(ValueError, match="does not apply"):
                s.query(example.q2(), method="o-sharing", budget={"mapping_limit": 1})

    def test_budget_on_a_top_k_session_stays_top_k(self, example):
        # Regression: a budget used to reroute every method but anytime to
        # anytime, silently dropping a top-k session's k.
        with _session(example, method="top-k", k=1) as s:
            result = s.query(example.q_phone_by_addr(), budget={"eunit_limit": 1})
            assert isinstance(result, AnytimeResult)
            assert result.evaluator == "top-k"
            assert result.details["k"] == 1
            final = result.resume()
            assert repr(final.answers) == repr(s.top_k(example.q_phone_by_addr()).answers)

    def test_top_k_accepts_budget_and_budget_ms(self, example):
        with _session(example) as s:
            plain = s.top_k(example.q2(), k=1)
            for budget in ({"budget": {"mapping_limit": 10_000}}, {"budget_ms": 60_000}):
                result = s.top_k(example.q2(), k=1, **budget)
                assert isinstance(result, AnytimeResult)
                assert result.evaluator == "top-k" and result.converged
                assert repr(result.answers) == repr(plain.answers)
            with pytest.raises(ValueError, match="not both"):
                s.top_k(example.q2(), k=1, budget=Budget(), budget_ms=5.0)

    def test_unknown_budget_field_gets_did_you_mean(self, example):
        with _session(example) as s:
            with pytest.raises(ValueError, match="did you mean 'eunit_limit'"):
                s.query(example.q2(), budget={"eunit_limits": 1})

    def test_unbudgeted_anytime_matches_default_method(self, example):
        with _session(example) as s:
            exact = s.query(example.q2())
            result = s.query(example.q2(), method="anytime")
            assert dict(result.answers.items()) == dict(exact.answers.items())
            assert result.exhausted and result.converged

    def test_policy_level_anytime_budget(self, example):
        policy = ExecutionPolicy(method="anytime", budget={"eunit_limit": 1})
        with Session(
            example.database, example.mappings, links=example.links, policy=policy
        ) as s:
            result = s.query(example.q2())
            assert not result.exhausted
            assert s.policy.describe()["budget"] == {
                "mapping_limit": None,
                "eunit_limit": 1,
                "wall_ms": None,
            }

    def test_policy_level_budget_does_not_reach_top_k(self, example):
        query = example.q_phone_by_addr()
        with _session(example) as plain:
            reference = plain.top_k(query, 3)
        with _session(example, method="anytime", budget={"eunit_limit": 1}) as s:
            for result in (s.top_k(query, 3), s.query(query, method="top-k", k=3)):
                assert type(result) is type(reference)
                assert list(result.answers.items()) == list(reference.answers.items())
                assert result.details == reference.details
            budgeted = s.top_k(query, 3, budget={"eunit_limit": 1})
            assert isinstance(budgeted, AnytimeResult)


class TestAnytimeObservability:
    def test_metrics_track_queries_mass_and_exhaustion(self, example):
        with _session(example) as s:
            partial = s.query(example.q2(), budget={"mapping_limit": 0})
            snapshot = s.metrics()
            assert snapshot.value("repro_anytime_queries_total") == 1
            assert snapshot.value("repro_anytime_budget_exhausted_total") == 1
            assert (
                snapshot.value("repro_anytime_unexplored_mass")
                == partial.unexplored_mass
            )
            s.query(example.q2(), method="anytime")  # unbudgeted: not exhausted
            snapshot = s.metrics()
            assert snapshot.value("repro_anytime_queries_total") == 2
            assert snapshot.value("repro_anytime_budget_exhausted_total") == 1
            assert snapshot.value("repro_anytime_unexplored_mass") == 0.0

    def test_top_k_stopped_by_k_is_not_budget_exhausted(self, example):
        with _session(example) as s:
            result = s.top_k(example.q_phone_by_addr(), k=1, budget={"mapping_limit": 10_000})
            assert result.converged and not result.exhausted
            assert not result.stopped_by_budget
            s.top_k(example.q_phone_by_addr(), k=1, budget={"mapping_limit": 0})
            snapshot = s.metrics()
            assert snapshot.value("repro_anytime_queries_total") == 2
            assert snapshot.value("repro_anytime_budget_exhausted_total") == 1

    def test_resume_feeds_session_totals_and_counters(self, example):
        with _session(example) as s:
            partial = s.query(example.q2(), budget={"eunit_limit": 1})
            before = s.stats.totals.source_operators
            final = partial.resume()
            assert final.exhausted
            after = s.stats.totals.source_operators
            assert after > before
            snapshot = s.metrics()
            assert snapshot.value("repro_anytime_resumes_total") == 1
            assert snapshot.value("repro_anytime_unexplored_mass") == 0.0
            # resumed work equals one exact evaluation in the lifetime totals
            exact = s.query(example.q2())
            assert (
                s.stats.totals.source_operators - after
                == exact.stats.source_operators
            )

    def test_eunit_counters_exposed_in_metrics(self, example):
        with _session(example) as s:
            result = s.query(example.q2())
            snapshot = s.metrics()
            assert (
                snapshot.value("repro_eunits_created_total")
                == result.stats.eunits_created
                == result.details["units_created"]
            )
            assert (
                snapshot.value("repro_eunits_pruned_total")
                == result.stats.eunits_pruned
            )
            assert (
                snapshot.value("repro_mappings_evaluated_total")
                == result.stats.mappings_evaluated
                > 0
            )

    def test_phase_anytime_span_in_traced_query(self, example):
        with _session(example, trace=True) as s:
            s.query(example.q2(), budget={"eunit_limit": 1})
            root = s.tracer.roots[0]
            names = [span.name for span in root.walk()]
            assert "phase:anytime" in names
            assert root.attributes["method"] == "anytime"

    def test_exact_paths_have_no_anytime_phase(self, example):
        with _session(example, trace=True) as s:
            s.query(example.q2())
            root = s.tracer.roots[0]
            names = [span.name for span in root.walk()]
            assert "phase:anytime" not in names
