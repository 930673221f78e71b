"""ExecutionPolicy: eager validation with did-you-mean errors.

The policy is the single validation boundary of the public API: the typed
constructor, ``connect(...)`` defaults and per-call overrides all run
through it, so an unknown method/engine/strategy/option name fails *here*,
as a ``ValueError`` naming the valid choices — never as a bare
``KeyError``/``TypeError`` deep inside an evaluator constructor.
"""

from __future__ import annotations

import pytest

from repro.policy import ExecutionPolicy, suggest, validate_choice


class TestDefaults:
    def test_defaults_are_valid(self):
        policy = ExecutionPolicy()
        assert policy.method == "o-sharing"
        assert policy.engine == "columnar"
        assert policy.optimize is True
        assert policy.strategy == "sef"
        assert policy.cache_size == 4096
        assert policy.k is None

    def test_policy_is_frozen(self):
        policy = ExecutionPolicy()
        with pytest.raises(AttributeError):
            policy.method = "basic"

    def test_names_are_normalised_case_insensitively(self):
        policy = ExecutionPolicy(method="E-MQO", engine="ROW", strategy="SNF")
        assert policy.method == "e-mqo"
        assert policy.engine == "row"
        assert policy.strategy == "snf"


class TestValidation:
    def test_unknown_method_lists_choices_and_suggests(self):
        with pytest.raises(ValueError) as err:
            ExecutionPolicy(method="o-sharng")
        message = str(err.value)
        assert "unknown method" in message
        assert "did you mean 'o-sharing'" in message
        assert "e-mqo" in message  # the valid choices are listed

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ExecutionPolicy(engine="vectorised")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            ExecutionPolicy(strategy="optimal")

    def test_non_string_method_rejected(self):
        with pytest.raises(ValueError, match="method must be a string"):
            ExecutionPolicy(method=7)

    def test_cache_size_must_be_positive(self):
        with pytest.raises(ValueError, match="cache_size"):
            ExecutionPolicy(cache_size=0)

    def test_k_must_be_positive_or_none(self):
        with pytest.raises(ValueError, match="k must be"):
            ExecutionPolicy(k=-1)

    def test_top_k_requires_k(self):
        with pytest.raises(ValueError, match="requires k"):
            ExecutionPolicy(method="top-k")
        assert ExecutionPolicy(method="top-k", k=5).k == 5

    def test_parallel_must_be_a_parallel_config(self):
        from repro.relational.parallel import ParallelConfig

        with pytest.raises(ValueError, match="ParallelConfig"):
            ExecutionPolicy(parallel=4)
        config = ParallelConfig(workers=2)
        assert ExecutionPolicy(parallel=config).parallel is config


class TestOptionBoundary:
    def test_unknown_option_names_are_rejected_with_suggestion(self):
        with pytest.raises(ValueError) as err:
            ExecutionPolicy().with_overrides(engin="row")
        message = str(err.value)
        assert "unknown option 'engin'" in message
        assert "did you mean 'engine'" in message
        assert "optimize" in message  # the valid options are listed

    def test_with_overrides_returns_validated_copies(self):
        base = ExecutionPolicy()
        override = base.with_overrides(method="batch", cache_size=7)
        assert base.method == "o-sharing"  # unchanged original
        assert (override.method, override.cache_size) == ("batch", 7)
        with pytest.raises(ValueError, match="unknown option"):
            base.with_overrides(metod="basic")
        with pytest.raises(ValueError, match="unknown engine"):
            base.with_overrides(engine="gpu")
        assert base.with_overrides() is base

    def test_session_calls_validate_at_the_boundary(self, paper_example):
        from repro import connect

        with pytest.raises(ValueError, match="did you mean 'o-sharing'"):
            connect(paper_example, method="o-sharng")
        with connect(paper_example) as session:
            with pytest.raises(ValueError, match="unknown option 'engin'"):
                session.query(paper_example.q0(), engin="row")
            with pytest.raises(ValueError, match="unknown option"):
                session.query_many([paper_example.q0()], cache_sz=16)

    def test_make_evaluator_raises_value_error_with_suggestion(self):
        from repro.core import make_evaluator

        with pytest.raises(ValueError, match="did you mean 'q-sharing'"):
            make_evaluator("q-sharng")


class TestEvaluatorOptions:
    def test_common_options_always_present(self):
        options = ExecutionPolicy(method="basic").evaluator_options()
        assert set(options) == {"engine", "optimize", "parallel"}

    def test_osharing_gets_strategy_seed_and_prune(self):
        options = ExecutionPolicy(
            method="o-sharing", strategy="snf", seed=3, prune_empty=False
        ).evaluator_options()
        assert options["strategy"] == "snf"
        assert options["seed"] == 3
        assert options["prune_empty"] is False

    def test_batch_gets_its_cache_bound(self):
        options = ExecutionPolicy(method="batch", cache_size=9).evaluator_options()
        assert options["cache_size"] == 9
        assert "strategy" not in options

    def test_top_k_gets_strategy_but_not_prune(self):
        options = ExecutionPolicy(method="top-k", k=3).evaluator_options()
        assert "strategy" in options and "prune_empty" not in options

    def test_every_method_splats_into_its_constructor(self):
        from repro.core.evaluators import EVALUATORS

        for method, cls in EVALUATORS.items():
            evaluator = cls(**ExecutionPolicy(method=method, k=3).evaluator_options())
            assert evaluator.name == method


class TestHelpers:
    def test_suggest_finds_close_matches(self):
        assert "o-sharing" in suggest("o-sharng", ["o-sharing", "basic"])
        assert suggest("zzz", ["basic"]) == ""

    def test_validate_choice_passes_valid_names_through(self):
        assert validate_choice("method", "Basic", {"basic": 1}) == "basic"
