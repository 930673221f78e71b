"""Typed execution configuration for the session-first public API.

:class:`ExecutionPolicy` is a frozen dataclass validated **eagerly** at
construction: an unknown method, engine, strategy or option name raises a
``ValueError`` that lists the valid choices (with a did-you-mean suggestion)
instead of surfacing as a bare ``KeyError``/``TypeError`` deep inside an
evaluator constructor.  The same validation serves every boundary:

* ``ExecutionPolicy(...)`` / ``policy.with_overrides(...)`` — the typed path;
* ``repro.connect(scenario, **options)`` — session-level defaults;
* per-call overrides on :meth:`repro.session.Session.query` and friends.

Every field applies to the evaluators that understand it (``strategy`` to
o-sharing/top-k/anytime, ``budget`` to anytime/top-k, ``cache_size`` to the
session plan cache and the batch evaluator, ...); :meth:`evaluator_options`
maps a policy onto the exact constructor keywords of the selected method.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, fields, replace
from typing import Any


def _strategy_names():
    from repro.core.operator_selection import STRATEGIES

    return STRATEGIES


#: Fields only certain methods read, and those methods.  An *explicitly
#: passed* option from this table combined with an *explicitly chosen*
#: method that ignores it is rejected — silently dropping it would let a
#: user believe they ran a different configuration.  Only the per-call
#: override path is gated: the same fields as session-level defaults
#: (``ExecutionPolicy(k=...)``, ``connect(scenario, cache_size=...)``) are
#: never rejected, because they configure whichever later calls read them
#: (``k`` a later ``top_k``; ``cache_size`` the session plan cache that
#: batch and e-mqo share).  The fields outside the table (``engine``,
#: ``optimize``, ``parallel``, ...) configure machinery every method shares.
_METHOD_ONLY_OPTIONS: dict[str, tuple[str, ...]] = {
    "strategy": ("o-sharing", "top-k", "anytime"),
    "seed": ("o-sharing", "top-k", "anytime"),
    "prune_empty": ("o-sharing",),
    "k": ("top-k",),
    "budget": ("anytime", "top-k"),
    "cache_size": ("batch", "e-mqo"),
}


def reads(method: str, option: str) -> bool:
    """True when ``method`` reads the method-only ``option``."""
    return method in _METHOD_ONLY_OPTIONS[option]


def check_applicable(method: str, option_names) -> None:
    """Reject explicitly-passed options the chosen ``method`` would ignore."""
    for name in option_names:
        applies_to = _METHOD_ONLY_OPTIONS.get(name)
        if applies_to is not None and method not in applies_to:
            raise ValueError(
                f"option {name!r} does not apply to method {method!r} "
                f"(valid for: {', '.join(applies_to)})"
            )


def _method_names() -> tuple[str, ...]:
    from repro.core.evaluators import EVALUATORS

    return tuple(sorted(EVALUATORS))


def _engine_names() -> tuple[str, ...]:
    from repro.relational.executor import available_engines

    # Only the engines usable *here*: "vector" is absent without NumPy, so a
    # policy naming it fails eagerly with the same message shape as any other
    # unavailable choice instead of deep inside an executor constructor.
    return available_engines()


def suggest(name: str, choices) -> str:
    """A did-you-mean suffix for an unknown-name error (empty when no match)."""
    matches = difflib.get_close_matches(str(name), list(choices), n=1, cutoff=0.5)
    return f"; did you mean {matches[0]!r}?" if matches else ""


def validate_choice(kind: str, value: Any, choices) -> str:
    """``value`` if it names one of ``choices``, else a did-you-mean ValueError."""
    if not isinstance(value, str):
        raise ValueError(
            f"{kind} must be a string naming one of {sorted(choices)}, "
            f"got {value!r}"
        )
    key = value.lower()
    if key not in choices:
        raise ValueError(
            f"unknown {kind} {value!r}{suggest(value, choices)} "
            f"(valid choices: {sorted(choices)})"
        )
    return key


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a :class:`~repro.session.Session` executes queries.

    Attributes
    ----------
    method:
        Evaluation algorithm: ``"basic"``, ``"e-basic"``, ``"e-mqo"``,
        ``"q-sharing"``, ``"o-sharing"`` (default), ``"batch"``,
        ``"anytime"`` (budgeted, interval answers) or ``"top-k"``
        (requires ``k``).
    engine:
        Relational execution engine: ``"columnar"`` (default), ``"row"``,
        ``"parallel"`` or ``"vector"`` (NumPy-backed; requires the optional
        NumPy extra).  Answers are byte-identical on every engine.
    optimize:
        Run every source plan through the cost-based optimizer (default on).
    strategy:
        o-sharing/top-k/anytime operator-selection strategy: ``"sef"`` (default),
        ``"snf"`` or ``"random"``.
    seed:
        Seed of the ``"random"`` strategy (ignored by the deterministic ones).
    prune_empty:
        o-sharing's empty-intermediate shortcut (disable only for ablations).
    parallel:
        Optional :class:`~repro.relational.parallel.ParallelConfig` tuning
        the parallel engine (worker count, sharding threshold);
        ``ParallelConfig()`` applies when ``None``.
    cache_size:
        Bound of the session-owned plan cache (entries, LRU-evicted); also
        the batch evaluator's cache bound outside a session.
    k:
        Answer count for ``"top-k"``, its stop rule (and the default ``k``
        of :meth:`~repro.session.Session.top_k`).  As a per-call override it
        is valid for ``"top-k"`` only; as a session default it is never
        rejected.
    budget:
        Exploration bound for ``"anytime"`` and ``"top-k"``, their second
        stop rule: a :class:`~repro.anytime.budget.Budget` or a mapping of
        its fields (``mapping_limit``, ``eunit_limit``, ``wall_ms``).  A
        budgeted call returns an
        :class:`~repro.anytime.progress.AnytimeResult` (intervals plus a
        ``resume()`` handle).  ``None`` (default) means unbounded — anytime
        then returns exact answers byte-identical to o-sharing, and top-k
        its plain ranked result.  As a session default it bounds anytime
        calls only: top-k reads a budget passed with the call.
    trace:
        Record a per-query span tree on the session's
        :class:`~repro.obs.trace.Tracer` (session → optimize → execute →
        per-operator spans; export via ``session.tracer``).  Off by default:
        tracing observes, it never changes answers or operator counts, but
        span bookkeeping costs a little wall-clock.
    metrics:
        Maintain the session's :class:`~repro.obs.metrics.MetricsRegistry`
        (per-stage latency histograms, cache/pool counters; snapshot via
        :meth:`~repro.session.Session.metrics`).  On by default — the
        registry is cheap (a few lock-guarded increments per call).
    slow_query_seconds:
        Threshold for :meth:`~repro.session.Session.serve`'s slow-query log:
        a served request slower than this is recorded on
        ``session.slow_queries`` and logged through the ``repro.session``
        logger.  ``None`` (default) disables the log.
    """

    method: str = "o-sharing"
    engine: str = "columnar"
    optimize: bool = True
    strategy: str = "sef"
    seed: int = 0
    prune_empty: bool = True
    parallel: Any = None
    cache_size: int = 4096
    k: int | None = None
    budget: Any = None
    trace: bool = False
    metrics: bool = True
    slow_query_seconds: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "method", validate_choice("method", self.method, _method_names())
        )
        object.__setattr__(
            self, "engine", validate_choice("engine", self.engine, _engine_names())
        )
        if isinstance(self.strategy, str):
            object.__setattr__(
                self,
                "strategy",
                validate_choice("strategy", self.strategy, _strategy_names()),
            )
        if self.parallel is not None:
            from repro.relational.parallel import ParallelConfig

            if not isinstance(self.parallel, ParallelConfig):
                raise ValueError(
                    "parallel must be a repro.relational.parallel.ParallelConfig "
                    f"(or None), got {type(self.parallel).__name__}"
                )
        if not isinstance(self.cache_size, int) or self.cache_size <= 0:
            raise ValueError(f"cache_size must be a positive int, got {self.cache_size!r}")
        if self.k is not None and (not isinstance(self.k, int) or self.k <= 0):
            raise ValueError(f"k must be a positive int (or None), got {self.k!r}")
        if self.budget is not None:
            from repro.anytime.budget import Budget

            # Eager normalisation: a dict spec becomes a validated Budget
            # here, so an unknown budget field fails at policy construction
            # (did-you-mean included) rather than deep inside the evaluator.
            object.__setattr__(self, "budget", Budget.from_spec(self.budget))
        for flag in ("trace", "metrics"):
            if not isinstance(getattr(self, flag), bool):
                raise ValueError(
                    f"{flag} must be a bool, got {getattr(self, flag)!r}"
                )
        if self.slow_query_seconds is not None:
            threshold = self.slow_query_seconds
            if not isinstance(threshold, (int, float)) or isinstance(
                threshold, bool
            ) or threshold <= 0:
                raise ValueError(
                    "slow_query_seconds must be a positive number (or None), "
                    f"got {threshold!r}"
                )
        if self.method == "top-k" and self.k is None:
            raise ValueError(
                'top-k needs k: method "top-k" requires k (pass '
                "session.top_k(query, k=10) or set ExecutionPolicy(k=10))"
            )

    # ------------------------------------------------------------------ #
    @classmethod
    def option_names(cls) -> tuple[str, ...]:
        """The valid option/field names (shared by every validation boundary)."""
        return tuple(f.name for f in fields(cls))

    def with_defaults(self, **options: Any) -> "ExecutionPolicy":
        """A copy with *session-level configuration* applied.

        An option that is not a policy field raises a ``ValueError`` listing
        the valid names with a did-you-mean suggestion; the new values are
        validated like construction.  Method-applicability is not enforced: a
        field set here (``k``, ``strategy``, ...) is a default for whichever
        later calls read it, not a per-call request —
        ``repro.connect(scenario, method="e-basic", k=10)`` legitimately
        configures ``k`` for future ``top_k()`` calls.
        """
        valid = self.option_names()
        for name in options:
            if name not in valid:
                raise ValueError(
                    f"unknown option {name!r}{suggest(name, valid)} "
                    f"(valid options: {sorted(valid)})"
                )
        return replace(self, **options) if options else self

    def with_overrides(self, **options: Any) -> "ExecutionPolicy":
        """A copy with per-call ``options`` applied.

        Validated like :meth:`with_defaults`; in addition an explicit method
        together with an explicit option it ignores is a misconfiguration,
        not a default to fall back on, and is rejected.
        """
        policy = self.with_defaults(**options)
        if "method" in options:
            check_applicable(policy.method, (n for n in options if n != "method"))
        return policy

    def describe(self) -> dict[str, Any]:
        """A JSON-safe rendering of every field (serving/introspection).

        The serving front end reports each tenant's policy defaults over the
        wire; ``parallel`` is the one field that is not a JSON scalar, so it
        is rendered as its ``repr`` (or ``None``).
        """
        described: dict[str, Any] = {}
        for field_ in fields(self):
            value = getattr(self, field_.name)
            if field_.name == "parallel" and value is not None:
                value = repr(value)
            elif field_.name == "budget" and value is not None:
                value = value.describe()
            described[field_.name] = value
        return described

    # ------------------------------------------------------------------ #
    def evaluator_options(self) -> dict[str, Any]:
        """Constructor keywords for this policy's method.

        Only the fields the selected evaluator understands are included, so
        the result can be splatted straight into the registry constructors.
        """
        options: dict[str, Any] = {
            "engine": self.engine,
            "optimize": self.optimize,
            "parallel": self.parallel,
        }
        for name in ("strategy", "seed", "prune_empty", "k", "budget"):
            if reads(self.method, name):
                options[name] = getattr(self, name)
        if self.method == "batch":
            options["cache_size"] = self.cache_size
        return options
