"""Warm sessions vs the write API: delta counters, scoping, thread races.

The PR-level acceptance pins:

* ``session.stats`` exposes the delta counters (``entries_patched``,
  ``entries_invalidated``) and they move when writes flow through an
  attached database;
* ``set_relation`` invalidation is scoped to the written relation's
  dependents — unrelated relations keep their cached state;
* concurrent ``session.query`` + ``Database.append_rows`` never crashes and
  never serves a stale-version answer (every observed answer corresponds to
  a prefix of the write sequence, and post-write queries see the final
  state).
"""

from __future__ import annotations

import threading

import pytest

from repro import ExecutionPolicy, Session
from repro.datagen.paper_example import build_paper_example
from repro.matching.mappings import Mapping, MappingSet


def _answers(result):
    return dict(result.answers.items())


def _cold_answers(query, example, mappings=None, **options):
    """The answers of a fresh session over the example's current database."""
    with Session(
        example.database, mappings or example.mappings, links=example.links
    ) as session:
        return _answers(session.query(query, **options))


@pytest.fixture()
def example():
    return build_paper_example()


def _customer(cid: int, ophone: str, oaddr: str) -> tuple:
    """A Customer row (cid, cname, ophone, hphone, mobile, oaddr, haddr, nid)."""
    return (cid, f"C{cid}", ophone, "999", "555", oaddr, "hk", 1)


# --------------------------------------------------------------------------- #
# delta counters
# --------------------------------------------------------------------------- #
class TestDeltaCounters:
    def test_appends_patch_warm_entries(self, example):
        policy = ExecutionPolicy(method="e-mqo")
        with Session(
            example.database, example.mappings, links=example.links, policy=policy
        ) as s:
            s.query(example.q0())
            baseline = _answers(s.query(example.q0()))
            assert s.stats.entries_patched == 0
            example.database.append_rows(
                "Customer", [_customer(10, "123", "www")]
            )
            after_write = s.stats
            assert after_write.entries_patched > 0
            assert after_write.totals.entries_patched == after_write.entries_patched
            assert after_write.plan_cache["patches"] == after_write.entries_patched
            answer = _answers(s.query(example.q0()))
        assert answer != baseline  # the write is visible...
        # ... and byte-identical to cold
        assert answer == _cold_answers(example.q0(), example, method="e-mqo")

    def test_nonappend_writes_invalidate_warm_entries(self, example):
        policy = ExecutionPolicy(method="e-mqo")
        with Session(
            example.database, example.mappings, links=example.links, policy=policy
        ) as s:
            s.query(example.q0())
            assert len(s.plan_cache) > 0
            # An update delta is not append-monotone: dependents are dropped.
            example.database.update_rows(
                "Customer", [0], [_customer(1, "123", "aaa")]
            )
            assert s.stats.entries_invalidated > 0
            assert len(s.plan_cache) == 0
            cold = _cold_answers(example.q0(), example, method="e-mqo")
            assert _answers(s.query(example.q0())) == cold

    def test_stats_reprofile_lazily_after_appends(self, example):
        with Session(example.database, example.mappings, links=example.links) as s:
            s.query(example.q0())  # optimizer profiles Customer columns
            catalog = s.stats_catalog
            profiled = catalog.collections
            assert profiled > 0
            s.query(example.q0())
            assert catalog.collections == profiled  # unwritten: no new pass
            for cid, oaddr in ((10, "www"), (11, "xxx")):
                example.database.append_rows("Customer", [_customer(cid, "123", oaddr)])
                assert catalog.collections == profiled  # nothing at write time
                answer = _answers(s.query(example.q0()))
                # The optimizer re-reads stats past the write: a fresh pass.
                assert catalog.collections > profiled
                profiled = catalog.collections
                assert answer == _cold_answers(example.q0(), example)
            customers = catalog.row_count("Customer")
        assert customers == len(example.database.relation("Customer"))

    def test_counters_appear_in_snapshot(self, example):
        with Session(example.database, example.mappings, links=example.links) as s:
            snapshot = s.stats.snapshot()
        for key in ("entries_patched", "entries_invalidated"):
            assert key in snapshot


# --------------------------------------------------------------------------- #
# scoped invalidation
# --------------------------------------------------------------------------- #
class TestScopedInvalidation:
    def test_set_relation_spares_unrelated_dependents(self, example):
        """A wholesale Nation write must not evict Customer-only entries."""
        policy = ExecutionPolicy(method="e-mqo")
        with Session(
            example.database, example.mappings, links=example.links, policy=policy
        ) as s:
            first = s.query(example.q0())
            warm = s.query(example.q0())
            assert warm.stats.source_operators < first.stats.source_operators
            entries = len(s.plan_cache)
            assert entries > 0

            # q0's reformulations only scan Customer.
            example.database.set_relation(
                "Nation", example.database.relation("Nation")
            )
            assert len(s.plan_cache) == entries  # nothing evicted
            unaffected = s.query(example.q0())
            assert unaffected.stats.source_operators == warm.stats.source_operators
            assert _answers(unaffected) == _answers(warm)

            # ... while writing Customer evicts them (cold again).
            example.database.set_relation(
                "Customer", example.database.relation("Customer")
            )
            assert len(s.plan_cache) < entries
            cold_again = s.query(example.q0())
            assert cold_again.stats.source_operators == first.stats.source_operators


# --------------------------------------------------------------------------- #
# thread races: queries racing writes
# --------------------------------------------------------------------------- #
class TestWriteRaces:
    def test_racing_reads_observe_only_prefix_states(self, example):
        """Every answer served during a write storm is a consistent prefix.

        A single mapping (probability 1.0) makes each query one source plan
        over Customer only, so every served answer must correspond to some
        prefix of the append sequence — a torn or stale-version read would
        produce an answer matching no prefix.
        """
        mapping = Mapping(
            mapping_id=1,
            correspondences={
                "Person.pname": "Customer.cname",
                "Person.phone": "Customer.ophone",
                "Person.addr": "Customer.oaddr",
            },
            score=1.0,
            probability=1.0,
        )
        mappings = MappingSet([mapping])
        appends = [_customer(10 + i, "123", f"w{i}") for i in range(8)]

        # Cold answers for every prefix of the append sequence.
        prefix_answers = []
        for steps in range(len(appends) + 1):
            replayed = build_paper_example()
            replayed.database.relation("Customer").append_rows(appends[:steps])
            prefix_answers.append(_cold_answers(replayed.q0(), replayed, mappings))
        assert len(set(map(tuple, (sorted(a) for a in prefix_answers)))) == len(
            prefix_answers
        ), "prefixes must be distinguishable for the check to mean anything"

        with Session(example.database, mappings, links=example.links) as s:
            errors: list[BaseException] = []
            observed: list[dict] = []
            done = threading.Event()

            def reader() -> None:
                try:
                    while not done.is_set():
                        observed.append(_answers(s.query(example.q0())))
                except BaseException as error:  # noqa: BLE001 - asserted below
                    errors.append(error)

            def writer() -> None:
                try:
                    for row in appends:
                        example.database.append_rows("Customer", [row])
                except BaseException as error:  # noqa: BLE001 - asserted below
                    errors.append(error)
                finally:
                    done.set()

            threads = [threading.Thread(target=reader) for _ in range(3)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert not errors, errors
            for answer in observed:
                assert answer in prefix_answers, (
                    f"answer matches no write-sequence prefix: {answer}"
                )
            # Once the writes settle, the warm session serves the final state.
            assert _answers(s.query(example.q0())) == prefix_answers[-1]

    def test_full_mapping_race_settles_to_cold_state(self, example):
        """The five-mapping session under mixed writes: no crash, no staleness."""
        with Session(example.database, example.mappings, links=example.links) as s:
            errors: list[BaseException] = []
            done = threading.Event()

            def reader() -> None:
                try:
                    while not done.is_set():
                        s.query(example.q0())
                        s.query(example.q2())
                except BaseException as error:  # noqa: BLE001 - asserted below
                    errors.append(error)

            def writer() -> None:
                try:
                    for i in range(5):
                        example.database.append_rows(
                            "Customer", [_customer(20 + i, "123", f"r{i}")]
                        )
                    example.database.update_rows(
                        "Customer", [0], [_customer(1, "777", "zzz")]
                    )
                    example.database.delete_rows("Customer", [1])
                except BaseException as error:  # noqa: BLE001 - asserted below
                    errors.append(error)
                finally:
                    done.set()

            threads = [threading.Thread(target=reader) for _ in range(3)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, errors

            for build in (example.q0, example.q2):
                assert _answers(s.query(build())) == _cold_answers(build(), example)
