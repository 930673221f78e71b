"""Walk through the paper's running example (Figures 1-3, Sections I-V).

The example matches a Customer/C_Order/Nation source schema against a
Person/Order target schema under five possible mappings, and the paper works
out several query answers by hand.  This script reproduces every one of them:

* the introduction's query ``q0 = π_addr σ_phone='123' Person``,
* the Section III-B example ``π_phone σ_addr='aaa' Person``,
* the q-sharing partitioning of ``q1 = π_pname σ_addr='abc' Person``,
* the o-sharing evaluation of ``q2 = (σ_addr='hk' σ_phone='123' Person) × Order``,
* a probabilistic top-1 query.

Run it with::

    python examples/paper_walkthrough.py
"""

from __future__ import annotations

from repro import connect
from repro.core.partition_tree import partition
from repro.datagen.paper_example import build_paper_example


def main() -> None:
    example = build_paper_example()
    with connect(example) as session:
        walk_through(example, session)


def walk_through(example, session) -> None:
    print("Possible mappings (Figure 3)")
    print("----------------------------")
    for mapping in example.mappings:
        pairs = ", ".join(
            f"({source.split('.')[1]}, {target.split('.')[1]})"
            for target, source in sorted(mapping.correspondences.items())
        )
        print(f"  m{mapping.mapping_id}  Pr={mapping.probability:.1f}  {pairs}")
    print(f"  o-ratio of the mapping set: {example.mappings.o_ratio():.2f}")
    print()

    print("Customer relation (Figure 2)")
    print("----------------------------")
    print(example.database.relation("Customer").pretty())
    print()

    print("q0 = π_addr σ_phone='123' Person   (paper: {(aaa, 0.5), (hk, 0.5)})")
    result = session.query(example.q0(), method="basic")
    print(result.answers.pretty())
    print()

    print("π_phone σ_addr='aaa' Person   (paper: {(123, 0.5), (456, 0.8), (789, 0.2)})")
    result = session.query(example.q_phone_by_addr(), method="o-sharing")
    print(result.answers.pretty())
    print()

    print("q-sharing partitioning of q1 = π_pname σ_addr='abc' Person")
    print("(paper: P1={m1,m2}, P2={m3,m4}, P3={m5})")
    groups = partition(["Person.pname", "Person.addr"], example.mappings)
    for index, group in enumerate(groups, start=1):
        ids = ", ".join(f"m{mapping.mapping_id}" for mapping in group)
        total = sum(mapping.probability for mapping in group)
        print(f"  P{index} = {{{ids}}}  probability {total:.1f}")
    print()

    print("q2 = (σ_addr='hk' σ_phone='123' Person) × Order   (o-sharing, Section V)")
    result = session.query(example.q2(), method="o-sharing")
    print(result.answers.pretty())
    print(
        f"  e-units created: {result.details['units_created']}, "
        f"pruned through empty intermediates: {result.details['units_pruned_empty']}, "
        f"source operators executed: {result.stats.source_operators}"
    )
    baseline = session.query(example.q2(), method="basic")
    print(f"  (basic executes {baseline.stats.source_operators} source operators)")
    print()

    print("Top-1 of π_phone σ_addr='aaa' Person   (paper's Table II walks this through)")
    top = session.top_k(example.q_phone_by_addr(), k=1)
    print(top.answers.pretty())


if __name__ == "__main__":
    main()
