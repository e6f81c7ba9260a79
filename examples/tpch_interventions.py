#!/usr/bin/env python3
"""Trade-restriction planning on the TPC-H-like workload (Section 8.2).

The paper's motivating TPC-H task: *remove the least number of suppliers,
part-supply contracts or orders so that at least ρ% of the trading records
disappear*, where a trading record is an answer of

    Q1(NK, SK, PK, OK) :- Supplier(NK, SK), PartSupp(SK, PK), LineItem(OK, PK)

Two variants are compared, exactly as in Figures 7-11:

* ``σ[PK = 13370] Q1`` -- restrict the question to one part.  The selection
  makes the residual query poly-time solvable (Lemma 12), so the exact
  algorithm applies, and the counting mode is shown alongside reporting.
* ``Q1`` without selection -- NP-hard; GreedyForCQ and DrasticGreedy provide
  heuristic answers, and on this (scaled-down) instance the brute force
  baseline confirms the greedy answers are optimal or near-optimal.

Run with:  python examples/tpch_interventions.py
"""

from repro import (
    ADPSolver,
    Selection,
    Session,
    is_poly_time_with_selection,
    solve_with_selection,
)
from repro.core import is_poly_time, summarize_removed
from repro.experiments.harness import run_method, target_from_ratio
from repro.workloads.queries import Q1
from repro.workloads.tpch import SELECTED_PART_KEY, generate_tpch


def main() -> None:
    database = generate_tpch(total_tuples=600, seed=7)
    session = Session(database)
    total = session.output_size(Q1)
    print(f"TPC-H-like instance: {database.total_tuples()} input tuples, "
          f"{total} trading records (|Q1(D)|)")

    # ------------------------------------------------------------------ #
    # Variant 1: restricted to one part key (poly-time).
    # ------------------------------------------------------------------ #
    selection = Selection.equals({"PK": SELECTED_PART_KEY})
    print(f"\n-- {selection} Q1 --")
    print("poly-time with this selection?", is_poly_time_with_selection(Q1, selection))
    filtered = selection.apply(Q1, database)
    selected_total = Session(filtered).output_size(Q1)
    print(f"records involving part {SELECTED_PART_KEY}: {selected_total}")

    for ratio in (0.25, 0.5, 0.75):
        k = max(1, int(ratio * selected_total))
        exact = solve_with_selection(Q1, selection, database, k, solver=ADPSolver())
        counting = solve_with_selection(
            Q1, selection, database, k, solver=ADPSolver(counting_only=True)
        )
        print(f"  rho={ratio:.0%}: remove {exact.size} tuples "
              f"(optimal={exact.optimal}; counting mode agrees: {counting.size}); "
              f"breakdown {summarize_removed(exact.removed)}")

    # ------------------------------------------------------------------ #
    # Variant 2: the unrestricted query (NP-hard).
    # ------------------------------------------------------------------ #
    print("\n-- Q1 without selection --")
    print("poly-time?", is_poly_time(Q1))
    for ratio in (0.1, 0.25):
        k = target_from_ratio(Q1, database, ratio)
        greedy = run_method(Q1, database, k, "greedy", session=session)
        drastic = run_method(Q1, database, k, "drastic", session=session)
        print(f"  rho={ratio:.0%} (k={k}): greedy removes {greedy.solution_size} "
              f"tuples in {greedy.seconds:.3f}s, drastic removes "
              f"{drastic.solution_size} in {drastic.seconds:.3f}s")

    # Small-instance calibration against brute force (Figures 12-13).
    small = generate_tpch(total_tuples=60, seed=7)
    k = target_from_ratio(Q1, small, 0.1)
    brute = run_method(Q1, small, k, "bruteforce", bruteforce_max_candidates=2000)
    greedy = run_method(Q1, small, k, "greedy")
    print(f"\ncalibration (60 tuples, rho=10%, k={k}): brute force = "
          f"{brute.solution_size} tuples ({brute.seconds:.3f}s), greedy = "
          f"{greedy.solution_size} tuples ({greedy.seconds:.3f}s)")


if __name__ == "__main__":
    main()
