#!/usr/bin/env python3
"""Robustness of course offerings (Example 2 of the paper).

``QPossible(C) :- Teaches(P, C), NotOnLeave(P)`` lists the courses that can
be offered next semester: a course is offered if some professor can teach it
and is not on leave.  The university wants to know how fragile this plan is:

* the **resilience** of the query -- the minimum number of changes (a
  professor taking leave, or withdrawing from a course) that would cancel at
  least one course;
* the full **robustness profile** -- how many changes are needed to cancel
  10%, 25%, 50%, ... of the catalogue (this is ADP with k = ρ·|Q(D)|).

``QPossible`` has exactly the shape of the core hard query ``Qswing``
(Section 4.2.1), so ADP is NP-hard for it and the profile below is computed
by the ``GreedyForCQ`` heuristic -- on an instance this small the greedy
answers coincide with the optimum (the test-suite checks this against brute
force), but in general they are upper bounds.

Run with:  python examples/course_offering_robustness.py
"""

from repro import (
    ADPSolver,
    Database,
    Session,
    is_poly_time,
    parse_query,
    resilience,
    robustness_profile,
)

QPOSSIBLE = parse_query("QPossible(C) :- Teaches(P, C), NotOnLeave(P)")


def build_department() -> Database:
    """A small CS department: professors, teachable courses, leave status."""
    teaches = [
        ("prof_ada", "compilers"),
        ("prof_ada", "databases"),
        ("prof_bob", "databases"),
        ("prof_bob", "os"),
        ("prof_cyn", "ml"),
        ("prof_cyn", "databases"),
        ("prof_dan", "networks"),
        ("prof_eve", "ml"),
        ("prof_eve", "theory"),
        ("prof_fay", "theory"),
    ]
    not_on_leave = [
        ("prof_ada",),
        ("prof_bob",),
        ("prof_cyn",),
        ("prof_dan",),
        ("prof_eve",),
        # prof_fay is already on leave: no tuple for her.
    ]
    return Database.from_dict(
        {"Teaches": ["P", "C"], "NotOnLeave": ["P"]},
        {"Teaches": teaches, "NotOnLeave": not_on_leave},
    )


def main() -> None:
    database = build_department()
    offered = Session(database).evaluate(QPOSSIBLE)
    print("courses that can be offered:", sorted(c for (c,) in offered.output_rows))
    print("ADP poly-time solvable for QPossible?", is_poly_time(QPOSSIBLE))

    # Resilience of the boolean version: the minimum number of changes that
    # would leave *no* course offerable at all.
    res = resilience(QPOSSIBLE, database)
    print(f"\nresilience = {res.size}: at least {res.size} change(s) are "
          "needed before the department can offer nothing at all "
          f"(optimal={res.optimal}, via the min-cut construction)")

    # Robustness profile: interventions needed to cancel a fraction of courses.
    print("\nrobustness profile (greedy upper bounds, source side-effect):")
    print("  rho   k   interventions  what to change")
    solver = ADPSolver()
    for ratio, k, solution in robustness_profile(
        QPOSSIBLE, database, ratios=(0.2, 0.4, 0.6, 0.8, 1.0), solver=solver
    ):
        changes = ", ".join(str(ref) for ref in sorted(solution.removed, key=str))
        print(f"  {ratio:>3.0%}  {k:>2}  {solution.size:>13}  {changes}")

    # Interpretation, as in the paper: if cancelling a large fraction of the
    # catalogue only needs a couple of changes, the offering plan is fragile
    # and hiring (or denying leave) should be considered.
    profile = robustness_profile(QPOSSIBLE, database, ratios=(0.5,), solver=solver)
    _, k, half = profile[0]
    if half.size <= 2:
        print(f"\nfragile: removing only {half.size} input tuple(s) already "
              f"cancels {k} course(s).")
    else:
        print(f"\nrobust: cancelling {k} course(s) needs {half.size} changes.")


if __name__ == "__main__":
    main()
