#!/usr/bin/env python3
"""Quickstart: the ADP problem in five minutes.

This example walks through the public API end to end:

1. bind a :class:`repro.Session` to a small in-memory database;
2. prepare a conjunctive query (parse + dichotomy + join plan, once);
3. ask the dichotomy whether ADP is poly-time solvable for the query
   (and why);
4. solve ADP exactly / heuristically, batch solves, read the cost curve;
5. probe deletions incrementally (what-if) and apply them in place.

Run with:  python examples/quickstart.py
"""

from repro import (
    Database,
    Session,
    decide,
    diagnose,
    hardness_certificate,
)


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. A small registrar database, bound to a session.  The session owns
    #    the evaluation cache, the array backend and the interning tables --
    #    one "connection" per tenant.
    # ------------------------------------------------------------------ #
    database = Database.from_dict(
        {"Major": ["S", "M"], "Req": ["M", "C"], "NoSeat": ["C"]},
        {
            "Major": [
                ("alice", "cs"),
                ("bob", "cs"),
                ("carol", "math"),
                ("dave", "math"),
                ("erin", "cs"),
            ],
            "Req": [
                ("cs", "databases"),
                ("cs", "os"),
                ("math", "algebra"),
                ("math", "databases"),
            ],
            "NoSeat": [("databases",), ("os",)],
        },
    )
    session = Session(database)

    # ------------------------------------------------------------------ #
    # 2. Prepare the query: which students are waitlisted for which class?
    #    (Example 1 of the paper.)  Parsing, classification and the join
    #    plan happen once; the object is reusable across databases and k.
    # ------------------------------------------------------------------ #
    waitlist = session.prepare("QWL(S, C) :- Major(S, M), Req(M, C), NoSeat(C)")
    print("query:", waitlist.query)
    print("classification:", waitlist.classification)

    result = session.evaluate(waitlist)
    print(f"|QWL(D)| = {result.output_count()} waitlist entries:")
    for row in sorted(result.output_rows):
        print("   ", row)

    # ------------------------------------------------------------------ #
    # 3. The dichotomy: is ADP easy or hard for this query?
    # ------------------------------------------------------------------ #
    print("\nIsPtime(QWL):", waitlist.is_poly_time)
    print(decide(waitlist.query).explain())
    print("\nstructural diagnosis:", diagnose(waitlist.query))
    certificate = hardness_certificate(waitlist.query)
    if certificate:
        print(certificate)

    # ------------------------------------------------------------------ #
    # 4. Solve: shrink the waitlist by at least 4 entries with the fewest
    #    interventions (dropping a major declaration, relaxing a
    #    requirement, or opening seats in a class).
    # ------------------------------------------------------------------ #
    solution = session.solve(waitlist, k=4)   # greedy at NP-hard leaves
    print("\nsolution:", solution)
    for ref in sorted(solution.removed, key=str):
        print("    remove", ref)

    # Batched targets share one evaluation and one cost curve:
    print("\ncost for every target at once:")
    for s in session.solve_many([(waitlist, k) for k in (1, 2, 4)]):
        print(f"    k={s.k}: delete {s.objective} input tuple(s)")
    curve = session.curve(waitlist, kmax=result.output_count())
    print("full curve:", [curve.cost(k) for k in range(result.output_count() + 1)])

    # ------------------------------------------------------------------ #
    # 5. Incremental deletions.  what_if answers from cached provenance by
    #    a delta semijoin (no re-join, no database copy); apply_deletions
    #    commits in place and migrates the cache across the version bump.
    # ------------------------------------------------------------------ #
    probe = session.what_if(solution.removed, waitlist).single
    print(f"\nwhat-if: deleting the solution removes {probe.outputs_removed} "
          f"outputs / {probe.witnesses_removed} witnesses (target was 4)")

    # apply_deletions mutates the bound database in place, so snapshot the
    # relations the contrast example below needs first.
    easy_database = database.restricted_to(("Req", "NoSeat"))
    session.apply_deletions(solution.removed)
    after = session.evaluate(waitlist)
    print(f"after applying: |QWL(D)| = {after.output_count()}")
    print("session stats:", session.stats.as_dict())

    # A poly-time example for contrast: with a *universal* output attribute
    # the query becomes easy and the solver is exact.
    easy_session = Session(easy_database)
    easy = easy_session.prepare("QperMajor(M, C) :- Req(M, C), NoSeat(C)")
    print("\nIsPtime(QperMajor):", easy.is_poly_time)
    print("exact solution:", easy_session.solve(easy, k=2))


if __name__ == "__main__":
    main()
