"""Integration tests replaying the worked examples of the paper end to end."""

from repro import (
    ADPSolver,
    Database,
    Selection,
    Session,
    is_poly_time,
    parse_query,
    resilience,
    solve_with_selection,
)
from repro.core import bruteforce_optimum
from repro.workloads.queries import Q1, QWL
from repro.workloads.tpch import SELECTED_PART_KEY, generate_tpch


class TestFigure1EndToEnd:
    def test_adp_on_q1_and_q2(self, figure1_full_query, figure1_projected_query, figure1_database):
        # Section 3.2: ADP(Q1, D, 2) = 1 via R3(c3, e3).
        solver = ADPSolver()
        session = Session(figure1_database)
        q1_solution = session.solve(figure1_full_query, 2, solver=solver)
        assert q1_solution.size == bruteforce_optimum(figure1_full_query, figure1_database, 2) == 1
        assert q1_solution.verify(figure1_database) >= 2

        # The projected query Q2 has 3 outputs; removing 2 of them optimally
        # costs 1 as well (the same tuple removes (a2,e3) and (a3,e3)).
        q2_solution = session.solve(figure1_projected_query, 2, solver=solver)
        assert q2_solution.verify(figure1_database) >= 2
        assert q2_solution.size >= bruteforce_optimum(
            figure1_projected_query, figure1_database, 2
        )


class TestWaitlistScenario:
    def test_waitlist_reduction(self):
        database = Database.from_dict(
            {"Major": ["S", "M"], "Req": ["M", "C"], "NoSeat": ["C"]},
            {
                "Major": [("s1", "cs"), ("s2", "cs"), ("s3", "math")],
                "Req": [("cs", "db"), ("cs", "os"), ("math", "db")],
                "NoSeat": [("db",), ("os",)],
            },
        )
        assert not is_poly_time(QWL)
        session = Session(database)
        total = session.output_size(QWL)
        assert total == 5
        solution = session.solve(QWL, 3)
        assert solution.verify(database) >= 3
        # Greedy should find the single high-impact intervention: opening
        # seats in the database course removes 3 waitlist entries.
        assert solution.size <= bruteforce_optimum(QWL, database, 3) + 1


class TestTpchScenario:
    def test_selection_pipeline_end_to_end(self):
        database = generate_tpch(total_tuples=200, seed=11)
        selection = Selection.equals({"PK": SELECTED_PART_KEY})
        filtered = selection.apply(Q1, database)
        session = Session(filtered)
        selected_total = session.output_size(Q1)
        assert selected_total > 0
        k = max(1, selected_total // 2)
        exact = solve_with_selection(Q1, selection, database, k)
        assert exact.optimal
        # The exact answer can never be worse than the greedy heuristic run
        # on the filtered instance.
        greedy = session.solve(Q1, k, heuristic="greedy")
        assert exact.size <= greedy.size
        # Applying the returned deletions really removes >= k selected records.
        after = Session(selection.apply(Q1, database.without(exact.removed))).output_size(Q1)
        assert selected_total - after >= k

    def test_hard_query_heuristics_end_to_end(self):
        database = generate_tpch(total_tuples=100, seed=11)
        session = Session(database)
        total = session.output_size(Q1)
        k = max(1, total // 10)
        greedy = session.solve(Q1, k, heuristic="greedy")
        drastic = session.solve(Q1, k, heuristic="drastic")
        optimum = bruteforce_optimum(Q1, database, k, max_candidates=200)
        assert greedy.verify(database) >= k
        assert drastic.verify(database) >= k
        assert greedy.size >= optimum
        assert drastic.size >= optimum


class TestRobustnessScenario:
    def test_three_path_network(self):
        query = parse_query("Q3path(A, B, C, D) :- R1(A, B), R2(B, C), R3(C, D)")
        database = Database.from_dict(
            {"R1": ["A", "B"], "R2": ["B", "C"], "R3": ["C", "D"]},
            {
                "R1": [("s1", "h"), ("s2", "h"), ("s3", "x")],
                "R2": [("h", "m"), ("x", "m")],
                "R3": [("m", "t1"), ("m", "t2")],
            },
        )
        session = Session(database)
        total = session.output_size(query)
        assert total == 6
        # Destroying 4 of the 6 paths optimally needs a single link (the hub).
        solution = session.solve(query, 4)
        assert solution.verify(database) >= 4
        assert bruteforce_optimum(query, database, 4) == 1
        # Resilience of the boolean version: cutting every path needs 1 link
        # (the shared middle link h->m? no: both h-m and x-m feed m, but all
        # paths go through relation R3's two tuples or through m): check
        # against brute force instead of hand-computing.
        res = resilience(query, database)
        boolean = query.as_boolean()
        assert res.size == bruteforce_optimum(boolean, database, 1)
