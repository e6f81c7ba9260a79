"""Integration tests: generators -> CSV -> reload -> solve pipelines."""

from repro.core.selection import Selection, solve_with_selection
from repro.data.csvio import load_database_csv, save_database_csv
from repro.session import Session
from repro.workloads.queries import Q1, Q6, QPATH_EXP
from repro.workloads.tpch import SELECTED_PART_KEY, generate_tpch
from repro.workloads.zipf import generate_zipf_path


class TestCsvRoundtripPipelines:
    def test_tpch_csv_roundtrip_preserves_solutions(self, tmp_path):
        database = generate_tpch(total_tuples=150, seed=3)
        reloaded = load_database_csv(save_database_csv(database, tmp_path / "tpch"))
        assert reloaded.total_tuples() == database.total_tuples()
        selection = Selection.equals({"PK": SELECTED_PART_KEY})
        original = solve_with_selection(Q1, selection, database, k=2)
        roundtripped = solve_with_selection(Q1, selection, reloaded, k=2)
        assert original.size == roundtripped.size

    def test_zipf_csv_roundtrip_preserves_output(self, tmp_path):
        database = generate_zipf_path(r2_tuples=120, alpha=0.5, seed=2)
        reloaded = load_database_csv(save_database_csv(database, tmp_path / "zipf"))
        assert set(Session(reloaded).evaluate(QPATH_EXP).output_rows) == set(
            Session(database).evaluate(QPATH_EXP).output_rows
        )
        q6_db = reloaded.restricted_to(("R1", "R2"))
        solution = Session(q6_db).solve(Q6, k=5)
        assert solution.optimal
        assert solution.verify(q6_db) >= 5
