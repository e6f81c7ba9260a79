"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.data.csvio import save_database_csv
from repro.data.database import Database


@pytest.fixture
def csv_database(tmp_path):
    database = Database.from_dict(
        {"R1": ["A"], "R2": ["A", "B"]},
        {"R1": [(1,), (2,)], "R2": [(1, 10), (1, 11), (2, 20)]},
    )
    return save_database_csv(database, tmp_path / "db")


class TestClassifyCommand:
    def test_easy_query(self, capsys):
        assert main(["classify", "Q(A, B) :- R1(A), R2(A, B)"]) == 0
        out = capsys.readouterr().out
        assert "poly-time" in out

    def test_hard_query_prints_certificate(self, capsys):
        assert main(["classify", "Qswing(A) :- R2(A, B), R3(B)"]) == 0
        out = capsys.readouterr().out
        assert "NP-hard" in out
        assert "core query" in out or "triad" in out


class TestSolveCommand:
    def test_solve_with_k(self, capsys, csv_database):
        code = main(["solve", "Q(A, B) :- R1(A), R2(A, B)", str(csv_database), "--k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "objective = 1" in out
        assert "remove" in out

    def test_solve_with_ratio_and_counting(self, capsys, csv_database):
        code = main(
            [
                "solve",
                "Q(A, B) :- R1(A), R2(A, B)",
                str(csv_database),
                "--ratio",
                "0.5",
                "--counting-only",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "objective" in out

    def test_solve_empty_result_is_success(self, capsys, tmp_path):
        # An empty result is a legitimate empty answer: scripts piping the
        # CLI must not see a failure exit code.
        empty = Database.from_dict({"R1": ["A"], "R2": ["A", "B"]}, {"R1": [], "R2": []})
        path = save_database_csv(empty, tmp_path / "empty")
        code = main(["solve", "Q(A, B) :- R1(A), R2(A, B)", str(path), "--k", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "|Q(D)| = 0" in out
        assert "objective = 0" in out

    def test_solve_empty_result_json(self, capsys, tmp_path):
        empty = Database.from_dict({"R1": ["A"], "R2": ["A", "B"]}, {"R1": [], "R2": []})
        path = save_database_csv(empty, tmp_path / "empty")
        code = main(
            ["solve", "Q(A, B) :- R1(A), R2(A, B)", str(path), "--k", "1", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["output_size"] == 0
        assert payload["objective"] == 0
        assert payload["method"] == "empty-result"

    def test_solve_json_output(self, capsys, csv_database):
        code = main(
            ["solve", "Q(A, B) :- R1(A), R2(A, B)", str(csv_database), "--k", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 2
        assert payload["objective"] == 1
        assert "engine" not in payload
        assert payload["classification"] in ("poly-time", "np-hard")
        assert isinstance(payload["removed"], list) and payload["removed"]

    @pytest.mark.parametrize(
        "query, target, message",
        [
            ("Q(A, B) :- R1(A), R2(A, B)", ["--k", "0"], "k must be at least 1"),
            ("Q(A, B) :- R1(A), R2(A, B)", ["--k", "100000"], "exceeds"),
            ("Q(A, B) :- R1(A), R2(A, B)", ["--ratio", "1.5"], "ratio must be in"),
            ("Q(A, B) :- R1(A), R9(A, B)", ["--k", "1"], "no relation R9"),
        ],
        ids=["k-zero", "k-too-large", "ratio-above-one", "unknown-relation"],
    )
    def test_bad_input_is_a_usage_error(self, capsys, csv_database, query, target, message):
        """Infeasible targets and unknown relations exit 2 with one error line."""
        assert main(["solve", query, str(csv_database)] + target) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_k_and_ratio_are_mutually_exclusive(self, csv_database):
        with pytest.raises(SystemExit):
            main(
                [
                    "solve",
                    "Q(A, B) :- R1(A), R2(A, B)",
                    str(csv_database),
                    "--k",
                    "1",
                    "--ratio",
                    "0.5",
                ]
            )


class TestExperimentsCommand:
    def test_single_figure(self, capsys):
        assert main(["experiments", "--only", "fig12_13"]) == 0
        out = capsys.readouterr().out
        assert "Figures 12-13" in out


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "--only", "nope"])

    def test_workers_only_on_serve(self):
        """Only ``serve`` feeds solve_many; the other commands have no pool."""
        assert build_parser().parse_args(["serve", "--workers", "2"]).workers == 2
        for argv in (
            ["solve", "Q(A) :- R(A)", "db", "--k", "1", "--workers", "2"],
            ["explain", "Q(A) :- R(A)", "db", "--workers", "2"],
            ["experiments", "--workers", "2"],
            ["solve", "Q(A) :- R(A)", "db", "--k", "1", "--engine", "parallel"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_engine_flag_is_gone(self):
        """One evaluation engine: no subcommand takes ``--engine``."""
        for argv in (
            ["solve", "Q(A) :- R(A)", "db", "--k", "1", "--engine", "row"],
            ["explain", "Q(A) :- R(A)", "db", "--engine", "columnar"],
            ["serve", "--engine", "row"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)


class TestExplainCommand:
    QUERY = "Q(A, B) :- R1(A), R2(A, B)"

    def test_text_output(self, capsys, csv_database):
        assert main(["explain", self.QUERY, str(csv_database)]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN" in out
        assert "join order:" in out
        assert "cardinalities (estimate vs actual):" in out

    def test_json_plan_fingerprints_identical_across_configs(
        self, capsys, csv_database
    ):
        """Golden snapshot: the plan block (fingerprint included) must be
        byte-identical across --backend python|numpy."""
        from repro.engine.backend import numpy_available

        variants = [
            [],
            ["--backend", "python"],
        ]
        if numpy_available():
            variants.append(["--backend", "numpy"])
        plans = set()
        fingerprints = set()
        for extra in variants:
            args = ["explain", self.QUERY, str(csv_database), "--json"] + extra
            assert main(args) == 0
            payload = json.loads(capsys.readouterr().out)
            plans.add(json.dumps(payload["plan"], sort_keys=True))
            fingerprints.add(payload["plan"]["fingerprint"])
        assert len(plans) == 1
        assert len(fingerprints) == 1

    def test_unknown_relation_is_a_usage_error(self, capsys, csv_database):
        assert main(["explain", "Q(A) :- R9(A)", str(csv_database)]) == 2
        assert capsys.readouterr().err == "error: database has no relation R9\n"

    def test_no_analyze_skips_actuals(self, capsys, csv_database):
        args = ["explain", self.QUERY, str(csv_database), "--json", "--no-analyze"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["execution"]["analyzed"] is False
        assert payload["execution"]["operators"] == []
