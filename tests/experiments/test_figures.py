"""Tests for the figure experiments (small grids).

Each test runs the corresponding experiment on a tiny grid and checks the
*shape* the paper reports for that figure, not absolute numbers:

* counting is not slower than reporting by a large factor (Fig. 7);
* heuristics are feasible and never better than the exact optimum (Figs. 8-9);
* brute force agrees with or beats the heuristics on quality and is slower
  on anything non-trivial (Figs. 12-13);
* more skew (larger α) means fewer tuples need removing (Figs. 16-27);
* the Singleton and improved-DP optimisations are exact (Figs. 28-29).
"""

import math

from repro.core.adp import ratio_target
from repro.experiments import figures
from repro.experiments.report import format_table, render_results


class TestEasyFigures:
    def test_figure07_counting_and_reporting_agree(self):
        result = figures.figure_07_easy_exact(sizes=(200,), ratios=(0.1, 0.5))
        assert result.rows
        for row in result.rows:
            assert row["optimal"] is True
        # Counting and reporting must report the same objective.
        by_key = {}
        for row in result.rows:
            by_key.setdefault((row["input_size"], row["ratio"]), {})[row["mode"]] = row
        for pair in by_key.values():
            assert pair["counting"]["solution_size"] == pair["reporting"]["solution_size"]

    def test_figure08_09_heuristics_not_better_than_exact(self):
        result = figures.figure_08_easy_heuristics(sizes=(200,), ratios=(0.1, 0.5))
        grouped = {}
        for row in result.rows:
            grouped.setdefault((row["input_size"], row["ratio"]), {})[row["method"]] = row
        for methods in grouped.values():
            exact = methods["exact"]["solution_size"]
            assert methods["greedy"]["solution_size"] >= exact
            assert methods["drastic"]["solution_size"] >= exact
        quality = figures.figure_09_easy_quality(sizes=(200,), ratios=(0.1,))
        assert quality.rows


class TestHardFigures:
    def test_figure10_11_quality_increases_with_ratio(self):
        result = figures.figure_10_hard_heuristics(sizes=(200,), ratios=(0.1, 0.75))
        greedy_rows = [row for row in result.rows if row["method"] == "greedy"]
        sizes = {row["ratio"]: row["solution_size"] for row in greedy_rows}
        assert sizes[0.75] >= sizes[0.1]

    def test_figure12_13_bruteforce_is_optimal_and_slower(self):
        result = figures.figure_12_13_bruteforce(size=60, ratio=0.1)
        by_method = {row["method"]: row for row in result.rows}
        assert by_method["bruteforce"]["optimal"] is True
        assert by_method["greedy"]["solution_size"] >= by_method["bruteforce"]["solution_size"]
        assert by_method["drastic"]["solution_size"] >= by_method["bruteforce"]["solution_size"]

    def test_figure14_15_snap_queries(self):
        result = figures.figure_14_15_snap(ratios=(0.25,), nodes=32)
        queries = {row["query"] for row in result.rows}
        assert "Q2" in queries and "Q5" in queries
        # Drastic only appears for the full CQs Q2, Q3.
        for row in result.rows:
            if row["method"] == "drastic":
                assert row["query"] in {"Q2", "Q3"}
            assert row["removed_outputs"] >= row["k"]


class TestZipfFigures:
    def test_skew_reduces_solution_size(self):
        result = figures.figure_zipf_hard(alphas=(0.0, 1.0), sizes=(200,), ratios=(0.5,))
        greedy = {row["alpha"]: row["solution_size"] for row in result.rows if row["method"] == "greedy"}
        assert greedy[1.0] <= greedy[0.0]

    def test_easy_figures_are_exact(self):
        result = figures.figure_zipf_easy(alphas=(0.0, 1.0), sizes=(200,), ratios=(0.25,))
        assert all(row["optimal"] for row in result.rows)
        sizes = {row["alpha"]: row["solution_size"] for row in result.rows}
        assert sizes[1.0] <= sizes[0.0]


class TestAblationFigures:
    def test_figure28_strategies_agree_and_singleton_wins(self):
        result = figures.figure_28_singleton_optimisation(
            tuples_per_relation=40, domain=20, ratios=(0.5,)
        )
        sizes = {row["strategy"]: row["solution_size"] for row in result.rows}
        assert len(set(sizes.values())) == 1  # all exact, same objective
        times = {row["strategy"]: row["seconds"] for row in result.rows}
        assert times["singleton"] <= times["one-by-one"]

    def test_figure29_strategies_agree(self):
        result = figures.figure_29_decompose_optimisation(
            unary_tuples=6, binary_tuples=12, ratios=(0.1,)
        )
        sizes = {row["strategy"]: row["solution_size"] for row in result.rows}
        assert len(set(sizes.values())) == 1

    def test_endogenous_ablation(self):
        result = figures.ablation_endogenous_restriction(size=150, ratios=(0.1,))
        assert len(result.rows) == 2


class TestRatioTarget:
    """Figure rows take ``k`` from ``ratio_target`` (``ceil``), never a floor."""

    def test_rows_use_the_ceiling_rule(self):
        ratio = 0.33
        rows = [
            (row, row["output_size"])
            for row in figures.figure_10_hard_heuristics(
                sizes=(200,), ratios=(ratio,), methods=("greedy",)
            ).rows
        ] + [
            (row, row["selected_output"])
            for row in figures.figure_07_easy_exact(sizes=(200,), ratios=(ratio,)).rows
        ]
        assert rows
        for row, output in rows:
            # The ratio must separate the two rules, or the test shows nothing.
            assert math.floor(ratio * output) != math.ceil(ratio * output)
            assert row["k"] == ratio_target(output, ratio)


class TestReport:
    def test_format_table(self):
        result = figures.figure_12_13_bruteforce(size=60, ratio=0.1)
        text = format_table(result)
        assert "BruteForce" in text or "bruteforce" in text
        assert "method" in text

    def test_render_results(self):
        results = {"fig": figures.figure_12_13_bruteforce(size=60, ratio=0.1)}
        assert "Figures 12-13" in render_results(results)

    def test_figure_function_registry(self):
        assert "fig07" in figures.FIGURE_FUNCTIONS
        assert len(figures.FIGURE_FUNCTIONS) >= 11
