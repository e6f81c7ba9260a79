"""One experiment function per figure of the paper (Figures 7--29).

Each function regenerates the corresponding figure's data as an
:class:`~repro.experiments.harness.ExperimentResult` (a tidy table that can
be pivoted into the paper's plot series).  Default parameters are scaled down
to pure-Python-friendly sizes; pass larger ``sizes`` / ``ratios`` to approach
the paper's scale.  The reproduced claim is the *shape* of each figure --
which method is faster, how time/quality scale with input size, ρ and α --
not the absolute Java+PostgreSQL numbers (see DESIGN.md and EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core.adp import ADPSolver, ratio_target
from repro.core.decompose import DecomposeStrategy
from repro.core.selection import Selection, solve_with_selection
from repro.core.universe import UniverseStrategy
from repro.experiments.harness import (
    ExperimentResult,
    run_method,
    target_from_ratio,
    timed,
)
from repro.session import Session
from repro.workloads.queries import Q1, Q2, Q3, Q4, Q5, Q6, Q7, Q8, QPATH_EXP
from repro.workloads.snap import EgoNetworkConfig, generate_ego_network
from repro.workloads.synthetic import generate_q7_instance, generate_q8_instance
from repro.workloads.tpch import SELECTED_PART_KEY, generate_tpch
from repro.workloads.zipf import generate_zipf_path

DEFAULT_RATIOS = (0.1, 0.25, 0.5, 0.75)


# --------------------------------------------------------------------------- #
# Figures 7-9: σθQ1 (poly-time thanks to the selection, Lemma 12)
# --------------------------------------------------------------------------- #
def _selected_instance(size: int, seed: int = 7):
    database = generate_tpch(total_tuples=size, seed=seed)
    selection = Selection.equals({"PK": SELECTED_PART_KEY})
    filtered = selection.apply(Q1, database)
    return database, selection, filtered


def figure_07_easy_exact(
    sizes: Sequence[int] = (200, 500, 1000),
    ratios: Sequence[float] = DEFAULT_RATIOS,
) -> ExperimentResult:
    """Figure 7: running time of the exact algorithm on σθQ1.

    Compares the counting and reporting versions across input sizes and
    removal ratios ρ.
    """
    result = ExperimentResult(
        figure="Figure 7",
        description="Running time: sigma_theta Q1 (easy) solved exactly, counting vs reporting",
    )
    for size in sizes:
        database, selection, filtered = _selected_instance(size)
        base_session = Session(database)
        output = Session(filtered).output_size(Q1)
        if not output:
            continue
        for ratio in ratios:
            k = ratio_target(output, ratio)
            for mode, counting in (("reporting", False), ("counting", True)):
                solver = ADPSolver(counting_only=counting)

                def run(s=solver, k=k):
                    with base_session.activate():
                        return solve_with_selection(Q1, selection, database, k, solver=s)

                solution, seconds = timed(run)
                result.add(
                    {
                        "input_size": database.total_tuples(),
                        "selected_output": output,
                        "ratio": ratio,
                        "mode": mode,
                        "k": k,
                        "seconds": round(seconds, 6),
                        "solution_size": solution.size,
                        "optimal": solution.optimal,
                    }
                )
    return result


def figure_08_easy_heuristics(
    sizes: Sequence[int] = (200, 500, 1000),
    ratios: Sequence[float] = DEFAULT_RATIOS,
) -> ExperimentResult:
    """Figure 8: reporting σθQ1 with heuristics (Greedy, Drastic) vs Exact."""
    result = ExperimentResult(
        figure="Figure 8",
        description="Running time: reporting sigma_theta Q1 (easy) by heuristics vs exact",
    )
    for size in sizes:
        database, selection, filtered = _selected_instance(size)
        base_session = Session(database)
        filtered_session = Session(filtered)
        output = filtered_session.output_size(Q1)
        if not output:
            continue
        for ratio in ratios:
            k = ratio_target(output, ratio)
            exact_solver = ADPSolver()

            def run_exact(k=k):
                with base_session.activate():
                    return solve_with_selection(Q1, selection, database, k, solver=exact_solver)

            exact, exact_seconds = timed(run_exact)
            rows = [("exact", exact, exact_seconds)]
            for method in ("greedy", "drastic"):
                run = run_method(Q1, filtered, k, method, session=filtered_session)
                rows.append((method, run, run.seconds))
            for method, solved, seconds in rows:
                size_value = solved.size if hasattr(solved, "size") else solved.solution_size
                result.add(
                    {
                        "input_size": database.total_tuples(),
                        "ratio": ratio,
                        "k": k,
                        "method": method,
                        "seconds": round(seconds, 6),
                        "solution_size": size_value,
                    }
                )
    return result


def figure_09_easy_quality(
    sizes: Sequence[int] = (200, 500, 1000),
    ratios: Sequence[float] = DEFAULT_RATIOS,
) -> ExperimentResult:
    """Figure 9: solution quality on σθQ1 (Exact vs Greedy vs Drastic)."""
    data = figure_08_easy_heuristics(sizes, ratios)
    result = ExperimentResult(
        figure="Figure 9",
        description="Quality: sigma_theta Q1 (easy); number of tuples removed per method",
        rows=list(data.rows),
        notes="Same grid as Figure 8; read the solution_size column.",
    )
    return result


# --------------------------------------------------------------------------- #
# Figures 10-13: Q1 without selection (NP-hard)
# --------------------------------------------------------------------------- #
def figure_10_hard_heuristics(
    sizes: Sequence[int] = (200, 500, 1000),
    ratios: Sequence[float] = DEFAULT_RATIOS,
    methods: Sequence[str] = ("greedy", "drastic"),
) -> ExperimentResult:
    """Figures 10: running time of Greedy/Drastic on the NP-hard Q1."""
    result = ExperimentResult(
        figure="Figure 10",
        description="Running time: reporting Q1 (hard) by heuristics",
    )
    for size in sizes:
        database = generate_tpch(total_tuples=size)
        session = Session(database)
        output = session.output_size(Q1)
        for ratio in ratios:
            k = ratio_target(output, ratio)
            for method in methods:
                run = run_method(Q1, database, k, method, session=session)
                result.add(
                    run.as_row(input_size=database.total_tuples(), ratio=ratio, query="Q1")
                )
    return result


def figure_11_hard_quality(
    sizes: Sequence[int] = (200, 500, 1000),
    ratios: Sequence[float] = DEFAULT_RATIOS,
) -> ExperimentResult:
    """Figure 11: solution quality of Greedy vs Drastic on Q1."""
    data = figure_10_hard_heuristics(sizes, ratios)
    return ExperimentResult(
        figure="Figure 11",
        description="Quality: Q1 (hard) by heuristics; number of tuples removed",
        rows=list(data.rows),
        notes="Same grid as Figure 10; read the solution_size column.",
    )


def figure_12_13_bruteforce(
    size: int = 60,
    ratio: float = 0.1,
    methods: Sequence[str] = ("bruteforce", "greedy", "drastic"),
) -> ExperimentResult:
    """Figures 12-13: BruteForce vs heuristics on a small Q1 instance."""
    result = ExperimentResult(
        figure="Figures 12-13",
        description="BruteForce vs heuristics on Q1 (hard), small input",
    )
    database = generate_tpch(total_tuples=size)
    session = Session(database)
    with session.activate():
        k = target_from_ratio(Q1, database, ratio)
    for method in methods:
        run = run_method(
            Q1, database, k, method, bruteforce_max_candidates=2000, session=session
        )
        result.add(run.as_row(input_size=database.total_tuples(), ratio=ratio, query="Q1"))
    return result


# --------------------------------------------------------------------------- #
# Figures 14-15: the SNAP ego-network queries Q2..Q5
# --------------------------------------------------------------------------- #
def figure_14_15_snap(
    ratios: Sequence[float] = DEFAULT_RATIOS,
    nodes: int = 60,
    seed: int = 414,
) -> ExperimentResult:
    """Figures 14-15: Greedy (Q2..Q5) and Drastic (Q2, Q3) on the ego network.

    Drastic is only applicable to the full CQs Q2 and Q3; Q4 and Q5 have
    projections, exactly as discussed in Section 8.3.
    """
    result = ExperimentResult(
        figure="Figures 14-15",
        description="Running time and quality on the ego network: Q2, Q3, Q4, Q5",
    )
    edges = generate_ego_network(EgoNetworkConfig(nodes=nodes, seed=seed))
    plans = [
        (Q2, ("greedy", "drastic")),
        (Q3, ("greedy", "drastic")),
        (Q4, ("greedy",)),
        (Q5, ("greedy",)),
    ]
    for query, methods in plans:
        # The edge relations are stored as Ri(A, B); each query names its
        # variables differently, so align columns positionally first.
        database = edges.aligned_to(query)
        session = Session(database)
        output = session.output_size(query)
        if output == 0:
            continue
        for ratio in ratios:
            k = ratio_target(output, ratio)
            for method in methods:
                run = run_method(query, database, k, method, session=session)
                result.add(run.as_row(query=query.name, ratio=ratio, nodes=nodes))
    return result


# --------------------------------------------------------------------------- #
# Figures 16-27: Zipfian data distributions
# --------------------------------------------------------------------------- #
def figure_zipf_hard(
    alphas: Sequence[float] = (0.0, 0.25, 0.5, 1.0),
    sizes: Sequence[int] = (200, 400),
    ratios: Sequence[float] = DEFAULT_RATIOS,
) -> ExperimentResult:
    """Figures 16-19 and 24-27: Qpath (hard) on Zipf(α) data, Greedy & Drastic."""
    result = ExperimentResult(
        figure="Figures 16-19, 24-27",
        description="Qpath (hard) on Zipfian data: running time and quality vs alpha",
    )
    for alpha in alphas:
        for size in sizes:
            database = generate_zipf_path(r2_tuples=size, alpha=alpha)
            session = Session(database)
            output = session.output_size(QPATH_EXP)
            for ratio in ratios:
                k = ratio_target(output, ratio)
                for method in ("greedy", "drastic"):
                    run = run_method(QPATH_EXP, database, k, method, session=session)
                    result.add(
                        run.as_row(
                            alpha=alpha,
                            r2_size=size,
                            input_size=database.total_tuples(),
                            ratio=ratio,
                            query="Qpath",
                        )
                    )
    return result


def figure_zipf_easy(
    alphas: Sequence[float] = (0.0, 1.0),
    sizes: Sequence[int] = (200, 400),
    ratios: Sequence[float] = DEFAULT_RATIOS,
) -> ExperimentResult:
    """Figures 20-23: the singleton query Q6 (easy) on Zipf(α) data, Exact."""
    result = ExperimentResult(
        figure="Figures 20-23",
        description="Q6 (easy singleton) on Zipfian data: exact running time and quality",
    )
    for alpha in alphas:
        for size in sizes:
            database = generate_zipf_path(r2_tuples=size, alpha=alpha)
            q6_database = database.restricted_to(("R1", "R2"))
            session = Session(q6_database)
            output = session.output_size(Q6)
            for ratio in ratios:
                k = ratio_target(output, ratio)
                run = run_method(Q6, q6_database, k, "exact", session=session)
                result.add(
                    run.as_row(
                        alpha=alpha,
                        r2_size=size,
                        input_size=q6_database.total_tuples(),
                        ratio=ratio,
                        query="Q6",
                    )
                )
    return result


# --------------------------------------------------------------------------- #
# Figure 28: Universe / Singleton optimisation ablation (Q7)
# --------------------------------------------------------------------------- #
def figure_28_singleton_optimisation(
    tuples_per_relation: int = 60,
    domain: int = 25,
    ratios: Sequence[float] = (0.5, 0.75),
    seed: int = 28,
) -> ExperimentResult:
    """Figure 28: removing universal attributes one-by-one vs combined vs Singleton.

    The three strategies produce identical objective values (they are all
    exact); the figure compares their running times.
    """
    result = ExperimentResult(
        figure="Figure 28",
        description="Q7: universal-attribute strategies (one-by-one, combined, singleton)",
    )
    database = generate_q7_instance(tuples_per_relation, domain=domain, seed=seed)
    session = Session(database)
    output = session.output_size(Q7)
    strategies = (
        ("one-by-one", ADPSolver(use_singleton=False, universe_strategy=UniverseStrategy.ONE_BY_ONE)),
        ("combined", ADPSolver(use_singleton=False, universe_strategy=UniverseStrategy.COMBINED)),
        ("singleton", ADPSolver(use_singleton=True)),
    )
    for ratio in ratios:
        k = ratio_target(output, ratio)
        for name, solver in strategies:
            solution, seconds = timed(
                lambda s=solver, k=k: session.solve(Q7, k, solver=s)
            )
            result.add(
                {
                    "strategy": name,
                    "ratio": ratio,
                    "k": k,
                    "output_size": output,
                    "seconds": round(seconds, 6),
                    "solution_size": solution.size,
                    "optimal": solution.optimal,
                }
            )
    return result


# --------------------------------------------------------------------------- #
# Figure 29: Decompose optimisation ablation (Q8)
# --------------------------------------------------------------------------- #
def figure_29_decompose_optimisation(
    unary_tuples: int = 8,
    binary_tuples: int = 16,
    ratios: Sequence[float] = (0.01, 0.1),
    seed: int = 29,
) -> ExperimentResult:
    """Figure 29: Decompose strategies (full enumeration, pairwise, improved DP)."""
    result = ExperimentResult(
        figure="Figure 29",
        description="Q8: decomposition strategies (full enumeration, pairwise, improved DP)",
    )
    database = generate_q8_instance(unary_tuples, binary_tuples, seed=seed)
    session = Session(database)
    output = session.output_size(Q8)
    strategies = (
        ("full-enumeration", DecomposeStrategy.FULL_ENUMERATION),
        ("pairwise", DecomposeStrategy.PAIRWISE),
        ("improved-dp", DecomposeStrategy.IMPROVED_DP),
    )
    for ratio in ratios:
        k = ratio_target(output, ratio)
        for name, strategy in strategies:
            solver = ADPSolver(decompose_strategy=strategy)
            solution, seconds = timed(
                lambda s=solver, k=k: session.solve(Q8, k, solver=s)
            )
            result.add(
                {
                    "strategy": name,
                    "ratio": ratio,
                    "k": k,
                    "output_size": output,
                    "seconds": round(seconds, 6),
                    "solution_size": solution.size,
                    "optimal": solution.optimal,
                }
            )
    return result


# --------------------------------------------------------------------------- #
# Ablation beyond the paper: greedy candidate restriction (Lemma 13)
# --------------------------------------------------------------------------- #
def ablation_endogenous_restriction(
    size: int = 300,
    ratios: Sequence[float] = (0.1, 0.5),
) -> ExperimentResult:
    """Design-choice ablation: greedy over endogenous-only vs all relations."""
    from repro.core.greedy import greedy_curve

    result = ExperimentResult(
        figure="Ablation",
        description="GreedyForCQ candidates: endogenous-only (Lemma 13) vs all relations",
    )
    database = generate_tpch(total_tuples=size)
    session = Session(database)
    output = session.output_size(Q1)
    for ratio in ratios:
        k = ratio_target(output, ratio)
        for restricted in (True, False):
            def run():
                with session.activate():
                    curve = greedy_curve(Q1, database, kmax=k, endogenous_only=restricted)
                    return curve.cost(k)

            cost, seconds = timed(run)
            result.add(
                {
                    "endogenous_only": restricted,
                    "ratio": ratio,
                    "k": k,
                    "seconds": round(seconds, 6),
                    "solution_size": cost,
                }
            )
    return result


#: All figure functions keyed by a short identifier (used by run_all / docs).
FIGURE_FUNCTIONS = {
    "fig07": figure_07_easy_exact,
    "fig08": figure_08_easy_heuristics,
    "fig09": figure_09_easy_quality,
    "fig10": figure_10_hard_heuristics,
    "fig11": figure_11_hard_quality,
    "fig12_13": figure_12_13_bruteforce,
    "fig14_15": figure_14_15_snap,
    "fig16_27": figure_zipf_hard,
    "fig20_23": figure_zipf_easy,
    "fig28": figure_28_singleton_optimisation,
    "fig29": figure_29_decompose_optimisation,
    "ablation_endogenous": ablation_endogenous_restriction,
}


def run_all(quick: bool = True) -> Dict[str, ExperimentResult]:
    """Run every figure experiment and return the results keyed by figure id.

    ``quick=True`` (default) uses reduced grids so the whole sweep finishes
    in a few minutes on a laptop; ``quick=False`` uses each function's
    default parameters.
    """
    overrides: Dict[str, Dict[str, object]] = {}
    if quick:
        overrides = {
            "fig07": {"sizes": (200, 500), "ratios": (0.1, 0.5)},
            "fig08": {"sizes": (200, 500), "ratios": (0.1, 0.5)},
            "fig09": {"sizes": (200,), "ratios": (0.1, 0.5)},
            "fig10": {"sizes": (200, 500), "ratios": (0.1, 0.5)},
            "fig11": {"sizes": (200,), "ratios": (0.1, 0.5)},
            "fig14_15": {"ratios": (0.1, 0.5), "nodes": 40},
            "fig16_27": {"alphas": (0.0, 1.0), "sizes": (200,), "ratios": (0.1, 0.5)},
            "fig20_23": {"sizes": (200,), "ratios": (0.1, 0.5)},
            "fig28": {"ratios": (0.5,)},
            "fig29": {"ratios": (0.01, 0.1)},
        }
    results: Dict[str, ExperimentResult] = {}
    for key, fn in FIGURE_FUNCTIONS.items():
        results[key] = fn(**overrides.get(key, {}))
    return results
