#!/usr/bin/env python3
"""Network robustness via aggregated deletion propagation (Example 3).

``Q3path(A, B, C, D) :- R1(A, B), R2(B, C), R3(C, D)`` enumerates the
three-hop paths of a layered communication network.  ADP answers the
robustness question of the paper's introduction: *how many links must fail
(or be attacked) before a given fraction of the paths disappears?*  A network
where 1% of the links carry 80% of the paths is fragile; one where you must
destroy most links to lose most paths is robust.

This example builds two synthetic three-layer networks with the same number
of links -- one with a few heavily-loaded hub links, one with evenly spread
links -- and compares their ADP profiles.  Q3path is NP-hard for ADP
(``is_poly_time`` is False), so the numbers are heuristic upper bounds from
``GreedyForCQ``/``DrasticGreedy``; on the small hub network we also show the
brute-force optimum for calibration.

Run with:  python examples/network_robustness.py
"""

import random

from repro import ADPSolver, Database, Session, is_poly_time, parse_query
from repro.core import bruteforce_solve
from repro.core.adp import ratio_target

Q3PATH = parse_query("Q3path(A, B, C, D) :- R1(A, B), R2(B, C), R3(C, D)")


def hub_network(width: int = 6) -> Database:
    """A network where one middle link per layer carries almost all paths."""
    r1 = [(f"s{i}", "hub1") for i in range(width)] + [("s_extra", "b_side")]
    r2 = [("hub1", "hub2"), ("b_side", "c_side")]
    r3 = [("hub2", f"t{i}") for i in range(width)] + [("c_side", "t_side")]
    return Database.from_dict(
        {"R1": ["A", "B"], "R2": ["B", "C"], "R3": ["C", "D"]},
        {"R1": r1, "R2": r2, "R3": r3},
    )


def mesh_network(width: int = 4, seed: int = 3) -> Database:
    """A network with evenly spread links (no dominant hub)."""
    rng = random.Random(seed)
    lefts = [f"s{i}" for i in range(width)]
    mid1 = [f"m{i}" for i in range(width)]
    mid2 = [f"n{i}" for i in range(width)]
    rights = [f"t{i}" for i in range(width)]
    r1 = [(a, rng.choice(mid1)) for a in lefts for _ in range(2)]
    r2 = [(b, rng.choice(mid2)) for b in mid1 for _ in range(2)]
    r3 = [(c, rng.choice(rights)) for c in mid2 for _ in range(2)]
    return Database.from_dict(
        {"R1": ["A", "B"], "R2": ["B", "C"], "R3": ["C", "D"]},
        {"R1": set(r1), "R2": set(r2), "R3": set(r3)},
    )


def profile(name: str, database: Database, ratios=(0.25, 0.5, 0.8)) -> None:
    total_links = database.total_tuples()
    session = Session(database)
    paths = session.output_size(Q3PATH)
    print(f"\n{name}: {total_links} links, {paths} three-hop paths")
    solver = ADPSolver(heuristic="greedy")
    for ratio in ratios:
        k = ratio_target(paths, ratio)
        solution = session.solve(Q3PATH, k, solver=solver)
        share = solution.size / total_links
        print(
            f"  disrupt >= {ratio:>3.0%} of paths ({k:>3} paths): "
            f"remove {solution.size:>2} links ({share:.0%} of the network) "
            f"[greedy upper bound]"
        )


def main() -> None:
    print("Q3path poly-time solvable for ADP?", is_poly_time(Q3PATH))

    hub = hub_network()
    mesh = mesh_network()
    profile("hub-and-spoke network (fragile)", hub)
    profile("meshed network (robust)", mesh)

    # Calibrate the heuristic on the small hub network with brute force.
    session = Session(hub)
    paths = session.output_size(Q3PATH)
    k = max(1, int(0.8 * paths))
    with session.activate():
        exact = bruteforce_solve(Q3PATH, hub, k, max_candidates=40)
    greedy = session.solve(Q3PATH, k)
    print(
        f"\ncalibration on the hub network (k={k}): "
        f"brute-force optimum = {exact.size}, greedy = {greedy.size}"
    )


if __name__ == "__main__":
    main()
