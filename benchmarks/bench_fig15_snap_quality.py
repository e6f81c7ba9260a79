"""Figure 15: solution quality on the ego-network queries Q2..Q5.

Paper's claim: the number of removed input tuples grows with ρ for every
query, and Greedy/Drastic coincide on the full CQs Q2, Q3; Q4 (a cross
product of two length-2 path queries) needs far fewer removals than its huge
output size suggests.
"""

import pytest

from repro.session import Session
from repro.workloads.queries import Q2, Q4


@pytest.mark.parametrize("query", [Q2, Q4], ids=lambda q: q.name)
def test_fig15_quality_grows_with_ratio(benchmark, ego_network, query):
    database = ego_network.aligned_to(query)
    session = Session(database)
    total = session.output_size(query)
    if total == 0:
        pytest.skip(f"{query.name} has no results on the scaled-down network")

    def run_two_ratios():
        low = session.solve(query, max(1, int(0.1 * total)), heuristic="greedy")
        high = session.solve(query, max(1, int(0.5 * total)), heuristic="greedy")
        return low, high

    low, high = benchmark(run_two_ratios)
    benchmark.extra_info.update(
        {
            "figure": "15",
            "query": query.name,
            "output_size": total,
            "size_at_10pct": low.size,
            "size_at_50pct": high.size,
        }
    )
    assert low.size <= high.size
    # Removing half the output never requires more tuples than the input holds.
    assert high.size <= database.total_tuples()
