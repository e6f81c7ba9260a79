"""Unit tests for GreedyForCQ and DrasticGreedyForFullCQ."""

import pytest

from repro.core.bruteforce import bruteforce_optimum
from repro.core.greedy import drastic_curve, greedy_curve
from repro.data.database import Database
from repro.query.parser import parse_query
from repro.session import Session


QPATH = parse_query("Qpath(A, B) :- R1(A), R2(A, B), R3(B)")


class TestGreedyForCQ:
    def test_greedy_is_feasible(self, qpath, path_instance):
        curve = greedy_curve(qpath, path_instance, kmax=4)
        removed = curve.solution(4)
        assert Session(path_instance).evaluate(qpath).outputs_removed_by(removed) >= 4
        assert not curve.optimal

    def test_greedy_never_beats_bruteforce(self, qpath, path_instance):
        total = Session(path_instance).output_size(qpath)
        for k in range(1, total + 1):
            greedy_cost = greedy_curve(qpath, path_instance, kmax=k).cost(k)
            assert greedy_cost >= bruteforce_optimum(qpath, path_instance, k)

    def test_greedy_picks_highest_profit_first(self):
        query = parse_query("Q(A, B) :- R1(A), R2(A, B)")
        database = Database.from_dict(
            {"R1": ["A"], "R2": ["A", "B"]},
            {"R1": [(1,), (2,)], "R2": [(1, 1), (1, 2), (1, 3), (2, 1)]},
        )
        curve = greedy_curve(query, database)
        picks = curve.picks()
        assert picks[0][1] == 3  # the a=1 group first

    def test_endogenous_restriction(self, qpath, path_instance):
        restricted = greedy_curve(qpath, path_instance, endogenous_only=True)
        unrestricted = greedy_curve(qpath, path_instance, endogenous_only=False)
        # Both must be feasible for the full range they report.
        assert restricted.max_gain() >= 1
        assert unrestricted.max_gain() >= 1
        # The restriction never picks tuples of the exogenous middle relation.
        refs = restricted.solution(restricted.max_gain())
        assert all(ref.relation in {"R1", "R3"} for ref in refs)

    def test_empty_result(self):
        query = parse_query("Q(A) :- R1(A), R2(A)")
        database = Database.from_dict({"R1": ["A"], "R2": ["A"]},
                                      {"R1": [(1,)], "R2": [(2,)]})
        curve = greedy_curve(query, database)
        assert curve.max_gain() == 0

    def test_boolean_query_progress_through_zero_profit_picks(self):
        # On a boolean query every single deletion has profit 0 until the very
        # last one; the curve must still reach gain 1 with the right cost.
        query = parse_query("Q() :- R1(A), R2(A, B), R3(B)")
        database = Database.from_dict(
            {"R1": ["A"], "R2": ["A", "B"], "R3": ["B"]},
            {"R1": [(1,), (2,)], "R2": [(1, 1), (2, 2)], "R3": [(1,), (2,)]},
        )
        curve = greedy_curve(query, database, kmax=1)
        assert curve.max_gain() == 1
        assert curve.cost(1) >= 2  # both paths must be broken

    def test_kmax_truncates_work(self, qpath, path_instance):
        curve = greedy_curve(qpath, path_instance, kmax=1)
        assert curve.max_gain() >= 1


class TestDrasticGreedy:
    def test_rejects_projection(self):
        query = parse_query("Q(A) :- R1(A, B)")
        with pytest.raises(ValueError):
            drastic_curve(query, Database.from_dict({"R1": ["A", "B"]}, {"R1": [(1, 2)]}))

    def test_full_path_query(self, path_instance):
        query = parse_query("Qpath(A, B) :- R1(A), R2(A, B), R3(B)")
        curve = drastic_curve(query, path_instance)
        result = Session(path_instance).evaluate(query)
        for k in (1, 2, 4):
            removed = curve.solution(k)
            assert result.outputs_removed_by(removed) >= k

    def test_single_relation_only(self, path_instance):
        query = parse_query("Qpath(A, B) :- R1(A), R2(A, B), R3(B)")
        curve = drastic_curve(query, path_instance)
        refs = curve.solution(2)
        assert len({ref.relation for ref in refs}) == 1

    def test_never_better_than_bruteforce(self, path_instance):
        query = parse_query("Qpath(A, B) :- R1(A), R2(A, B), R3(B)")
        curve = drastic_curve(query, path_instance)
        total = Session(path_instance).output_size(query)
        for k in range(1, total + 1):
            assert curve.cost(k) >= bruteforce_optimum(query, path_instance, k)

    def test_empty_result(self):
        query = parse_query("Q(A, B) :- R1(A), R2(A, B)")
        database = Database.from_dict({"R1": ["A"], "R2": ["A", "B"]},
                                      {"R1": [], "R2": [(1, 2)]})
        curve = drastic_curve(query, database)
        assert curve.max_gain() == 0


class TestDrasticBincountKernel:
    """The bincount-kernel rewrite of drastic_curve must not move a pick."""

    def _fixed_instance(self):
        query = parse_query("Qd(A, B) :- R1(A), R2(A, B)")
        database = Database.from_dict(
            {"R1": ["A"], "R2": ["A", "B"]},
            {
                "R1": [(1,), (2,), (3,)],
                "R2": [(1, 10), (1, 11), (1, 12), (2, 20), (2, 21), (3, 30)],
            },
        )
        return query, database

    def test_drastic_curve_pinned_output(self):
        """Regression pin: exact picks (refs and profits) of a fixed instance.

        Computed with the pre-kernel per-relation dict implementation; the
        backend bincount route must reproduce it bit for bit on both
        backends.
        """
        from repro.data.relation import TupleRef

        query, database = self._fixed_instance()
        expected_best = [
            ((TupleRef("R1", (1,)),), 3),
            ((TupleRef("R1", (2,)),), 2),
            ((TupleRef("R1", (3,)),), 1),
        ]
        for backend in ("python", "numpy"):
            try:
                session = Session(database, backend=backend)
            except RuntimeError:  # numpy not installed
                continue
            with session.activate():
                curve = drastic_curve(query, database)
            member_curves = curve._curves
            # Lemma 13 restricts drastic to the endogenous relation (R1
            # here); its profit curve is pinned pick by pick.
            assert [prefix.picks() for prefix in member_curves] == [expected_best]
            assert curve.cost(3) == 1  # R1(1) alone kills three outputs
            assert curve.cost(6) == 3


class TestBatchedProfitScan:
    """The adaptive batched profit kernel must not move a greedy pick."""

    def test_batch_scan_matches_python_backend(self):
        """A profit-0-heavy projection instance degenerates the pruned scan
        (every candidate's profit is computed each round), so the NumPy
        index switches to the batched kernel after round one; the produced
        curve must equal the Python backend's pick for pick.
        """
        from repro.engine.backend import numpy_available

        if not numpy_available():
            pytest.skip("numpy backend unavailable")

        query = parse_query("Qp(A) :- R1(A), R2(A, B)")
        database = Database.from_dict(
            {"R1": ["A"], "R2": ["A", "B"]},
            {
                "R1": [(a,) for a in range(300)],
                "R2": [(a, b) for a in range(300) for b in (0, 1)],
            },
        )
        curves = {}
        for backend in ("python", "numpy"):
            with Session(database, backend=backend) as session:
                with session.activate():
                    curves[backend] = greedy_curve(
                        query, database, endogenous_only=False
                    )
        assert curves["numpy"].picks() == curves["python"].picks()
        # Sanity: the scan really faced the degenerate shape (many
        # candidates, unit gains) -- each pick removes one output.
        assert len(curves["python"].picks()) == 300
