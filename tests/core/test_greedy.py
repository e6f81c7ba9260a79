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
    """The vectorized NumPy round must not move a greedy pick."""

    def test_batch_scan_matches_python_backend(self):
        """A profit-0-heavy projection instance degenerates the Python
        kernel's pruned scan (every candidate's profit is computed each
        round), while every NumPy round takes its profits from one batched
        ``profits_for``; the produced curves must agree pick for pick.
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


# --------------------------------------------------------------------------- #
# Pinned greedy picks: the kernels may change, the picks may not
# --------------------------------------------------------------------------- #
QH = parse_query("Qh(A) :- R1(A), R2(A, B), R3(B)")
QTRIANGLE = parse_query("Qt(A, B, C) :- T1(A, B), T2(B, C), T3(C, A)")
QBOOLEAN_PATH = parse_query("Qb() :- R1(A), R2(A, B), R3(B)")

#: ``generate_zipf_path`` points the pinned instances are derived from.
PIN_POINTS = [(5000, 1.1, 61), (3000, 0.5, 7)]


def _triangle_database(zipf: Database, nodes: int) -> Database:
    """A triangle instance folding the zipf path's edges onto ``nodes`` ids."""
    edges = sorted(
        {
            (int(a[1:]) % nodes, int(b[1:]) % nodes)
            for a, b in zipf.relation("R2").rows
        }
    )
    return Database.from_dict(
        {"T1": ["A", "B"], "T2": ["B", "C"], "T3": ["C", "A"]},
        {"T1": edges, "T2": edges, "T3": [(c, a) for a, c in edges]},
    )


def _pinned_instance(name: str, point):
    from repro.workloads.zipf import generate_zipf_path

    r2_tuples, alpha, seed = point
    if name == "Qh":
        return QH, generate_zipf_path(r2_tuples=r2_tuples, alpha=alpha, seed=seed)
    if name == "triangle":
        zipf = generate_zipf_path(r2_tuples=r2_tuples // 4, alpha=alpha, seed=seed)
        return QTRIANGLE, _triangle_database(zipf, 80)
    zipf = generate_zipf_path(r2_tuples=r2_tuples // 10, alpha=alpha, seed=seed)
    return QBOOLEAN_PATH, zipf


def greedy_picks_digest(name: str, point, endogenous_only: bool, backend: str) -> str:
    """sha256 of ``repr(greedy_curve(...).picks())`` on one pinned instance."""
    import hashlib

    from repro.engine.backend import is_ndarray

    query, database = _pinned_instance(name, point)
    with Session(database, backend=backend) as session:
        result = session.evaluate(query)
        # The numpy leg must really exercise the ndarray kernels.
        assert is_ndarray(result.ref_columns[0]) == (backend == "numpy")
        with session.activate():
            curve = greedy_curve(query, database, endogenous_only=endogenous_only)
    return hashlib.sha256(repr(curve.picks()).encode()).hexdigest()


#: Recorded on the pre-vectorization kernels (pruned scan + adaptive batched
#: profits); identical on both backends and for both ``endogenous_only``.
PINNED_DIGESTS = {
    ((5000, 1.1, 61), "Qh"): "6565c281342ed216065175476ba4ba4c0c699526879c3460d629847c4c91bf6c",
    ((5000, 1.1, 61), "triangle"): "26e0dd782e60f37f718fd104f6b4e71c3fdfd922fccee82b39c5255803449679",
    ((5000, 1.1, 61), "boolean"): "1a6e77c0b3bc68657e71f26778b81520cf6585d23c04ec66c509feb13061dfdb",
    ((3000, 0.5, 7), "Qh"): "213ab047c5abed542a585dd875b3c1b4337ac561800e727254f3b2de950c5bee",
    ((3000, 0.5, 7), "triangle"): "cb5a5fdff62af14cbea47a7e170103d7714d5b5d012f120c865d08d3dfec8421",
    ((3000, 0.5, 7), "boolean"): "b0ff353396a779adfd18fa3ca6ec4241109067d79d33d5ea8cea146cf72d3edc",
}


def _backends():
    from repro.engine.backend import numpy_available

    return [
        "python",
        pytest.param(
            "numpy",
            marks=pytest.mark.skipif(
                not numpy_available(), reason="numpy backend unavailable"
            ),
        ),
    ]


class TestPinnedGreedyPicks:
    @pytest.mark.parametrize("backend", _backends())
    @pytest.mark.parametrize("endogenous_only", [True, False])
    @pytest.mark.parametrize(
        "point,name",
        sorted(PINNED_DIGESTS),
        ids=[f"{name}-{'-'.join(map(str, point))}" for point, name in sorted(PINNED_DIGESTS)],
    )
    def test_picks_match_pinned_digest(self, point, name, endogenous_only, backend):
        digest = greedy_picks_digest(name, point, endogenous_only, backend)
        assert digest == PINNED_DIGESTS[(point, name)]


class TestProfitsForProperty:
    """The NumPy index's maintained ``profits_for`` equals the Python
    kernel's recounted ``profit_id`` under any deletion state."""

    @pytest.mark.parametrize("draw", range(6))
    def test_profits_for_tracks_removals(self, draw):
        import random

        from repro.engine.backend import numpy_available
        from repro.engine.provenance import ProvenanceIndex
        from repro.workloads.zipf import generate_zipf_path

        from tests.conftest import repro_test_seed

        if not numpy_available():
            pytest.skip("numpy backend unavailable")
        rng = random.Random(repro_test_seed() * 1000 + draw)
        database = generate_zipf_path(
            r2_tuples=rng.choice([80, 200, 400]), alpha=rng.choice([0.0, 1.1]),
            seed=rng.randrange(2**16),
        )
        query = rng.choice([QH, QPATH, QBOOLEAN_PATH])
        with Session(database, backend="numpy") as session:
            index = ProvenanceIndex(session.evaluate(query))
        with Session(database, backend="python") as session:
            reference = ProvenanceIndex(session.evaluate(query))
        assert index.vectorized and not reference.vectorized
        assert index.ref_count() == reference.ref_count()
        rids = list(range(index.ref_count()))
        for _step in range(40):
            rid = rng.choice(rids)  # repeats are no-ops
            assert index.remove_id(rid) == reference.remove_id(rid)
            sample = rng.sample(rids, min(len(rids), 25))
            assert index.profits_for(sample).tolist() == [
                reference.profit_id(r) for r in sample
            ]
        assert index.profits_for(rids).tolist() == [reference.profit_id(r) for r in rids]
