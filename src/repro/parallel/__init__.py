"""Multi-process ``solve_many``: a persistent worker pool for query groups.

``Session(db, workers=N)`` keeps every evaluation on the one serial
columnar join path; the pool in :mod:`repro.parallel.pool` only takes
whole hard-leaf query groups of a ``solve_many`` batch.  Each worker holds
the bound database with interning tables seeded in the parent's interned
order, so its solutions are byte-identical to the serial ones.  Nothing in
this package needs to be called directly.
"""

from repro.parallel.pool import LazyWorkerPool, WorkerPool

__all__ = ["LazyWorkerPool", "WorkerPool"]
