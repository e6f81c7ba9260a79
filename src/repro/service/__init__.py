"""repro.service -- the ADP query service tier.

An asyncio HTTP/JSON front end over :class:`repro.session.Session`: named,
versioned databases are bound to long-lived sessions in a
:class:`~repro.service.registry.SessionRegistry`, solve requests that arrive
while the same query is in flight are coalesced into
:meth:`~repro.session.Session.solve_many` batches by the
:class:`~repro.service.batch.MicroBatcher`, and an admission layer
(:mod:`repro.service.admission`) sheds load with ``429 Retry-After`` before
the solver queue grows unbounded.

Everything is standard library only -- the server is an
``asyncio.start_server`` loop speaking HTTP/1.1 with keep-alive, and solver
work runs on a thread pool (session read paths are thread-safe by the
contract documented in :mod:`repro.session`).

Quick start::

    from repro.service import AdpService, ServiceConfig, ServiceRunner

    runner = ServiceRunner(ServiceConfig(port=0))   # ephemeral port
    runner.start()
    ...  # speak JSON over HTTP to 127.0.0.1:runner.port
    runner.close()

or from the command line::

    python -m repro serve --port 8080 --load tpch=./tpch_csv

See ``docs/ARCHITECTURE.md`` ("Service tier") for the endpoint reference
and the versioned-read / batching semantics.
"""

from repro.service.admission import AdmissionController, Deadline, Overloaded
from repro.service.batch import MicroBatcher
from repro.service.http import AdpService, ServiceConfig, ServiceRunner
from repro.service.metrics import ServiceMetrics
from repro.service.registry import ReadWriteLock, RegisteredDatabase, SessionRegistry
from repro.service.serialize import (
    dumps_canonical,
    refs_from_json,
    refs_to_json,
    solution_payload,
)

__all__ = [
    "AdmissionController",
    "AdpService",
    "Deadline",
    "MicroBatcher",
    "Overloaded",
    "ReadWriteLock",
    "RegisteredDatabase",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceRunner",
    "SessionRegistry",
    "dumps_canonical",
    "refs_from_json",
    "refs_to_json",
    "solution_payload",
]
