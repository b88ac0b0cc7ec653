"""Solve-server subsystem: the serving layer on top of kernels + tuning.

The third layer of the stack (kernels → tuning service → **solve server**):
a service that accepts a stream of
:class:`~repro.api.schemas.SolveRequestV1`\\ s, admits or sheds them at a
bounded queue, groups in-flight work by matrix content fingerprint so
concurrent requests share one preconditioner build and one multi-rhs solve,
auto-selects the preconditioner per matrix with full provenance, and exposes
its behaviour through a metrics registry.  The request/response surface is
the versioned, transport-agnostic :mod:`repro.api` schema package, so the
same engine serves in-process callers (:class:`repro.client.InProcessClient`)
and HTTP/JSON traffic (:mod:`repro.server.http` +
:class:`repro.client.HTTPClient`) bit-identically.

* :mod:`repro.server.queue` — :class:`JobQueue` (admission control,
  priorities, backpressure, graceful drain), :class:`Job`.
* :mod:`repro.server.scheduler` — :class:`Scheduler` (fingerprint-batched
  execution over a :class:`repro.parallel.Executor`).
* :mod:`repro.server.policy` — :class:`PreconditionerPolicy`
  (stored reuse → warm start → rule table, deterministic via store
  snapshots).
* :mod:`repro.server.telemetry` — :class:`MetricsRegistry` (counters,
  gauges, latency/iteration histograms — optionally labeled — JSON
  snapshots, and the instrument walk behind the Prometheus exposition of
  :mod:`repro.obs.prometheus`).
* :mod:`repro.server.server` — :class:`SolveServer`, the facade with
  submit / await / drain / shutdown semantics and the bounded registry of
  submitted jobs every transport's job lookup reads.
* :mod:`repro.server.http` — :class:`SolveHTTPServer`, the stdlib
  HTTP/JSON adapter (``POST /v1/solve``, ``POST /v1/submit``,
  ``GET /v1/jobs/<id>``, ``GET /v1/metrics``, ``GET /v1/healthz``), on the
  :class:`~repro.server.http.HTTPFrontEnd` lifecycle the fleet router
  shares.
* :mod:`repro.server.cli` — the ``repro-serve`` console entry point
  (one-shot solves, or ``--http`` to serve the wire protocol).
"""

from repro.server.queue import (
    AdmissionError,
    Job,
    JobQueue,
    REJECT_CLOSED,
    REJECT_DRAINING,
    REJECT_INVALID,
    REJECT_QUEUE_FULL,
)
from repro.server.policy import PolicyDecision, PreconditionerPolicy
from repro.server.scheduler import Scheduler
from repro.server.server import SolveServer
from repro.server.http import SolveHTTPServer, TRACE_HEADER
from repro.server.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_label_key,
)

__all__ = [
    "AdmissionError",
    "Job",
    "JobQueue",
    "REJECT_CLOSED",
    "REJECT_DRAINING",
    "REJECT_INVALID",
    "REJECT_QUEUE_FULL",
    "PolicyDecision",
    "PreconditionerPolicy",
    "Scheduler",
    "SolveServer",
    "SolveHTTPServer",
    "TRACE_HEADER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_label_key",
]
