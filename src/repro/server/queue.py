"""Admission-controlled job queue of the solve server.

The front door of the serving layer: a
:class:`~repro.api.schemas.SolveRequestV1` is validated and either
*admitted* — wrapped in a :class:`Job` the caller can wait on — or
*rejected* with an explicit reason (:class:`AdmissionError`).  Rejection
instead of unbounded buffering is the backpressure mechanism: a server under
heavy traffic sheds load at the door rather than growing its queue until
latency is unbounded.

Semantics
---------
* **Bounded depth** — at most ``max_depth`` jobs may be pending; further
  submissions are rejected with reason ``"queue_full"``.
* **Priorities** — higher ``priority`` pops first; ties preserve submission
  order (FIFO within a priority class), so a seeded request stream is
  processed in a deterministic order.
* **Graceful drain** — :meth:`JobQueue.drain` temporarily closes admission,
  waits until every admitted job has finished, then re-opens; :meth:`close`
  shuts the door permanently (reason ``"closed"``).

The queue itself never executes anything: the scheduler pops batches with
:meth:`pop_batch` and reports completion through :meth:`finish`.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Any

from repro.api.errors import (
    AdmissionError,
    ErrorEnvelope,
    REJECT_CLOSED,
    REJECT_DRAINING,
    REJECT_INVALID,
    REJECT_QUEUE_FULL,
)
from repro.api.schemas import (
    JobStatusV1,
    SolveRequestV1,
    SolveResponseV1,
    validate_request,
)
from repro.logging_utils import get_logger

__all__ = [
    "Job",
    "JobQueue",
    "job_status",
    "AdmissionError",
    "REJECT_QUEUE_FULL",
    "REJECT_CLOSED",
    "REJECT_DRAINING",
    "REJECT_INVALID",
]

_LOG = get_logger("server.queue")

class Job:
    """An admitted request: a waitable handle with result / exception.

    ``submitted_at`` / ``started_at`` / ``finished_at`` are
    ``time.perf_counter()`` stamps (admission, pop by the scheduler,
    completion) — the queue-wait and end-to-end spans of a traced request
    are reconstructed from them.  ``trace_id`` / ``root_span`` carry the
    request's trace across the submit → worker thread boundary; both stay
    ``None`` when tracing is off.
    """

    __slots__ = ("id", "request", "state", "_event", "_result", "_error",
                 "submitted_at", "started_at", "finished_at",
                 "trace_id", "root_span")

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    def __init__(self, job_id: int, request: SolveRequestV1) -> None:
        self.id = job_id
        self.request = request
        self.state = Job.PENDING
        self._event = threading.Event()
        self._result: Any = None
        self._error: Exception | None = None
        self.submitted_at: float | None = None
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.trace_id: str | None = None
        self.root_span = None

    def done(self) -> bool:
        """Whether the job has finished (successfully or not)."""
        return self._event.is_set()

    def exception(self) -> Exception | None:
        """The failure, if any (``None`` while pending/running or on success)."""
        return self._error

    def result(self, timeout: float | None = None):
        """Block until the job finishes and return its result.

        Raises the job's exception when it failed, and :class:`TimeoutError`
        when ``timeout`` elapses first.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"job {self.id} did not finish within {timeout} s")
        if self._error is not None:
            raise self._error
        return self._result

    def _finish(self, result: Any = None,
                error: Exception | None = None) -> None:
        self._result = result
        self._error = error
        self.state = Job.FAILED if error is not None else Job.DONE
        self._event.set()


def job_status(job: Job, *, response_transform=None) -> JobStatusV1:
    """Render a job as its wire status record — shared by every transport.

    The single source of the state → (response | error-envelope) mapping,
    used by both the HTTP adapter (``GET /v1/jobs/<id>``) and
    :meth:`repro.client.InProcessClient.job`, so the two transports cannot
    drift apart.  ``response_transform`` post-processes a finished response
    (the in-process client's wire-fidelity round-trip).
    """
    response = None
    error = None
    if job.done():
        failure = job.exception()
        if failure is not None:
            error = ErrorEnvelope.from_exception(failure)
        else:
            result = job.result(timeout=0)
            if isinstance(result, SolveResponseV1):
                response = (result if response_transform is None
                            else response_transform(result))
    return JobStatusV1(job_id=job.id, state=job.state,
                       response=response, error=error)


class JobQueue:
    """Bounded priority queue with admission control and graceful drain.

    Parameters
    ----------
    max_depth:
        Maximum number of *pending* jobs (running jobs do not count against
        the bound: they already hold their resources).
    """

    def __init__(self, max_depth: int = 256) -> None:
        if max_depth < 1:
            raise AdmissionError(
                REJECT_INVALID, f"max_depth must be >= 1, got {max_depth}")
        self._max_depth = int(max_depth)
        self._heap: list[tuple[int, int, Job]] = []
        self._sequence = itertools.count()
        self._inflight = 0
        self._admitted = 0
        self._closed = False
        self._draining = False
        self._condition = threading.Condition()

    # -- introspection ------------------------------------------------------
    @property
    def max_depth(self) -> int:
        """Pending-depth bound."""
        return self._max_depth

    @property
    def depth(self) -> int:
        """Number of pending (not yet popped) jobs."""
        with self._condition:
            return len(self._heap)

    @property
    def inflight(self) -> int:
        """Number of popped jobs not yet reported finished."""
        with self._condition:
            return self._inflight

    @property
    def admitted(self) -> int:
        """Total jobs admitted over the queue's lifetime."""
        with self._condition:
            return self._admitted

    @property
    def closed(self) -> bool:
        """Whether admission has been shut permanently."""
        with self._condition:
            return self._closed

    def idle(self) -> bool:
        """True when nothing is pending and nothing is in flight."""
        with self._condition:
            return not self._heap and self._inflight == 0

    # -- admission ----------------------------------------------------------
    def submit(self, request: SolveRequestV1, *, trace_id: str | None = None,
               root_span=None) -> Job:
        """Admit ``request`` or raise :class:`AdmissionError` with a reason.

        Validation happens here, at the API boundary (shared with the HTTP
        adapter through :func:`repro.api.schemas.validate_request`):
        malformed requests — non-finite rhs entries, shape mismatches,
        unknown solver/preconditioner names — are rejected with the
        structured ``invalid`` reason instead of crashing a solver later.

        ``trace_id`` / ``root_span`` attach the submitter's trace to the
        job *before* it becomes poppable — the scheduler thread may pick
        the job up the instant the lock is released, so stamping them
        after submit would race.
        """
        validate_request(request)
        with self._condition:
            if self._closed:
                raise AdmissionError(REJECT_CLOSED, "queue is closed")
            if self._draining:
                raise AdmissionError(REJECT_DRAINING, "queue is draining")
            if len(self._heap) >= self._max_depth:
                raise AdmissionError(
                    REJECT_QUEUE_FULL,
                    f"queue depth {len(self._heap)} at its bound "
                    f"{self._max_depth}")
            sequence = next(self._sequence)
            job = Job(sequence, request)
            job.submitted_at = time.perf_counter()
            job.trace_id = trace_id
            job.root_span = root_span
            # Min-heap: negate priority so higher priorities pop first; the
            # sequence number breaks ties FIFO and makes entries totally
            # ordered (Jobs themselves are not comparable).
            heapq.heappush(self._heap, (-request.priority, sequence, job))
            self._admitted += 1
            self._condition.notify_all()
            return job

    # -- scheduler side -----------------------------------------------------
    def pop_batch(self, max_jobs: int | None = None,
                  timeout: float | None = None) -> list[Job]:
        """Pop up to ``max_jobs`` pending jobs in priority order.

        Blocks up to ``timeout`` seconds for at least one job (no blocking
        when ``timeout`` is ``None`` or 0).  Popped jobs are marked RUNNING
        and count as in-flight until :meth:`finish` is called for them.
        """
        with self._condition:
            if not self._heap and timeout:
                self._condition.wait_for(lambda: bool(self._heap) or self._closed,
                                         timeout=timeout)
            batch: list[Job] = []
            limit = len(self._heap) if max_jobs is None else max_jobs
            while self._heap and len(batch) < limit:
                _, _, job = heapq.heappop(self._heap)
                job.state = Job.RUNNING
                job.started_at = time.perf_counter()
                batch.append(job)
            self._inflight += len(batch)
            if batch:
                self._condition.notify_all()
            return batch

    def finish(self, job: Job, result: Any = None,
               error: Exception | None = None) -> None:
        """Report a popped job finished, waking any :meth:`drain` waiters.

        When the job was already completed by the executor (the scheduler
        sets results directly), this only performs the in-flight accounting.
        """
        if not job.done():
            job._finish(result, error)
        with self._condition:
            self._inflight -= 1
            self._condition.notify_all()

    # -- lifecycle ----------------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Gracefully drain: reject new work until everything admitted is done.

        Returns True when the queue went idle within ``timeout`` (admission
        re-opens either way, unless the queue was closed).  Note that the
        queue does not execute jobs itself — a scheduler must keep consuming
        while drain waits, e.g. the server's background worker or its
        fallback inline loop.
        """
        with self._condition:
            self._draining = True
            try:
                idle = self._condition.wait_for(
                    lambda: not self._heap and self._inflight == 0,
                    timeout=timeout)
            finally:
                self._draining = False
                self._condition.notify_all()
            return idle

    def close(self) -> None:
        """Permanently stop admission (pending jobs may still be processed)."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()
        _LOG.debug("queue closed (%d pending, %d inflight)",
                   len(self._heap), self._inflight)
