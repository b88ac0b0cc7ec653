"""In-process implementation of the :class:`~repro.client.base.Client` ABC.

Wraps a :class:`~repro.server.server.SolveServer` directly — no sockets, no
serialisation cost — while still honouring the wire contract.  With
``wire_fidelity=True`` (the default) every request and response is
round-tripped through the JSON codec before/after serving, so the in-process
client observes *exactly* the bytes-equivalent payloads an HTTP client
observes; because the codec is lossless this costs a copy, never a bit.
That is what makes the cross-transport equivalence test meaningful rather
than vacuous.
"""

from __future__ import annotations

from repro.api.errors import ERROR_NOT_FOUND, ErrorEnvelope
from repro.api.schemas import (
    JobStatusV1,
    SolveRequestV1,
    SolveResponseV1,
    TelemetrySnapshot,
)
from repro.client.base import Client
from repro.server.queue import job_status
from repro.server.server import SolveServer

__all__ = ["InProcessClient"]


class InProcessClient(Client):
    """Talk to a :class:`SolveServer` living in the same process.

    Parameters
    ----------
    server:
        The server to wrap; a fresh one (owned, shut down on :meth:`close`)
        is built from ``server_kwargs`` when ``None``.
    wire_fidelity:
        Round-trip requests and responses through the JSON codec so this
        client sees exactly what a wire client sees (lossless; default on).
    server_kwargs:
        Forwarded to :class:`SolveServer` when it is owned.
    """

    def __init__(self, server: SolveServer | None = None, *,
                 wire_fidelity: bool = True, **server_kwargs) -> None:
        self._owns_server = server is None
        self.server = SolveServer(**server_kwargs) if server is None else server
        self.wire_fidelity = bool(wire_fidelity)

    def _round_trip_request(self, request: SolveRequestV1) -> SolveRequestV1:
        if not self.wire_fidelity:
            return request
        return SolveRequestV1.from_json_dict(request.to_json_dict())

    def _round_trip_response(self, response: SolveResponseV1) -> SolveResponseV1:
        if not self.wire_fidelity:
            return response
        return SolveResponseV1.from_json_dict(response.to_json_dict())

    # -- Client API ----------------------------------------------------------
    def solve(self, request: SolveRequestV1) -> SolveResponseV1:
        """Serve one request synchronously through the wrapped server."""
        response = self.server.solve(self._round_trip_request(request))
        return self._round_trip_response(response)

    def submit(self, request: SolveRequestV1) -> int:
        """Queue one request; returns the job id for :meth:`job`/:meth:`result`."""
        return self.server.submit(self._round_trip_request(request)).id

    def job(self, job_id: int) -> JobStatusV1:
        """Status of a job submitted to the wrapped server."""
        job = self.server.find_job(job_id)
        if job is None:
            # Same behaviour as a remote 404: raise through the envelope so
            # transport-blind callers catch one exception type.
            ErrorEnvelope(code=ERROR_NOT_FOUND,
                          message=f"no such job {job_id}").raise_()
        return job_status(job, response_transform=self._round_trip_response)

    def metrics(self) -> TelemetrySnapshot:
        """The wrapped server's telemetry snapshot."""
        return TelemetrySnapshot.from_snapshot(
            self.server.telemetry_snapshot())

    def metrics_prometheus(self) -> str:
        """The wrapped server's metrics in Prometheus text format."""
        return self.server.prometheus_metrics()

    def health(self) -> dict:
        """Liveness + queue state, shaped like ``GET /v1/healthz``."""
        return self.server.health_snapshot()

    def drain(self, timeout: float | None = 60.0) -> bool:
        """Complete everything admitted on the wrapped server."""
        return self.server.drain(timeout=timeout)

    def close(self) -> None:
        """Shut the wrapped server down when this client owns it."""
        if self._owns_server:
            self.server.shutdown()
