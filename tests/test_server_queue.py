"""Tests for the admission queue and the telemetry registry."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import SolveRequestV1
from repro.exceptions import ParameterError
from repro.matrices import laplacian_2d
from repro.server.queue import (
    AdmissionError,
    Job,
    JobQueue,
    REJECT_CLOSED,
    REJECT_DRAINING,
    REJECT_INVALID,
    REJECT_QUEUE_FULL,
)
from repro.server.telemetry import Histogram, MetricsRegistry


def _request(**kwargs) -> SolveRequestV1:
    kwargs.setdefault("matrix", laplacian_2d(4))
    return SolveRequestV1(**kwargs)


class TestAdmission:
    def test_submit_returns_pending_job(self):
        queue = JobQueue(max_depth=4)
        job = queue.submit(_request(tag="x"))
        assert job.state == Job.PENDING
        assert not job.done()
        assert queue.depth == 1
        assert queue.admitted == 1

    def test_queue_full_rejection(self):
        queue = JobQueue(max_depth=2)
        queue.submit(_request())
        queue.submit(_request())
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit(_request())
        assert excinfo.value.reason == REJECT_QUEUE_FULL
        # popping frees depth, admission resumes
        queue.pop_batch(1)
        queue.submit(_request())

    def test_closed_rejection(self):
        queue = JobQueue(max_depth=2)
        queue.close()
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit(_request())
        assert excinfo.value.reason == REJECT_CLOSED

    def test_unknown_registry_name_rejected(self):
        queue = JobQueue()
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit(SolveRequestV1(matrix="no_such_matrix"))
        assert excinfo.value.reason == REJECT_INVALID

    def test_rectangular_matrix_rejected(self):
        queue = JobQueue()
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit(SolveRequestV1(matrix=sp.random(3, 4, density=0.5)))
        assert excinfo.value.reason == REJECT_INVALID

    def test_rhs_length_mismatch_rejected(self):
        queue = JobQueue()
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit(_request(rhs=np.ones(7)))
        assert excinfo.value.reason == REJECT_INVALID

    def test_registry_rhs_checked_against_published_dimension(self):
        queue = JobQueue()
        with pytest.raises(AdmissionError):
            queue.submit(SolveRequestV1(matrix="2DFDLaplace_16",
                                        rhs=np.ones(7)))
        queue.submit(SolveRequestV1(matrix="2DFDLaplace_16",
                                    rhs=np.ones(225)))

    def test_invalid_limits_rejected(self):
        queue = JobQueue()
        with pytest.raises(AdmissionError):
            queue.submit(_request(rtol=2.0))
        with pytest.raises(AdmissionError):
            queue.submit(_request(maxiter=0))


class TestPriorities:
    def test_priority_order_then_fifo(self):
        queue = JobQueue()
        low = queue.submit(_request(priority=0, tag="low"))
        high = queue.submit(_request(priority=5, tag="high"))
        mid_a = queue.submit(_request(priority=3, tag="mid_a"))
        mid_b = queue.submit(_request(priority=3, tag="mid_b"))
        batch = queue.pop_batch()
        assert [job.request.tag for job in batch] == \
            ["high", "mid_a", "mid_b", "low"]
        assert all(job.state == Job.RUNNING for job in batch)
        assert low is batch[-1] and high is batch[0]

    def test_pop_batch_respects_max_jobs(self):
        queue = JobQueue()
        for index in range(5):
            queue.submit(_request(tag=str(index)))
        batch = queue.pop_batch(2)
        assert len(batch) == 2
        assert queue.depth == 3
        assert queue.inflight == 2


class TestDrainAndFinish:
    def test_finish_completes_job_and_wakes_drain(self):
        queue = JobQueue()
        job = queue.submit(_request())
        [popped] = queue.pop_batch()

        def worker():
            queue.finish(popped, result="answer")

        thread = threading.Thread(target=worker)
        thread.start()
        assert queue.drain(timeout=5.0)
        thread.join()
        assert job.result(timeout=1.0) == "answer"
        assert job.state == Job.DONE
        assert queue.idle()

    def test_drain_rejects_submissions_while_waiting(self):
        queue = JobQueue()
        queue.submit(_request())
        [popped] = queue.pop_batch()
        rejected: list[str] = []
        started = threading.Event()

        def drainer():
            started.set()
            queue.drain(timeout=5.0)

        def late_submitter():
            started.wait()
            # Wait until drain() is actually blocking on the condition.
            for _ in range(100):
                try:
                    queue.submit(_request())
                    return
                except AdmissionError as error:
                    rejected.append(error.reason)
                    break

        drain_thread = threading.Thread(target=drainer)
        drain_thread.start()
        started.wait()
        submit_thread = threading.Thread(target=late_submitter)
        submit_thread.start()
        submit_thread.join()
        queue.finish(popped)
        drain_thread.join()
        if rejected:  # timing-dependent, but when rejected the reason is right
            assert rejected == [REJECT_DRAINING]
        # admission re-opens after drain
        queue.submit(_request())

    def test_failed_job_raises_from_result(self):
        queue = JobQueue()
        job = queue.submit(_request())
        [popped] = queue.pop_batch()
        queue.finish(popped, error=RuntimeError("boom"))
        assert job.state == Job.FAILED
        assert isinstance(job.exception(), RuntimeError)
        with pytest.raises(RuntimeError):
            job.result(timeout=1.0)

    def test_result_timeout(self):
        queue = JobQueue()
        job = queue.submit(_request())
        with pytest.raises(TimeoutError):
            job.result(timeout=0.01)


class TestTelemetry:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        counter.add()
        counter.add(4)
        assert counter.value == 5
        with pytest.raises(ParameterError):
            counter.add(-1)

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3)
        gauge.add(-1)
        assert gauge.value == 2.0

    def test_histogram_summary_and_quantiles(self):
        histogram = Histogram("latency")
        for value in range(1, 101):
            histogram.observe(float(value))
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1.0 and summary["max"] == 100.0
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p95"] == pytest.approx(95.05)
        assert histogram.quantile(0.0) == 1.0
        with pytest.raises(ParameterError):
            histogram.quantile(1.5)

    def test_histogram_caps_samples_but_keeps_exact_count(self):
        histogram = Histogram("capped", max_samples=10)
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.summary()["max"] == 99.0

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("a").add(2)
        registry.gauge("b").set(1.5)
        registry.histogram("c")  # empty -> NaNs must map to null
        blob = registry.to_json()
        parsed = json.loads(blob)
        assert parsed["counters"]["a"] == 2
        assert parsed["histograms"]["c"]["mean"] is None

    def test_instruments_created_once(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")
