"""The serving workloads: ``serve_warm`` and ``serve_cold``.

Both drive a ``repro-fleet --replicas 1`` process (router plus one replica
process) started from the checkout's sources, through
:class:`~repro.client.HTTPClient` in closed loops: each client sends its next
request only after the previous reply arrived.
"""

from __future__ import annotations

import collections
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api.schemas import SolveRequestV1, SolveResponseV1
from repro.client.http import HTTPClient
from repro.core.evaluation import SolverSettings
from repro.exceptions import ReproError
from repro.krylov.solve import solve
from repro.matrices import climate_operator, laplacian_2d
from repro.server.policy import (ORIGIN_EXPLICIT, ORIGIN_RULE, ORIGIN_STORED,
                                 ORIGIN_SURROGATE, ORIGIN_WARM_START)
from repro.server.server import SolveServer
from repro.service.cache import ArtifactCache, global_cache

from perfbench import inputs, probes
from perfbench.report import median, peak_rss_mb, solution_ok, tail
from perfbench.spans import SpanRecorder

#: Fleet boots per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 2
#: Closed-loop clients of ``serve_warm`` (one per core of a 2-core host).
WARM_CLIENTS = 2
#: Probe passes over the warm working set in the traced run.
WARM_PROBE_PASSES = 3
#: Solver of every ``serve_warm`` request (the policy still picks the
#: family).  BiCGSTAB stops on the unpreconditioned residual, which is what
#: the oracle recomputes; the policy's default, left-preconditioned GMRES,
#: stops on the preconditioned one and leaves up to ~1.15 rtol on this set.
WARM_SOLVER = "bicgstab"
ORIGINS = (ORIGIN_EXPLICIT, ORIGIN_STORED, ORIGIN_SURROGATE,
           ORIGIN_WARM_START, ORIGIN_RULE)
JSON_HEADERS = {"Content-Type": "application/json"}
#: Bound on any single wait for the fleet (boot, a reply, shutdown).
FLEET_TIMEOUT_S = 120.0


@dataclass
class Op:
    """One timed operation as the client saw it."""

    latency_ms: float
    ok: bool
    iterations: int = 0
    origin: str = ""
    error: str = ""
    label: str = ""


@dataclass
class Outcome:
    """What a workload hands back to the runner."""

    end_to_end: dict
    per_layer: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    details: dict = field(default_factory=dict)


class Fleet:
    """One ``repro-fleet --replicas 1`` process tree started from ``root``."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.process: subprocess.Popen | None = None
        self.router_url = ""
        self.replica_url = ""
        self.replica_pid = 0
        self.output: collections.deque[str] = collections.deque(maxlen=100)
        self._lines: queue.Queue = queue.Queue()
        self._reader: threading.Thread | None = None

    def start(self) -> "Fleet":
        # One malloc arena: with glibc's per-thread arenas the replica's peak
        # RSS varied by ~100 MB between runs of one seed, depending on how
        # health-probe and request threads interleaved.
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"),
                   MALLOC_ARENA_MAX="1")
        # A session of its own lets stop() reach the replica even when the
        # router dies first.
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.fleet.cli", "--replicas", "1",
             "--port", "0"],
            cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + FLEET_TIMEOUT_S
        while not (self.router_url and self.replica_pid):
            try:
                line = self._lines.get(timeout=max(deadline - time.monotonic(),
                                                   0.01))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("repro-fleet did not come up: "
                                   + " | ".join(self.output))
            if match := re.search(r"listening on (\S+)", line):
                self.router_url = match.group(1)
            if match := re.search(r"replica-0 on (\S+) \(pid (\d+)\)", line):
                self.replica_url, self.replica_pid = (match.group(1),
                                                      int(match.group(2)))
        return self

    def _read(self) -> None:
        for line in self.process.stdout:
            self.output.append(line.rstrip())
            self._lines.put(line)
        self._lines.put(None)

    def stop(self) -> None:
        """SIGTERM the router (which drains the replica); kill on timeout."""
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=FLEET_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        if self._reader is not None:
            self._reader.join(timeout=FLEET_TIMEOUT_S)
        self.process = None
        self._await_replica_exit()

    def _await_replica_exit(self) -> None:
        """Wait (bounded) until the replica, a grandchild, has gone."""
        deadline = time.monotonic() + 10.0
        while self.replica_pid and time.monotonic() < deadline:
            stat = f"/proc/{self.replica_pid}/stat"
            try:
                with open(stat, encoding="ascii") as handle:
                    state = handle.read().rsplit(")", 1)[1].split()[0]
            except (FileNotFoundError, ProcessLookupError):
                return
            if state == "Z":  # exited; its new parent has not reaped it yet
                return
            time.sleep(0.05)


def _client(url: str) -> HTTPClient:
    return HTTPClient(url, timeout=FLEET_TIMEOUT_S)


def _send(client: HTTPClient, request: SolveRequestV1, rec: SpanRecorder,
          op: str) -> SolveResponseV1:
    """``client.solve(request)``; traced, split into its codec and HTTP parts."""
    if not rec.enabled:
        return client.solve(request)
    with rec.span("request", op) as root:
        with rec.span("api.encode_request", op, root):
            body = json.dumps(request.to_json_dict()).encode("utf-8")
        with rec.span("client.exchange", op, root):
            reply = client.exchange_raw("POST", "/v1/solve", body=body,
                                        headers=JSON_HEADERS)
        if reply.status >= 400:
            raise ReproError(f"HTTP {reply.status}: {reply.body[:200]!r}")
        with rec.span("api.decode_response", op, root):
            return SolveResponseV1.from_json_dict(
                json.loads(reply.body.decode("utf-8")))


def _serve_one(client, request, rec, op) -> tuple[Op, SolveResponseV1 | None]:
    start = time.perf_counter()
    try:
        response = _send(client, request, rec, op)
    except ReproError as error:
        return Op((time.perf_counter() - start) * 1e3, False,
                  error=f"{type(error).__name__}: {error}"), None
    latency = (time.perf_counter() - start) * 1e3
    ok = solution_ok(request.matrix, request.rhs, response.solution,
                     response.converged, request.rtol)
    return Op(latency, ok, response.iterations,
              response.provenance.origin), response


def _cache_stats(replica_url: str) -> dict:
    return dict(_client(replica_url).metrics().artifact_cache)


def _cache_delta(before: dict, after: dict) -> dict:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {"cache.hit_ratio": hits / max(hits + misses, 1),
            "cache.evictions": after["evictions"] - before["evictions"]}


def _baseline_ratio(systems) -> float:
    """Mean of served ÷ unpreconditioned iterations over ``systems``.

    ``systems`` holds ``(request, served iterations)``; the unpreconditioned
    solve uses the request's solver and the server's solver settings, and
    counts ``maxiter`` when it does not converge, as the tuning layer's
    metric does.
    """
    ratios = []
    for request, iterations in systems:
        settings = SolverSettings(rtol=request.rtol, maxiter=request.maxiter)
        result = solve(request.matrix, request.rhs, solver=request.solver,
                       **settings.solver_kwargs(request.solver,
                                                request.matrix.shape[0]))
        baseline = result.iterations if result.converged else request.maxiter
        ratios.append(iterations / max(baseline, 1))
    return float(np.mean(ratios))


def _end_to_end(ops: list[Op], timed_s: float, setup_s: float,
                tuned_ratio: float, rss_mb: float) -> tuple[dict, dict]:
    latencies = [op.latency_ms for op in ops]
    ok_iterations = [op.iterations for op in ops if op.ok]
    tail_info = tail(latencies)
    metrics = {
        "setup_s": setup_s,
        "latency_ms.p50": median(latencies),
        "latency_ms.tail": tail_info["value"],
        "throughput_ops_s": sum(op.ok for op in ops) / timed_s,
        "iterations.mean": float(np.mean(ok_iterations)) if ok_iterations else 0.0,
        "tuned_ratio": tuned_ratio,
        "peak_rss_mb": rss_mb,
    }
    return metrics, tail_info


def _errors(ops: list[Op]) -> list[str]:
    return sorted({op.error for op in ops if op.error})[:5]


def _boot(ctx, warm_up) -> tuple[Fleet, float, list]:
    """Boot a fleet and run ``warm_up``; repeated, the last one is kept."""
    repeats = 1 if ctx.trace else SETUP_REPEATS
    times = []
    for attempt in range(repeats):
        start = time.perf_counter()
        fleet = Fleet(ctx.root).start()
        try:
            warm_results = warm_up(fleet)
        except BaseException:
            fleet.stop()
            raise
        times.append(time.perf_counter() - start)
        if attempt + 1 < repeats:
            fleet.stop()
    return fleet, median(times), warm_results


# -- serve_warm ---------------------------------------------------------------

def _warm_loop(router_url: str, matrices, seed: int, seconds: float,
               rec: SpanRecorder) -> tuple[list[Op], float]:
    sizes = [matrix.shape[0] for matrix in matrices]
    ops: list[Op] = []
    start = time.perf_counter()
    deadline = start + seconds

    def run_client(index: int) -> None:
        client = _client(router_url)
        k = 0
        while time.perf_counter() < deadline:
            matrix_index, rhs = inputs.warm_request(seed, index, k, sizes)
            request = SolveRequestV1(matrix=matrices[matrix_index], rhs=rhs,
                                     solver=WARM_SOLVER)
            ops.append(_serve_one(client, request, rec, f"c{index}-{k}")[0])
            k += 1

    threads = [threading.Thread(target=run_client, args=(index,))
               for index in range(WARM_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + FLEET_TIMEOUT_S)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a serve_warm client did not finish")
    return ops, time.perf_counter() - start


def _fixed_requests(seed: int, matrices) -> list[SolveRequestV1]:
    return [SolveRequestV1(matrix=matrix,
                           rhs=inputs.warm_fixed_rhs(seed, index,
                                                     matrix.shape[0]),
                           solver=WARM_SOLVER)
            for index, matrix in enumerate(matrices)]


def serve_warm(ctx) -> Outcome:
    """Cache-hit serving of an 8-matrix working set by two closed-loop clients."""
    matrices = inputs.warm_working_set(ctx.seed)
    fixed = _fixed_requests(ctx.seed, matrices)

    def warm_up(fleet: Fleet) -> list:
        client = _client(fleet.router_url)
        return [_serve_one(client, request, SpanRecorder(False), "warm-up")
                for request in fixed]

    fleet, setup_s, start_results = _boot(ctx, warm_up)
    try:
        return _serve_warm_measure(ctx, fleet, setup_s, matrices, fixed,
                                   start_results)
    finally:
        fleet.stop()


def _serve_warm_measure(ctx, fleet, setup_s, matrices, fixed,
                        start_results) -> Outcome:
    rec = ctx.recorder
    per_layer: dict = {}
    if ctx.trace:
        untraced, _ = _warm_loop(fleet.router_url, matrices, ctx.seed,
                                 ctx.seconds / 2, SpanRecorder(False))
        before = _cache_stats(fleet.replica_url)
        ops, timed_s = _warm_loop(fleet.router_url, matrices, ctx.seed,
                                  ctx.seconds / 2, rec)
        per_layer.update(_cache_delta(before, _cache_stats(fleet.replica_url)))
        per_layer.update(_origin_shares(ops))
        per_layer["trace.overhead_ms"] = (
            median([op.latency_ms for op in ops])
            - median([op.latency_ms for op in untraced]))
        _probe_serving(rec, fleet, fixed, warm=True)
    else:
        ops, timed_s = _warm_loop(fleet.router_url, matrices, ctx.seed,
                                  ctx.seconds, rec)
    # Determinism oracle: the fixed requests served again after the run must
    # reproduce the warm-up answers bit for bit.
    client = _client(fleet.router_url)
    end_ops = []
    for request, (_, start_response) in zip(fixed, start_results):
        op, response = _serve_one(client, request, SpanRecorder(False), "end")
        if start_response is None or response is None or (
                start_response.solution.tobytes()
                != response.solution.tobytes()):
            op.ok = False
            op.error = op.error or "solution changed between start and end"
        end_ops.append(op)
    rss = peak_rss_mb(fleet.replica_pid)
    tuned = _baseline_ratio([(request, op.iterations)
                             for request, (op, _) in zip(fixed, start_results)])
    metrics, tail_info = _end_to_end(ops, timed_s, setup_s, tuned, rss)
    checked = ops + end_ops + [op for op, _ in start_results]
    return Outcome(
        end_to_end=metrics, per_layer=per_layer,
        attempted=len(checked), failed=sum(not op.ok for op in checked),
        details={"tail": tail_info, "timed_s": timed_s,
                 "operations": len(ops), "errors": _errors(checked)})


def _origin_shares(ops: list[Op]) -> dict:
    origins = collections.Counter(op.origin for op in ops if op.ok)
    total = max(sum(origins.values()), 1)
    return {f"policy.origin.{origin}": origins[origin] / total
            for origin in ORIGINS}


# -- serve_cold ---------------------------------------------------------------

def _cold_warm_up_requests() -> list[SolveRequestV1]:
    """One tiny request per (generator, family, solver) of the cold cycle.

    They load every code path ``serve_cold`` uses before timing starts, on
    matrices far smaller than (and distinct from) the timed ones.
    """
    requests = []
    combos = sorted({(generator, family, solver)
                     for generator, _, family, solver in inputs.COLD_CYCLE})
    for generator, family, solver in combos:
        matrix = (climate_operator(4, 4, 4, seed=1) if generator == "climate"
                  else laplacian_2d(12))
        requests.append(SolveRequestV1(matrix=matrix,
                                       rhs=np.ones(matrix.shape[0]),
                                       preconditioner=family, solver=solver))
    return requests


def _cold_loop(client: HTTPClient, seed: int, first: int, seconds: float,
               rec: SpanRecorder) -> tuple[list[Op], float, list, int]:
    """Whole cycles of cold requests until ``seconds`` of timed work.

    Inputs of a cycle are generated before it, outside the timed phase.
    Returns the ops, the timed seconds, ``(request, op)`` pairs and the next
    request index.
    """
    ops: list[Op] = []
    served: list = []
    timed_s, k = 0.0, first
    while timed_s < seconds:
        cycle = [inputs.cold_request(seed, k + i)
                 for i in range(len(inputs.COLD_CYCLE))]
        start = time.perf_counter()
        for offset, cold in enumerate(cycle):
            request = SolveRequestV1(matrix=cold.matrix, rhs=cold.rhs,
                                     preconditioner=cold.family,
                                     solver=cold.solver)
            op, _ = _serve_one(client, request, rec, f"k{k + offset}")
            op.label = cold.label
            ops.append(op)
            served.append((request, op))
        timed_s += time.perf_counter() - start
        k += len(cycle)
    return ops, timed_s, served, k


def serve_cold(ctx) -> Outcome:
    """Never-seen matrices, explicit MCMC / ILU(0) / IC(0), one client."""
    warm_up_requests = _cold_warm_up_requests()

    def warm_up(fleet: Fleet) -> list:
        client = _client(fleet.router_url)
        results = [_serve_one(client, request, SpanRecorder(False), "warm-up")
                   for request in warm_up_requests]
        if not all(op.ok for op, _ in results):
            raise RuntimeError("serve_cold warm-up failed: "
                               f"{_errors([op for op, _ in results])}")
        return results

    fleet, setup_s, _ = _boot(ctx, warm_up)
    try:
        return _serve_cold_measure(ctx, fleet, setup_s)
    finally:
        fleet.stop()


def _serve_cold_measure(ctx, fleet, setup_s) -> Outcome:
    rec = ctx.recorder
    client = _client(fleet.router_url)
    per_layer: dict = {}
    if ctx.trace:
        untraced, _, _, first = _cold_loop(client, ctx.seed, 0,
                                           ctx.seconds / 2, SpanRecorder(False))
        before = _cache_stats(fleet.replica_url)
        ops, timed_s, served, _ = _cold_loop(client, ctx.seed, first,
                                             ctx.seconds / 2, rec)
        per_layer.update(_cache_delta(before, _cache_stats(fleet.replica_url)))
        per_layer.update(_origin_shares(ops))
        per_layer["trace.overhead_ms"] = (
            median([op.latency_ms for op in ops])
            - median([op.latency_ms for op in untraced]))
        _probe_serving(rec, fleet, [request for request, _ in
                                    served[:len(inputs.COLD_CYCLE)]],
                       warm=False)
    else:
        ops, timed_s, served, _ = _cold_loop(client, ctx.seed, 0, ctx.seconds,
                                             rec)
    rss = peak_rss_mb(fleet.replica_pid)
    tuned = _baseline_ratio([(request, op.iterations)
                             for request, op in served])
    metrics, tail_info = _end_to_end(ops, timed_s, setup_s, tuned, rss)
    return Outcome(
        end_to_end=metrics, per_layer=per_layer,
        attempted=len(ops), failed=sum(not op.ok for op in ops),
        details={"tail": tail_info, "timed_s": timed_s,
                 "operations": len(ops), "errors": _errors(ops),
                 "latency_ms_by_template": _by_label(ops)})


def _by_label(ops: list[Op]) -> dict:
    groups: dict[str, list[float]] = collections.defaultdict(list)
    for op in ops:
        groups[op.label].append(op.latency_ms)
    return {label: median(values) for label, values in sorted(groups.items())}


# -- per-layer probes of the serving path -------------------------------------

def _probe_serving(rec: SpanRecorder, fleet: Fleet,
                   requests: list[SolveRequestV1], *, warm: bool) -> None:
    """Drive the run's own requests through each serving layer in-process.

    ``warm`` pre-builds every preconditioner of the in-process server, as
    the replica's warm-up did; otherwise each probe solve builds, as the
    cold replica did.
    """
    server = SolveServer(cache=ArtifactCache(global_cache().max_entries),
                         background=False, record_observations=False)
    router, replica = _client(fleet.router_url), _client(fleet.replica_url)
    passes = WARM_PROBE_PASSES if warm else 1
    try:
        if warm:
            for request in requests:
                server.solve(request)
        for probe_pass in range(passes):
            for index, request in enumerate(requests):
                _probe_request(rec, f"probe{probe_pass}-{index}", request,
                               server, router, replica)
    finally:
        server.shutdown()


def _probe_request(rec, op, request, server, router, replica) -> None:
    body = json.dumps(request.to_json_dict()).encode("utf-8")
    decoded, _ = rec.timed("api.decode_request", op, lambda: (
        SolveRequestV1.from_json_dict(json.loads(body.decode("utf-8")))))
    fingerprint = probes.probe_fingerprint_features(rec, op, decoded.matrix)
    decision = probes.probe_policy(rec, op, decoded.matrix, fingerprint,
                                   solver=decoded.solver,
                                   family=decoded.preconditioner)
    response, _ = rec.timed("server.solve", op, server.solve, decoded)
    rec.timed("api.encode_response", op, lambda: (
        json.dumps(response.to_json_dict()).encode("utf-8")))
    probes.probe_precond_and_solve(
        rec, op, decoded.matrix, decoded.rhs, family=decision.family,
        params=dict(decision.params), solver=decision.solver,
        rtol=decoded.rtol, maxiter=decoded.maxiter)
    rec.timed("client.rtt", op, replica.exchange_raw, "GET", "/v1/healthz")
    # The same (now cached) request routed and direct: the router hop.
    _, routed_ms = rec.timed("fleet.routed", op, router.exchange_raw, "POST",
                             "/v1/solve", body=body, headers=JSON_HEADERS)
    _, direct_ms = rec.timed("fleet.direct", op, replica.exchange_raw, "POST",
                             "/v1/solve", body=body, headers=JSON_HEADERS)
    rec.sample("fleet.hop_ms", routed_ms - direct_ms)
