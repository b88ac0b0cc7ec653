"""The ``tune_unseen`` workload: Sec. 4.4 BO rounds on unseen matrices.

Runs in-process through the :mod:`repro.core` tuning API, with no server.
Set-up collects the profile's training grid and trains the pre-BO surrogate;
one operation is one BO round on a matrix left out of training, started from
a fresh copy of the pre-BO model and dataset so sessions are independent.
"""

from __future__ import annotations

import copy
import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from repro.core import (AcquisitionOptimizer, GraphNeuralSurrogate,
                        MatrixEvaluator, SurrogateDataset, Trainer,
                        TrainingConfig,
                        collect_grid_observations)
from repro.exceptions import ReproError
from repro.experiments.pipeline import ExperimentProfile
from repro.krylov.solve import solve
from repro.mcmc.preconditioner import MCMCPreconditioner
from repro.service.cache import ArtifactCache, configure_global_cache
from repro.sparse.fingerprint import matrix_fingerprint

from perfbench import inputs, probes
from perfbench.report import median, peak_rss_mb, solution_ok, tail
from perfbench.serving import Outcome
from perfbench.spans import SpanRecorder

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 2
#: Fewest sessions in an untraced run, whatever ``--seconds`` says.
MIN_SESSIONS = 3
#: Epochs of the BO-enhanced retrain (the profile trains up to 60).  It is
#: also the trainer's minimum, so early stopping never cuts a round short.
RETRAIN_EPOCHS = 10


@dataclass
class Setup:
    """The pre-BO state every session starts from."""

    profile: ExperimentProfile
    dataset: SurrogateDataset
    model: GraphNeuralSurrogate
    training_names: frozenset[str]
    training_fingerprints: frozenset[str]


@dataclass
class Session:
    """One tuning session's measured outcome."""

    name: str
    latency_ms: float
    ok: bool
    best_y: float = 0.0
    best_iterations: float = 0.0
    error: str = ""


def build_setup(profile: ExperimentProfile) -> Setup:
    """Training grid plus pre-BO surrogate, from a cold process-wide cache."""
    configure_global_cache()
    matrices = inputs.training_matrices(profile)
    observations = collect_grid_observations(
        matrices, profile.training_grid(),
        n_replications=profile.n_replications_train,
        settings=profile.solver_settings, seed=profile.seed)
    dataset = SurrogateDataset(observations, matrices)
    config = profile.surrogate.with_dims(
        node_dim=dataset.node_feature_dim, edge_dim=dataset.edge_feature_dim,
        xa_dim=dataset.xa_dim, xm_dim=dataset.xm_dim)
    model = GraphNeuralSurrogate(config)
    Trainer(profile.training).fit(model, dataset)
    model.eval()
    return Setup(profile, dataset, model, frozenset(matrices),
                 frozenset(matrix_fingerprint(m) for m in matrices.values()))


def retrain_config(profile: ExperimentProfile) -> TrainingConfig:
    """The profile's training settings cut to :data:`RETRAIN_EPOCHS`."""
    return dataclasses.replace(profile.training, epochs=RETRAIN_EPOCHS,
                               min_epochs=RETRAIN_EPOCHS)


def run_session(setup: Setup, name: str, matrix, rec: SpanRecorder,
                op: str) -> tuple[Session, dict]:
    """One BO round on ``matrix``; returns the session and its internals."""
    profile = setup.profile
    if (name in setup.training_names
            or matrix_fingerprint(matrix) in setup.training_fingerprints):
        raise RuntimeError(f"tuning target {name} is in the training set")
    model = copy.deepcopy(setup.model)
    dataset = copy.deepcopy(setup.dataset)
    cache = ArtifactCache()
    evaluator = MatrixEvaluator(matrix, name, settings=profile.solver_settings,
                                seed=profile.seed + 1009, cache=cache)
    records, candidates = [], []
    start = time.perf_counter()
    try:
        with rec.span("session", op) as root:
            for index, xi in enumerate(profile.acquisition_xis):
                optimizer = AcquisitionOptimizer(
                    model, dataset, seed=profile.seed + 31 * (index + 1))
                with rec.span("core.propose", op, root):
                    batch = optimizer.propose(
                        matrix, name, y_min=None,
                        n_candidates=profile.bo_batch_size, xi=xi,
                        solver=inputs.TUNE_SOLVER)
                for position, candidate in enumerate(batch):
                    with rec.span("core.evaluate", op, root):
                        records.append(evaluator.evaluate(
                            candidate.parameters,
                            n_replications=profile.n_replications_bo,
                            candidate_index=position))
                candidates.extend(batch)
            dataset.extend([record.to_observation() for record in records],
                           matrices={name: matrix})
            with rec.span("core.train", op, root):
                Trainer(retrain_config(profile)).fit(model, dataset)
            model.eval()
    except ReproError as error:
        return Session(name, (time.perf_counter() - start) * 1e3, False,
                       error=f"{type(error).__name__}: {error}"), {}
    latency = (time.perf_counter() - start) * 1e3
    best = min(records, key=lambda record: record.y_mean)
    session = Session(name, latency, True, best.y_mean,
                      float(np.mean(best.preconditioned_iterations)))
    return session, {"records": records, "best": best, "model": model,
                     "dataset": dataset, "cache": cache,
                     "candidates": candidates}


def check_session(session: Session, matrix, internals: dict,
                  profile: ExperimentProfile) -> None:
    """Oracle: the recommended parameters must solve the target to rtol."""
    if not session.ok:
        return
    parameters = internals["best"].parameters
    preconditioner = MCMCPreconditioner(matrix, parameters,
                                        seed=probes.PROBE_SEED)
    rhs = np.ones(matrix.shape[0])
    settings = profile.solver_settings
    result = solve(matrix, rhs, solver=parameters.solver,
                   preconditioner=preconditioner,
                   **settings.solver_kwargs(parameters.solver,
                                            matrix.shape[0]))
    if not solution_ok(matrix, rhs, result.solution, result.converged,
                       settings.rtol):
        session.ok = False
        session.error = (f"best parameters {parameters.describe()} do not "
                         f"solve {session.name} to rtol {settings.rtol:g}")


def tune_unseen(ctx) -> Outcome:
    """BO rounds on unseen targets until ``ctx.seconds`` of sessions."""
    profile = inputs.tune_profile()
    repeats = 1 if ctx.trace else SETUP_REPEATS
    setup_times = []
    for _ in range(repeats):
        start = time.perf_counter()
        setup = build_setup(profile)
        setup_times.append(time.perf_counter() - start)
    rec = ctx.recorder
    per_layer: dict = {}
    sessions: list[Session] = []
    if ctx.trace:
        name, matrix = inputs.tune_target(ctx.seed, 0, profile)
        untraced, _ = run_session(setup, name, matrix, SpanRecorder(False),
                                  "untraced")
        session, internals = run_session(setup, name, matrix, rec, "s0")
        check_session(session, matrix, internals, profile)
        sessions.append(session)
        per_layer["trace.overhead_ms"] = session.latency_ms - untraced.latency_ms
        if session.ok:
            _probe_tuning(rec, name, matrix, internals, profile, per_layer)
    else:
        timed_s, k = 0.0, 0
        # At least three sessions, so every run tunes the registry target and
        # two seeded variants, and the median is one session's latency.
        while timed_s < ctx.seconds or k < MIN_SESSIONS:
            name, matrix = inputs.tune_target(ctx.seed, k, profile)
            session, internals = run_session(setup, name, matrix, rec, f"s{k}")
            timed_s += session.latency_ms / 1e3
            check_session(session, matrix, internals, profile)
            sessions.append(session)
            k += 1
    good = [s for s in sessions if s.ok]
    latencies = [s.latency_ms for s in sessions]
    tail_info = tail(latencies)
    metrics = {
        "setup_s": median(setup_times),
        "latency_ms.p50": median(latencies),
        "latency_ms.tail": tail_info["value"],
        "throughput_ops_s": len(good) / (sum(latencies) / 1e3),
        "iterations.mean": (float(np.mean([s.best_iterations for s in good]))
                            if good else 0.0),
        "tuned_ratio": (float(np.mean([s.best_y for s in good]))
                        if good else 0.0),
        "peak_rss_mb": peak_rss_mb(),
    }
    return Outcome(
        end_to_end=metrics, per_layer=per_layer, attempted=len(sessions),
        failed=len(sessions) - len(good),
        details={"tail": tail_info, "timed_s": sum(latencies) / 1e3,
                 "operations": len(sessions),
                 "sessions": [{"target": s.name, "latency_ms": s.latency_ms,
                               "best_y": s.best_y} for s in sessions],
                 "errors": sorted({s.error for s in sessions if s.error})})


def _probe_tuning(rec: SpanRecorder, name: str, matrix, internals: dict,
                  profile: ExperimentProfile, per_layer: dict) -> None:
    """Per-layer probes on the traced session's target and best candidate."""
    records = internals["records"]
    rec.sample("core.evaluations", len(records))
    rec.sample("core.useful_ratio",
               sum(record.y_mean < 1.0 for record in records) / len(records))
    optimizer = AcquisitionOptimizer(internals["model"], internals["dataset"],
                                     seed=profile.seed)
    rec.timed("core.predict", "probe", optimizer.predict_parameters, matrix,
              name, [c.parameters for c in internals["candidates"]])
    probes.probe_fingerprint_features(rec, "probe", matrix)
    best = internals["best"].parameters
    settings = profile.solver_settings
    probes.probe_precond_and_solve(
        rec, "probe", matrix, np.ones(matrix.shape[0]), family="mcmc",
        params={"alpha": best.alpha, "eps": best.eps, "delta": best.delta},
        solver=best.solver, rtol=settings.rtol, maxiter=settings.maxiter)
    stats = internals["cache"].stats
    per_layer["cache.hit_ratio"] = stats.hit_rate
    per_layer["cache.evictions"] = stats.evictions
