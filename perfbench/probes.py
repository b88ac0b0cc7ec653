"""Per-layer probes: the traced run's calls into each layer's public API.

Each probe drives one input through one layer's public function inside a
span (or records an exact count as a sample), so the per-layer numbers come
from the same inputs as the end-to-end operations they break down.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from repro.krylov.solve import solve
from repro.matrices.features import feature_vector, structural_flags
from repro.mcmc.inversion import DEFAULT_DROP_TOLERANCE, DEFAULT_FILL_MULTIPLE
from repro.mcmc.parameters import MCMCParameters
from repro.mcmc.walks import TransitionTable, WalkEngine
from repro.obs.phases import (PHASE_MATVEC, PHASE_ORTHO, PHASE_PRECOND,
                              record_phases)
from repro.parallel.partition import partition_by_weight
from repro.parallel.rng import TaskRNGFactory
from repro.precond.factory import make_preconditioner
from repro.server.policy import PreconditionerPolicy
from repro.sparse.csr import fill_factor, truncate_to_fill_factor
from repro.sparse.fingerprint import matrix_fingerprint
from repro.sparse.splitting import jacobi_splitting

from perfbench.spans import SpanRecorder

#: Applications per preconditioner apply probe.
APPLY_REPEATS = 5
#: Mirrors the caps ``estimate_inverse`` applies by default.
CHAIN_CAP, WALK_LENGTH_CAP = 10_000, 512
#: Dense entries one row block of ``estimate_inverse`` may hold.
DENSE_BLOCK_ENTRIES = 5_000_000
#: Seed of the probe builds of stochastic (MCMC) preconditioners.
PROBE_SEED = 7


def probe_fingerprint_features(rec: SpanRecorder, op: str, matrix) -> str:
    """``sparse.fingerprint`` and ``matrices.features``; returns the fingerprint."""
    with rec.span("sparse.fingerprint", op):
        fingerprint = matrix_fingerprint(matrix)
    with rec.span("matrices.features", op):
        feature_vector(matrix)
    return fingerprint


def probe_policy(rec: SpanRecorder, op: str, matrix, fingerprint: str, *,
                 solver: str | None, family: str | None):
    """``matrices.flags`` and ``policy.decide`` (store-less policy, as served)."""
    with rec.span("matrices.flags", op):
        structural_flags(matrix)
    policy = PreconditionerPolicy()
    with rec.span("policy.decide", op):
        return policy.decide(matrix, fingerprint, solver=solver,
                             preconditioner=family)


def build_kwargs(family: str, params: dict, solver: str) -> dict:
    """Factory keywords of a policy decision's family and params."""
    if family != "mcmc":
        return dict(params)
    return {"parameters": MCMCParameters(alpha=float(params["alpha"]),
                                         eps=float(params["eps"]),
                                         delta=float(params["delta"]),
                                         solver=solver),
            "seed": PROBE_SEED}


def probe_precond_and_solve(rec: SpanRecorder, op: str, matrix, rhs, *,
                            family: str, params: dict, solver: str,
                            rtol: float, maxiter: int) -> None:
    """Build and apply one preconditioner, then a phase-timed Krylov solve."""
    kwargs = build_kwargs(family, params, solver)
    preconditioner, build_ms = rec.timed(f"precond.build.{family}", op,
                                         make_preconditioner, family, matrix,
                                         **kwargs)
    for _ in range(APPLY_REPEATS):
        rec.timed(f"precond.apply.{family}", op, preconditioner.apply, rhs)
    solve_kwargs = {"rtol": rtol, "maxiter": maxiter}
    if solver == "gmres":
        solve_kwargs["restart"] = min(matrix.shape[0], maxiter)
    with record_phases() as phases:
        result = solve(matrix, rhs, solver=solver,
                       preconditioner=preconditioner, **solve_kwargs)
    seconds = phases.as_dict()
    rec.sample("krylov.iterations", result.iterations)
    rec.sample("krylov.matvecs", result.matvecs)
    rec.sample("krylov.matvec_ms", seconds.get(PHASE_MATVEC, 0.0) * 1e3)
    rec.sample("krylov.precond_ms", seconds.get(PHASE_PRECOND, 0.0) * 1e3)
    rec.sample("krylov.orthogonalize_ms", seconds.get(PHASE_ORTHO, 0.0) * 1e3)
    if family == "mcmc":
        probe_mcmc_phases(rec, op, matrix, kwargs["parameters"],
                          build_ms=build_ms, report=preconditioner.report)


def probe_mcmc_phases(rec: SpanRecorder, op: str, matrix,
                      parameters: MCMCParameters, *, build_ms: float,
                      report) -> None:
    """MCMC build phases on the inputs of one ``estimate_inverse`` build.

    Splitting, transition table, walks and truncation are timed through
    their public functions.  Accumulation (scaling, dropping and CSR
    assembly of the walk estimates) has no public entry point, so it is the
    build's time minus the four timed phases.  ``build_ms`` and ``report``
    come from the build of the same matrix and parameters.
    """
    n = matrix.shape[0]
    split, splitting_ms = rec.timed("mcmc.splitting", op, jacobi_splitting,
                                    matrix, parameters.alpha)
    table, table_ms = rec.timed("mcmc.table", op, TransitionTable,
                                split.iteration_matrix)
    engine = WalkEngine(table, weight_cutoff=parameters.delta,
                        max_steps=parameters.max_walk_length(
                            split.norm_inf_b, cap=WALK_LENGTH_CAP))
    chains = parameters.num_chains(cap=CHAIN_CAP)
    n_tasks = max(1, math.ceil(n * n / DENSE_BLOCK_ENTRIES))
    blocks = partition_by_weight(np.maximum(table.row_nnz, 1), n_tasks)
    rngs = TaskRNGFactory(PROBE_SEED)
    inverse_diagonal = 1.0 / split.diagonal
    estimates, walks_ms = [], 0.0
    for block in blocks:
        (rows, _), block_ms = rec.timed(
            "mcmc.walks", op, engine.estimate_rows, block.indices(), chains,
            rngs.for_task(block.task_id))
        walks_ms += block_ms
        # Untimed: the truncation probe below needs the assembled estimate.
        rows *= inverse_diagonal[None, :]
        rows[np.abs(rows) < DEFAULT_DROP_TOLERANCE] = 0.0
        estimates.append(sp.csr_matrix(rows))
    untruncated = sp.vstack(estimates, format="csr")
    target = min(max(DEFAULT_FILL_MULTIPLE * fill_factor(matrix), 1.0 / n), 1.0)
    _, truncate_ms = rec.timed("mcmc.truncate", op, truncate_to_fill_factor,
                               untruncated, target)
    rec.sample("mcmc.walks_ms", walks_ms)
    rec.sample("mcmc.accumulate_ms", build_ms - splitting_ms - table_ms
               - walks_ms - truncate_ms)
    rec.sample("mcmc.walk_steps", report.statistics.total_steps)
    rec.sample("mcmc.dense_bytes", sum(block.size for block in blocks) * n * 8)
    rec.sample("mcmc.keep_ratio", report.nnz_after_truncation
               / max(report.nnz_before_truncation, 1))
