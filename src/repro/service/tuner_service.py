"""Batch tuning front-end over the store, the cache and the evaluators.

:class:`TuningService` is the serving layer of the reproduction: hand it a
batch of matrices (with per-request budgets) and it returns a recommended
parameter vector per matrix, measuring as little as possible:

1. **Exact reuse** — observations already stored for the matrix's content
   fingerprint cost nothing and count against the budget first.
2. **Warm start** — for a matrix the store has never seen, the nearest
   registered neighbour (in the cheap feature space of
   :func:`repro.matrices.features.feature_vector`, standardised across the
   store) donates its best-performing parameter vectors as the first
   candidates to measure.
3. **Exploration** — any remaining budget is filled with seeded uniform
   samples from the parameter box.

Measurements run through :class:`~repro.core.evaluation.MatrixEvaluator`
instances that share one :class:`~repro.service.cache.ArtifactCache` (so
requests over the same matrix share ``TransitionTable`` builds) and persist
into the same :class:`~repro.service.store.ObservationStore` (so every request
makes future requests cheaper).  The batch is scheduled through a
:class:`~repro.parallel.Executor`; with a process executor the workers append
into the same on-disk store and :meth:`ObservationStore.reload` merges their
writes back into the parent's view.

Every recommendation carries provenance: where the winning parameters came
from (stored observation, neighbour warm start, or fresh sample), which
neighbour was used and at what feature distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.evaluation import (
    MatrixEvaluator,
    PerformanceRecord,
    SolverSettings,
)
from repro.exceptions import ParameterError
from repro.logging_utils import get_logger
from repro.matrices.features import feature_vector, nearest_feature_neighbour
from repro.mcmc.parameters import (
    DEFAULT_BOUNDS,
    MCMCParameters,
    ParameterBounds,
    sample_parameters,
)
from repro.parallel.executor import Executor, SerialExecutor
from repro.service.cache import ArtifactCache, global_cache
from repro.service.store import ObservationStore, parameter_hash
from repro.sparse.fingerprint import matrix_fingerprint

__all__ = ["TuningRequest", "Recommendation", "TuningResult", "TuningService"]

_LOG = get_logger("service.tuner")

#: Candidate origins recorded in the provenance of each recommendation.
ORIGIN_STORED = "stored"
ORIGIN_WARM_START = "warm_start"
ORIGIN_SAMPLED = "sampled"


@dataclass(frozen=True)
class TuningRequest:
    """One matrix to tune, with its evaluation budget."""

    matrix: sp.spmatrix
    name: str
    budget: int = 8
    n_replications: int = 3
    solver: str = "gmres"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ParameterError(f"budget must be >= 1, got {self.budget}")
        if self.n_replications < 1:
            raise ParameterError(
                f"n_replications must be >= 1, got {self.n_replications}")


@dataclass(frozen=True)
class Recommendation:
    """The winning parameter vector of one request, with provenance."""

    parameters: MCMCParameters
    y_mean: float
    y_std: float
    origin: str                       # one of the ORIGIN_* constants
    neighbour_name: str | None = None
    neighbour_distance: float | None = None


@dataclass
class TuningResult:
    """Everything one request produced."""

    name: str
    fingerprint: str
    recommendation: Recommendation
    measured_records: list[PerformanceRecord]
    reused_observations: int
    candidate_origins: dict[str, str] = field(default_factory=dict)

    @property
    def measurements(self) -> int:
        """Number of fresh (non-reused) measurements this request cost."""
        return len(self.measured_records)


class TuningService:
    """Serves batches of tuning requests from a durable observation store.

    Parameters
    ----------
    store:
        The durable observation store (an on-disk path or an open store).
    cache:
        Artifact cache shared by the evaluators; the process-wide cache when
        ``None``.
    executor:
        Schedules the requests of a batch; serial when ``None``.  Thread and
        process executors are both supported (the store merges concurrent
        writers).
    settings:
        Krylov solver settings shared by all measurements.
    bounds:
        Parameter box for the exploration samples.
    """

    def __init__(self, store: ObservationStore | str, *,
                 cache: ArtifactCache | None = None,
                 executor: Executor | None = None,
                 settings: SolverSettings | None = None,
                 bounds: ParameterBounds = DEFAULT_BOUNDS) -> None:
        self.store = (store if isinstance(store, ObservationStore)
                      else ObservationStore(store))
        self.cache = cache if cache is not None else global_cache()
        self.executor = executor if executor is not None else SerialExecutor()
        self.settings = settings if settings is not None else SolverSettings()
        self.bounds = bounds

    # -- the batch front-end ------------------------------------------------
    def tune_batch(self, requests: list[TuningRequest]) -> list[TuningResult]:
        """Resolve a batch of requests, in request order."""
        if not requests:
            return []
        results = self.executor.map_tasks(self.tune_one, requests)
        # Process workers appended into the store on disk; fold their records
        # (and any other concurrent writer's) into this process's view.
        self.store.reload()
        return results

    def tune_one(self, request: TuningRequest) -> TuningResult:
        """Resolve a single request; see the module docstring for the policy."""
        evaluator = MatrixEvaluator(
            request.matrix, request.name, settings=self.settings,
            seed=request.seed, cache=self.cache, store=self.store)
        fingerprint = evaluator.fingerprint
        features = feature_vector(request.matrix)
        self.store.register_matrix(fingerprint, request.name, features)

        # Only records measured under the *same regime* (solver settings +
        # rhs) are comparable: reusing or recommending from a store filled
        # with different settings would mix incompatible metrics.  The seed
        # and replication count may differ — any seed's measurement is a
        # valid observation of (matrix, parameters, settings).
        regime = evaluator.settings_fingerprint + ":"
        stored = [record for record
                  in self.store.query(fingerprint=fingerprint,
                                      solver=request.solver)
                  if record.context.startswith(regime)]
        origins: dict[str, str] = {
            parameter_hash(record.parameters): ORIGIN_STORED
            for record in stored}

        candidates, neighbour = self._plan_candidates(
            request, fingerprint, features, known_hashes=set(origins),
            origins=origins)
        measured: list[PerformanceRecord] = []
        for index, parameters in enumerate(candidates):
            measured.append(evaluator.evaluate(
                parameters, n_replications=request.n_replications,
                candidate_index=index))

        recommendation = self._recommend(stored, measured, origins, neighbour)
        _LOG.info("tuned %s: %d stored / %d measured, best y=%.3f (%s)",
                  request.name, len(stored), len(measured),
                  recommendation.y_mean, recommendation.origin)
        return TuningResult(
            name=request.name,
            fingerprint=fingerprint,
            recommendation=recommendation,
            measured_records=measured,
            reused_observations=len(stored),
            candidate_origins=origins,
        )

    # -- candidate planning -------------------------------------------------
    def _plan_candidates(self, request: TuningRequest, fingerprint: str,
                         features: np.ndarray, *, known_hashes: set[str],
                         origins: dict[str, str]
                         ) -> tuple[list[MCMCParameters],
                                    tuple[str, float] | None]:
        """Candidates to measure: neighbour warm start, then fresh samples.

        Already-stored parameter vectors count against the budget but are
        never re-measured; the returned list only holds genuinely new work.
        """
        remaining = request.budget - len(known_hashes)
        if remaining <= 0:
            return [], None

        candidates: list[MCMCParameters] = []
        seen = set(known_hashes)
        neighbour = self._nearest_neighbour(request.matrix, fingerprint,
                                            features)
        if neighbour is not None:
            neighbour_fingerprint, _name, _distance = neighbour
            donations = sorted(
                self.store.query(fingerprint=neighbour_fingerprint,
                                 solver=request.solver),
                key=lambda record: record.to_record().y_mean)
            for record in donations:
                if remaining <= len(candidates):
                    break
                parameters = record.parameters.clipped(self.bounds)
                key = parameter_hash(parameters)
                if key in seen:
                    continue
                seen.add(key)
                origins[key] = ORIGIN_WARM_START
                candidates.append(parameters)

        # Fill what is left with seeded uniform exploration.  Oversample so
        # that collisions with existing hashes do not shrink the batch.
        attempts = 0
        while len(candidates) < remaining and attempts < 8:
            needed = remaining - len(candidates)
            fresh = sample_parameters(2 * needed, bounds=self.bounds,
                                      solver=request.solver,
                                      seed=request.seed + 7919 * (attempts + 1))
            for parameters in fresh:
                if len(candidates) >= remaining:
                    break
                key = parameter_hash(parameters)
                if key in seen:
                    continue
                seen.add(key)
                origins[key] = ORIGIN_SAMPLED
                candidates.append(parameters)
            attempts += 1

        neighbour_info = (neighbour[1], neighbour[2]) if neighbour else None
        return candidates, neighbour_info

    def _nearest_neighbour(self, matrix: sp.spmatrix, fingerprint: str,
                           features: np.ndarray | None = None
                           ) -> tuple[str, str, float] | None:
        """Closest *other* registered matrix in standardised feature space.

        ``features`` is ``matrix``'s feature vector when the caller already
        has it; it is computed here only if some neighbour exists.
        """
        entries = [entry for fp, entry in self.store.matrix_entries().items()
                   if fp != fingerprint and entry.features is not None
                   and self.store.query(fingerprint=fp)]
        if not entries:
            return None
        if features is None:
            features = feature_vector(matrix)
        best, distance = nearest_feature_neighbour(
            [entry.features for entry in entries], features)
        return entries[best].fingerprint, entries[best].name, distance

    # -- recommendation -----------------------------------------------------
    @staticmethod
    def _recommend(stored, measured: list[PerformanceRecord],
                   origins: dict[str, str],
                   neighbour: tuple[str, float] | None) -> Recommendation:
        pool: list[tuple[float, float, MCMCParameters]] = []
        for stored_record in stored:
            record = stored_record.to_record()
            pool.append((record.y_mean, record.y_std, record.parameters))
        for record in measured:
            pool.append((record.y_mean, record.y_std, record.parameters))
        if not pool:
            raise ParameterError("no observations available to recommend from")
        y_mean, y_std, parameters = min(pool, key=lambda item: item[0])
        origin = origins.get(parameter_hash(parameters), ORIGIN_SAMPLED)
        return Recommendation(
            parameters=parameters,
            y_mean=y_mean,
            y_std=y_std,
            origin=origin,
            neighbour_name=neighbour[0] if neighbour else None,
            neighbour_distance=neighbour[1] if neighbour else None,
        )
