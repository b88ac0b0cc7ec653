"""Serving-side surrogate proposals: the paper's EI loop at decision time.

:class:`SurrogatePolicy` is the stage the solve-server's
:class:`~repro.server.policy.PreconditionerPolicy` consults between stored
reuse and nearest-neighbour warm starts.  It holds the most recently
published surrogate generation (handed over in-process by the trainer's
``on_publish`` callback, or restored from the :class:`ModelRegistry` at
startup) and proposes MCMC parameters by maximising Expected Improvement —
exactly the acquisition machinery of :mod:`repro.core.optimize`, pointed at
live traffic.

Determinism: each proposal constructs a fresh
:class:`~repro.core.optimize.AcquisitionOptimizer` seeded from
``(fingerprint, model version)``, so a decision is a pure function of the
matrix and the model — independent of request order, batching, or how many
proposals happened before.  Fallback is always graceful: no model yet,
a proposal error, or a low-confidence prediction simply returns ``None`` and
the decision ladder continues to warm-start/rule provenance unchanged.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.dataset import SurrogateDataset
from repro.core.optimize import AcquisitionOptimizer, Candidate
from repro.core.surrogate import GraphNeuralSurrogate
from repro.learn.registry import ModelRegistry
from repro.learn.trainer import (
    MatrixBank,
    apply_published_standardizers,
    build_training_snapshot,
    rebuild_model,
)
from repro.logging_utils import get_logger
from repro.mcmc.parameters import (
    DEFAULT_BOUNDS,
    KNOWN_SOLVERS,
    MCMCParameters,
    ParameterBounds,
)
from repro.service.store import ObservationStore
from repro.sparse.fingerprint import content_hash

__all__ = ["SurrogateProposal", "SurrogatePolicy"]

_LOG = get_logger("learn.policy")


def _is_finite(candidate: Candidate) -> bool:
    return bool(np.isfinite(candidate.predicted_mean)
                and np.isfinite(candidate.predicted_sigma)
                and np.all(np.isfinite(candidate.parameters.to_array())))


@dataclass(frozen=True)
class SurrogateProposal:
    """One EI-optimal parameter vector with its provenance diagnostics."""

    parameters: MCMCParameters
    expected_improvement: float
    predicted_mean: float
    predicted_sigma: float
    model_version: str


class SurrogatePolicy:
    """Thread-safe holder of the live surrogate generation + EI proposer.

    Parameters
    ----------
    bounds:
        Box the proposed ``(alpha, eps, delta)`` must lie in.
    xi:
        EI exploration weight (used to generate the candidate set).
    n_restarts:
        L-BFGS-B restarts per candidate slot.
    n_candidates:
        EI candidates generated per proposal before selection.  A proposal
        serves the lowest *predicted mean* among these candidates (clipped
        into the box of parameters actually observed in the training data)
        and the distinct observed parameter vectors themselves.  EI
        maximisation rewards predictive uncertainty — the right thing for an
        offline tuning loop, but a live request should get the configuration
        the model is most confident is fast, and the model's mean is only
        trustworthy inside the observed support.
    max_sigma:
        Optional confidence gate: proposals whose predicted sigma exceeds it
        are rejected (the ladder falls through to warm start / rules).
    telemetry:
        Optional metrics registry; every proposal outcome increments
        ``learn.proposals{outcome=...}``.
    """

    def __init__(self, *, bounds: ParameterBounds = DEFAULT_BOUNDS,
                 xi: float = 0.05, n_restarts: int = 2,
                 n_candidates: int = 4, max_sigma: float | None = None,
                 telemetry=None) -> None:
        self.bounds = bounds
        self.xi = float(xi)
        self.n_restarts = int(n_restarts)
        self.n_candidates = max(int(n_candidates), 1)
        self.max_sigma = max_sigma
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._model: GraphNeuralSurrogate | None = None
        self._dataset: SurrogateDataset | None = None
        self._version: str | None = None

    # -- model lifecycle -----------------------------------------------------
    @property
    def ready(self) -> bool:
        """Whether a model generation is loaded."""
        with self._lock:
            return self._model is not None

    @property
    def model_version(self) -> str | None:
        """Version id of the loaded generation."""
        with self._lock:
            return self._version

    def update(self, model: GraphNeuralSurrogate, dataset: SurrogateDataset,
               version: str, meta: dict | None = None) -> None:
        """Swap in a freshly published generation (trainer callback)."""
        del meta  # lineage already lives in the registry
        with self._lock:
            self._model = model
            self._dataset = dataset
            self._version = version
        _LOG.info("surrogate policy now serving model %s", version)

    def restore(self, registry: ModelRegistry, store: ObservationStore, *,
                bank: MatrixBank | None = None) -> bool:
        """Load the registry's current version for a fresh process.

        The dataset is rebuilt from the store (graphs need actual matrices)
        and re-scaled with the standardisers recorded at training time.
        Returns ``False`` when there is no published model or no record's
        matrix can be resolved.
        """
        version = registry.current_version()
        if version is None:
            return False
        state, meta = registry.load(version)
        observations, matrices, _skipped, _hash = \
            build_training_snapshot(store, bank)
        if not observations:
            _LOG.warning("cannot restore model %s: no resolvable records", version)
            return False
        dataset = SurrogateDataset(observations, matrices)
        apply_published_standardizers(dataset, meta)
        model = rebuild_model(meta, state)
        self.update(model, dataset, version)
        return True

    # -- proposals -----------------------------------------------------------
    def _exploitation_pool(self, optimizer: AcquisitionOptimizer,
                           matrix: sp.spmatrix, name: str,
                           candidates: list[Candidate],
                           dataset: SurrogateDataset,
                           solver: str) -> list[Candidate]:
        """Candidates re-anchored to the observed parameter support.

        The mean head is only trustworthy where training data exists, while
        EI optima routinely sit in high-uncertainty corners the store never
        measured.  Pool the *distinct observed* parameter vectors with the EI
        candidates clipped into the observed bounding box, and score them all
        with one batched forward pass; the caller serves the lowest mean.
        """
        seen: dict[tuple, MCMCParameters] = {}
        for sample in dataset.samples:
            raw = np.asarray(sample.x_m_raw[:3], dtype=float)
            key = tuple(np.round(raw, 9))
            if key not in seen:
                seen[key] = MCMCParameters.from_array(raw, solver=solver)
        anchors = list(seen.values())
        if not anchors:
            return candidates
        anchor_rows = np.stack([p.to_array() for p in anchors])
        lower = anchor_rows.min(axis=0)
        upper = anchor_rows.max(axis=0)
        clipped = [
            MCMCParameters.from_array(
                np.clip(c.parameters.to_array(), lower, upper), solver=solver)
            for c in candidates
        ]
        probe = anchors + clipped
        mu, sigma = optimizer.predict_parameters(matrix, name, probe)
        improvements = [0.0] * len(anchors) + \
            [float(c.expected_improvement) for c in candidates]
        return [
            Candidate(parameters=parameters, expected_improvement=ei,
                      predicted_mean=float(m), predicted_sigma=float(s))
            for parameters, ei, m, s in zip(probe, improvements, mu, sigma)
        ]

    def _count(self, outcome: str) -> None:
        if self.telemetry is not None:
            self.telemetry.counter("learn.proposals", outcome=outcome).add()

    def propose(self, matrix: sp.spmatrix, fingerprint: str, *,
                solver: str | None = None,
                matrix_name: str | None = None) -> SurrogateProposal | None:
        """EI-optimal MCMC parameters for ``matrix``, or ``None`` to fall back."""
        with self._lock:
            model = self._model
            dataset = self._dataset
            version = self._version
        if model is None or dataset is None or version is None:
            self._count("no_model")
            return None
        proposal_solver = solver if solver in KNOWN_SOLVERS else "gmres"
        name = matrix_name if matrix_name is not None else fingerprint[:12]
        seed = int(content_hash("surrogate-proposal", fingerprint, version)[:8],
                   16)
        try:
            optimizer = AcquisitionOptimizer(
                model, dataset, bounds=self.bounds,
                n_restarts=self.n_restarts, seed=seed)
            candidates = optimizer.propose(
                matrix, name, n_candidates=self.n_candidates, xi=self.xi,
                solver=proposal_solver)
            candidates = self._exploitation_pool(
                optimizer, matrix, name, candidates, dataset, proposal_solver)
            candidates = [c for c in candidates if _is_finite(c)]
            if not candidates:
                self._count("non_finite")
                return None
            candidate = min(candidates, key=lambda c: float(c.predicted_mean))
        except Exception as exc:
            _LOG.warning("surrogate proposal failed for %s: %s",
                         fingerprint[:8], exc)
            self._count("error")
            return None
        if self.max_sigma is not None and \
                candidate.predicted_sigma > self.max_sigma:
            self._count("low_confidence")
            return None
        self._count("proposed")
        return SurrogateProposal(
            parameters=candidate.parameters.clipped(self.bounds),
            expected_improvement=candidate.expected_improvement,
            predicted_mean=candidate.predicted_mean,
            predicted_sigma=candidate.predicted_sigma,
            model_version=version)
