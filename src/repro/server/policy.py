"""Automatic preconditioner selection for the solve server.

Callers of the server hand over a matrix and (optionally) nothing else; the
policy decides which preconditioner family to build, with which parameters,
and which Krylov solver to drive — recording *why* on every decision so each
response carries full provenance.

Decision ladder (first match wins):

1. **Explicit** — the request named a family (and/or solver); honour it.
2. **Stored reuse** — the :class:`~repro.service.store.ObservationStore`
   holds tuned MCMC observations for this exact matrix fingerprint; reuse
   the best-performing parameter vector (the online analogue of the
   :class:`~repro.service.tuner_service.TuningService`'s exact-reuse tier).
3. **Surrogate** — an online-trained surrogate model
   (:class:`~repro.learn.policy.SurrogatePolicy`, opt-in via ``--learn``)
   proposes MCMC parameters by maximising Expected Improvement; decisions
   carry the model version in their provenance.  The stage declines (model
   not ready, low confidence, proposal error) by returning ``None`` and the
   ladder continues unchanged.
4. **Warm start** — the store has never seen this matrix but knows others;
   the nearest registered neighbour in standardised
   :func:`~repro.matrices.features.feature_vector` space donates its best
   parameters.
5. **Rule table** — cold start from
   :func:`~repro.matrices.features.structural_flags`:

   ========================  ==========================  =========
   structure                 family                      solver
   ========================  ==========================  =========
   SPD-like                  IC(0)                       CG
   strongly diag. dominant   Jacobi                      GMRES
   diag. dominant            Neumann series              GMRES
   usable diagonal           ILU(0)                      GMRES
   weak diagonal             MCMC (paper defaults)       GMRES
   zero/partial diagonal     SPAI                        GMRES
   ========================  ==========================  =========

Determinism
-----------
The policy works from a **snapshot** of the store taken at construction (or
at an explicit :meth:`refresh`).  Records written *while serving* therefore
never change in-flight decisions — this is what makes a seeded request
stream produce bit-identical answers whether requests are served one by one
or batched by the scheduler, regardless of completion order.  Long-running
servers call :meth:`refresh` between traffic waves to pick up what serving
has learned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.logging_utils import get_logger
from repro.matrices.features import (
    feature_vector,
    nearest_feature_neighbour,
    structural_flags,
)
from repro.mcmc.parameters import DEFAULT_BOUNDS, MCMCParameters, ParameterBounds
from repro.api.errors import AdmissionError, REJECT_INVALID
from repro.precond.factory import KNOWN_FAMILIES
from repro.service.store import ObservationStore

__all__ = [
    "PolicyDecision",
    "PreconditionerPolicy",
    "ORIGIN_EXPLICIT",
    "ORIGIN_STORED",
    "ORIGIN_SURROGATE",
    "ORIGIN_WARM_START",
    "ORIGIN_RULE",
]

_LOG = get_logger("server.policy")

ORIGIN_EXPLICIT = "explicit"
ORIGIN_STORED = "stored"
ORIGIN_SURROGATE = "surrogate"
ORIGIN_WARM_START = "warm_start"
ORIGIN_RULE = "rule"

#: Dominance (median |a_ii| / off-diagonal row mass) above which plain
#: Jacobi scaling is already an excellent preconditioner.
STRONG_DOMINANCE = 2.0

#: Dominance below which ILU(0) pivots are considered too fragile and the
#: policy prefers the stochastic (MCMC) inverse instead — the regime the
#: paper positions MCMCMI for.
FRAGILE_DOMINANCE = 0.5

#: Cold-start MCMC parameters: the centre of the paper's training grid.
DEFAULT_MCMC_PARAMETERS = MCMCParameters(alpha=2.0, eps=0.25, delta=0.25)


@dataclass(frozen=True)
class PolicyDecision:
    """One preconditioning decision, hashable so it can key the artifact cache.

    ``params`` is a sorted tuple of ``(name, value)`` pairs — the exact
    keyword arguments the scheduler passes to
    :func:`repro.precond.factory.make_preconditioner` (for the ``mcmc``
    family: ``alpha``, ``eps``, ``delta``, turned back into
    :class:`MCMCParameters` at build time).
    """

    family: str
    solver: str
    params: tuple[tuple[str, float | int | str], ...]
    origin: str
    rule: str = ""
    neighbour_name: str | None = None
    neighbour_distance: float | None = None
    model_version: str | None = None

    def cache_key(self, fingerprint: str) -> tuple:
        """Key of the built preconditioner in the shared artifact cache.

        Deliberately excludes provenance (origin / rule / neighbour): two
        decisions that build the same operator share one artifact.
        """
        return ("server_precond", fingerprint, self.family, self.params)

    def mcmc_parameters(self) -> MCMCParameters:
        """The ``params`` tuple as :class:`MCMCParameters` (mcmc family only)."""
        values = dict(self.params)
        return MCMCParameters(alpha=float(values["alpha"]),
                              eps=float(values["eps"]),
                              delta=float(values["delta"]),
                              solver=self.solver)

    def provenance(self) -> dict:
        """JSON-serialisable description recorded on every response."""
        info: dict = {
            "family": self.family,
            "solver": self.solver,
            "params": {name: value for name, value in self.params},
            "origin": self.origin,
        }
        if self.rule:
            info["rule"] = self.rule
        if self.neighbour_name is not None:
            info["neighbour"] = {"name": self.neighbour_name,
                                 "distance": self.neighbour_distance}
        if self.model_version is not None:
            info["model_version"] = self.model_version
        return info


def _mcmc_params_tuple(parameters: MCMCParameters
                       ) -> tuple[tuple[str, float], ...]:
    return (("alpha", float(parameters.alpha)),
            ("delta", float(parameters.delta)),
            ("eps", float(parameters.eps)))


class PreconditionerPolicy:
    """Chooses a preconditioner family + parameters + solver per matrix.

    Parameters
    ----------
    store:
        Optional observation store consulted (via a snapshot, see the module
        docstring) for stored-reuse and warm-start decisions.
    bounds:
        Parameter box warm-started MCMC parameters are clipped into.
    surrogate:
        Optional :class:`~repro.learn.policy.SurrogatePolicy` (any object
        with a compatible ``propose``) consulted between stored reuse and
        warm start.  ``None`` (the default) keeps the ladder — and serving —
        exactly as without online learning.
    """

    def __init__(self, store: ObservationStore | None = None, *,
                 bounds: ParameterBounds = DEFAULT_BOUNDS,
                 surrogate=None) -> None:
        self.store = store
        self.bounds = bounds
        self.surrogate = surrogate
        self._best_by_fingerprint: dict[str, MCMCParameters] = {}
        self._neighbour_pool: list[tuple[str, str, np.ndarray]] = []
        self._name_by_fingerprint: dict[str, str] = {}
        self.refresh()

    def refresh(self) -> None:
        """Re-snapshot the store (new records become visible to decisions)."""
        best: dict[str, MCMCParameters] = {}
        pool: list[tuple[str, str, np.ndarray]] = []
        names: dict[str, str] = {}
        if self.store is not None:
            self.store.reload()
            for fingerprint in self.store.fingerprints():
                records = self.store.query(fingerprint=fingerprint)
                if not records:
                    continue
                winner = min(records, key=lambda r: r.to_record().y_mean)
                best[fingerprint] = winner.parameters
            for fingerprint, entry in self.store.matrix_entries().items():
                names[fingerprint] = entry.name
                if fingerprint in best and entry.features is not None:
                    pool.append((fingerprint, entry.name,
                                 np.asarray(entry.features, dtype=np.float64)))
        self._best_by_fingerprint = best
        self._neighbour_pool = pool
        self._name_by_fingerprint = names

    # -- the decision ladder ------------------------------------------------
    def decide(self, matrix: sp.spmatrix, fingerprint: str, *,
               solver: str | None = None,
               preconditioner: str | None = None) -> PolicyDecision:
        """Decide family / parameters / solver for one matrix.

        ``solver`` and ``preconditioner`` are the request's explicit choices
        (``None`` or ``"auto"`` delegate to the policy).
        """
        family = None if preconditioner in (None, "auto") else \
            preconditioner.strip().lower()
        if family is not None and family not in KNOWN_FAMILIES:
            raise AdmissionError(
                REJECT_INVALID,
                f"unknown preconditioner family {preconditioner!r}; "
                f"expected one of {KNOWN_FAMILIES}")

        if family is not None:
            params: tuple = ()
            if family == "mcmc":
                stored = self._best_by_fingerprint.get(fingerprint)
                params = _mcmc_params_tuple(stored if stored is not None
                                            else DEFAULT_MCMC_PARAMETERS)
            return PolicyDecision(
                family=family, solver=solver or "gmres", params=params,
                origin=ORIGIN_EXPLICIT)

        stored = self._best_by_fingerprint.get(fingerprint)
        if stored is not None:
            return PolicyDecision(
                family="mcmc",
                solver=solver or stored.solver,
                params=_mcmc_params_tuple(stored),
                origin=ORIGIN_STORED)

        if self.surrogate is not None:
            proposal = self.surrogate.propose(
                matrix, fingerprint, solver=solver,
                matrix_name=self._name_by_fingerprint.get(fingerprint))
            if proposal is not None:
                proposed = proposal.parameters.clipped(self.bounds)
                return PolicyDecision(
                    family="mcmc",
                    solver=solver or proposed.solver,
                    params=_mcmc_params_tuple(proposed),
                    origin=ORIGIN_SURROGATE,
                    model_version=proposal.model_version)

        neighbour = self._nearest_neighbour(matrix, fingerprint)
        if neighbour is not None:
            neighbour_fingerprint, name, distance = neighbour
            donated = self._best_by_fingerprint[neighbour_fingerprint]
            donated = donated.clipped(self.bounds)
            return PolicyDecision(
                family="mcmc",
                solver=solver or donated.solver,
                params=_mcmc_params_tuple(donated),
                origin=ORIGIN_WARM_START,
                neighbour_name=name,
                neighbour_distance=distance)

        return self._rule_decision(matrix, solver)

    def _rule_decision(self, matrix: sp.spmatrix,
                       solver: str | None) -> PolicyDecision:
        flags = structural_flags(matrix)
        if flags["spd_like"]:
            return PolicyDecision(
                family="ic0", solver=solver or "cg", params=(),
                origin=ORIGIN_RULE, rule="spd")
        if flags["diag_dominant"]:
            if flags["dominance"] >= STRONG_DOMINANCE:
                return PolicyDecision(
                    family="jacobi", solver=solver or "gmres", params=(),
                    origin=ORIGIN_RULE, rule="strong_diagonal_dominance")
            return PolicyDecision(
                family="neumann", solver=solver or "gmres",
                params=(("terms", 4),),
                origin=ORIGIN_RULE, rule="diagonal_dominance")
        if flags["nonzero_diagonal"]:
            if flags["dominance"] >= FRAGILE_DOMINANCE:
                return PolicyDecision(
                    family="ilu0", solver=solver or "gmres", params=(),
                    origin=ORIGIN_RULE, rule="general")
            return PolicyDecision(
                family="mcmc", solver=solver or "gmres",
                params=_mcmc_params_tuple(DEFAULT_MCMC_PARAMETERS),
                origin=ORIGIN_RULE, rule="fragile_pivots")
        # No usable diagonal: every splitting-based family is out; the
        # pattern-based sparse approximate inverse still applies.
        return PolicyDecision(
            family="spai", solver=solver or "gmres", params=(),
            origin=ORIGIN_RULE, rule="zero_diagonal")

    # -- warm-start neighbour search ----------------------------------------
    def _nearest_neighbour(self, matrix: sp.spmatrix, fingerprint: str
                           ) -> tuple[str, str, float] | None:
        pool = [(fp, name, features)
                for fp, name, features in self._neighbour_pool
                if fp != fingerprint]
        if not pool:
            return None  # nothing to compare against: skip the features
        best, distance = nearest_feature_neighbour(
            [features for _, _, features in pool], feature_vector(matrix))
        fp, name, _ = pool[best]
        _LOG.debug("warm start for %s from neighbour %s (distance %.3f)",
                   fingerprint[:8], name, distance)
        return fp, name, distance
