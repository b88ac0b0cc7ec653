"""Seeded inputs of the three benchmark workloads.

Every generator is a pure function of the workload seed and an index, so the
same seed always yields the same matrices and right-hand sides.  The program
under test only ever receives these generated inputs; it never learns the
seed or the workload name.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.experiments.pipeline import ExperimentProfile
from repro.matrices import (
    climate_operator,
    laplacian_2d,
    pdd_real_sparse,
    unsteady_advection_diffusion,
)
from repro.matrices.registry import get_spec

#: ``(n, dominance)`` of the eight ``serve_warm`` matrices.  The auto policy's
#: rule table maps the diagonal dominance of these nonsymmetric matrices to a
#: cheap-apply family: >= 2 Jacobi, [1, 2) Neumann series, [0.5, 1) ILU(0).
WARM_SPECS: tuple[tuple[int, float], ...] = (
    (1536, 3.0), (1792, 1.5), (2048, 0.75), (2560, 3.0),
    (2816, 1.5), (3072, 0.75), (3584, 1.5), (4000, 0.75),
)
#: Families the auto policy is expected to pick for the warm working set.
WARM_FAMILIES = ("jacobi", "neumann", "ilu0")

#: One cycle of ``serve_cold`` requests: ``(generator, size, family, solver)``.
#: Half are MCMC builds, the rest ILU(0) / IC(0).  MCMC runs on Laplacians
#: only: with the server's default parameters it does not converge on the
#: plasma and climate operators.  The solvers keep every answer within the
#: oracle's ``||b - Ax|| / ||b|| <= rtol``: CG and BiCGSTAB stop on that
#: residual; left-preconditioned GMRES stops on the preconditioned residual,
#: which on these MCMC-preconditioned Laplacians leaves ~0.8 rtol but on the
#: ILU(0)-preconditioned climate operators can exceed rtol.  The MCMC build
#: on the 72-resolution Laplacian appears twice and sits in the middle of the
#: cycle's latencies, so the median of whole cycles falls on one template.
COLD_CYCLE: tuple[tuple[str, object, str, str], ...] = (
    ("laplacian", 64, "mcmc", "gmres"),
    ("climate", (16, 16, 20), "ilu0", "bicgstab"),
    ("laplacian", 72, "mcmc", "gmres"),
    ("laplacian", 128, "ic0", "cg"),
    ("laplacian", 80, "mcmc", "gmres"),
    ("climate", (20, 20, 20), "ilu0", "bicgstab"),
    ("laplacian", 72, "mcmc", "gmres"),
    ("laplacian", 112, "ic0", "cg"),
)

# Stream tags keep the seed sequences of different input kinds disjoint.
_WARM_MATRIX, _WARM_REQUEST, _COLD, _TUNE = 1, 2, 3, 4


def child_seed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from ``seed`` and an index path."""
    sequence = np.random.SeedSequence([int(seed), *map(int, path)])
    return int(sequence.generate_state(1)[0])


def _rhs(n: int, *path: int) -> np.ndarray:
    return np.random.default_rng(list(path)).standard_normal(n)


# -- serve_warm ---------------------------------------------------------------

def warm_matrix(seed: int, index: int) -> sp.csr_matrix:
    """Matrix ``index`` of the ``serve_warm`` working set."""
    n, dominance = WARM_SPECS[index]
    return pdd_real_sparse(n, density=6.0 / n, dominance=dominance,
                           seed=child_seed(seed, _WARM_MATRIX, index))


def warm_working_set(seed: int) -> list[sp.csr_matrix]:
    """All eight ``serve_warm`` matrices."""
    return [warm_matrix(seed, index) for index in range(len(WARM_SPECS))]


def warm_fixed_rhs(seed: int, index: int, n: int) -> np.ndarray:
    """The fixed right-hand side served at the start and end of a run."""
    return _rhs(n, seed, _WARM_REQUEST, 0, index)


def warm_request(seed: int, client: int, k: int,
                 sizes: list[int]) -> tuple[int, np.ndarray]:
    """Matrix index and fresh right-hand side of ``client``'s ``k``-th request.

    Each client walks the working set in its own seeded order, one full pass
    every ``len(sizes)`` requests, so every run serves the same mix.
    """
    order = np.random.default_rng([int(seed), _WARM_REQUEST, 1 + client]
                                  ).permutation(len(sizes))
    index = int(order[k % len(sizes)])
    return index, _rhs(sizes[index], seed, _WARM_REQUEST, 1 + client, k)


# -- serve_cold ---------------------------------------------------------------

@dataclass(frozen=True)
class ColdRequest:
    """One never-seen ``serve_cold`` system."""

    label: str
    matrix: sp.csr_matrix
    rhs: np.ndarray
    family: str
    solver: str


def _scaled_laplacian(resolution: int, seed: int) -> sp.csr_matrix:
    # D L D with a seeded positive diagonal D keeps the Laplacian SPD while
    # making every coefficient, and hence every fingerprint, new.
    laplacian = laplacian_2d(resolution)
    scale = 1.0 + 0.25 * np.random.default_rng(seed).random(laplacian.shape[0])
    scaling = sp.diags(scale, format="csr")
    return sp.csr_matrix(scaling @ laplacian @ scaling)


def cold_request(seed: int, k: int) -> ColdRequest:
    """The ``k``-th ``serve_cold`` request (template ``k`` mod the cycle)."""
    generator, size, family, solver = COLD_CYCLE[k % len(COLD_CYCLE)]
    coefficients = child_seed(seed, _COLD, k)
    if generator == "laplacian":
        matrix = _scaled_laplacian(int(size), coefficients)
    else:
        matrix = climate_operator(*size, seed=coefficients)
    label = f"{generator}{matrix.shape[0]}-{family}"
    return ColdRequest(label, matrix, _rhs(matrix.shape[0], seed, _COLD, k),
                       family, solver)


# -- tune_unseen --------------------------------------------------------------

#: Solver of the tuning workload.  The oracle recomputes the unpreconditioned
#: residual, which BiCGSTAB's stopping test bounds; left-preconditioned GMRES
#: stops on the preconditioned residual and leaves ~1e-3 on these targets.
TUNE_SOLVER = "bicgstab"


def tune_profile() -> ExperimentProfile:
    """The smoke profile (training grid, BO batch, xi values, replications)
    with BiCGSTAB as the tuned solver.

    Its seed is fixed, so set-up (grid plus pre-BO training) is the same for
    every workload seed; the seed only varies the unseen targets.
    """
    return dataclasses.replace(ExperimentProfile.smoke(seed=0),
                               solvers=(TUNE_SOLVER,))


def training_matrices(profile: ExperimentProfile) -> dict[str, sp.csr_matrix]:
    """The profile's training matrices by name."""
    return {name: get_spec(name).build()
            for name in profile.training_matrix_names}


def tune_target(seed: int, k: int,
                profile: ExperimentProfile) -> tuple[str, sp.csr_matrix]:
    """Name and matrix of tuning session ``k``.

    Session 0 tunes the registry's unseen target; later sessions tune seeded
    order-2 unsteady advection-diffusion variants of it.
    """
    if k == 0:
        name = profile.test_matrix_name
        return name, get_spec(name).build()
    return (f"unsteady_adv_diff_order2_s{seed}_{k}",
            unsteady_advection_diffusion(15, order=2,
                                         seed=child_seed(seed, _TUNE, k)))
