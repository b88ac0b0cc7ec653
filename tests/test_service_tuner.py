"""Tests for the batch tuning front-end (repro.service.tuner_service)."""

from __future__ import annotations

import pytest

from repro.core.evaluation import MatrixEvaluator, SolverSettings
from repro.exceptions import ParameterError
from repro.matrices import laplacian_2d, pdd_real_sparse
from repro.mcmc.parameters import MCMCParameters
from repro.parallel.executor import ThreadExecutor
from repro.service.cache import ArtifactCache
from repro.service.store import ObservationStore
from repro.service.tuner_service import (
    ORIGIN_SAMPLED,
    ORIGIN_STORED,
    ORIGIN_WARM_START,
    Recommendation,
    TuningRequest,
    TuningService,
)
from repro.sparse.fingerprint import matrix_fingerprint


@pytest.fixture()
def settings():
    return SolverSettings(maxiter=200)


@pytest.fixture()
def service(tmp_path, settings):
    return TuningService(tmp_path / "store", cache=ArtifactCache(max_entries=8),
                         settings=settings)


class TestRequestValidation:
    def test_invalid_budget_and_replications(self, small_spd):
        with pytest.raises(ParameterError):
            TuningRequest(matrix=small_spd, name="m", budget=0)
        with pytest.raises(ParameterError):
            TuningRequest(matrix=small_spd, name="m", n_replications=0)


class TestColdStart:
    def test_measures_budget_and_persists(self, service, small_spd):
        request = TuningRequest(matrix=small_spd, name="lap", budget=3,
                                n_replications=1, seed=0)
        [result] = service.tune_batch([request])
        assert result.measurements == 3
        assert result.reused_observations == 0
        assert isinstance(result.recommendation, Recommendation)
        assert result.recommendation.origin == ORIGIN_SAMPLED
        assert result.fingerprint == matrix_fingerprint(small_spd)
        assert len(service.store) == 3
        # Provenance covers every candidate.
        assert set(result.candidate_origins.values()) == {ORIGIN_SAMPLED}

    def test_empty_batch(self, service):
        assert service.tune_batch([]) == []


class TestExactReuse:
    def test_second_request_measures_nothing(self, service, small_spd):
        request = TuningRequest(matrix=small_spd, name="lap", budget=3,
                                n_replications=1, seed=0)
        service.tune_batch([request])
        [again] = service.tune_batch([request])
        assert again.measurements == 0
        assert again.reused_observations == 3
        assert again.recommendation.origin == ORIGIN_STORED

    def test_identity_is_content_not_name(self, service, small_spd):
        """The same matrix under a new name reuses all observations."""
        service.tune_batch([TuningRequest(matrix=small_spd, name="first",
                                          budget=3, n_replications=1)])
        [renamed] = service.tune_batch([TuningRequest(
            matrix=small_spd.copy(), name="renamed", budget=3,
            n_replications=1)])
        assert renamed.measurements == 0
        assert renamed.reused_observations == 3

    def test_budget_extension_measures_only_the_difference(self, service,
                                                           small_spd):
        service.tune_batch([TuningRequest(matrix=small_spd, name="lap",
                                          budget=2, n_replications=1, seed=0)])
        [extended] = service.tune_batch([TuningRequest(
            matrix=small_spd, name="lap", budget=4, n_replications=1, seed=0)])
        assert extended.reused_observations == 2
        assert extended.measurements == 2


class TestWarmStart:
    def test_neighbour_donates_best_parameters(self, service, small_spd):
        # Seed the store with observations on the 8x8 Laplacian.
        service.tune_batch([TuningRequest(matrix=small_spd, name="lap8",
                                          budget=4, n_replications=1, seed=0)])
        # A structurally similar matrix should warm-start from it.
        similar = laplacian_2d(9)
        [result] = service.tune_batch([TuningRequest(
            matrix=similar, name="lap9", budget=2, n_replications=1, seed=1)])
        assert result.measurements == 2
        assert ORIGIN_WARM_START in result.candidate_origins.values()
        assert result.recommendation.neighbour_name == "lap8"
        assert result.recommendation.neighbour_distance is not None

    def test_warm_started_request_computes_features_once(
            self, service, small_spd, monkeypatch):
        import repro.service.tuner_service as tuner_module

        service.tune_batch([TuningRequest(matrix=small_spd, name="lap8",
                                          budget=2, n_replications=1, seed=0)])
        calls = []
        original = tuner_module.feature_vector

        def counting_feature_vector(matrix):
            calls.append(matrix.shape)
            return original(matrix)

        monkeypatch.setattr(tuner_module, "feature_vector",
                            counting_feature_vector)
        similar = laplacian_2d(9)
        [result] = service.tune_batch([TuningRequest(
            matrix=similar, name="lap9", budget=2, n_replications=1, seed=1)])
        assert result.recommendation.neighbour_name == "lap8"
        assert calls == [similar.shape]

    def test_nearest_neighbour_prefers_similar_structure(self, service):
        lap_a = laplacian_2d(8)
        pdd = pdd_real_sparse(40, density=0.2, dominance=2.0, seed=1)
        service.tune_batch([
            TuningRequest(matrix=lap_a, name="lap8", budget=2,
                          n_replications=1, seed=0),
            TuningRequest(matrix=pdd, name="pdd", budget=2,
                          n_replications=1, seed=0),
        ])
        neighbour = service._nearest_neighbour(
            laplacian_2d(9), matrix_fingerprint(laplacian_2d(9)))
        assert neighbour is not None
        assert neighbour[1] == "lap8"


class TestDegenerateStoreWarmStart:
    """Feature standardisation must survive degenerate stores (regression).

    A store whose registered feature vectors share constant columns, contain
    near-zero-variance columns, or carry non-finite entries used to emit NaN
    (or overflowed) distances from the shared standardise-then-distance
    kernel, silently breaking neighbour selection for both the tuning service
    and the solve-server policy.
    """

    def test_constant_feature_columns_yield_finite_distances(self):
        import numpy as np

        from repro.matrices.features import nearest_feature_neighbour

        # Every candidate and the target agree on the second column.
        candidates = [np.array([1.0, 7.0, 3.0]), np.array([4.0, 7.0, 3.5])]
        found = nearest_feature_neighbour(candidates, np.array([1.2, 7.0, 3.1]))
        assert found is not None
        best, distance = found
        assert best == 0
        assert np.isfinite(distance)

    def test_near_zero_variance_column_does_not_overflow(self):
        import numpy as np

        from repro.matrices.features import nearest_feature_neighbour

        # Denormal-scale jitter in one column: dividing by its std would
        # amplify rounding noise by ~1e300 and swamp every real feature.
        candidates = [np.array([1.0, 1e-300]), np.array([5.0, 3e-300])]
        found = nearest_feature_neighbour(candidates, np.array([1.1, 2e-300]))
        assert found is not None
        best, distance = found
        assert best == 0
        assert np.isfinite(distance)

    def test_non_finite_feature_entries_do_not_poison_distances(self):
        import numpy as np

        from repro.matrices.features import nearest_feature_neighbour

        # One corrupt candidate with an inf feature: inf - mean(inf) = NaN
        # used to propagate into *every* distance via the shared column std.
        candidates = [np.array([1.0, np.inf]), np.array([2.0, np.inf])]
        found = nearest_feature_neighbour(candidates, np.array([1.4, np.inf]))
        assert found is not None
        best, distance = found
        assert best == 0
        assert np.isfinite(distance)

    def test_service_warm_start_with_degenerate_registered_features(
            self, service, small_spd):
        import numpy as np

        # A store seeded with one healthy matrix plus one whose persisted
        # feature vector is corrupt (NaN) must still warm-start from the
        # healthy neighbour with a finite distance.
        service.tune_batch([TuningRequest(matrix=small_spd, name="lap8",
                                          budget=2, n_replications=1, seed=0)])
        corrupt = pdd_real_sparse(30, density=0.2, dominance=2.0, seed=3)
        corrupt_fp = matrix_fingerprint(corrupt)
        service.store.register_matrix(
            corrupt_fp, "corrupt", features=np.full(14, np.nan))
        # Give the corrupt entry a record so it enters the neighbour pool.
        [corrupt_result] = service.tune_batch([TuningRequest(
            matrix=corrupt, name="corrupt", budget=1, n_replications=1,
            seed=0)])
        assert corrupt_result.measurements >= 0
        neighbour = service._nearest_neighbour(
            laplacian_2d(9), matrix_fingerprint(laplacian_2d(9)))
        assert neighbour is not None
        fingerprint, name, distance = neighbour
        assert np.isfinite(distance)
        assert name == "lap8"


class TestBatchExecution:
    def test_thread_executor_batch(self, tmp_path, settings, small_spd):
        service = TuningService(tmp_path / "store",
                                cache=ArtifactCache(max_entries=8),
                                executor=ThreadExecutor(n_threads=2),
                                settings=settings)
        requests = [
            TuningRequest(matrix=small_spd, name="lap-a", budget=2,
                          n_replications=1, seed=0),
            TuningRequest(matrix=laplacian_2d(9), name="lap-b", budget=2,
                          n_replications=1, seed=1),
        ]
        results = service.tune_batch(requests)
        assert [r.name for r in results] == ["lap-a", "lap-b"]
        assert all(r.measurements > 0 for r in results)
        assert len(service.store) == sum(r.measurements for r in results)

    def test_same_matrix_twice_in_one_batch_shares_table_builds(
            self, tmp_path, settings, small_spd):
        cache = ArtifactCache(max_entries=8)
        service = TuningService(tmp_path / "store", cache=cache,
                                settings=settings)
        base = TuningRequest(matrix=small_spd, name="lap", budget=2,
                             n_replications=1, seed=0)
        service.tune_batch([base,
                            TuningRequest(matrix=small_spd, name="lap",
                                          budget=2, n_replications=2, seed=0)])
        # Any alpha measured by both requests was built exactly once.
        assert cache.stats.builds + cache.stats.hits == cache.stats.requests


class TestDeterminism:
    def test_same_seed_same_recommendation(self, tmp_path, settings, small_spd):
        def run(root):
            service = TuningService(root, cache=ArtifactCache(max_entries=8),
                                    settings=settings)
            [result] = service.tune_batch([TuningRequest(
                matrix=small_spd, name="lap", budget=3, n_replications=1,
                seed=5)])
            return result.recommendation

        a = run(tmp_path / "a")
        b = run(tmp_path / "b")
        assert a.parameters == b.parameters
        assert a.y_mean == b.y_mean


class TestStoreAwareEvaluatorReplay:
    def test_stored_record_equals_fresh_measurement(self, tmp_path, settings,
                                                    small_spd):
        """Serving from the store is bit-identical to re-measuring."""
        parameters = MCMCParameters(alpha=1.0, eps=0.5, delta=0.5)
        store = ObservationStore(tmp_path / "store")
        with_store = MatrixEvaluator(small_spd, "lap", settings=settings,
                                     seed=3, store=store)
        first = with_store.evaluate(parameters, n_replications=2)
        served = with_store.evaluate(parameters, n_replications=2)
        fresh = MatrixEvaluator(small_spd, "lap", settings=settings,
                                seed=3).evaluate(parameters, n_replications=2)
        assert served.y_values == first.y_values == fresh.y_values
        assert (served.preconditioned_iterations
                == fresh.preconditioned_iterations)


class TestRegimeIsolation:
    """Records from incompatible solver settings must not be pooled."""

    def test_different_settings_do_not_reuse(self, tmp_path, small_spd):
        store_dir = tmp_path / "store"
        loose = TuningService(store_dir, cache=ArtifactCache(max_entries=8),
                              settings=SolverSettings(maxiter=50))
        loose.tune_batch([TuningRequest(matrix=small_spd, name="lap",
                                        budget=3, n_replications=1, seed=0)])
        strict = TuningService(store_dir, cache=ArtifactCache(max_entries=8),
                               settings=SolverSettings(maxiter=400))
        [result] = strict.tune_batch([TuningRequest(
            matrix=small_spd, name="lap", budget=3, n_replications=1, seed=0)])
        # The maxiter=50 records are invisible to the maxiter=400 regime:
        # everything is measured fresh and nothing counts as reused.
        assert result.reused_observations == 0
        assert result.measurements == 3

    def test_different_seed_same_settings_is_reused(self, tmp_path, settings,
                                                    small_spd):
        """Seeds differ -> same regime, so budget accounting still reuses."""
        service = TuningService(tmp_path / "store",
                                cache=ArtifactCache(max_entries=8),
                                settings=settings)
        service.tune_batch([TuningRequest(matrix=small_spd, name="lap",
                                          budget=3, n_replications=1, seed=0)])
        [reseeded] = service.tune_batch([TuningRequest(
            matrix=small_spd, name="lap", budget=3, n_replications=1, seed=9)])
        assert reseeded.reused_observations == 3
        assert reseeded.measurements == 0
