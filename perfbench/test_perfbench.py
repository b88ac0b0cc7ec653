"""Self-tests of the benchmark: its generators, catalogue and statistics.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api.schemas import SolveRequestV1
from repro.server.server import SolveServer
from repro.service.cache import ArtifactCache, global_cache
from repro.sparse.fingerprint import matrix_fingerprint

from perfbench import inputs
from perfbench.report import tail
from perfbench.serving import WARM_SOLVER
from perfbench.spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent


def _cold_fingerprints(seed: int, count: int) -> list[str]:
    return [matrix_fingerprint(inputs.cold_request(seed, k).matrix)
            for k in range(count)]


def test_same_seed_gives_same_inputs():
    first = [matrix_fingerprint(m) for m in inputs.warm_working_set(3)]
    again = [matrix_fingerprint(m) for m in inputs.warm_working_set(3)]
    other = [matrix_fingerprint(m) for m in inputs.warm_working_set(4)]
    assert first == again
    assert not set(first) & set(other)
    assert _cold_fingerprints(3, 4) == _cold_fingerprints(3, 4)
    sizes = [m.shape[0] for m in inputs.warm_working_set(3)]
    index, rhs = inputs.warm_request(3, 1, 5, sizes)
    index_again, rhs_again = inputs.warm_request(3, 1, 5, sizes)
    assert index == index_again and np.array_equal(rhs, rhs_again)
    profile = inputs.tune_profile()
    assert (matrix_fingerprint(inputs.tune_target(3, 1, profile)[1])
            == matrix_fingerprint(inputs.tune_target(3, 1, profile)[1]))


def test_serve_cold_never_repeats_a_fingerprint():
    cycles = 2 * len(inputs.COLD_CYCLE)
    fingerprints = _cold_fingerprints(0, cycles) + _cold_fingerprints(1, cycles)
    assert len(set(fingerprints)) == len(fingerprints)


def test_serve_warm_working_set_fits_the_replica_cache():
    seed = 2
    matrices = inputs.warm_working_set(seed)
    sizes = [matrix.shape[0] for matrix in matrices]
    server = SolveServer(cache=ArtifactCache(global_cache().max_entries),
                         background=False, record_observations=False)
    try:
        for index, matrix in enumerate(matrices):
            response = server.solve(SolveRequestV1(
                matrix=matrix, rhs=inputs.warm_fixed_rhs(seed, index, sizes[index]),
                solver=WARM_SOLVER))
            assert response.provenance.built_family in inputs.WARM_FAMILIES
        before = server.cache.stats.as_dict()
        for k in range(16):
            index, rhs = inputs.warm_request(seed, k % 2, k, sizes)
            server.solve(SolveRequestV1(matrix=matrices[index], rhs=rhs,
                                        solver=WARM_SOLVER))
        after = server.cache.stats.as_dict()
    finally:
        server.shutdown()
    hits = after["hits"] - before["hits"]
    assert hits > 0 and after["misses"] == before["misses"]
    assert after["evictions"] == before["evictions"]


def test_no_tuning_target_is_in_the_training_set():
    profile = inputs.tune_profile()
    training = inputs.training_matrices(profile)
    training_fingerprints = {matrix_fingerprint(m) for m in training.values()}
    for seed in (0, 5):
        for k in range(4):
            name, matrix = inputs.tune_target(seed, k, profile)
            assert name not in training
            assert matrix_fingerprint(matrix) not in training_fingerprints


def test_layer_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    catalogue = json.loads((ROOT / "perfbench" / "layers.json")
                           .read_text(encoding="utf-8"))["layers"]
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, entry["unit"], entry["better"])
        for name, entry in catalogue.items()]
    for name, entry in catalogue.items():
        kind = entry["source"].partition(":")[0]
        assert kind in ("span", "sample", "value"), name
        assert set(entry["moves"]) <= end_to_end, name
        assert set(entry["on"]) | set(entry["not_on"]) <= workloads, name
    assert "setup_s" in end_to_end
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_span_self_time_subtracts_covered_children():
    rec = SpanRecorder(True)
    rec.spans = [
        {"id": 1, "name": "root", "op": "a", "parent": None,
         "start": 0.0, "end": 1.0},
        {"id": 2, "name": "child", "op": "a", "parent": 1,
         "start": 0.1, "end": 0.4},
        {"id": 3, "name": "child", "op": "a", "parent": 1,
         "start": 0.3, "end": 0.5},
    ]
    table = rec.self_times_ms()
    assert table["root"]["self_ms"] == pytest.approx(600.0)
    assert table["child"]["count"] == 2


def test_tail_needs_ten_samples_beyond():
    assert tail(range(1000))["percentile"] == 99.0
    assert tail(range(100))["percentile"] == 90.0
    assert tail(range(12))["percentile"] == 50.0
    assert tail([5.0])["value"] == 5.0
