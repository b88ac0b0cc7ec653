"""Integration test of the surrogate HPO driver (TPE + ASHA) on the tiny dataset."""

from __future__ import annotations

import pytest

import repro.core.training
from repro.core.surrogate import GraphNeuralSurrogate
from repro.exceptions import SearchSpaceError
from repro.hpo.asha import ASHAScheduler, TrialStatus
from repro.hpo import Choice, IntUniform, LogUniform, SearchSpace, SurrogateHPO, Uniform


@pytest.fixture()
def micro_space():
    """A very small search space so each trial trains in well under a second."""
    return SearchSpace({
        "conv_type": Choice(["edge", "gcn"]),
        "aggregation": Choice(["mean"]),
        "graph_hidden": Choice([4, 8]),
        "graph_layers": IntUniform(1, 1),
        "xa_hidden": Choice([4]),
        "xa_layers": IntUniform(1, 1),
        "xm_hidden": Choice([4]),
        "xm_layers": IntUniform(1, 2),
        "combined_hidden": Choice([8]),
        "combined_layers": IntUniform(1, 1),
        "learning_rate": LogUniform(1e-3, 1e-2),
        "weight_decay": LogUniform(1e-6, 1e-4),
        "dropout": Uniform(0.0, 0.1),
    })


class TestSurrogateHPO:
    def test_run_returns_trainable_configuration(self, tiny_dataset, micro_space):
        hpo = SurrogateHPO(tiny_dataset, space=micro_space, max_epochs=4,
                           grace_period=2, epochs_per_report=2, seed=0)
        result = hpo.run(n_trials=3)
        assert len(result.history) == 3
        assert result.best_value == min(value for _, value in result.history)
        config = result.as_surrogate_config(tiny_dataset, seed=0)
        # The winning configuration must actually instantiate.
        model = GraphNeuralSurrogate(config)
        assert model.num_parameters() > 0

    def test_invalid_arguments(self, tiny_dataset, micro_space):
        with pytest.raises(SearchSpaceError):
            SurrogateHPO(tiny_dataset, space=micro_space, epochs_per_report=0)
        hpo = SurrogateHPO(tiny_dataset, space=micro_space, max_epochs=2,
                           grace_period=1)
        with pytest.raises(SearchSpaceError):
            hpo.run(n_trials=0)


class TestTrialTraining:
    def test_trial_is_one_optimizer_reporting_each_window(
            self, tiny_dataset, micro_space, monkeypatch):
        adam_builds = []
        adam = repro.core.training.Adam

        def counting_adam(*args, **kwargs):
            adam_builds.append(1)
            return adam(*args, **kwargs)

        reports = []
        report = ASHAScheduler.report

        def recording_report(self, trial_id, resource, value):
            reports.append(resource)
            return report(self, trial_id, resource, value)

        monkeypatch.setattr(repro.core.training, "Adam", counting_adam)
        monkeypatch.setattr(ASHAScheduler, "report", recording_report)
        hpo = SurrogateHPO(tiny_dataset, space=micro_space, max_epochs=4,
                           grace_period=2, epochs_per_report=2, seed=0)
        hpo.run(n_trials=1)
        assert len(adam_builds) == 1
        assert reports == [2, 4]

    def test_trial_stopped_by_asha_stops_training(self, tiny_dataset,
                                                  micro_space, monkeypatch):
        reports = []

        def stop_at_first_report(self, trial_id, resource, value):
            reports.append(resource)
            self._trials[trial_id].status = TrialStatus.STOPPED
            return TrialStatus.STOPPED

        monkeypatch.setattr(ASHAScheduler, "report", stop_at_first_report)
        hpo = SurrogateHPO(tiny_dataset, space=micro_space, max_epochs=6,
                           grace_period=2, epochs_per_report=2, seed=0)
        result = hpo.run(n_trials=1)
        assert reports == [2]
        assert result.stopped_early == 1
