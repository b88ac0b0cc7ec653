"""HPO driver for the graph neural surrogate (Sec. 4.3).

Reproduces the paper's protocol at configurable scale: a TPE sampler proposes
surrogate configurations from the published search space (conv type,
aggregation, hidden widths, layer counts, learning rate, weight decay,
dropout), an ASHA scheduler stops unpromising trials early based on the
validation loss per epoch, and the best configuration by final validation loss
wins.

Each trial is one :meth:`repro.core.training.Trainer.fit` run over the full
epoch budget; its per-epoch callback reports the best validation loss to
ASHA every ``epochs_per_report`` epochs and stops the run when ASHA stops
the trial, so a trial keeps one optimizer and one shuffle sequence from
its first epoch to its last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.dataset import SurrogateDataset
from repro.core.surrogate import GraphNeuralSurrogate, SurrogateConfig
from repro.core.training import Trainer, TrainingConfig, TrainingHistory
from repro.exceptions import SearchSpaceError
from repro.hpo.asha import ASHAScheduler, TrialStatus
from repro.hpo.space import Choice, IntUniform, LogUniform, SearchSpace, Uniform
from repro.hpo.tpe import TPESampler
from repro.logging_utils import get_logger

__all__ = ["surrogate_search_space", "HPOResult", "SurrogateHPO"]

_LOG = get_logger("hpo.tuner")


def surrogate_search_space(*, full: bool = False) -> SearchSpace:
    """The paper's surrogate search space (Sec. 4.3).

    ``full=True`` uses the published ranges (hidden dimensions up to 512,
    up to four layers everywhere); the default is a reduced space whose models
    train in seconds, preserving every dimension of the search.
    """
    if full:
        return SearchSpace({
            "conv_type": Choice(["edge", "gcn", "gatv2", "gine"]),
            "aggregation": Choice(["mean", "sum", "max", "multi"]),
            "graph_hidden": Choice([32, 64, 128, 256, 512]),
            "graph_layers": IntUniform(1, 4),
            "xa_hidden": Choice([8, 16, 32, 64]),
            "xa_layers": IntUniform(1, 4),
            "xm_hidden": Choice([4, 8, 16, 32]),
            "xm_layers": IntUniform(1, 4),
            "combined_hidden": Choice([32, 64, 128, 256, 512]),
            "combined_layers": IntUniform(1, 4),
            "learning_rate": LogUniform(1e-4, 1e-1),
            "weight_decay": LogUniform(1e-6, 1e-3),
            "dropout": Uniform(0.0, 0.2),
        })
    return SearchSpace({
        "conv_type": Choice(["edge", "gcn", "gine"]),
        "aggregation": Choice(["mean", "sum", "max"]),
        "graph_hidden": Choice([16, 32]),
        "graph_layers": IntUniform(1, 2),
        "xa_hidden": Choice([8, 16]),
        "xa_layers": IntUniform(1, 2),
        "xm_hidden": Choice([8, 16]),
        "xm_layers": IntUniform(1, 3),
        "combined_hidden": Choice([16, 32]),
        "combined_layers": IntUniform(1, 2),
        "learning_rate": LogUniform(1e-3, 3e-2),
        "weight_decay": LogUniform(1e-6, 1e-3),
        "dropout": Uniform(0.0, 0.2),
    })


@dataclass
class HPOResult:
    """Outcome of a surrogate hyperparameter search."""

    best_config: dict[str, Any]
    best_value: float
    history: list[tuple[dict[str, Any], float]] = field(default_factory=list)
    stopped_early: int = 0

    def as_surrogate_config(self, dataset: SurrogateDataset, *,
                            seed: int = 0) -> SurrogateConfig:
        """Convert the winning configuration to a :class:`SurrogateConfig`."""
        return _to_surrogate_config(self.best_config, dataset, seed=seed)


def _to_surrogate_config(config: dict[str, Any], dataset: SurrogateDataset, *,
                         seed: int = 0) -> SurrogateConfig:
    return SurrogateConfig(
        node_dim=dataset.node_feature_dim,
        edge_dim=dataset.edge_feature_dim,
        xa_dim=dataset.xa_dim,
        xm_dim=dataset.xm_dim,
        conv_type=str(config["conv_type"]),
        aggregation=str(config["aggregation"]),
        graph_hidden=int(config["graph_hidden"]),
        graph_layers=int(config["graph_layers"]),
        xa_hidden=int(config["xa_hidden"]),
        xa_layers=int(config["xa_layers"]),
        xm_hidden=int(config["xm_hidden"]),
        xm_layers=int(config["xm_layers"]),
        combined_hidden=int(config["combined_hidden"]),
        combined_layers=int(config["combined_layers"]),
        dropout=float(config["dropout"]),
        seed=seed,
    )


class SurrogateHPO:
    """TPE + ASHA hyperparameter optimisation of the surrogate.

    Parameters
    ----------
    dataset:
        Labelled dataset the candidate surrogates are trained on.
    space:
        Search space (defaults to the reduced version of the paper's space).
    max_epochs, grace_period, reduction_factor:
        ASHA settings (paper: 150 / 20 / 3).
    epochs_per_report:
        Trials report their validation loss to the scheduler every this many
        epochs.
    seed:
        Base seed for the sampler and the per-trial model initialisation.
    """

    def __init__(self, dataset: SurrogateDataset, *,
                 space: SearchSpace | None = None,
                 max_epochs: int = 30, grace_period: int = 5,
                 reduction_factor: int = 3, epochs_per_report: int = 5,
                 seed: int = 0) -> None:
        if epochs_per_report < 1:
            raise SearchSpaceError(
                f"epochs_per_report must be >= 1, got {epochs_per_report}")
        self.dataset = dataset
        self.space = space if space is not None else surrogate_search_space()
        self.max_epochs = max_epochs
        self.grace_period = grace_period
        self.reduction_factor = reduction_factor
        self.epochs_per_report = epochs_per_report
        self.seed = seed

    def _evaluate_trial(self, config: dict[str, Any], scheduler: ASHAScheduler,
                        trial_id: int) -> float:
        """Train one candidate, reporting to the scheduler; returns best val loss."""
        surrogate_config = _to_surrogate_config(config, self.dataset, seed=self.seed)
        model = GraphNeuralSurrogate(surrogate_config)
        train_indices, validation_indices = self.dataset.split(0.2, seed=self.seed)
        trainer = Trainer(TrainingConfig(
            epochs=self.max_epochs, batch_size=128,
            learning_rate=float(config["learning_rate"]),
            weight_decay=float(config["weight_decay"]),
            patience=10 ** 6,  # early stopping handled by ASHA here
            min_epochs=1, seed=self.seed + trial_id))

        def report(epoch: int, history: TrainingHistory) -> bool:
            epochs_done = epoch + 1
            if (epochs_done % self.epochs_per_report
                    and epochs_done < self.max_epochs):
                return False
            status = scheduler.report(trial_id, epochs_done,
                                      history.best_validation_loss)
            return status is not TrialStatus.RUNNING

        history = trainer.fit(model, self.dataset, train_indices=train_indices,
                              validation_indices=validation_indices,
                              on_epoch=report)
        return history.best_validation_loss

    def run(self, n_trials: int = 8) -> HPOResult:
        """Run the search and return the best configuration found."""
        if n_trials < 1:
            raise SearchSpaceError(f"n_trials must be >= 1, got {n_trials}")
        sampler = TPESampler(self.space, seed=self.seed,
                             n_startup_trials=max(2, n_trials // 4))
        scheduler = ASHAScheduler(max_resource=self.max_epochs,
                                  grace_period=self.grace_period,
                                  reduction_factor=self.reduction_factor)
        history: list[tuple[dict[str, Any], float]] = []
        stopped = 0
        for _ in range(n_trials):
            config = sampler.suggest()
            trial = scheduler.add_trial(config)
            value = self._evaluate_trial(config, scheduler, trial.trial_id)
            if trial.status is TrialStatus.STOPPED:
                stopped += 1
            sampler.observe(config, value)
            history.append((config, value))
            _LOG.debug("HPO trial %d: val loss %.4f (%s)", trial.trial_id, value,
                       trial.status.value)
        best_config, best_value = sampler.best()
        return HPOResult(best_config=best_config, best_value=best_value,
                         history=history, stopped_early=stopped)
