"""Tests for the graph neural surrogate and its trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.surrogate import GraphNeuralSurrogate, SurrogateConfig
from repro.core.training import Trainer, TrainingConfig, surrogate_loss
from repro.exceptions import SurrogateError
from repro.nn.tensor import Tensor


class TestSurrogateConfig:
    def test_paper_configuration_matches_section_4_4(self):
        config = SurrogateConfig.paper()
        assert config.conv_type == "edge"
        assert config.aggregation == "mean"
        assert config.graph_hidden == 256
        assert config.graph_layers == 1
        assert config.xa_hidden == 64 and config.xa_layers == 1
        assert config.xm_hidden == 16 and config.xm_layers == 3
        assert config.combined_hidden == 128 and config.combined_layers == 2

    def test_with_dims(self):
        config = SurrogateConfig().with_dims(node_dim=3, edge_dim=2, xa_dim=7, xm_dim=5)
        assert (config.node_dim, config.edge_dim, config.xa_dim, config.xm_dim) \
            == (3, 2, 7, 5)

    def test_invalid_graph_layers(self, tiny_surrogate_config):
        from dataclasses import replace

        with pytest.raises(SurrogateError):
            GraphNeuralSurrogate(replace(tiny_surrogate_config, graph_layers=0))


class TestSurrogateForward:
    def test_output_shapes_and_positivity(self, tiny_dataset, tiny_surrogate_config):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        batch = tiny_dataset.full_batch()
        mu, sigma = model.predict_batch(batch)
        assert mu.shape == (batch.size,)
        assert sigma.shape == (batch.size,)
        assert np.all(mu >= 0.0)       # ReLU head (Eq. 1)
        assert np.all(sigma > 0.0)     # softplus head (Eq. 1)

    def test_prediction_deterministic_in_eval_mode(self, tiny_dataset,
                                                   tiny_surrogate_config):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        batch = tiny_dataset.full_batch()
        first = model.predict_batch(batch)
        second = model.predict_batch(batch)
        np.testing.assert_allclose(first[0], second[0])
        np.testing.assert_allclose(first[1], second[1])

    def test_embedding_shortcut_matches_full_forward(self, tiny_dataset,
                                                     tiny_surrogate_config):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        model.eval()
        batch = tiny_dataset.full_batch()
        from repro.nn.tensor import no_grad

        with no_grad():
            mu_full, sigma_full = model.forward(batch.graph_batch,
                                                batch.sample_graph_index,
                                                batch.x_a, batch.x_m)
            embedding = model.embed_graphs_numpy(batch.graph_batch)
            mu_short, sigma_short = model.forward_from_embedding(
                embedding, batch.sample_graph_index, batch.x_a, batch.x_m)
        np.testing.assert_allclose(mu_full.data, mu_short.data, atol=1e-12)
        np.testing.assert_allclose(sigma_full.data, sigma_short.data, atol=1e-12)

    def test_gradients_reach_every_parameter_group(self, tiny_dataset,
                                                   tiny_surrogate_config):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        batch = tiny_dataset.full_batch()
        loss = Trainer.batch_loss(model, batch)
        loss.backward()
        grouped = {"conv": 0.0, "xa_mlp": 0.0, "xm_mlp": 0.0, "combined": 0.0,
                   "head": 0.0}
        for name, parameter in model.named_parameters():
            if parameter.grad is None:
                continue
            magnitude = float(np.abs(parameter.grad).sum())
            if name.startswith("conv_layers"):
                grouped["conv"] += magnitude
            elif name.startswith("xa_mlp"):
                grouped["xa_mlp"] += magnitude
            elif name.startswith("xm_mlp"):
                grouped["xm_mlp"] += magnitude
            elif name.startswith("combined_mlp"):
                grouped["combined"] += magnitude
            elif "head" in name:
                grouped["head"] += magnitude
        assert all(value > 0.0 for value in grouped.values()), grouped

    def test_input_gradient_for_x_m(self, tiny_dataset, tiny_surrogate_config):
        """EI maximisation needs d mu / d x_M -- the input gradient must flow."""
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        model.eval()
        batch = tiny_dataset.full_batch()
        embedding = model.embed_graphs_numpy(batch.graph_batch)
        x_m = Tensor(batch.x_m[:1], requires_grad=True)
        mu, _sigma = model.forward_from_embedding(embedding,
                                                  batch.sample_graph_index[:1],
                                                  batch.x_a[:1], x_m)
        mu.sum().backward()
        assert x_m.grad is not None
        assert np.abs(x_m.grad).sum() > 0.0


class TestTrainer:
    def test_training_reduces_validation_loss(self, tiny_dataset,
                                              tiny_surrogate_config):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        trainer = Trainer(TrainingConfig(epochs=15, batch_size=8, learning_rate=5e-3,
                                         weight_decay=0.0, patience=15, seed=0))
        train_idx, val_idx = tiny_dataset.split(0.2, seed=0)
        initial = Trainer.evaluate_loss(model,
                                        tiny_dataset.batch_from_indices(val_idx))
        history = trainer.fit(model, tiny_dataset, train_indices=train_idx,
                              validation_indices=val_idx)
        assert history.best_validation_loss < initial
        assert history.epochs_run <= 15
        assert len(history.train_losses) == history.epochs_run

    def test_early_stopping(self, tiny_dataset, tiny_surrogate_config):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        trainer = Trainer(TrainingConfig(epochs=200, batch_size=8, learning_rate=1e-2,
                                         patience=3, min_epochs=1, seed=0))
        history = trainer.fit(model, tiny_dataset)
        assert history.epochs_run < 200

    def test_best_weights_restored(self, tiny_dataset, tiny_surrogate_config):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        trainer = Trainer(TrainingConfig(epochs=10, batch_size=8, learning_rate=5e-3,
                                         patience=10, seed=0))
        history = trainer.fit(model, tiny_dataset)
        _train_idx, val_idx = tiny_dataset.split(0.2, seed=0)
        final_loss = Trainer.evaluate_loss(model,
                                           tiny_dataset.batch_from_indices(val_idx))
        assert final_loss == pytest.approx(history.best_validation_loss, rel=1e-6)

    def test_surrogate_loss_formula(self):
        mu = Tensor(np.array([1.0, 2.0]))
        sigma = Tensor(np.array([0.5, 0.5]))
        loss = surrogate_loss(mu, sigma, np.array([1.0, 1.0]), np.array([0.5, 1.0]))
        # mean((mu - y)^2) + mean((sigma - s)^2) = 0.5 + 0.125
        assert loss.item() == pytest.approx(0.625)

    def test_invalid_epochs(self, tiny_dataset, tiny_surrogate_config):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        with pytest.raises(SurrogateError):
            Trainer(TrainingConfig(epochs=0)).fit(model, tiny_dataset)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0),
        ("batch_size", 0),
        ("validation_fraction", 0.0),
        ("validation_fraction", 1.0),
        ("validation_fraction", -0.2),
        ("patience", -1),
        ("min_epochs", -1),
    ])
    def test_invalid_config_rejected_at_construction(self, field, value):
        with pytest.raises(SurrogateError, match=field):
            TrainingConfig(**{field: value})

    def test_resume_walks_the_uninterrupted_batch_order(
            self, tiny_dataset, tiny_surrogate_config, monkeypatch):
        train_idx, val_idx = tiny_dataset.split(0.2, seed=0)
        walked: list[tuple[int, ...]] = []
        batch_from_indices = tiny_dataset.batch_from_indices

        def recording(indices):
            if tuple(indices) != tuple(val_idx):
                walked.append(tuple(int(i) for i in indices))
            return batch_from_indices(indices)

        monkeypatch.setattr(tiny_dataset, "batch_from_indices", recording)
        trainer = Trainer(TrainingConfig(epochs=6, batch_size=8, patience=100,
                                         seed=0))
        splits = dict(train_indices=train_idx, validation_indices=val_idx)

        trainer.fit(GraphNeuralSurrogate(tiny_surrogate_config), tiny_dataset,
                    **splits)
        uninterrupted = list(walked)
        walked.clear()

        checkpoint = {}

        def stop_after_epoch_2(epoch, history):
            checkpoint.update(model.state_dict())
            return epoch == 2

        model = GraphNeuralSurrogate(tiny_surrogate_config)
        first = trainer.fit(model, tiny_dataset, on_epoch=stop_after_epoch_2,
                            **splits)
        assert first.epochs_run == 3 and first.stopped_early
        resumed_model = GraphNeuralSurrogate(tiny_surrogate_config)
        resumed_model.load_state_dict(checkpoint)
        resumed_loss = Trainer.evaluate_loss(
            resumed_model, tiny_dataset.batch_from_indices(val_idx))
        second = trainer.fit(resumed_model, tiny_dataset, start_epoch=3,
                             **splits)

        assert len(uninterrupted) == 6 * int(np.ceil(train_idx.size / 8))
        assert walked == uninterrupted
        assert second.epochs_run == 3
        assert second.best_validation_loss <= resumed_loss

    def test_on_epoch_exception_propagates(self, tiny_dataset,
                                           tiny_surrogate_config):
        epochs = []

        def abort_at_epoch_1(epoch, history):
            epochs.append(epoch)
            if epoch == 1:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            Trainer(TrainingConfig(epochs=5, batch_size=8, seed=0)).fit(
                GraphNeuralSurrogate(tiny_surrogate_config), tiny_dataset,
                on_epoch=abort_at_epoch_1)
        assert epochs == [0, 1]

    def test_paper_training_config(self):
        config = TrainingConfig.paper()
        assert config.epochs == 150
        assert config.batch_size == 128
        assert config.learning_rate == pytest.approx(1.848e-3)
        assert config.weight_decay == 1.0
