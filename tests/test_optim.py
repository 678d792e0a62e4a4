import json
import re

import numpy as np
import pytest

from subgraph_infomax import autodiff as ad
from subgraph_infomax.autodiff import Tensor, backward
from subgraph_infomax.data import SyntheticSpec, generate_synthetic
from subgraph_infomax.models import ModelConfig, build_model
from subgraph_infomax.optim import AdamConfig, ParameterStore, adam_step


def make_store(values, trainable=True):
    store = ParameterStore()
    arr = np.asarray(values, dtype=np.float64)
    p = store.create("p", arr.shape, values=arr, trainable=trainable)
    return store, p


class TestAdamConfig:
    def test_defaults(self):
        cfg = AdamConfig()
        assert cfg.learning_rate == 1e-3
        assert cfg.beta1 == 0.9 and cfg.beta2 == 0.999
        assert cfg.epsilon == 1e-8

    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": 0.0},
        {"beta1": 1.0},
        {"beta2": -0.1},
        {"learning_rate": float("nan")},
        {"epsilon": float("nan")},
        {"weight_decay": -5.0},
        {"weight_decay": float("nan")},
        # epsilon=inf would make every update 0: a run that trains without moving.
        {"learning_rate": float("inf")},
        {"epsilon": float("inf")},
        {"weight_decay": float("inf")},
    ])
    def test_validation(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            AdamConfig(**kwargs)


class TestAdamStep:
    def test_first_step_moves_by_learning_rate(self):
        store, p = make_store(np.zeros((2, 3)))
        p.grad = np.ones((2, 3))
        adam_step(store, AdamConfig(learning_rate=1e-3))
        # Bias correction makes m_hat / sqrt(v_hat) = 1 on the first step.
        assert np.allclose(p.values, -1e-3, atol=1e-9)
        assert p.grad is None

    def test_zero_grad_leaves_parameter_unchanged(self):
        store, p = make_store([[1.0, 2.0]])
        p.grad = np.zeros((1, 2))
        adam_step(store, AdamConfig())
        assert np.array_equal(p.values, [[1.0, 2.0]])

    def test_missing_grad_is_noop(self):
        store, p = make_store([[1.0]])
        adam_step(store, AdamConfig())
        assert np.array_equal(p.values, [[1.0]])

    def test_quadratic_loss_decreases(self):
        store, p = make_store([[2.0, -3.0]])
        cfg = AdamConfig(learning_rate=0.05)

        def loss_value():
            return float((p.values**2).sum())

        first = loss_value()
        for _ in range(2):
            backward(ad.sum(ad.mul(p, p)))
            adam_step(store, cfg)
        assert loss_value() < first

    def test_weight_decay_shrinks_weights(self):
        store, p = make_store([[10.0]])
        p.grad = np.zeros((1, 1))
        adam_step(store, AdamConfig(weight_decay=0.1))
        assert p.values[0, 0] < 10.0

    def test_accumulation_defers_update(self):
        # Two backward passes before one step behave like a summed gradient.
        store, p = make_store([[1.0]])
        backward(ad.sum(ad.scale(p, 1.0)))
        backward(ad.sum(ad.scale(p, 1.0)))
        assert np.array_equal(p.grad, [[2.0]])
        adam_step(store, AdamConfig())
        assert p.grad is None

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_steps_equal_the_allocating_formula_byte_for_byte(self, weight_decay):
        cfg = AdamConfig(learning_rate=3e-3, weight_decay=weight_decay)
        rng = np.random.default_rng(9)
        store, p = make_store(rng.normal(size=(50, 16)))
        values, m, v = p.values.copy(), np.zeros((50, 16)), np.zeros((50, 16))
        for step in range(1, 4):
            grad = rng.normal(size=(50, 16))
            p.grad = grad.copy()
            adam_step(store, cfg)
            g = grad + weight_decay * values if weight_decay else grad
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g)
            m_hat = m / (1.0 - cfg.beta1**step)
            v_hat = v / (1.0 - cfg.beta2**step)
            values = values - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
            assert p.values.tobytes() == values.tobytes()
        slot = store._slots["p"]
        assert slot.m.tobytes() == m.tobytes() and slot.v.tobytes() == v.tobytes()


class TestParameterStore:
    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.create("w", (1, 1), values=[[0.0]])
        with pytest.raises(ValueError):
            store.create("w", (1, 1), values=[[0.0]])

    @pytest.mark.parametrize("values", [np.zeros((10, 4)), np.zeros((20, 2, 1)), [1.0, 2.0]])
    def test_values_of_another_shape_rejected(self, values):
        store = ParameterStore()
        message = r"^parameter 'x': values of shape .*, expected \(20, 2\)$"
        with pytest.raises(ValueError, match=message):
            store.create("x", (20, 2), values=values)
        assert not store.items()

    def test_fan_in_bound(self):
        store = ParameterStore()
        rng = np.random.default_rng(0)
        w = store.create("w", (64, 8), rng)
        assert np.abs(w.values).max() <= 1.0 / np.sqrt(64)

    def test_non_trainable_excluded_from_trainable(self):
        store = ParameterStore()
        store.create("frozen", (1, 1), values=[[1.0]], trainable=False)
        store.create("free", (1, 1), values=[[1.0]])
        assert len(store.trainable()) == 1

    def test_a_frozen_table_holds_no_adam_state(self):
        # Adam never steps a frozen parameter, so it gets no m and v arrays.
        bundle = generate_synthetic(SyntheticSpec(num_nodes=40, num_subgraphs=6))
        model = build_model(ModelConfig(), bundle, np.random.default_rng(0), embedding_trainable=False)
        assert "embedding" not in model.store._slots
        assert model.store._slots.keys() == {n for n, t in model.store.items() if t.requires_grad}

    def test_snapshot_roundtrip(self):
        store, p = make_store([[1.0, 2.0]])
        snap = store.clone_values()
        p.values[:] = 99.0
        store.load_values(snap)
        assert np.array_equal(p.values, [[1.0, 2.0]])

    def test_checkpoint_roundtrip_is_exact(self, tmp_path):
        store = ParameterStore()
        rng = np.random.default_rng(3)
        store.create("a", (3, 4), rng)
        store.create("b", (1, 7), rng, trainable=False)
        path = tmp_path / "params"  # save keeps the path as given; no .npz is appended
        store.save(path)
        assert list(tmp_path.iterdir()) == [path]

        fresh = ParameterStore()
        fresh.create("a", (3, 4), values=np.zeros((3, 4)))
        fresh.create("b", (1, 7), values=np.zeros((1, 7)), trainable=False)
        fresh.load(path)
        loaded = dict(fresh.items())
        assert loaded.keys() == {"a", "b"}
        for name, tensor in store.items():
            assert loaded[name].values.tobytes() == tensor.values.tobytes()
            assert loaded[name].requires_grad == tensor.requires_grad

    def test_checkpoint_with_other_names_is_rejected(self, tmp_path):
        store = ParameterStore()
        store.create("a", (1, 2), values=[[1.0, 2.0]])
        store.create("b", (1, 1), values=[[3.0]])
        path = tmp_path / "params.npz"
        store.save(path)

        other = ParameterStore()
        kept = other.create("a", (1, 2), values=[[0.0, 0.0]])
        other.create("c", (1, 1), values=[[0.0]])
        with pytest.raises(ValueError, match=r"params\.npz.*missing \['c'\], unexpected \['b'\]"):
            other.load(path)
        assert np.array_equal(kept.values, [[0.0, 0.0]])


def _write_params(path, **arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _write_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros((1, 2)))


# Each writer leaves at ``path`` a file that ``load`` must refuse, and the
# message it must raise (after the path).
BAD_CHECKPOINTS = {
    "shape": (
        lambda path: _write_params(path, a=np.zeros((1, 2)), b=np.zeros((1, 1))),
        r": shape mismatch for 'b': \(1, 1\) vs \(1, 2\)",
    ),
    "names": (
        lambda path: _write_params(path, a=np.zeros((1, 2))),
        r": parameters do not match the model: missing \['b'\], unexpected \[\]",
    ),
    "nan": (
        lambda path: _write_params(path, a=np.zeros((1, 2)), b=np.array([[0.0, np.nan]])),
        r": 'b' holds non-finite or non-float64 values",
    ),
    "int": (
        lambda path: _write_params(path, a=np.zeros((1, 2)), b=np.ones((1, 2), dtype=np.int64)),
        r": 'b' holds non-finite or non-float64 values",
    ),
    "json": (
        lambda path: path.write_text(
            json.dumps({"format": "subgraph-infomax-params-v1", "params": {}}), encoding="utf-8"
        ),
        r": not a checkpoint written by save",
    ),
    "empty": (lambda path: path.write_bytes(b""), r": not a checkpoint written by save"),
    "npy": (_write_npy, r": not a checkpoint written by save"),
    "zip": (lambda path: path.write_bytes(b"PK\x03\x04 not a zip"), r": not a checkpoint"),
}


@pytest.mark.parametrize("kind", sorted(BAD_CHECKPOINTS))
def test_failed_load_names_the_file_and_leaves_values_unchanged(tmp_path, kind):
    write, message = BAD_CHECKPOINTS[kind]
    path = tmp_path / f"{kind}.npz"
    write(path)
    store = ParameterStore()
    a = store.create("a", (1, 2), values=[[1.0, 2.0]])
    b = store.create("b", (1, 2), values=[[3.0, 4.0]], trainable=False)
    with pytest.raises(ValueError, match="^" + re.escape(str(path)) + message):
        store.load(path)
    assert np.array_equal(a.values, [[1.0, 2.0]]) and np.array_equal(b.values, [[3.0, 4.0]])
