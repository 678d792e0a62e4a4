"""Named trainable parameters, Adam updates, and checkpoint round-trips."""

from __future__ import annotations

import logging
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor

log = logging.getLogger(__name__)


@dataclass
class AdamConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        # Every check is written so that NaN and infinity fail it.
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 <= b < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {b}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")


class _AdamSlot:
    __slots__ = ("m", "v", "step")

    def __init__(self, shape: tuple[int, int]):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.step = 0


class ParameterStore:
    """Registry of named parameter tensors plus Adam state for each trainable one."""

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}
        self._slots: dict[str, _AdamSlot] = {}

    def create(
        self,
        name: str,
        shape: tuple[int, int],
        rng: np.random.Generator | None = None,
        values=None,
        trainable: bool = True,
        fan_in: int | None = None,
    ) -> Tensor:
        """Register a parameter; default init is uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)).
        Given ``values`` must have exactly ``shape``."""
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        if values is None:
            if rng is None:
                raise ValueError(f"parameter {name!r} needs an rng or explicit values")
            bound = 1.0 / math.sqrt(max(fan_in if fan_in is not None else shape[0], 1))
            values = rng.uniform(-bound, bound, size=shape)
        arr = np.array(values, dtype=np.float64)
        if arr.shape != tuple(shape):
            raise ValueError(
                f"parameter {name!r}: values of shape {arr.shape}, expected {tuple(shape)}"
            )
        tensor = Tensor(arr, requires_grad=trainable)
        self._params[name] = tensor
        if trainable:
            self._slots[name] = _AdamSlot(shape)
        return tensor

    def items(self):
        return self._params.items()

    def trainable(self) -> list[Tensor]:
        return [t for t in self._params.values() if t.requires_grad]

    def clone_values(self) -> dict[str, np.ndarray]:
        return {name: t.values.copy() for name, t in self._params.items()}

    def load_values(self, snapshot: dict[str, np.ndarray], source="snapshot") -> None:
        """Copy ``snapshot`` in; nothing is written unless every name and shape matches."""
        if snapshot.keys() != self._params.keys():
            raise ValueError(
                f"{source}: parameters do not match the model: "
                f"missing {sorted(self._params.keys() - snapshot.keys())}, "
                f"unexpected {sorted(snapshot.keys() - self._params.keys())}"
            )
        for name, values in snapshot.items():
            if values.shape != self._params[name].values.shape:
                raise ValueError(
                    f"{source}: shape mismatch for {name!r}: "
                    f"{values.shape} vs {self._params[name].values.shape}"
                )
        for name, values in snapshot.items():
            np.copyto(self._params[name].values, values)

    def save(self, path) -> None:
        """Write every parameter to ``path`` as an ``.npz`` archive keyed by name."""
        with open(path, "wb") as fh:  # a handle keeps np.savez from appending .npz
            np.savez(fh, **self.clone_values())

    def load(self, path) -> None:
        """Load a ``save`` checkpoint exactly; nothing is written unless every
        name and shape matches and every value is a finite float64."""
        try:
            archive = np.load(path, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("a single array, not an .npz archive")
            with archive:
                saved = {name: archive[name] for name in archive.files}
        except (ValueError, EOFError, zipfile.BadZipFile) as err:
            raise ValueError(f"{path}: not a checkpoint written by save: {err}") from None
        for name, values in saved.items():
            if values.dtype != np.float64 or not np.isfinite(values).all():
                raise ValueError(f"{path}: {name!r} holds non-finite or non-float64 values")
        self.load_values(saved, source=path)


def adam_step(store: ParameterStore, config: AdamConfig) -> None:
    """Bias-corrected Adam update on every parameter with a gradient; grads
    cleared (each gradient array is overwritten as scratch space first)."""
    for name, p in store.items():
        if not p.requires_grad:
            continue
        if p.grad is None:
            log.debug("adam_step: no gradient for %s; skipped", name)
            continue
        g = p.grad
        if config.weight_decay:
            g = g + config.weight_decay * p.values
        slot = store._slots[name]
        slot.step += 1
        # In place, in the operation order of
        #   m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
        #   p -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)
        # so the bytes match that formula's.  The gradient, cleared after
        # the step, is the scratch space with one temporary.
        m, v = slot.m, slot.v
        buf = np.multiply(g, g)
        np.multiply(buf, 1.0 - config.beta2, out=buf)
        np.multiply(v, config.beta2, out=v)
        np.add(v, buf, out=v)
        np.multiply(g, 1.0 - config.beta1, out=g)
        np.multiply(m, config.beta1, out=m)
        np.add(m, g, out=m)
        np.divide(v, 1.0 - config.beta2**slot.step, out=buf)
        np.sqrt(buf, out=buf)
        np.add(buf, config.epsilon, out=buf)
        np.divide(m, 1.0 - config.beta1**slot.step, out=g)
        np.multiply(g, config.learning_rate, out=g)
        np.divide(g, buf, out=g)
        np.subtract(p.values, g, out=p.values)
        p.grad = None
