"""Adam with coupled L2 weight decay and a step-decay learning-rate schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .nn import Parameter

BETA1 = 0.9         # decay of the first-moment estimate
BETA2 = 0.999       # decay of the second-moment estimate
EPS = 1e-8          # added to the second moment's square root


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 3e-4
    weight_decay: float = 5e-4
    lr_decay: float = 0.1
    lr_decay_every: int = 200       # epochs between decays

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0 < self.lr_decay <= 1:
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.lr_decay_every < 1:
            raise ConfigError(f"lr_decay_every must be >= 1, got {self.lr_decay_every}")


def lr_at_epoch(cfg: AdamConfig, epoch: int) -> float:
    return cfg.lr * cfg.lr_decay ** (epoch // cfg.lr_decay_every)


def adam_update(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
                step: int, lr: float, weight_decay: float):
    """One in-place Adam step on a single parameter (step is 1-based)."""
    g = grad + weight_decay * param if weight_decay else grad
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * (g * g)
    m_hat = m / (1.0 - BETA1 ** step)
    v_hat = v / (1.0 - BETA2 ** step)
    param -= lr * m_hat / (np.sqrt(v_hat) + EPS)


class Adam:
    def __init__(self, params: dict[str, Parameter], cfg: AdamConfig = AdamConfig()):
        self.params = dict(params)
        self.cfg = cfg
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self, lr: float | None = None):
        """Apply one update from the accumulated gradients.

        Every gradient is checked before any parameter moves, so a
        non-finite one raises with the parameters, moments and step count
        all as they were.
        """
        updates = [(name, p) for name, p in self.params.items() if p.grad is not None]
        for name, p in updates:
            if not np.isfinite(p.grad).all():
                raise NumericError(f"non-finite gradient for parameter '{name}' "
                                   f"at optimizer step {self.step_count + 1}")
        self.step_count += 1
        lr = self.cfg.lr if lr is None else lr
        for name, p in updates:
            adam_update(p.data, p.grad.astype(p.data.dtype, copy=False),
                        self._m[name], self._v[name], self.step_count, lr,
                        self.cfg.weight_decay)
