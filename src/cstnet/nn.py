"""Parameter containers and the three layer types the network is built from."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import ConfigError
from .tensor import Tensor, add, batch_norm, conv2d, matmul, permute, reshape


class Parameter(Tensor):
    """A leaf tensor owned by a module and updated by the optimizer."""

    __slots__ = ()

    def __init__(self, data, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)


class Module:
    """Minimal parameter tree: children, parameters and buffers by name."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def register_buffer(self, name: str, value: np.ndarray):
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._params.items():
            yield prefix + name, p
        for name, child in self._modules.items():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, b in self._buffers.items():
            yield prefix + name, b
        for name, child in self._modules.items():
            yield from child.named_buffers(prefix + name + ".")

    def named_state(self) -> dict[str, np.ndarray]:
        """Parameters and buffers, for serialization."""
        state = {name: p.data for name, p in self.named_parameters()}
        state.update(self.named_buffers())
        return state

    def load_state(self, state: dict[str, np.ndarray]):
        own = dict(self.named_parameters())
        bufs = dict(self.named_buffers())
        for name, arr in state.items():
            if name in own:
                if own[name].data.shape != arr.shape:
                    raise ConfigError(f"state mismatch for '{name}': model has "
                                      f"{own[name].data.shape}, state has {arr.shape}")
                own[name].data = arr.astype(own[name].data.dtype, copy=True)
            elif name in bufs:
                bufs[name][...] = arr
            else:
                raise ConfigError(f"state contains unknown entry '{name}'")
        missing = (set(own) | set(bufs)) - set(state)
        if missing:
            raise ConfigError(f"state is missing entries: {sorted(missing)}")

    def train(self, mode: bool = True):
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()


def fan_in_uniform(rng: np.random.Generator, shape: tuple, fan_in: int, dtype) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Conv2d(Module):
    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int = 1, padding: int = 0,
                 bias: bool = True, *, rng: np.random.Generator, dtype=np.float32,
                 zero_init: bool = False):
        super().__init__()
        self.stride = stride
        self.padding = padding
        shape = (c_out, c_in, kernel, kernel)
        if zero_init:
            w = np.zeros(shape, dtype=dtype)
        else:
            w = fan_in_uniform(rng, shape, c_in * kernel * kernel, dtype)
        self.weight = Parameter(w)
        self.bias = Parameter(np.zeros(c_out, dtype=dtype)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class BatchNorm2d(Module):
    def __init__(self, channels: int, *, dtype=np.float32, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(channels, dtype=dtype))
        self.beta = Parameter(np.zeros(channels, dtype=dtype))
        self.register_buffer("running_mean", np.zeros(channels, dtype=dtype))
        self.register_buffer("running_var", np.ones(channels, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        return batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var,
                          training=self.training, momentum=self.momentum, eps=self.eps)


class Linear(Module):
    def __init__(self, c_in: int, c_out: int, *, rng: np.random.Generator, dtype=np.float32,
                 zero_init: bool = False):
        super().__init__()
        if zero_init:
            w = np.zeros((c_out, c_in), dtype=dtype)
        else:
            w = fan_in_uniform(rng, (c_out, c_in), c_in, dtype)
        self.weight = Parameter(w)
        self.bias = Parameter(np.zeros(c_out, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        """Apply to the trailing feature axis of an arbitrary-rank input."""
        lead = x.shape[:-1]
        flat = reshape(x, (-1, x.shape[-1])) if x.ndim != 2 else x
        out = add(matmul(flat, permute(self.weight, (1, 0))), self.bias)
        if x.ndim != 2:
            out = reshape(out, lead + (self.weight.shape[0],))
        return out
