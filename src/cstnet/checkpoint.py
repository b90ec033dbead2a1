"""Save/restore a model (config echo + named parameters and buffers)."""

from __future__ import annotations

from .errors import ConfigError, FormatError
from .io import read_checkpoint, write_checkpoint
from .model import Cstnet, CstnetConfig


def save_model(path, model: Cstnet):
    write_checkpoint(path, model.cfg.to_dict(), model.named_state())


def load_model(path) -> Cstnet:
    config, state = read_checkpoint(path)
    try:
        model = Cstnet(CstnetConfig.from_dict(config))
    except (TypeError, ConfigError) as exc:
        raise FormatError(f"{path}: config echo does not describe a model ({exc})") from None
    try:
        model.load_state(state)
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return model
