"""Deliberate fault injection, used only to prove the verification suite
catches broken builds (e.g. a sign-flipped correlation).  Never active unless
explicitly requested.
"""

from contextlib import contextmanager

from .errors import ConfigError

KNOWN_FAULTS = ("ncc-sign-flip",)

_active: set[str] = set()


def is_active(name: str) -> bool:
    return name in _active


@contextmanager
def injected(name: str):
    """Activate the named fault for the body of the ``with`` block."""
    if name not in KNOWN_FAULTS:
        raise ConfigError(f"unknown fault '{name}'; known: {KNOWN_FAULTS}")
    _active.add(name)
    try:
        yield
    finally:
        _active.discard(name)
