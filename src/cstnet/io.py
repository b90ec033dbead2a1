"""Binary tensor files and the checkpoint container.

Tensor file ("CSTT", one array per file):

    bytes 0..3   magic b"CSTT"
    bytes 4..5   format version, u16 little-endian (currently 1)
    byte  6      dtype tag: 1 = float32, 2 = float64
    byte  7      rank r
    next 8*r     extents, u64 little-endian each
    rest         raw element bytes, little-endian, C order

Checkpoint file ("CSTC"): a config echo plus named tensors.

    bytes 0..3   magic b"CSTC"
    bytes 4..5   format version, u16 little-endian (currently 1)
    u32          length of the UTF-8 JSON config echo, then the echo
    u32          tensor count n
    n records    u16 name length, name UTF-8, then a CSTT-style payload
                 (dtype tag, rank, extents, raw values) without magic/version

Tensors are written sorted by name so identical states serialize to
identical bytes.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

TENSOR_MAGIC = b"CSTT"
CHECKPOINT_MAGIC = b"CSTC"
FORMAT_VERSION = 1

_DTYPE_TAGS = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_TAGS_BY_KIND = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}


def _dtype_tag(arr: np.ndarray) -> int:
    tag = _TAGS_BY_KIND.get(arr.dtype.newbyteorder("="))
    if tag is None:
        raise FormatError(f"unsupported dtype {arr.dtype} (float32/float64 only)")
    return tag


def _pack_array(arr: np.ndarray) -> bytes:
    tag = _dtype_tag(arr)
    parts = [struct.pack("<BB", tag, arr.ndim)]
    parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
    parts.append(np.ascontiguousarray(arr, dtype=_DTYPE_TAGS[tag]).tobytes())
    return b"".join(parts)


def read_file(path, text: bool = False):
    """The bytes of ``path``, or its UTF-8 text with ``text``; a read that fails
    is a FormatError naming the path."""
    try:
        data = Path(path).read_bytes()
        return data.decode("utf-8") if text else data
    except OSError as exc:
        raise FormatError(f"{path}: cannot read ({exc.strerror or exc})") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text at offset {exc.start}") from None


class _Reader:
    """Reads a container front to back after checking its magic and version;
    ``take`` returns views, not copies."""

    def __init__(self, path, magic: bytes):
        self.name = str(path)
        self.data = memoryview(read_file(path))
        self.offset = 0
        found = self.take(4, "magic")
        if found != magic:
            raise FormatError(f"{self.name}: bad magic {bytes(found)!r} at offset 0")
        (version,) = struct.unpack("<H", self.take(2, "version"))
        if version != FORMAT_VERSION:
            raise FormatError(f"{self.name}: unsupported format version {version} at offset 4")

    def take(self, n: int, what: str) -> memoryview:
        if self.offset + n > len(self.data):
            raise FormatError(f"{self.name}: truncated while reading {what} "
                              f"at offset {self.offset}")
        chunk = self.data[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def unpack_array(self) -> np.ndarray:
        tag, rank = struct.unpack("<BB", self.take(2, "dtype/rank header"))
        if tag not in _DTYPE_TAGS:
            raise FormatError(f"{self.name}: unknown dtype tag {tag} at offset {self.offset - 2}")
        at = self.offset
        shape = struct.unpack(f"<{rank}Q", self.take(8 * rank, "extents")) if rank else ()
        dtype = _DTYPE_TAGS[tag]
        raw = self.take(math.prod(shape) * dtype.itemsize, "tensor values")
        try:
            return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        except ValueError:      # an empty array with an extent numpy cannot index
            raise FormatError(f"{self.name}: extents {shape} at offset {at} are too large") from None

    def finish(self):
        if self.offset != len(self.data):
            raise FormatError(f"{self.name}: {len(self.data) - self.offset} trailing bytes "
                              f"at offset {self.offset}")


def write_tensor(path, arr: np.ndarray):
    payload = TENSOR_MAGIC + struct.pack("<H", FORMAT_VERSION) + _pack_array(arr)
    Path(path).write_bytes(payload)


def read_tensor(path) -> np.ndarray:
    reader = _Reader(path, TENSOR_MAGIC)
    arr = reader.unpack_array()
    reader.finish()
    return arr


def write_checkpoint(path, config: dict, state: dict[str, np.ndarray]):
    echo = json.dumps(config, sort_keys=True).encode("utf-8")
    parts = [CHECKPOINT_MAGIC, struct.pack("<H", FORMAT_VERSION),
             struct.pack("<I", len(echo)), echo, struct.pack("<I", len(state))]
    for name in sorted(state):
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(_pack_array(state[name]))
    Path(path).write_bytes(b"".join(parts))


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    reader = _Reader(path, CHECKPOINT_MAGIC)
    (echo_len,) = struct.unpack("<I", reader.take(4, "config length"))
    try:
        config = json.loads(bytes(reader.take(echo_len, "config echo")).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: corrupt config echo ({exc})") from None
    if not isinstance(config, dict):
        raise FormatError(f"{path}: config echo is not a JSON object")
    (count,) = struct.unpack("<I", reader.take(4, "tensor count"))
    state: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", reader.take(2, "name length"))
        at = reader.offset
        try:
            name = bytes(reader.take(name_len, "tensor name")).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: tensor name at offset {at} is not UTF-8") from None
        if name in state:
            raise FormatError(f"{path}: tensor name {name!r} at offset {at} repeats")
        state[name] = reader.unpack_array()
    reader.finish()
    return config, state
