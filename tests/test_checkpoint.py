"""Checkpoint container: round trips, canonical bytes, corruption handling."""

import struct

import numpy as np
import pytest

from cstnet.checkpoint import load_model, save_model
from cstnet.errors import FormatError
from cstnet.io import read_checkpoint, write_checkpoint
from cstnet.model import Cstnet, CstnetConfig


def micro_model(seed=0):
    return Cstnet(CstnetConfig(num_identities=4, clip_len=2, frame_h=16, frame_w=8,
                               stage_channels=(4, 8, 8, 8, 8), embedding_dim=8,
                               csl_channels=4, csl_pool_h=2, csl_pool_w=2,
                               sti_channels=4, sti_pool_h=2, sti_pool_w=1,
                               seed=seed))


def test_container_round_trip(tmp_path, rng):
    state = {"a.weight": rng.standard_normal((3, 4)).astype(np.float32),
             "b.bias": rng.standard_normal(5)}
    config = {"kind": "demo", "n": 3}
    write_checkpoint(tmp_path / "c.ckpt", config, state)
    got_config, got_state = read_checkpoint(tmp_path / "c.ckpt")
    assert got_config == config
    assert set(got_state) == set(state)
    for name in state:
        assert np.array_equal(got_state[name], state[name])
        assert got_state[name].dtype == state[name].dtype


def test_model_round_trip_bit_exact(tmp_path):
    model = micro_model(seed=5)
    save_model(tmp_path / "m.ckpt", model)
    restored = load_model(tmp_path / "m.ckpt")
    assert restored.cfg == model.cfg
    for (na, pa), (nb, pb) in zip(model.named_parameters(), restored.named_parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)
    for (na, ba), (nb, bb) in zip(model.named_buffers(), restored.named_buffers()):
        assert na == nb and np.array_equal(ba, bb)


def test_identical_states_serialize_to_identical_bytes(tmp_path):
    save_model(tmp_path / "a.ckpt", micro_model(seed=9))
    save_model(tmp_path / "b.ckpt", micro_model(seed=9))
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_restored_model_evaluates_identically(tmp_path, rng):
    model = micro_model(seed=1)
    clips = rng.random((3, 2, 3, 16, 8))
    before = model.embed_clips(clips)
    save_model(tmp_path / "m.ckpt", model)
    after = load_model(tmp_path / "m.ckpt").embed_clips(clips)
    assert np.array_equal(before, after)


def test_corrupt_magic(tmp_path):
    save_model(tmp_path / "m.ckpt", micro_model())
    raw = bytearray((tmp_path / "m.ckpt").read_bytes())
    raw[:4] = b"JUNK"
    (tmp_path / "m.ckpt").write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        load_model(tmp_path / "m.ckpt")


def test_truncated_checkpoint(tmp_path):
    save_model(tmp_path / "m.ckpt", micro_model())
    raw = (tmp_path / "m.ckpt").read_bytes()
    (tmp_path / "m.ckpt").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError, match="truncated"):
        load_model(tmp_path / "m.ckpt")


def test_state_shape_mismatch_rejected(tmp_path):
    model = micro_model()
    state = model.named_state()
    state["embed.weight"] = np.zeros((2, 2), dtype=np.float32)
    write_checkpoint(tmp_path / "m.ckpt", model.cfg.to_dict(), state)
    with pytest.raises(FormatError, match="embed.weight") as info:
        load_model(tmp_path / "m.ckpt")
    assert str(info.value).startswith(f"{tmp_path / 'm.ckpt'}: ")


def test_missing_entry_rejected(tmp_path):
    model = micro_model()
    state = model.named_state()
    state.pop("classify.bias")
    write_checkpoint(tmp_path / "m.ckpt", model.cfg.to_dict(), state)
    with pytest.raises(FormatError, match="missing") as info:
        load_model(tmp_path / "m.ckpt")
    assert str(info.value).startswith(f"{tmp_path / 'm.ckpt'}: ")


def test_config_echo_must_describe_model(tmp_path):
    write_checkpoint(tmp_path / "m.ckpt", {"nonsense": True}, {})
    with pytest.raises(FormatError):
        load_model(tmp_path / "m.ckpt")


def test_config_echo_must_be_an_object(tmp_path):
    write_checkpoint(tmp_path / "m.ckpt", "abc", {})
    with pytest.raises(FormatError, match="config echo is not a JSON object"):
        load_model(tmp_path / "m.ckpt")


def write_raw_checkpoint(path, name: bytes, extents: tuple, values: bytes = b"", copies=1):
    """A float32 checkpoint with an empty config echo and ``copies`` records of
    one tensor, byte by byte."""
    echo = b"{}"
    record = (struct.pack("<H", len(name)) + name
              + struct.pack(f"<BB{len(extents)}Q", 1, len(extents), *extents) + values)
    path.write_bytes(b"CSTC" + struct.pack("<HI", 1, len(echo)) + echo
                     + struct.pack("<I", copies) + copies * record)


def test_extents_whose_product_overflows_are_truncation(tmp_path):
    # 2^32 * 2^32 elements wrap to 0 in int64
    write_raw_checkpoint(tmp_path / "m.ckpt", b"w", (2 ** 32, 2 ** 32))
    with pytest.raises(FormatError, match="truncated while reading tensor values"):
        read_checkpoint(tmp_path / "m.ckpt")


def test_empty_tensor_with_unindexable_extent_rejected(tmp_path):
    write_raw_checkpoint(tmp_path / "m.ckpt", b"w", (0, 2 ** 63))
    with pytest.raises(FormatError, match="too large"):
        read_checkpoint(tmp_path / "m.ckpt")


def test_tensor_name_must_be_utf8(tmp_path):
    write_raw_checkpoint(tmp_path / "m.ckpt", b"\xffw", (1,), struct.pack("<f", 1.0))
    with pytest.raises(FormatError, match="not UTF-8"):
        read_checkpoint(tmp_path / "m.ckpt")


def test_repeated_tensor_name_rejected(tmp_path):
    write_raw_checkpoint(tmp_path / "m.ckpt", b"w", (1,), struct.pack("<f", 2.0), copies=2)
    with pytest.raises(FormatError, match="tensor name 'w' at offset 35 repeats"):
        read_checkpoint(tmp_path / "m.ckpt")

