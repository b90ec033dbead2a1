"""Command-line behavior: determinism, config handling, exit codes, outputs."""

import argparse
import json
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cstnet import cli
from cstnet.cli import DEFAULTS, config_from, load_config_file, main, resolve_config
from cstnet.data import SynthSpec
from cstnet.experiments import variant_flags
from cstnet.io import read_checkpoint, read_tensor, write_checkpoint, write_tensor
from cstnet.model import Cstnet, CstnetConfig
from cstnet.optim import AdamConfig
from cstnet.presets import LEARNABILITY_DATA, desk_train_config
from cstnet.train import TrainConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def files_equal(a: Path, b: Path) -> bool:
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names_a)


def synth_args(out, identities=6, seed=7, extra=()):
    return ["synth", "--num-identities", str(identities), "--cams", "2",
            "--seqs-per-cam", "2", "--seq-len-min", "4", "--seq-len-max", "6",
            "--seed", str(seed), "--out", str(out), *extra]


class TestSynth:
    def test_same_seed_byte_identical_datasets(self, tmp_path):
        assert main(synth_args(tmp_path / "a")) == 0
        assert main(synth_args(tmp_path / "b")) == 0
        assert files_equal(tmp_path / "a" / "dataset", tmp_path / "b" / "dataset")

    def test_zero_identities_is_an_error_exit(self, tmp_path, capsys):
        assert main(synth_args(tmp_path / "a", identities=0)) == 1
        assert "error" in capsys.readouterr().err

    def test_census_line(self, tmp_path, capsys):
        assert main(["synth", "--num-identities", "5", "--cams", "3", "--seqs-per-cam", "1",
                     "--seed", "0", "--out", str(tmp_path / "a")]) == 0
        out = capsys.readouterr().out
        assert "sequences=15" in out        # identities x cams at one sequence each
        assert "identities=5" in out and "cameras=3" in out

    def test_resolved_config_echo_written(self, tmp_path):
        main(synth_args(tmp_path / "a"))
        echo = (tmp_path / "a" / "config_resolved.cfg").read_text()
        assert "num_identities = 6" in echo and "seed = 7" in echo

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("num_identities = 4\nseed = 3\n")
        assert main(["synth", "--config", str(cfg), "--seed", "9",
                     "--out", str(tmp_path / "a")]) == 0
        echo = (tmp_path / "a" / "config_resolved.cfg").read_text()
        assert "num_identities = 4" in echo     # from file
        assert "seed = 9" in echo           # overridden on the command line

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("identitties = 4\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 1
        assert "unknown key" in capsys.readouterr().err

    # keys are field names; the older key names get no alias
    @pytest.mark.parametrize("key", ["identities", "illum_scale_lo", "illum_shift_hi"])
    def test_renamed_key_rejected(self, tmp_path, capsys, key):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(f"seed = 1\n{key} = 4\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 1
        assert f"unknown key {key!r} on line 2" in capsys.readouterr().err

    def test_tuple_keys_parse_as_float_pairs(self, tmp_path):
        assert main(synth_args(tmp_path / "a", extra=("--illum-scale", "0.7,1.3",
                                                       "--illum-shift=-0.1,0.1"))) == 0
        echo = (tmp_path / "a" / "config_resolved.cfg").read_text()
        assert "illum_scale = 0.7,1.3" in echo and "illum_shift = -0.1,0.1" in echo

    def test_pair_starting_with_a_minus_sign_is_a_value(self, tmp_path):
        assert main(synth_args(tmp_path / "a", extra=("--illum-shift", "-0.1,0.1"))) == 0
        echo = (tmp_path / "a" / "config_resolved.cfg").read_text()
        assert "illum_shift = -0.1,0.1" in echo

    @pytest.mark.parametrize("flag", ["--illum-scale", "--illum-shift"])
    def test_illumination_range_must_be_a_pair(self, tmp_path, capsys, flag):
        assert main(synth_args(tmp_path / "a", extra=(flag, "0.7"))) == 1
        err = capsys.readouterr().err
        assert "illum_scale and illum_shift must each be a (lo, hi) pair" in err

    def test_env_var_overrides_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CSTNET_OUT", str(tmp_path / "forced"))
        main(synth_args(tmp_path / "ignored"))
        assert (tmp_path / "forced" / "dataset" / "index.txt").exists()
        assert not (tmp_path / "ignored").exists()


def train_args(data, out, epochs=1, extra=()):
    return ["train", "--data", str(data), "--out", str(out),
            "--epochs", str(epochs), "--clip-len", "2", "--p", "4", "--k", "2",
            "--stage-channels", "4,8,8,8,8", "--embedding-dim", "8",
            "--csl-channels", "4", "--csl-pool-h", "2", "--csl-pool-w", "2",
            "--sti-channels", "4", "--sti-pool-h", "2", "--sti-pool-w", "1",
            "--seed", "5", *extra]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main(["synth", "--num-identities", "8", "--cams", "2", "--seqs-per-cam", "2",
                 "--seq-len-min", "4", "--seq-len-max", "6", "--frame-h", "16",
                 "--frame-w", "8", "--clutter", "0.3", "--seed", "2",
                 "--out", str(out)])
    assert code == 0
    return out / "dataset"


class TestTrain:
    def test_zero_epochs_checkpoint_equals_initialization(self, tmp_path, dataset_dir):
        out = tmp_path / "run"
        assert main(train_args(dataset_dir, out, epochs=0)) == 0
        config, state = read_checkpoint(out / "checkpoint.ckpt")
        fresh = Cstnet(CstnetConfig.from_dict(config))
        for name, arr in fresh.named_state().items():
            assert np.array_equal(state[name], arr), name

    def test_fixed_seed_identical_runs(self, tmp_path, dataset_dir):
        for sub in ("a", "b"):
            assert main(train_args(dataset_dir, tmp_path / sub, epochs=2)) == 0
        assert ((tmp_path / "a" / "checkpoint.ckpt").read_bytes()
                == (tmp_path / "b" / "checkpoint.ckpt").read_bytes())
        logs = []
        for sub in ("a", "b"):
            lines = (tmp_path / sub / "train_log.jsonl").read_text().splitlines()
            records = [json.loads(line) for line in lines]
            for rec in records:
                for name in ("wall_ms", "sample_ms", "forward_ms", "backward_ms", "step_ms"):
                    rec.pop(name)           # the timings are the only volatile fields
            logs.append(records)
        assert logs[0] == logs[1]

    def test_base_ablation_has_no_insertion_parameters(self, tmp_path, dataset_dir, capsys):
        out = tmp_path / "base"
        assert main(train_args(dataset_dir, out, epochs=0, extra=("--ablation", "base"))) == 0
        printed = capsys.readouterr().out
        assert "csl" not in printed and "sti" not in printed
        _, state = read_checkpoint(out / "checkpoint.ckpt")
        assert not any(name.startswith(("csl", "sti")) for name in state)

    def test_mixed_frame_shapes_exit_one_with_located_message(self, tmp_path, dataset_dir, capsys):
        data = tmp_path / "mixed"
        shutil.copytree(dataset_dir, data)
        frames = read_tensor(data / "seq00003.cstt")
        write_tensor(data / "seq00003.cstt", np.ascontiguousarray(frames[:, :, :8, :]))
        assert main(train_args(data, tmp_path / "out", epochs=1)) == 1
        err = capsys.readouterr().err
        assert str(data / "index.txt") in err
        assert "sequence 3" in err and "8x8 frames" in err

    def test_missing_dataset_is_config_error(self, tmp_path, capsys):
        assert main(train_args(tmp_path / "nope", tmp_path / "out", epochs=0)) == 1

    def test_bad_ablation_name(self, tmp_path, dataset_dir, capsys):
        assert main(train_args(dataset_dir, tmp_path / "out", epochs=0,
                               extra=("--ablation", "everything"))) == 1
        assert "ablation" in capsys.readouterr().err

    # flag, value, the field it sets, and the error message after "error: <field> "
    OUT_OF_RANGE = [
        ("--p", "0", "p", "must be >= "),
        ("--k", "0", "k", "must be >= "),
        ("--epochs", "-1", "epochs", "must be >= "),
        ("--steps-per-epoch", "-1", "steps_per_epoch", "must be >= "),
        ("--lr-decay-every", "0", "lr_decay_every", "must be >= "),
        ("--stage-strides", "0,2,2,2,2", "stage_strides", "must be >= "),
        ("--stage-channels", "0,8,8,8,8", "stage_channels", "must be >= "),
        ("--csl-channels", "0", "csl_channels", "must be >= 1, got 0"),
        ("--csl-pool-h", "-1", "csl_pool_h", "must be >= 1, got -1"),
        ("--csl-pool-w", "0", "csl_pool_w", "must be >= 1, got 0"),
        ("--sti-channels", "-3", "sti_channels", "must be >= 1, got -3"),
        ("--sti-pool-h", "0", "sti_pool_h", "must be >= 1, got 0"),
        ("--sti-pool-w", "-2", "sti_pool_w", "must be >= 1, got -2"),
        ("--clip-len", "1", "clip_len", "must be >= 2 with CSL inserted"),
        ("--flip-p", "3", "flip_p", "must be in [0, 1], got 3.0"),
        ("--erase-p", "-2", "erase_p", "must be in [0, 1], got -2.0"),
        ("--margin", "-1", "margin", "must be >= 0, got -1.0"),
        ("--label-smoothing", "5", "label_smoothing", "must be in [0, 1), got 5.0"),
        ("--lr", "-1", "lr", "must be >= 0, got -1.0"),
        ("--weight-decay", "-0.1", "weight_decay", "must be >= 0, got -0.1"),
        ("--lr-decay", "2", "lr_decay", "must be in (0, 1], got 2.0"),
    ]

    @pytest.mark.parametrize("flag, value, field, rule",
                             [pytest.param(*row, id="-".join(row[:3])) for row in OUT_OF_RANGE])
    def test_out_of_range_value_exits_one_naming_the_field(self, tmp_path, dataset_dir, capsys,
                                                           flag, value, field, rule):
        assert main(train_args(dataset_dir, tmp_path / "out", epochs=1,
                               extra=(flag, value))) == 1
        assert capsys.readouterr().err.startswith(f"error: {field} {rule}")
        assert not (tmp_path / "out").exists()


class TestEval:
    def test_metrics_table_and_determinism(self, tmp_path, dataset_dir, capsys):
        run = tmp_path / "run"
        assert main(train_args(dataset_dir, run, epochs=1)) == 0
        capsys.readouterr()
        outputs = []
        for sub in ("e1", "e2"):
            assert main(["eval", "--checkpoint", str(run / "checkpoint.ckpt"),
                         "--data", str(dataset_dir), "--max-rank", "20",
                         "--out", str(tmp_path / sub)]) == 0
            outputs.append(capsys.readouterr().out.splitlines()[:2])   # the table
        assert outputs[0] == outputs[1]
        head = outputs[0][0]
        for column in ("Rank-1", "Rank-5", "Rank-20", "mAP"):
            assert column in head
        assert ((tmp_path / "e1" / "metrics.txt").read_bytes()
                == (tmp_path / "e2" / "metrics.txt").read_bytes())

    def test_oracle_embedding_fixture_reports_hundred_percent(self, tmp_path, capsys):
        # duplicate every sequence across cameras: any deterministic embedding
        # puts the true match at distance zero
        from cstnet.data import SequenceRecord, VideoDataset, save_dataset
        rng = np.random.default_rng(0)
        seqs = []
        for identity in range(4):
            frames = rng.random((4, 3, 16, 8)).astype(np.float32)
            seqs.append(SequenceRecord(identity, 0, "query", frames))
            seqs.append(SequenceRecord(identity, 1, "gallery", frames.copy()))
            seqs.append(SequenceRecord(identity, 0, "train", frames.copy()))
        save_dataset(VideoDataset(seqs), tmp_path / "dup")
        run = tmp_path / "run"
        assert main(train_args(tmp_path / "dup", run, epochs=0)) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(run / "checkpoint.ckpt"),
                     "--data", str(tmp_path / "dup"), "--out", str(tmp_path / "e")]) == 0
        table = capsys.readouterr().out.splitlines()[1]
        assert table.split()[0] == "100.0"

    @pytest.mark.parametrize("max_rank", ["0", "-1"])
    def test_max_rank_below_one_exits_one(self, tmp_path, dataset_dir, capsys, max_rank):
        run = tmp_path / "run"
        assert main(train_args(dataset_dir, run, epochs=0)) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(run / "checkpoint.ckpt"),
                     "--data", str(dataset_dir), "--max-rank", max_rank,
                     "--out", str(tmp_path / "e")]) == 1
        assert "error: max_rank must be >= 1" in capsys.readouterr().err

    def test_table_shows_only_ranks_up_to_max_rank(self, tmp_path, dataset_dir, capsys):
        run = tmp_path / "run"
        assert main(train_args(dataset_dir, run, epochs=0)) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(run / "checkpoint.ckpt"),
                     "--data", str(dataset_dir), "--max-rank", "1",
                     "--out", str(tmp_path / "e")]) == 0
        head, row = capsys.readouterr().out.splitlines()[:2]
        assert head.split() == ["Rank-1", "mAP"]
        assert len(row.split()) == 2

    def test_frame_size_mismatch_rejected(self, tmp_path, dataset_dir, capsys):
        run = tmp_path / "run"
        assert main(train_args(dataset_dir, run, epochs=0)) == 0
        code = main(["synth", "--num-identities", "4", "--cams", "2", "--seqs-per-cam", "2",
                     "--frame-h", "32", "--frame-w", "16", "--seed", "1",
                     "--out", str(tmp_path / "big")])
        assert code == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(run / "checkpoint.ckpt"),
                     "--data", str(tmp_path / "big" / "dataset"),
                     "--out", str(tmp_path / "e")]) == 1

    def test_malformed_checkpoint_exits_one_naming_the_file(self, tmp_path, dataset_dir, capsys):
        ckpt = tmp_path / "m.ckpt"
        write_checkpoint(ckpt, "abc", {})
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset_dir),
                     "--out", str(tmp_path / "e")]) == 1
        assert capsys.readouterr().err == f"error: {ckpt}: config echo is not a JSON object\n"

    def test_checkpoint_echoing_removed_fields_exits_one(self, tmp_path, dataset_dir, capsys):
        # in_channels, input_scale and ncc_eps were config fields before they became constants
        run = tmp_path / "run"
        assert main(train_args(dataset_dir, run, epochs=0)) == 0
        config, state = read_checkpoint(run / "checkpoint.ckpt")
        old = tmp_path / "old.ckpt"
        write_checkpoint(old, {**config, "in_channels": 3, "input_scale": 1.0, "ncc_eps": 1e-5},
                         state)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(old), "--data", str(dataset_dir),
                     "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert f"{old}: config echo does not describe a model" in err
        assert "unexpected keyword argument 'in_channels'" in err

    @pytest.mark.parametrize("field, value", [
        ("embedding_dim", 64.5), ("clip_len", 2.0), ("stage_channels", [4, 8.5, 8, 8, 8]),
        ("seed", 1.5), ("with_csl", "yes")])
    def test_checkpoint_echo_value_of_wrong_type_exits_one(self, tmp_path, dataset_dir, capsys,
                                                           field, value):
        run = tmp_path / "run"
        assert main(train_args(dataset_dir, run, epochs=0)) == 0
        config, state = read_checkpoint(run / "checkpoint.ckpt")
        bad = tmp_path / "bad.ckpt"
        write_checkpoint(bad, {**config, field: value}, state)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(bad), "--data", str(dataset_dir),
                     "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: config echo does not describe a model ({field} must be" in err


class TestVerifyCommand:
    def test_injected_fault_fails_with_exit_two(self, capsys):
        # the fault negates the correlation on the model's path only, so exactly
        # the check of that path against the oracle fails
        assert main(["verify", "--inject-fault", "ncc-sign-flip"]) == 2
        lines = capsys.readouterr().out.splitlines()
        failed = {line.split()[1] for line in lines if line.startswith("FAIL  ")}
        assert failed == {"oracle/fused_cosaliency"}

    def test_unknown_fault_name_is_config_error(self, capsys):
        assert main(["verify", "--inject-fault", "bogus"]) == 1

    @pytest.mark.parametrize("command", ["verify"])      # the commands without an output dir
    def test_config_file_is_read_and_out_is_not_a_key(self, tmp_path, capsys, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("out = somewhere\n")
        assert main([command, "--config", str(cfg)]) == 1
        assert "unknown key 'out' on line 1" in capsys.readouterr().err


@pytest.fixture(scope="module")
def init_checkpoint(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("init")
    assert main(train_args(dataset_dir, out, epochs=0)) == 0
    return out / "checkpoint.ckpt"


def edited_checkpoint(edit):
    """A case: ``eval`` of a copy of the checkpoint that ``edit(config, state)`` changed."""
    def case(tmp, checkpoint, data):
        config, state = read_checkpoint(checkpoint)
        edit(config, state)
        bad = tmp / "bad.ckpt"
        write_checkpoint(bad, config, state)
        return ["eval", "--checkpoint", str(bad), "--data", str(data)], bad
    return case


def replaced(suffix, value):
    """A case: the first state entry whose name ends in ``suffix`` becomes ``value``."""
    def edit(config, state):
        state[next(name for name in sorted(state) if name.endswith(suffix))] = value
    return edited_checkpoint(edit)


def non_utf8_config(tmp, checkpoint, data):
    cfg = tmp / "bad.cfg"
    cfg.write_bytes(b"seed = 1\n# caf\xe9\n")
    return ["synth", "--config", str(cfg)], cfg


def non_utf8_index(tmp, checkpoint, data):
    copy = tmp / "data"
    shutil.copytree(data, copy)
    with open(copy / "index.txt", "ab") as fh:
        fh.write(b"\xff\n")
    return train_args(copy, tmp / "out", epochs=0), copy / "index.txt"


MALFORMED = {
    "buffer-of-shape-1": replaced("running_mean", np.zeros(1, np.float32)),
    "buffer-of-shape-9": replaced("running_mean", np.zeros(9, np.float32)),
    "embed-weight-of-shape-2x2": replaced("embed.weight", np.zeros((2, 2), np.float32)),
    "nan-embed-weight": edited_checkpoint(lambda config, state: state["embed.weight"].fill(np.nan)),
    "csl-pool-of-one-position": edited_checkpoint(lambda config, state: config.update(
        csl_pool_h=1, csl_pool_w=1)),
    "config-is-a-directory": lambda tmp, checkpoint, data: (["synth", "--config", str(tmp)], tmp),
    "config-not-utf8": non_utf8_config,
    "checkpoint-is-a-directory": lambda tmp, checkpoint, data: (
        ["eval", "--checkpoint", str(tmp), "--data", str(data)], tmp),
    "index-not-utf8": non_utf8_index,
}


class TestMalformedInputs:
    """A malformed checkpoint, dataset or config file exits 1 with a message
    that names the file, never with a traceback."""

    @pytest.mark.parametrize("case", MALFORMED.values(), ids=MALFORMED.keys())
    def test_exits_one_naming_the_file(self, tmp_path, init_checkpoint, dataset_dir, capsys,
                                       case):
        argv, named = case(tmp_path, init_checkpoint, dataset_dir)
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["synth", "train", "eval"])
    def test_output_that_is_a_file_exits_one_naming_it(self, tmp_path, init_checkpoint,
                                                        dataset_dir, capsys, monkeypatch,
                                                        command):
        def never(*args, **kwargs):
            raise AssertionError("evaluated before the output directory was made")

        monkeypatch.setattr(cli, "evaluate", never)
        out = tmp_path / "taken"
        out.write_text("")
        argv = {"synth": ["synth", "--num-identities", "2", "--out", str(out)],
                "train": train_args(dataset_dir, out, epochs=0),
                "eval": ["eval", "--checkpoint", str(init_checkpoint), "--data", str(dataset_dir),
                         "--out", str(out)]}[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: cannot write") and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--config", "--checkpoint"])
    def test_missing_file_exits_one_naming_it(self, tmp_path, dataset_dir, capsys, flag):
        missing = tmp_path / "missing"
        assert main(["eval", flag, str(missing), "--data", str(dataset_dir),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {missing}: cannot read")


def field_names(*classes) -> set:
    return {f.name for cls in classes for f in fields(cls)}


class TestKeys:
    """Every config field is a key of its command, so no value hides from the command line."""

    def test_synth_keys_are_the_spec_fields(self):
        assert set(DEFAULTS["synth"]) == field_names(SynthSpec) | {"out"}

    def test_train_keys_are_the_config_fields_train_does_not_fill(self):
        filled = {"num_identities", "frame_h", "frame_w", "with_csl", "with_sti", "adam"}
        own = {"data", "out", "ablation", "checkpoint_every"}
        configs = field_names(CstnetConfig, TrainConfig, AdamConfig)
        assert set(DEFAULTS["train"]) == (configs - filled) | own


class TestShippedConfigs:
    """``configs/`` mirrors the presets; the CLI must resolve each file to them."""

    def test_learnability_data_matches_preset(self):
        values = load_config_file(CONFIGS / "learnability_data.cfg", DEFAULTS["synth"])
        assert SynthSpec(**values) == LEARNABILITY_DATA

    def test_train_desk_matches_desk_schedule_and_model_defaults(self):
        resolved = resolve_config("train", argparse.Namespace(config=CONFIGS / "train_desk.cfg"))
        train_cfg = config_from(TrainConfig, resolved, adam=config_from(AdamConfig, resolved))
        assert train_cfg == desk_train_config(epochs=50)
        model_cfg = config_from(CstnetConfig, resolved, num_identities=16,
                                **variant_flags(resolved["ablation"]))
        assert model_cfg == CstnetConfig(num_identities=16)
