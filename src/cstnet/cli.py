"""Command-line entry point.

Commands: ``synth`` (generate + save a dataset), ``train``, ``eval``,
``verify`` (property suite), ``gradcheck`` (finite-difference suite only).
Every command reads an optional ``key = value`` config file, applies
command-line overrides, writes a resolved-config echo into the output
directory, and is fully reproducible from that echo plus its seed.

Exit codes: 0 success, 1 contract/config error, 2 verification failure.
The output directory defaults to ``--out`` but can be forced with the
``CSTNET_OUT`` environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from .checkpoint import load_model, save_model
from .data import (SynthSpec, dataset_census, generate_synthetic, load_dataset,
                   save_dataset)
from .errors import ConfigError, ContractError, DimensionError, FormatError, NumericError
from .experiments import ABLATIONS
from .metrics import evaluate
from .model import Cstnet, CstnetConfig
from .optim import AdamConfig
from .train import TrainConfig, fit
from .verify import main_report, run_gradcheck_suite, run_verification

OUT_ENV_VAR = "CSTNET_OUT"


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_int_tuple(text: str) -> tuple:
    return tuple(int(part) for part in str(text).split(",") if part.strip())


_PARSERS = {int: int, float: float, str: str, bool: _parse_bool, tuple: _parse_int_tuple}

# key -> value type, per command
SCHEMAS: dict[str, dict[str, type]] = {
    "synth": {
        "identities": int, "cams": int, "seqs_per_cam": int,
        "seq_len_min": int, "seq_len_max": int, "frame_h": int, "frame_w": int,
        "clutter": float, "clutter_patches": int,
        "illum_scale_lo": float, "illum_scale_hi": float,
        "illum_shift_lo": float, "illum_shift_hi": float,
        "occlusion_p": float, "seed": int, "out": str,
    },
    "train": {
        "data": str, "out": str, "epochs": int, "ablation": str, "seed": int,
        "clip_len": int, "embedding_dim": int, "stage_channels": tuple,
        "stage_strides": tuple, "insertion_points": tuple,
        "csl_channels": int, "csl_pool_h": int, "csl_pool_w": int,
        "sti_channels": int, "sti_pool_h": int, "sti_pool_w": int,
        "input_scale": float, "dtype": str,
        "p": int, "k": int, "margin": float, "label_smoothing": float,
        "flip_p": float, "erase_p": float, "steps_per_epoch": int,
        "lr": float, "weight_decay": float, "lr_decay": float, "lr_decay_every": int,
        "checkpoint_every": int,
    },
    "eval": {
        "checkpoint": str, "data": str, "out": str, "max_rank": int, "clip_len": int,
    },
    "verify": {"inject_fault": str, "out": str},
    "gradcheck": {"out": str},
}


def load_config_file(path, schema: dict[str, type]) -> dict:
    """Parse ``key = value`` lines; unknown keys are rejected."""
    values = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno} is not 'key = value': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in schema:
            raise ConfigError(f"{path}: unknown key {key!r} on line {lineno}")
        try:
            values[key] = _PARSERS[schema[key]](value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}: bad value for {key!r} on line {lineno}: {exc}") from None
    return values


def resolve_config(command: str, args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit command-line flags."""
    schema = SCHEMAS[command]
    resolved = dict(defaults)
    if getattr(args, "config", None):
        resolved.update(load_config_file(args.config, schema))
    for key in schema:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_config_echo(out_dir: Path, resolved: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"{key} = {_format_value(resolved[key])}" for key in sorted(resolved)]
    (out_dir / "config_resolved.cfg").write_text("".join(line + "\n" for line in lines))


def _out_dir(resolved: dict) -> Path:
    return Path(os.environ.get(OUT_ENV_VAR, resolved["out"]))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    defaults = {
        "identities": 16, "cams": 2, "seqs_per_cam": 3,
        "seq_len_min": 10, "seq_len_max": 16, "frame_h": 32, "frame_w": 16,
        "clutter": 0.0, "clutter_patches": 6,
        "illum_scale_lo": 1.0, "illum_scale_hi": 1.0,
        "illum_shift_lo": 0.0, "illum_shift_hi": 0.0,
        "occlusion_p": 0.0, "seed": 0, "out": "synth_out",
    }
    resolved = resolve_config("synth", args, defaults)
    spec = SynthSpec(
        num_identities=resolved["identities"], cams=resolved["cams"],
        seqs_per_cam=resolved["seqs_per_cam"],
        seq_len_min=resolved["seq_len_min"], seq_len_max=resolved["seq_len_max"],
        frame_h=resolved["frame_h"], frame_w=resolved["frame_w"],
        clutter=resolved["clutter"], clutter_patches=resolved["clutter_patches"],
        illum_scale=(resolved["illum_scale_lo"], resolved["illum_scale_hi"]),
        illum_shift=(resolved["illum_shift_lo"], resolved["illum_shift_hi"]),
        occlusion_p=resolved["occlusion_p"], seed=resolved["seed"],
    )
    dataset = generate_synthetic(spec)
    out = _out_dir(resolved)
    write_config_echo(out, resolved)
    save_dataset(dataset, out / "dataset")
    census = dataset_census(dataset)
    print("census: " + " ".join(f"{k}={v}" for k, v in census.items()))
    print(f"dataset written to {out / 'dataset'}")
    return 0


def _model_config_from(resolved: dict, num_identities: int, frame_shape) -> CstnetConfig:
    flags = ABLATIONS.get(resolved["ablation"])
    if flags is None:
        raise ConfigError(f"ablation must be one of {sorted(ABLATIONS)}, "
                          f"got {resolved['ablation']!r}")
    return CstnetConfig(
        num_identities=num_identities, clip_len=resolved["clip_len"],
        frame_h=frame_shape[1], frame_w=frame_shape[2],
        stage_channels=resolved["stage_channels"], stage_strides=resolved["stage_strides"],
        insertion_points=resolved["insertion_points"], **flags,
        embedding_dim=resolved["embedding_dim"],
        csl_channels=resolved["csl_channels"], csl_pool_h=resolved["csl_pool_h"],
        csl_pool_w=resolved["csl_pool_w"],
        sti_channels=resolved["sti_channels"], sti_pool_h=resolved["sti_pool_h"],
        sti_pool_w=resolved["sti_pool_w"],
        input_scale=resolved["input_scale"], dtype=resolved["dtype"],
        seed=resolved["seed"],
    )


def cmd_train(args) -> int:
    defaults = {
        "data": "", "out": "train_out", "epochs": 50, "ablation": "full", "seed": 0,
        "clip_len": 4, "embedding_dim": 64,
        "stage_channels": (8, 16, 32, 64, 128), "stage_strides": (1, 2, 2, 2, 2),
        "insertion_points": (2, 3, 4),
        "csl_channels": 16, "csl_pool_h": 4, "csl_pool_w": 2,
        "sti_channels": 16, "sti_pool_h": 4, "sti_pool_w": 2,
        "input_scale": 1.0, "dtype": "f32",
        "p": 8, "k": 2, "margin": 0.3, "label_smoothing": 0.1,
        "flip_p": 0.5, "erase_p": 0.3, "steps_per_epoch": 0,
        "lr": 3e-4, "weight_decay": 5e-4, "lr_decay": 0.1, "lr_decay_every": 200,
        "checkpoint_every": 0,
    }
    resolved = resolve_config("train", args, defaults)
    if not resolved["data"]:
        raise ConfigError("train requires a dataset directory (--data)")
    dataset = load_dataset(resolved["data"])
    train_split = dataset.of_split("train")
    if not train_split:
        raise ContractError("dataset has no train split")
    num_ids = len({s.identity for s in dataset.sequences})
    model_cfg = _model_config_from(resolved, num_ids, dataset.frame_shape())
    model = Cstnet(model_cfg)
    out = _out_dir(resolved)
    write_config_echo(out, resolved)
    adam = AdamConfig(lr=resolved["lr"], weight_decay=resolved["weight_decay"],
                      lr_decay=resolved["lr_decay"], lr_decay_every=resolved["lr_decay_every"])
    train_cfg = TrainConfig(
        epochs=resolved["epochs"], p=resolved["p"], k=resolved["k"],
        margin=resolved["margin"], label_smoothing=resolved["label_smoothing"],
        flip_p=resolved["flip_p"], erase_p=resolved["erase_p"], adam=adam,
        seed=resolved["seed"], steps_per_epoch=resolved["steps_per_epoch"],
    )

    def checkpoint_fn(epoch: int):
        save_model(out / f"checkpoint_ep{epoch + 1:04d}.ckpt", model)

    reports = fit(model, dataset, train_cfg, log_path=out / "train_log.jsonl",
                  checkpoint_fn=checkpoint_fn, checkpoint_every=resolved["checkpoint_every"])
    save_model(out / "checkpoint.ckpt", model)
    census = model.parameter_census()
    print("parameter census: " + " ".join(f"{k}={v}" for k, v in sorted(census.items())))
    if reports:
        print(f"final epoch mean loss: {reports[-1].mean_loss:.6f}")
    else:
        print("no training epochs requested; checkpoint equals initialization")
    print(f"checkpoint written to {out / 'checkpoint.ckpt'}")
    return 0


def cmd_eval(args) -> int:
    defaults = {"checkpoint": "", "data": "", "out": "eval_out", "max_rank": 20, "clip_len": 0}
    resolved = resolve_config("eval", args, defaults)
    if not resolved["checkpoint"] or not resolved["data"]:
        raise ConfigError("eval requires --checkpoint and --data")
    model = load_model(resolved["checkpoint"])
    dataset = load_dataset(resolved["data"])
    if dataset.sequences and dataset.frame_shape() != (3, model.cfg.frame_h, model.cfg.frame_w):
        raise ConfigError(f"checkpoint expects {model.cfg.frame_h}x{model.cfg.frame_w} frames "
                          f"but dataset has {dataset.frame_shape()[1]}x{dataset.frame_shape()[2]}")
    clip_len = resolved["clip_len"] or model.cfg.clip_len
    metrics = evaluate(model, dataset, clip_len=clip_len, max_rank=resolved["max_rank"])
    out = _out_dir(resolved)
    write_config_echo(out, resolved)
    with open(out / "metrics.txt", "w") as fh:
        for name, k, value in metrics.as_records():
            fh.write(f"{name} {k} {value:.10f}\n")

    def pct(x):
        return f"{100.0 * x:.1f}"

    ranks = [k for k in (1, 5, 20) if k <= len(metrics.cmc)]
    header = [f"Rank-{k}" for k in ranks] + ["mAP"]
    row = [pct(metrics.cmc[k - 1]) for k in ranks] + [pct(metrics.map)]
    widths = [max(len(h), len(v)) for h, v in zip(header, row)]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    print("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    if metrics.excluded_queries:
        print(f"excluded queries (no valid cross-camera match): {metrics.excluded_queries}")
    print(f"metric records written to {out / 'metrics.txt'}")
    return 0


def cmd_verify(args) -> int:
    defaults = {"inject_fault": "", "out": ""}
    resolved = resolve_config("verify", args, defaults)
    started = time.perf_counter()
    results = run_verification(inject_fault=resolved["inject_fault"] or None)
    ok = main_report(results, checks_s=time.perf_counter() - started)
    return 0 if ok else 2


def cmd_gradcheck(args) -> int:
    started = time.perf_counter()
    results = run_gradcheck_suite()
    ok = main_report(results, checks_s=time.perf_counter() - started)
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cstnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="key = value config file")
        for key, typ in SCHEMAS[name].items():
            flag = "--" + key.replace("_", "-")
            if typ is bool:
                p.add_argument(flag, type=_parse_bool, default=None)
            elif typ is tuple:
                p.add_argument(flag, type=_parse_int_tuple, default=None)
            else:
                p.add_argument(flag, type=typ, default=None)
        return p

    add("synth", cmd_synth)
    add("train", cmd_train)
    add("eval", cmd_eval)
    add("verify", cmd_verify)
    add("gradcheck", cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ConfigError, ContractError, DimensionError, FormatError, NumericError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
