"""Command-line entry point.

Commands: ``synth`` (generate + save a dataset), ``train``, ``eval`` and
``verify`` (property suite).
Every command reads an optional ``key = value`` config file and applies
command-line overrides (``--stage-channels`` sets ``stage_channels``).
``synth``, ``train`` and ``eval`` write a resolved-config echo into the
output directory and are fully reproducible from that echo plus its seed.

The keys of ``synth`` and ``train`` are the field names of ``SynthSpec``,
and of ``CstnetConfig``, ``TrainConfig`` and ``AdamConfig``, plus the few
keys that belong to the command alone; each key's default and type are the
field's default and its type.  Tuple keys take comma-separated items.

Exit codes: 0 success, 1 contract/config error or an output that cannot be
written, 2 verification failure.
The output directory defaults to ``--out`` but can be forced with the
``CSTNET_OUT`` environment variable.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from dataclasses import fields
from pathlib import Path

from .checkpoint import load_model, save_model
from .data import (FRAME_CHANNELS, SynthSpec, dataset_census, generate_synthetic,
                   load_dataset, save_dataset)
from .errors import ConfigError, ContractError, DimensionError, FormatError, NumericError
from .experiments import variant_flags
from .io import read_file
from .metrics import evaluate
from .model import Cstnet, CstnetConfig
from .optim import AdamConfig
from .train import TrainConfig, fit
from .verify import main_report, run_verification

OUT_ENV_VAR = "CSTNET_OUT"


# Fields `train` fills itself: from the dataset, from the ablation's
# variant_flags, and the nested optimizer config.
_TRAIN_FILLED = {"num_identities", "frame_h", "frame_w", "with_csl", "with_sti", "adam"}


def _field_defaults(cls, filled=frozenset()) -> dict:
    return {f.name: f.default for f in fields(cls) if f.name not in filled}


# command -> key -> default; a key's type is its default's type
DEFAULTS: dict[str, dict] = {
    "synth": {**_field_defaults(SynthSpec), "out": "synth_out"},
    "train": {
        **_field_defaults(CstnetConfig, _TRAIN_FILLED),
        **_field_defaults(TrainConfig, _TRAIN_FILLED),
        **_field_defaults(AdamConfig),
        "data": "", "out": "train_out", "ablation": "full", "checkpoint_every": 0,
    },
    "eval": {"checkpoint": "", "data": "", "out": "eval_out", "max_rank": 20},
    "verify": {"inject_fault": ""},
}


def _parser_for(default):
    """Text -> value of the default's type; tuple items take the type of the default's items."""
    if not isinstance(default, tuple):
        return type(default)
    item = type(default[0])

    def comma_list(text: str) -> tuple:
        return tuple(item(part) for part in text.split(",") if part.strip())
    return comma_list


def config_from(cls, resolved: dict, **filled):
    """``cls`` built from the resolved keys that are its fields, plus ``filled``."""
    names = {f.name for f in fields(cls)}
    return cls(**{key: value for key, value in resolved.items() if key in names}, **filled)


def load_config_file(path, schema: dict) -> dict:
    """Parse ``key = value`` lines typed by ``schema`` (key -> default); unknown keys are rejected."""
    values = {}
    for lineno, raw in enumerate(read_file(path, text=True).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno} is not 'key = value': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in schema:
            raise ConfigError(f"{path}: unknown key {key!r} on line {lineno}")
        try:
            values[key] = _parser_for(schema[key])(value)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key!r} on line {lineno}: {exc}") from None
    return values


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit command-line flags."""
    schema = DEFAULTS[command]
    resolved = dict(schema)
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
    resolved = resolve_config("synth", args)
    spec = config_from(SynthSpec, resolved)
    dataset = generate_synthetic(spec)
    out = _out_dir(resolved)
    write_config_echo(out, resolved)
    save_dataset(dataset, out / "dataset")
    census = dataset_census(dataset)
    print("census: " + " ".join(f"{k}={v}" for k, v in census.items()))
    print(f"dataset written to {out / 'dataset'}")
    return 0


def cmd_train(args) -> int:
    resolved = resolve_config("train", args)
    train_cfg = config_from(TrainConfig, resolved, adam=config_from(AdamConfig, resolved))
    flags = variant_flags(resolved["ablation"])
    if not resolved["data"]:
        raise ConfigError("train requires a dataset directory (--data)")
    dataset = load_dataset(resolved["data"])
    train_split = dataset.of_split("train")
    if not train_split:
        raise ContractError("dataset has no train split")
    _, frame_h, frame_w = dataset.frame_shape()
    model_cfg = config_from(CstnetConfig, resolved, num_identities=dataset.num_identities,
                            frame_h=frame_h, frame_w=frame_w, **flags)
    model = Cstnet(model_cfg)
    out = _out_dir(resolved)
    write_config_echo(out, resolved)

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
    resolved = resolve_config("eval", args)
    if not resolved["checkpoint"] or not resolved["data"]:
        raise ConfigError("eval requires --checkpoint and --data")
    model = load_model(resolved["checkpoint"])
    dataset = load_dataset(resolved["data"])
    if dataset.sequences and dataset.frame_shape() != (FRAME_CHANNELS, model.cfg.frame_h,
                                                       model.cfg.frame_w):
        raise ConfigError(f"checkpoint expects {model.cfg.frame_h}x{model.cfg.frame_w} frames "
                          f"but dataset has {dataset.frame_shape()[1]}x{dataset.frame_shape()[2]}")
    out = _out_dir(resolved)
    write_config_echo(out, resolved)        # an unwritable output fails before the evaluation
    metrics = evaluate(model, dataset, clip_len=model.cfg.clip_len, max_rank=resolved["max_rank"])
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
    resolved = resolve_config("verify", args)
    started = time.perf_counter()
    results = run_verification(inject_fault=resolved["inject_fault"] or None)
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
        for key, default in DEFAULTS[name].items():
            p.add_argument("--" + key.replace("_", "-"), type=_parser_for(default), default=None)
        return p

    add("synth", cmd_synth)
    add("train", cmd_train)
    add("eval", cmd_eval)
    add("verify", cmd_verify)
    return parser


_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``--key -0.1,0.1`` -> ``--key=-0.1,0.1``: argparse takes a value that
    starts with a minus sign for a flag unless it is one plain number."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
        return args.fn(args)
    except (ConfigError, ContractError, DimensionError, FormatError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:          # reads fail as FormatError, so this is an output
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}cannot write ({exc.strerror or exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
