"""Command-line entry point: analyze, gradcheck, synth, train, and eval.

Configuration is a flat ``key = value`` text file with ``#`` comments;
unknown keys are rejected with a line-numbered diagnostic. Exit codes:
0 success, 1 numeric/assertion failure, 2 usage, configuration, input,
file-system or out-of-memory failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import data, mixers, training
from .errors import (
    ConfigError,
    CorruptionError,
    DimensionError,
    FormatError,
    NumericError,
    OptimizationError,
)
from .mixers import ALL_MIXER_COMBOS
from .model import ModelConfig, build_model, load_checkpoint, save_checkpoint
from .tensor import Tensor, grad_check, sum_all

GRADCHECK_TOLERANCE = 1e-4
CHECKPOINT_NAME = "checkpoint.hafc"
TRAIN_LOG_NAME = "train_log.jsonl"


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration: model plus training and data settings, each
    checked when built."""

    model: ModelConfig = ModelConfig()
    lr: float = 2e-3
    weight_decay: float = 1e-5
    batch_size: int = 8
    epochs: int = 80
    train_per_class: int = 50
    test_per_class: int = 20
    difficulty: float = 1.0
    data_seed: int = 1234

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if not 0.0 < self.difficulty <= 1.0:
            raise ConfigError(f"difficulty must be in (0, 1], got {self.difficulty}")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise ConfigError("train_per_class and test_per_class must be >= 1")
        if self.data_seed < 0:
            raise ConfigError(f"data_seed must be non-negative, got {self.data_seed}")


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ValueError(f"expected true/false, got {raw!r}")


def _parse_int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in raw.split(","))


def _value_parser(default):
    """Text parser for a config field, chosen from the type of its default."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, tuple):
        return _parse_int_tuple
    return type(default)  # int, float, str, or a mixer enum


_MODEL_KEYS = {f.name: _value_parser(f.default) for f in fields(ModelConfig)}
_RUN_KEYS = {f.name: _value_parser(f.default) for f in fields(RunConfig) if f.name != "model"}


def parse_run_config(path) -> RunConfig:
    """Parse a flat key = value config file; the configs check their own values."""
    model_fields: dict = {}
    run_fields: dict = {}
    seen: dict[str, int] = {}  # key -> the line that gave it
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw_value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        raw_value = raw_value.strip()
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is also given on line {seen[key]}")
        seen[key] = lineno
        try:
            if key in _MODEL_KEYS:
                model_fields[key] = _MODEL_KEYS[key](raw_value)
            elif key in _RUN_KEYS:
                run_fields[key] = _RUN_KEYS[key](raw_value)
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None

    return RunConfig(model=ModelConfig(**model_fields), **run_fields)


def _load_run_config(args) -> RunConfig:
    run = parse_run_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:  # only gradcheck, synth and train take --seed
        run = replace(run, model=replace(run.model, seed=args.seed))
    return run


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    from . import analysis  # the cost model loads only for this command

    run = _load_run_config(args)
    cfg = run.model
    combos = list(ALL_MIXER_COMBOS) if args.all_combos else [(cfg.token_mixer, cfg.channel_mixer)]
    table = analysis.emit_cost_table(combos, cfg)
    if args.all_combos:
        print(table.text)
    else:
        (row,) = table.rows
        print(f"configuration: {cfg.token_mixer.value} + {cfg.channel_mixer.value}")
        print(f"{'component':<28}{'params':>10}{'MACs':>14}")
        for entry in analysis.count_costs(cfg).entries:
            print(f"{entry.component:<28}{entry.params:>10}{entry.macs:>14}")
        print(f"total excl. projection: {row['params']:.2f}K params, {row['macs']:.2f}M MACs")
        print(
            f"total incl. projection: {row['params_incl_projection']:.2f}K params, "
            f"{row['macs_incl_projection']:.2f}M MACs"
        )
        for warning in table.warnings:
            print(f"warning: {warning}")
    if args.json:
        Path(args.json).write_text(json.dumps(list(table.rows), indent=2) + "\n", encoding="utf-8")
    return 0


def _gradcheck_block_cases(seed: int):
    rng = np.random.default_rng(seed)
    d = 8
    for tk, ck in ALL_MIXER_COMBOS:
        params = mixers.random_block_params(tk, ck, d, rng)
        x = Tensor(rng.standard_normal((16, d)))

        def loss_fn(tk=tk, ck=ck, params=params, x=x):
            return sum_all(mixers.afformer_block(tk, ck, params, x))

        yield f"{tk.value}+{ck.value}", loss_fn, [x, *params.values()]


def _gradcheck_model_case(cfg: ModelConfig, seed: int):
    """The configured model shrunk to 16 channels and about 64 frames, a
    multiple of the product of its stage factors, so that every coordinate
    can be checked."""
    rng = np.random.default_rng(seed + 1)
    period = math.prod(cfg.stage_factors)
    cfg = replace(cfg, seq_len=period * max(1, 64 // period), input_dim=16)
    model = build_model(cfg)
    # a batch of two full-length records: zero-padded short ones leave the
    # norms of a fresh model too curved for finite differences
    batch = [rng.standard_normal((cfg.seq_len, cfg.input_dim)) for _ in range(2)]

    def loss_fn():
        return training.cross_entropy(model.forward(batch), [0, 1])

    return "end-to-end", loss_fn, list(model.params.values())


def cmd_gradcheck(args) -> int:
    run = _load_run_config(args)
    seed = args.seed if args.seed is not None else 2024
    cases = list(_gradcheck_block_cases(seed))
    cases.append(_gradcheck_model_case(run.model, seed))
    failures = []
    for name, loss_fn, params in cases:
        err = grad_check(loss_fn, params)
        ok = err < GRADCHECK_TOLERANCE
        print(f"{name:<28} max_rel_err={err:.3e}  {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)
    if failures:
        print(f"gradcheck failed for: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def _load_split(run: RunConfig, input_dim: int, split: str, data_dir=None) -> data.Dataset:
    """The train or test split for a model of ``input_dim`` channels: read from
    ``data_dir``, or synthesized without one, test records from ``data_seed + 1``."""
    if data_dir is not None:
        return data.load_dataset(data_dir, split, expected_cols=input_dim)
    if input_dim != data.EMBEDDING_DIM:
        raise ConfigError(f"synthetic data needs input_dim {data.EMBEDDING_DIM}, got {input_dim}")
    per_class = run.train_per_class if split == "train" else run.test_per_class
    seed = run.data_seed + 1 if split == "test" else run.data_seed
    return data.synthesize_dataset(per_class, seed, run.difficulty, split)


def cmd_synth(args) -> int:
    run = _load_run_config(args)
    data_seed = args.seed if args.seed is not None else run.data_seed
    run = replace(run, data_seed=data_seed)
    out = Path(args.out)
    counts = {}
    for split in ("train", "test"):
        dataset = _load_split(run, run.model.input_dim, split)
        data.save_dataset(out / split, dataset)
        counts[split] = len(dataset)
    print(json.dumps({**counts, "out": str(out)}))
    return 0


def cmd_train(args) -> int:
    run = _load_run_config(args)
    model = build_model(run.model)
    dataset = _load_split(run, run.model.input_dim, "train", args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log = training.train(
        model,
        dataset,
        epochs=run.epochs,
        batch_size=run.batch_size,
        seed=run.model.seed,
        lr=run.lr,
        weight_decay=run.weight_decay,
        log_path=out / TRAIN_LOG_NAME,
    )
    save_checkpoint(model, out / CHECKPOINT_NAME)
    summary = {
        "epochs": len(log),
        "final_loss": log[-1]["mean_loss"] if log else None,
        "final_train_acc": log[-1]["train_acc"] if log else None,
        "checkpoint": str(out / CHECKPOINT_NAME),
    }
    print(json.dumps(summary))
    return 0


def cmd_eval(args) -> int:
    run = _load_run_config(args)
    checkpoint = Path(args.out) / CHECKPOINT_NAME
    model = load_checkpoint(checkpoint)
    dataset = _load_split(run, model.cfg.input_dim, "test", args.data)
    metrics = training.evaluate(model, dataset)
    payload = json.dumps(metrics.to_dict())
    print(payload)
    if args.json:
        Path(args.json).write_text(payload + "\n", encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haff",
        description="HAFFormer workflows: cost analysis, gradient checks, synthetic data, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seed=False, data=False, out=False, json_flag=False):
        p.add_argument("--config", metavar="PATH", help="flat key = value config file")
        if seed:
            p.add_argument("--seed", type=int, metavar="N", help="override the config seed")
        if data:
            p.add_argument("--data", metavar="DIR", help="directory with manifest + embedding files")
        if out:
            p.add_argument("--out", metavar="DIR", default="out", help="artifact directory")
        if json_flag:
            p.add_argument("--json", metavar="PATH", help="also write machine-readable JSON here")

    p = sub.add_parser("analyze", help="print the params/MACs cost report")
    common(p, json_flag=True)
    p.add_argument("--all-combos", action="store_true", help="emit the full mixer grid")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gradcheck", help="finite-difference checks for all mixer combos")
    common(p, seed=True)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="write a synthetic embedding dataset")
    common(p, seed=True, out=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model and write checkpoint + log")
    common(p, seed=True, data=True, out=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint; prints metrics JSON")
    common(p, data=True, out=True, json_flag=True)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FormatError, DimensionError, CorruptionError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, OptimizationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
