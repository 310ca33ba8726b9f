"""Command-line harness for reproducible desk-scale experiments.

Every subcommand reads an optional JSON config file, applies explicit flags
on top (flags win), rejects unknown keys, echoes the effective config to
<out>/config.json, and writes its artifacts atomically. Outputs are
byte-identical across re-runs with the same inputs; wall-clock step timings
are therefore opt-in (--wall-times).

Exit codes: 0 success, 1 runtime or check failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from .diagnostics import (
    SweepSpec,
    dump_attention,
    saturation_sweep,
    sweep_to_csv,
)
from .errors import ConfigError, SaSoftmaxError, TextTooShort, UnknownSymbol
from .jacobians import gradcheck, reports_to_json
from .microlm import (
    TrainConfig,
    _atomic_write,
    _is_json,
    attention_maps,
    evaluate_ppl,
    load_checkpoint,
    metrics_to_csv,
    save_checkpoint,
    train,
)
from .variants import ALL_KINDS, DEFAULT_EPS, VariantKind

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

BUNDLED_CORPUS = "bundled"


def bundled_corpus_path() -> Path:
    return Path(str(resources.files("sasoftmax").joinpath("data/tiny_corpus.txt")))


def _parse_kinds(text: str) -> tuple[VariantKind, ...]:
    return tuple(VariantKind.from_string(part) for part in text.split(","))


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"expected a comma-separated list of numbers, got {text!r}") from None


ALL_KINDS_TEXT = ",".join(kind.value for kind in ALL_KINDS)

# TrainConfig fields that `train` sets under their own names; their flag
# types and defaults are TrainConfig's.
TRAIN_FIELDS = ("layers", "d_model", "seq_len", "batch", "steps", "lr", "adam_eps",
                "seed", "rope", "init_std", "eps")

# Per-subcommand schema: name -> (python type, default). The JSON config file
# may set any of these; explicit CLI flags override it. A None default marks
# a required option.
SCHEMAS: dict[str, dict[str, tuple[type, object]]] = {
    "gradcheck": {
        "samples": (int, 1000),
        "tmin": (int, 1),
        "tmax": (int, 8),
        "kinds": (str, ALL_KINDS_TEXT),
        "tol_rel": (float, 1e-6),
        "seed": (int, 7),
        "out": (str, None),
    },
    "sweep": {
        "gaps": (str, "2,4,6,8,10,12,14,16"),
        "t": (int, 4),
        "kinds": (str, ALL_KINDS_TEXT),
        "profile": (str, "one_peak"),
        "eps": (float, DEFAULT_EPS),
        "out": (str, None),
    },
    "train": {
        "corpus": (str, BUNDLED_CORPUS),
        "kind": (str, TrainConfig.kind.value),
        **{name: (type(getattr(TrainConfig, name)), getattr(TrainConfig, name))
           for name in TRAIN_FIELDS},
        "beta1": (float, TrainConfig.adam_betas[0]),
        "beta2": (float, TrainConfig.adam_betas[1]),
        "wall_times": (bool, False),
        "out": (str, None),
    },
    "eval": {
        "checkpoint": (str, None),
        "text": (str, None),
        "seq_len": (int, 0),  # 0: use the checkpoint's training seq_len
        "out": (str, None),
    },
    "dump": {
        "checkpoint": (str, None),
        "prompt": (str, None),
        "out": (str, None),
    },
}

def _load_file_config(path: str, schema: dict) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    # ValueError covers bytes that are not UTF-8, malformed JSON and integers
    # past the interpreter's digit limit; RecursionError, nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not readable JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    unknown = sorted(set(data) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in data.items():
        want, _ = schema[key]
        if not _is_json(value, want):
            raise ConfigError(f"config key {key!r} must be {want.__name__}")
        if want is float:
            try:
                data[key] = float(value)
            except OverflowError:
                raise ConfigError(f"config key {key!r} is out of range for a float") from None
    return data


def effective_config(command: str, args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags, validated against the schema."""
    schema = SCHEMAS[command]
    merged = {key: default for key, (_, default) in schema.items()}
    if args.config is not None:
        merged.update(_load_file_config(args.config, schema))
    for key in schema:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    missing = [key for key in schema if merged[key] is None]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join('--' + m for m in missing)}")
    return merged


def _write_config_echo(out_dir: Path, command: str, merged: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    # the output location is implied by where the echo lives; everything that
    # affects the computation is recorded
    doc = {"command": command, **{k: v for k, v in merged.items() if k != "out"}}
    _atomic_write(out_dir / "config.json", json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _resolve_corpus(value: str) -> Path:
    if value == BUNDLED_CORPUS:
        return bundled_corpus_path()
    p = Path(value)
    if not p.is_file():
        raise ConfigError(f"corpus file not found: {value}")
    return p


def run_gradcheck(merged: dict) -> int:
    reports = gradcheck(
        samples=merged["samples"],
        t_range=(merged["tmin"], merged["tmax"]),
        kinds=_parse_kinds(merged["kinds"]),
        tol_rel=merged["tol_rel"],
        seed=merged["seed"],
    )
    out_dir = Path(merged["out"])
    _write_config_echo(out_dir, "gradcheck", merged)
    _atomic_write(out_dir / "gradcheck.json", reports_to_json(reports) + "\n")
    checked = [r for r in reports if not r.skipped_tie]
    skipped = len(reports) - len(checked)
    failed = [r for r in checked if not r.passed]
    print(f"gradcheck: {len(checked)} compared, {skipped} tie-skipped, {len(failed)} failed")
    return EXIT_OK if not failed else EXIT_RUNTIME


def run_sweep(merged: dict) -> int:
    spec = SweepSpec(gaps=_parse_floats(merged["gaps"]), t=merged["t"],
                     kinds=_parse_kinds(merged["kinds"]), profile=merged["profile"])
    records = saturation_sweep(spec, eps=merged["eps"])
    out_dir = Path(merged["out"])
    _write_config_echo(out_dir, "sweep", merged)
    _atomic_write(out_dir / "sweep.csv", sweep_to_csv(records))
    print(f"sweep: wrote {len(records)} records to {out_dir / 'sweep.csv'}")
    return EXIT_OK


def _train_config(merged: dict) -> TrainConfig:
    return TrainConfig(
        corpus_path=str(_resolve_corpus(merged["corpus"])),
        kind=VariantKind.from_string(merged["kind"]),
        adam_betas=(merged["beta1"], merged["beta2"]),
        **{name: merged[name] for name in TRAIN_FIELDS},
    )


def run_train(merged: dict) -> int:
    cfg = _train_config(merged)
    out_dir = Path(merged["out"])
    _write_config_echo(out_dir, "train", merged)
    result = train(cfg)
    _atomic_write(out_dir / "metrics.csv", metrics_to_csv(result.metrics, merged["wall_times"]))
    save_checkpoint(out_dir / "checkpoint.bin", result.params, cfg, result.vocab)
    if len(result.metrics):
        print(f"train: kind={cfg.kind.value} steps={cfg.steps} "
              f"loss {result.metrics.loss[0]:.4f} -> {result.metrics.loss[-1]:.4f}")
    else:
        print(f"train: kind={cfg.kind.value} steps=0 (init only)")
    return EXIT_OK


def run_eval(merged: dict) -> int:
    ckpt_path = Path(merged["checkpoint"])
    if not ckpt_path.is_file():
        raise ConfigError(f"checkpoint not found: {ckpt_path}")
    text_path = Path(merged["text"])
    if not text_path.is_file():
        raise ConfigError(f"text file not found: {text_path}")
    params, cfg, vocab = load_checkpoint(ckpt_path)
    if merged["seq_len"] != 0:
        cfg = replace(cfg, seq_len=merged["seq_len"])
    ppl = evaluate_ppl(params, cfg, vocab, text_path.read_bytes())
    out_dir = Path(merged["out"])
    _write_config_echo(out_dir, "eval", merged)
    doc = json.dumps({"ppl": ppl})
    _atomic_write(out_dir / "eval.json", doc + "\n")
    print(doc)
    return EXIT_OK


def run_dump(merged: dict) -> int:
    ckpt_path = Path(merged["checkpoint"])
    if not ckpt_path.is_file():
        raise ConfigError(f"checkpoint not found: {ckpt_path}")
    params, cfg, vocab = load_checkpoint(ckpt_path)
    maps = attention_maps(params, cfg, vocab, merged["prompt"])
    out_dir = Path(merged["out"])
    _write_config_echo(out_dir, "dump", merged)
    paths = dump_attention(maps, out_dir)
    print(f"dump: wrote {len(paths)} attention map(s) to {out_dir}")
    return EXIT_OK


RUNNERS = {
    "gradcheck": run_gradcheck,
    "sweep": run_sweep,
    "train": run_train,
    "eval": run_eval,
    "dump": run_dump,
}

HELP = {
    "gradcheck": "compare analytic Jacobians against central differences",
    "sweep": "Jacobian saturation sweep over synthetic logit rows",
    "train": "train the micro language model on a text corpus",
    "eval": "perplexity of a checkpoint on a text file",
    "dump": "write per-layer attention maps for a prompt",
}

FLAG_HELP = {
    "kinds": "comma-separated variant list, e.g. baseline,v1",
    "gaps": "comma-separated peak offsets",
    "profile": "one_peak | one_trough | uniform",
    "corpus": f"corpus path, or '{BUNDLED_CORPUS}' for the packaged sample text",
    "wall_times": "record measured step times in metrics.csv (breaks byte reproducibility)",
    "seq_len": "window length (eval: 0 uses the checkpoint value)",
    "out": "output directory",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sasoftmax", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in SCHEMAS.items():
        p = sub.add_parser(command, help=HELP[command])
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; explicit flags override it")
        for key, (typ, default) in schema.items():
            flag = "--" + key.replace("_", "-")
            helptext = FLAG_HELP.get(key, argparse.SUPPRESS if default is None else f"default: {default}")
            if typ is bool:
                p.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction,
                               default=None, help=helptext)
            else:
                p.add_argument(flag, dest=key, type=typ, default=None, help=helptext)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        merged = effective_config(args.command, args)
        return RUNNERS[args.command](merged)
    except (ConfigError, UnknownSymbol, TextTooShort) as exc:
        # the last two are what a bad --text or --prompt causes
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SaSoftmaxError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
