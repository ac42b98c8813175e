"""Command-line surface: train, eval, experiment, overfit, extract, inspect,
gradcheck, synth.

Exit codes: 0 success, 2 config/usage error (a config too large to allocate
included), 3 data error, 4 numeric error.
All outputs are CSV or JSON, each written to a temp file and renamed onto
its path; plotting is left to external tools.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import artifacts, gradcheck, net
from .data import (
    SyntheticSpec,
    generate_synthetic,
    load_manifest,
    read_wav,
    validate_manifest,
)
from .errors import ConfigError, FormatError, NumericError, ValidationError
from .pcen import compression_report
from .tdfb import center_frequency_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

def _parse_pcen_learn(raw: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in raw.split(",") if p.strip())
    if not parts:
        raise ConfigError("--pcen-learn needs at least one of r,alpha,delta")
    return parts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavefront",
        description="Learnable audio frontend with an LSTM-attention classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model with early stopping")
    p_train.add_argument("--manifest", help="corpus manifest CSV")
    p_train.add_argument("--frontend", choices=net.FRONTENDS)
    p_train.add_argument(
        "--pcen-learn",
        metavar="r,alpha,delta",
        help="comma-separated PCEN parameters to learn (PCEN frontends only)",
    )
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--epochs", type=int, default=20)
    p_train.add_argument("--patience", type=int, default=10)
    p_train.add_argument("--out-dir", help="directory for checkpoint and logs")
    p_train.add_argument(
        "--list-configs",
        action="store_true",
        help="print the label of every ablation row, as experiment --configs "
        "takes it, and exit",
    )

    p_eval = sub.add_parser("eval", help="evaluate checkpoints on a split")
    p_eval.add_argument("--checkpoint", nargs="+", required=True)
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--split", choices=("train", "valid", "test"), required=True)
    p_eval.add_argument("--frontend", choices=net.FRONTENDS,
                        help="assert the checkpoint uses this frontend")
    p_eval.add_argument("--out", help="also write the JSON report here")

    p_exp = sub.add_parser("experiment", help="train ablation rows over seeds")
    p_exp.add_argument("--manifest", required=True)
    p_exp.add_argument("--out-dir", required=True, help="gets one run per row and seed")
    p_exp.add_argument(
        "--configs", nargs="+", metavar="LABEL",
        default=[net.config_label(*c) for c in net.ABLATION_CONFIGS],
        help="ablation rows, e.g. mel tdfb tdfb_pcen:r (default: all rows of "
        "train --list-configs)",
    )
    p_exp.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    p_exp.add_argument("--epochs", type=int, default=3)
    p_exp.add_argument("--patience", type=int, default=3)

    p_overfit = sub.add_parser("overfit", help="overfit ten utterances per frontend")
    p_overfit.add_argument("--manifest", required=True)
    p_overfit.add_argument("--max-epochs", type=int, default=50)
    p_overfit.add_argument("--seed", type=int, default=0)

    p_extract = sub.add_parser("extract", help="write features for one WAV as CSV")
    p_extract.add_argument("--wav", required=True)
    p_extract.add_argument("--frontend", choices=net.FRONTENDS)
    p_extract.add_argument("--checkpoint", help="use parameters from a checkpoint")
    p_extract.add_argument("--out", required=True)

    p_inspect = sub.add_parser(
        "inspect", help="export learned filter scales and PCEN parameters"
    )
    p_inspect.add_argument("--checkpoint", required=True)
    p_inspect.add_argument("--out-dir", required=True)
    p_inspect.add_argument(
        "--what", choices=("filters", "pcen", "all"), default="all"
    )

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p_grad.add_argument("--seed", type=int, default=0)

    p_synth = sub.add_parser("synth", help="generate the synthetic corpus")
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--n-train", type=int, default=8,
                         help="train utterances per class")
    p_synth.add_argument("--n-valid", type=int, default=4,
                         help="valid utterances per class")
    p_synth.add_argument("--n-test", type=int, default=4,
                         help="test utterances per class")
    p_synth.add_argument("--n-speakers", type=int, default=4,
                         help="speakers per class per split")
    p_synth.add_argument("--noise-floor", type=float, default=0.05)

    return parser


def cmd_train(args) -> int:
    if args.list_configs:
        for row in net.ABLATION_CONFIGS:
            print(net.config_label(*row))
        return EXIT_OK
    for required in ("manifest", "frontend", "out_dir"):
        if getattr(args, required) is None:
            raise ConfigError(f"--{required.replace('_', '-')} is required")
    pcen_learn = _parse_pcen_learn(args.pcen_learn) if args.pcen_learn else None
    cfg = net.make_run_config(
        args.frontend,
        pcen_learn=pcen_learn,
        seed=args.seed,
        epochs=args.epochs,
        patience=args.patience,
    )
    manifest = load_manifest(args.manifest)
    validate_manifest(manifest, check_files=True)
    result = net.train_run(manifest, cfg, args.out_dir)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"best epoch: {result.best_epoch}")
    if result.best_valid_uar >= 0:
        print(f"best valid UAR: {result.best_valid_uar:.4f}")
    else:
        print("best valid UAR: n/a (no training epochs)")
    return EXIT_OK


def _checkpoint_state(checkpoint: str, frontend: str | None) -> net.TrainState:
    """The checkpoint's state, refused when it does not use frontend."""
    state = net.state_from_checkpoint(checkpoint)
    if frontend is not None and state.config.frontend != frontend:
        raise ConfigError(
            f"checkpoint {checkpoint} uses frontend "
            f"'{state.config.frontend}', not '{frontend}'"
        )
    return state


def _eval_one(checkpoint: str, manifest, split: str, frontend: str | None) -> dict:
    state = _checkpoint_state(checkpoint, frontend)
    utts = manifest.split(split)
    if not utts:
        raise ValidationError(f"split '{split}' is empty")
    result = net.evaluate(state, utts)
    return {
        "checkpoint": str(checkpoint),
        "frontend": state.config.frontend,
        "split": split,
        "n": result.n,
        "uar": result.uar,
        "per_class_recall": result.per_class_recall,
        "confusion": result.confusion,
    }


def cmd_eval(args) -> int:
    manifest = load_manifest(args.manifest)
    runs = [
        _eval_one(ckpt, manifest, args.split, args.frontend)
        for ckpt in args.checkpoint
    ]
    if len(runs) == 1:
        report = runs[0]
    else:
        report = {"runs": runs, "split": args.split,
                  **_uar_stats([r["uar"] for r in runs])}
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        artifacts.write_atomic(args.out, [(text + "\n").encode()])
    return EXIT_OK


def _uar_stats(uars) -> dict:
    uars = np.array(uars)
    std = float(uars.std(ddof=1)) if len(uars) > 1 else 0.0
    return {"uar_mean": float(uars.mean()), "uar_std": std}


def cmd_experiment(args) -> int:
    rows = {net.config_label(*c): c for c in net.ABLATION_CONFIGS}
    unknown = [label for label in args.configs if label not in rows]
    if unknown:
        raise ConfigError(
            f"unknown config {', '.join(unknown)} (choose from {' '.join(rows)})"
        )
    manifest = load_manifest(args.manifest)
    validate_manifest(manifest, check_files=True)
    runs = net.run_experiment(
        manifest, [rows[label] for label in args.configs], args.seeds,
        args.out_dir, epochs=args.epochs, patience=args.patience,
    )
    configs = {
        label: _uar_stats([r["test_uar"] for r in runs if r["config"] == label])
        for label in args.configs
    }
    print(json.dumps({"configs": configs, "runs": runs}, indent=2))
    return EXIT_OK


def cmd_overfit(args) -> int:
    manifest = load_manifest(args.manifest)
    report = {}
    for frontend in net.FRONTENDS:
        cfg = net.make_run_config(frontend, seed=args.seed, epochs=args.max_epochs)
        r = net.overfit_check(manifest, cfg)
        report[frontend] = {"initial": r.initial, "final": r.final, "epochs": r.epochs,
                            "reached": r.final < 0.1 * r.initial}
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_extract(args) -> int:
    if args.checkpoint:
        state = _checkpoint_state(args.checkpoint, args.frontend)
    elif args.frontend:
        state = net.make_train_state(net.make_run_config(args.frontend))
    else:
        raise ConfigError("extract needs --frontend or --checkpoint")
    cfg = state.config
    wave = net.prepare_waveform(read_wav(args.wav, cfg.sample_rate), cfg)
    values, _ = net.frontend_forward(state.frontend, wave)
    artifacts.write_csv(args.out, [tuple(float(v) for v in row) for row in values])
    print(f"wrote {values.shape[0]}x{values.shape[1]} features to {args.out}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    state = net.state_from_checkpoint(args.checkpoint)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    has_tdfb = state.frontend.tdfb is not None
    has_pcen = state.frontend.pcen is not None
    if args.what == "filters" and not has_tdfb:
        raise ConfigError("checkpoint has no learnable filterbank tensors")
    if args.what == "pcen" and not has_pcen:
        raise ConfigError("checkpoint has no PCEN tensors")
    if args.what == "all" and not (has_tdfb or has_pcen):
        raise ConfigError(
            "checkpoint has neither filterbank nor PCEN tensors to inspect"
        )
    wrote = []
    if has_tdfb and args.what in ("filters", "all"):
        rows = center_frequency_report(state.frontend.tdfb, state.config.n_fft)
        path = out_dir / "filter_scale.csv"
        artifacts.write_csv(path, rows, header="filter,learned_hz,init_hz")
        wrote.append(str(path))
        taps_path = out_dir / "filter_taps.csv"
        taps = state.frontend.tdfb.conv_taps
        artifacts.write_csv(taps_path, [tuple(float(v) for v in row) for row in taps])
        wrote.append(str(taps_path))
    if has_pcen and args.what in ("pcen", "all"):
        rows = compression_report(state.frontend.pcen)
        path = out_dir / "pcen_compression.csv"
        artifacts.write_csv(path, rows, header="channel,r_abs,alpha,delta")
        wrote.append(str(path))
    for path in wrote:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    rows = gradcheck.run_gradcheck(args.seed)
    width = max(len(f"{r.config}/{r.tensor}") for r in rows)
    failed = 0
    for r in rows:
        status = "ok" if r.passed else "FAIL"
        name = f"{r.config}/{r.tensor}"
        print(f"{name:<{width}}  max rel err {r.max_rel_err:.3e}  {status}")
        failed += 0 if r.passed else 1
    limit = f"max rel err < {gradcheck.GRADCHECK_THRESHOLD:.0e}"
    if failed:
        print(f"{failed} gradient check(s) failed ({limit})")
        return EXIT_NUMERIC
    print(f"all {len(rows)} gradient checks passed ({limit})")
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = SyntheticSpec(
        seed=args.seed,
        n_train_per_class=args.n_train,
        n_valid_per_class=args.n_valid,
        n_test_per_class=args.n_test,
        n_speakers_per_class=args.n_speakers,
        noise_floor=args.noise_floor,
    )
    manifest = generate_synthetic(spec, args.out_dir)
    report = validate_manifest(manifest, check_files=True)
    print(f"manifest: {Path(args.out_dir) / 'manifest.csv'}")
    for split, counts in report["splits"].items():
        pretty = ", ".join(f"{n} {label}" for label, n in sorted(counts.items()))
        print(f"  {split}: {pretty}")
    return EXIT_OK


_DISPATCH = {
    "train": cmd_train,
    "eval": cmd_eval,
    "experiment": cmd_experiment,
    "overfit": cmd_overfit,
    "extract": cmd_extract,
    "inspect": cmd_inspect,
    "gradcheck": cmd_gradcheck,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as e:
        # config sizes within net.MAX_SIZES whose product is still too
        # large to allocate
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
