"""Command-line entry points.

Subcommands: ``run`` (one configuration), ``suite`` (all six cells),
``grad-check`` (finite-difference verification), ``init-stats`` (empirical
initializer variances), ``synth`` (write a synthetic CSV).

Exit codes:

- 0: success
- 1: failed check: a ``suite`` cell failed (its error is in the outputs), or
  ``grad-check`` found a relative error of at least 1e-4
- 2: config error: a bad argument, or an output of ``run`` or ``suite`` that
  would overwrite ``--data``, the ``--out`` directory or another output
- 3: data error: a missing or malformed CSV, or an ``--out`` or
  ``--save-model`` directory that cannot be had, found before any training
- 4: training diverged
- 130: interrupted (SIGINT, as by Ctrl-C)
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .data import synthesize_dataset, save_csv, N_FEATURES
from .errors import DataError, DivergedTrainingError, ShapeError, ValidationError, _check_int
from .harness import (
    ExperimentConfig,
    SyntheticSpec,
    render_report,
    result_to_dict,
    results_csv_rows,
    run_experiment,
    run_suite,
    save_model,
    suite_to_dict,
)
from .initializers import ALL_SCHEMES, DistKind, Family, InitScheme, target_variance, uniform_bound, initialize
from .network import Topology, build_model, grad_check
from .numerics import Rng, derive_seed


def _add_cohort_args(parser: argparse.ArgumentParser) -> None:
    """The shape of a synthetic cohort, with SyntheticSpec's defaults."""
    spec = SyntheticSpec()
    parser.add_argument("--participants", type=int, default=spec.participants)
    parser.add_argument(
        "--records", type=int, default=spec.records_per_participant,
        help="records per participant",
    )
    parser.add_argument("--separation", type=float, default=spec.separation)


def _cohort(args) -> SyntheticSpec:
    return SyntheticSpec(args.participants, args.records, args.separation)


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", metavar="CSV", help="dataset CSV path")
    source.add_argument(
        "--synthetic", action="store_true", help="generate a synthetic cohort"
    )
    _add_cohort_args(parser)


def _add_common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=ExperimentConfig.epochs)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--dist", choices=["normal", "uniform"], default="normal",
        help="initializer distribution variant",
    )
    parser.add_argument(
        "--no-loo", action="store_true", help="skip the leave-one-out diagnostic"
    )


def _base_config(args, topology: Topology, family: Family) -> ExperimentConfig:
    return ExperimentConfig(
        topology=topology,
        scheme=InitScheme(family, DistKind(args.dist)),
        seed=args.seed,
        epochs=args.epochs,
        csv_path=args.data,
        synthetic=_cohort(args) if args.synthetic else None,
        loo_enabled=not args.no_loo,
    )


# The files that run and suite write into --out.
_OUTPUT_NAMES = ("result.json", "report.txt", "result.csv")


def _write_outputs(out_dir: str, payload: dict, report_text: str, csv_rows) -> None:
    texts = (
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        report_text,
        "\n".join(",".join(row) for row in csv_rows) + "\n",
    )
    for name, text in zip(_OUTPUT_NAMES, texts):
        (Path(out_dir) / name).write_text(text, encoding="utf-8")


def _check_paths(args) -> None:
    """Raise ValidationError if an output of ``run`` or ``suite`` would
    overwrite ``--data`` or another output, or ``--save-model`` is ``--out``
    itself: checked before anything is written."""
    outputs = {(Path(args.out) / name).resolve() for name in _OUTPUT_NAMES}
    data = {Path(args.data).resolve()} if args.data else set()
    if data & outputs:
        raise ValidationError(f"--data {args.data} is an output file of --out {args.out}")
    save_model = getattr(args, "save_model", None)
    if save_model and Path(save_model).resolve() in outputs | data | {Path(args.out).resolve()}:
        raise ValidationError(
            f"--save-model {save_model} would overwrite --data, --out or an output file of --out"
        )


def _cmd_run(args) -> int:
    config = _base_config(args, Topology(args.topology), Family(args.init))
    _check_paths(args)
    if args.save_model:
        model_dir = Path(args.save_model).parent  # may be --out, made below
        if not (model_dir.is_dir() or model_dir.resolve() == Path(args.out).resolve()):
            raise NotADirectoryError(f"--save-model {args.save_model}: no such directory")
        if Path(args.save_model).is_dir():
            raise IsADirectoryError(f"--save-model {args.save_model}: is a directory")
    Path(args.out).mkdir(parents=True, exist_ok=True)
    result = run_experiment(config)
    _write_outputs(
        args.out, result_to_dict(result), render_report([result]), results_csv_rows([result])
    )
    if args.save_model:
        save_model(result.model, args.save_model)
    print(render_report([result]), end="")
    print(f"outputs written to {args.out}/ ({result.wall_time:.1f}s)")
    return 0


def _cmd_suite(args) -> int:
    base = _base_config(args, Topology.THREE_LAYER, Family.KAIMING)
    _check_paths(args)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    cells = run_suite(base)
    ok_results = [cell.result for cell in cells if cell.result is not None]
    report_text = render_report(ok_results)
    for cell in cells:
        if cell.error is not None:
            report_text += (
                f"\n{cell.topology.value}-layer + {cell.family.value}: "
                f"FAILED: {cell.error}\n"
            )
    _write_outputs(
        args.out, suite_to_dict(args.seed, cells), report_text, results_csv_rows(ok_results)
    )
    print(report_text, end="")
    print(f"outputs written to {args.out}/")
    return 0 if all(cell.error is None for cell in cells) else 1


def _cmd_grad_check(args) -> int:
    rng = Rng(derive_seed(args.seed, 97))
    batch = rng.normal(8 * N_FEATURES).reshape(8, N_FEATURES)
    labels = np.array([rng.randbelow(4) for _ in range(8)])
    worst = 0.0
    for topology in Topology:
        for family in Family:
            scheme = InitScheme(family, DistKind(args.dist))
            model = build_model(Rng(derive_seed(args.seed, topology.value)), topology, scheme)
            err = grad_check(model, batch, labels, epsilon=args.epsilon)
            worst = max(worst, err)
            status = "ok" if err < 1e-4 else "FAIL"
            print(
                f"{topology.value}-layer {scheme}: max relative error "
                f"{err:.3e} [{status}]"
            )
    print(f"worst case: {worst:.3e}")
    return 0 if worst < 1e-4 else 1


def _cmd_init_stats(args) -> int:
    draws = _check_int("draws", args.draws, 1)
    rng = Rng(args.seed)
    stats = []
    for scheme in ALL_SCHEMES:
        for d in (20, 50, 85, 256):
            rows = max(1, draws // d)
            w = initialize(rng, scheme, rows=rows, cols=d)
            entry = {
                "scheme": str(scheme),
                "fan_in": d,
                "n": int(w.size),
                "target_variance": target_variance(scheme, d),
                "empirical_variance": float(w.var()),
                "empirical_mean": float(w.mean()),
            }
            if scheme.dist is DistKind.UNIFORM:
                entry["bound"] = uniform_bound(scheme, d)
                entry["max_abs"] = float(np.abs(w).max())
            stats.append(entry)
    if args.json:
        print(json.dumps(stats, indent=2))
    else:
        for e in stats:
            line = (
                f"{e['scheme']:<16} d={e['fan_in']:<4} var {e['empirical_variance']:.6f} "
                f"(target {e['target_variance']:.6f})"
            )
            if "bound" in e:
                line += f"  max|w| {e['max_abs']:.6f} (bound {e['bound']:.6f})"
            print(line)
    return 0


def _cmd_synth(args) -> int:
    dataset = synthesize_dataset(seed=args.seed, **asdict(_cohort(args)))
    save_csv(dataset, args.out)
    print(f"wrote {len(dataset)} samples to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlpinit",
        description="Train and evaluate small MLP classifiers with Xavier/Kaiming initialization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one (topology, initializer) experiment")
    p_run.add_argument("--topology", type=int, choices=[1, 2, 3], required=True)
    p_run.add_argument("--init", choices=["xavier", "kaiming"], required=True)
    _add_common_args(p_run)
    _add_data_args(p_run)
    p_run.add_argument("--save-model", metavar="PATH", help="also save the trained model")
    p_run.set_defaults(func=_cmd_run)

    p_suite = sub.add_parser("suite", help="run all six topology x initializer cells")
    _add_common_args(p_suite)
    _add_data_args(p_suite)
    p_suite.set_defaults(func=_cmd_suite)

    p_grad = sub.add_parser("grad-check", help="finite-difference gradient verification")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--epsilon", type=float, default=1e-5)
    p_grad.add_argument("--dist", choices=["normal", "uniform"], default="normal")
    p_grad.set_defaults(func=_cmd_grad_check)

    p_stats = sub.add_parser("init-stats", help="empirical initializer variances")
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.add_argument(
        "--draws", type=int, default=100_000,
        help="entries per scheme/fan-in, rounded down to whole rows of the fan-in "
        "(at least one row)",
    )
    p_stats.add_argument("--json", action="store_true")
    p_stats.set_defaults(func=_cmd_init_stats)

    p_synth = sub.add_parser("synth", help="write a synthetic cohort CSV")
    p_synth.add_argument("--out", required=True, metavar="CSV")
    p_synth.add_argument("--seed", type=int, default=0)
    _add_cohort_args(p_synth)
    p_synth.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DivergedTrainingError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
