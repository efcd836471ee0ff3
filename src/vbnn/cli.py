"""Subcommand CLI: synth, train, predict, evaluate, diagnose, sweep.

Structured artifacts are JSON, traces and predictions are CSV.  Every output
is written to a temporary file in the destination directory and atomically
renamed, so a failing command never leaves a partial artifact behind.

Exit codes: 0 success (training converged), 2 training hit max_iters without
converging, 1 any error.  VBNN_LOG={error,info,debug} controls logging.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import logging
import os
import sys
import tempfile

import numpy as np

from .data import (
    DataError,
    REFERENCE_TRUTH,
    SchemaError,
    SplitSpec,
    TableSchema,
    _parse_rows,
    default_schema,
    fit_normalization,
    generate_synthetic,
    load_csv,
    normalize,
    split,
    write_csv,
)
from .metrics import IntegrationConfig, TrueFunction, diagnostics_dict
from .model import LabeledBatch, NetworkShape, PriorConfig, ShapeMismatchError
from .optimizer import (
    SCHEDULE_KEYS,
    Schedule,
    TrainConfig,
    report_summary,
    save_report_csv,
    train,
)
from .prediction import (
    PredictiveConfig,
    evaluation_dict,
    predictive_probabilities,
    save_predictions_csv,
    test_accuracy,
)
from .variational import VariationalParams

logger = logging.getLogger("vbnn")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


# ---------------------------------------------------------------------------
# atomic output helpers

def _atomic_write(path: str, writer) -> None:
    """Run ``writer(tmp_path)`` then atomically rename over ``path``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix=".part")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _atomic_write_json(path: str, doc: dict) -> None:
    def write(tmp):
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")

    _atomic_write(path, write)


# ---------------------------------------------------------------------------
# artifact plumbing

def _load_json(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise FileNotFoundError(f"cannot read {what} file {path!r}: no such file")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file {path!r} is not valid JSON: {exc}")


def _model_artifact(shape, prior, q, config, schema) -> dict:
    config_echo = config.to_json_dict()
    # threads is an execution detail, not a model parameter: artifacts must
    # be byte-identical for any worker count.
    config_echo.pop("threads", None)
    return {
        "shape": {"p": shape.p, "k": shape.k},
        "prior": {
            "mu": [float(v) for v in prior.mu],
            "zeta": [float(v) for v in prior.zeta],
        },
        "variational": q.to_json_dict(),
        "config": config_echo,
        "seed": config.seed,
        "schema": schema.to_json_dict(),
    }


def _load_model(path: str):
    doc = _load_json(path, "model")
    shape = NetworkShape(p=int(doc["shape"]["p"]), k=int(doc["shape"]["k"]))
    q = VariationalParams.from_json_dict(doc["variational"])
    schema = TableSchema.from_json_dict(doc["schema"])
    if q.K != shape.K:
        raise ValueError(f"model file {path!r}: variational state does not match shape")
    return doc, shape, q, schema


def _resolve_schema(data_path: str, schema_path: str | None) -> TableSchema | None:
    if schema_path:
        return TableSchema.load(schema_path)
    sidecar = data_path + ".schema.json"
    if os.path.exists(sidecar):
        return TableSchema.load(sidecar)
    return None


def _load_truth(source: str) -> TrueFunction:
    if source == "reference":
        return REFERENCE_TRUTH
    return TrueFunction.from_json_dict(_load_json(source, "truth"))


def _load_feature_rows(path: str, schema: TableSchema) -> np.ndarray:
    """Features for prediction; accepts full columns or feature columns only."""
    feature_names = [c.name for c in schema.feature_columns]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file, expected a header row")
        if [h.strip() for h in header] == feature_names:
            return _parse_rows(path, list(reader), len(feature_names))
    batch, _ = load_csv(path, schema)
    return batch.x


# ---------------------------------------------------------------------------
# config assembly for `train` and `sweep`

def _schedule_kind(name: str) -> str:
    return "rm" if name == "robbins_monro" else name


def _schedule_dict_with_overrides(base: dict, args) -> dict:
    """The config's schedule with the CLI flags applied.

    --lr implies a fixed schedule and --rho0/--b/--c a decaying (rm) one;
    flags that imply different kinds are rejected.  When the flags change the
    config's kind, its keys for the old kind are dropped, since the new kind
    rejects them.
    """
    doc = dict(base)
    flags = {key: getattr(args, attr, None)
             for key, attr in (("rho", "lr"), ("rho0", "rho0"), ("b", "b"), ("c", "c"))}
    flags = {key: value for key, value in flags.items() if value is not None}
    kinds = {kind for kind, keys in SCHEDULE_KEYS.items() if keys & flags.keys()}
    if getattr(args, "schedule", None):
        kinds.add(_schedule_kind(args.schedule))
    if len(kinds) > 1:
        raise ValueError(
            f"schedule flags mix the {' and '.join(sorted(kinds))} kinds: "
            "--lr sets a fixed rate and --rho0/--b/--c a decaying one"
        )
    if kinds:
        (kind,) = kinds
        if kind != _schedule_kind(doc.get("kind", "fixed")):
            doc = {key: value for key, value in doc.items() if key in SCHEDULE_KEYS[kind]}
        doc["kind"] = kind
    doc.update(flags)
    return doc


def _train_config_from(args, config_doc: dict) -> TrainConfig:
    doc = dict(config_doc)
    doc["schedule"] = _schedule_dict_with_overrides(doc.get("schedule", {}), args)
    if args.algo:
        doc["algo"] = args.algo
    if args.S is not None:
        doc["S"] = args.S
    if args.max_iters is not None:
        doc["max_iters"] = args.max_iters
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.threads is not None:
        doc["threads"] = args.threads
    return TrainConfig.from_json_dict(doc)


def _prepare_training_data(args) -> tuple[LabeledBatch, TableSchema]:
    schema = _resolve_schema(args.data, args.schema)
    batch, schema = load_csv(args.data, schema)
    schema = fit_normalization(schema, batch)
    return normalize(batch, schema), schema


def _run_training(batch, schema, config: TrainConfig, k: int):
    shape = NetworkShape(p=batch.p, k=k)
    prior = PriorConfig.standard(shape.K)
    q, report = train(batch, prior, shape, config)
    return shape, prior, q, report


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    truth = _load_truth(args.truth)
    batch = generate_synthetic(truth, args.n, seed=args.seed)
    schema = default_schema(truth.p)
    _atomic_write(args.out, lambda tmp: write_csv(batch, tmp, schema))
    _atomic_write(args.out + ".schema.json", lambda tmp: schema.save(tmp))
    if args.truth_out:
        _atomic_write_json(args.truth_out, truth.to_json_dict())
    logger.info("wrote %d synthetic rows to %s", batch.n, args.out)
    return 0


def cmd_train(args) -> int:
    config_doc = _load_json(args.config, "config") if args.config else {}
    k_doc = config_doc.pop("k", 10)
    config = _train_config_from(args, config_doc)
    k = args.k if args.k is not None else int(k_doc)
    batch, schema = _prepare_training_data(args)
    shape, prior, q, report = _run_training(batch, schema, config, k)

    os.makedirs(args.out, exist_ok=True)
    _atomic_write_json(
        os.path.join(args.out, "model.json"),
        _model_artifact(shape, prior, q, config, schema),
    )
    _atomic_write(
        os.path.join(args.out, "report.csv"),
        lambda tmp: save_report_csv(report, tmp),
    )
    _atomic_write_json(os.path.join(args.out, "summary.json"), report_summary(report))

    if report.diverged:
        print(
            f"error: training diverged (non-finite estimate) at iteration "
            f"{report.diverged_at}",
            file=sys.stderr,
        )
        return 1
    logger.info(
        "finished after %d iterations (converged=%s)",
        report.iterations_run,
        report.converged,
    )
    return 0 if report.converged else 2


def cmd_predict(args) -> int:
    _, shape, q, schema = _load_model(args.model)
    x = _load_feature_rows(args.data, schema)
    if x.shape[1] != shape.p:
        raise ShapeMismatchError(
            f"data has {x.shape[1]} features but the model expects {shape.p}"
        )
    x = normalize(LabeledBatch(x=x, y=np.zeros(x.shape[0], dtype=np.int64)), schema).x
    cfg = PredictiveConfig(M=args.M, seed=args.seed)
    probs = predictive_probabilities(q, x, cfg)
    labels = (probs >= 0.5).astype(np.int64)
    _atomic_write(args.out, lambda tmp: save_predictions_csv(tmp, probs, labels))
    logger.info("wrote %d predictions to %s", probs.shape[0], args.out)
    return 0


def cmd_evaluate(args) -> int:
    _, shape, q, schema = _load_model(args.model)
    batch, _ = load_csv(args.data, schema)
    batch = normalize(batch, schema)
    cfg = PredictiveConfig(M=args.M, seed=args.seed)
    doc = evaluation_dict(q, batch, cfg)
    _atomic_write_json(args.out, doc)
    logger.info("accuracy %.4f on %d rows", doc["accuracy"], doc["n"])
    return 0


def cmd_diagnose(args) -> int:
    _, shape, q, schema = _load_model(args.model)
    for col in schema.feature_columns:
        if col.normalization != "none":
            raise SchemaError(
                "diagnose integrates over raw [0,1]^p inputs; the model was "
                f"trained with {col.normalization!r} normalization on "
                f"{col.name!r}, so the comparison space would not match"
            )
    truth = _load_truth(args.truth)
    if truth.p != shape.p:
        raise ShapeMismatchError(
            f"truth has p={truth.p} but the model expects p={shape.p}"
        )
    pred_cfg = PredictiveConfig(M=args.M, seed=args.seed)
    int_cfg = IntegrationConfig(n_mc=args.n_mc, seed=args.seed)
    doc = diagnostics_dict(q, truth, pred_cfg, int_cfg)
    _atomic_write_json(args.out, doc)
    logger.info("hellinger %.4f, risk gap %.4f", doc["hellinger"], doc["risk_gap"])
    return 0


def _schedule_label(doc: dict) -> str:
    if doc.get("kind", "fixed") == "fixed":
        return f"fixed(rho={doc.get('rho', 1e-3)})"
    return (
        f"rm(rho0={doc.get('rho0', 1.0)},b={doc.get('b', 100.0)},"
        f"c={doc.get('c', 0.3)})"
    )


def cmd_sweep(args) -> int:
    grid = _load_json(args.grid, "grid")
    s_values = grid.get("S", [])
    schedules = grid.get("schedule", [])
    algos = grid.get("algo", [])
    if not (s_values and schedules and algos):
        raise ValueError("empty grid: S, schedule and algo must each be non-empty")
    base = dict(grid.get("base", {}))
    k = int(grid.get("k", 10))
    folds = int(grid.get("folds", 5))

    schema = _resolve_schema(args.data, args.schema)
    batch, schema = load_csv(args.data, schema)
    pairs = split(batch, SplitSpec(kind="kfold", folds=folds, seed=args.seed))

    rows = []
    for S, sched_doc, algo in itertools.product(s_values, schedules, algos):
        doc = dict(base)
        doc.update({"S": S, "schedule": sched_doc, "algo": algo})
        if args.threads is not None:
            doc["threads"] = args.threads
        if args.seed is not None:
            doc["seed"] = args.seed
        config = TrainConfig.from_json_dict(doc)
        accs, iters, wall = [], [], 0.0
        for train_part, test_part in pairs:
            fitted = fit_normalization(schema, train_part)
            shape, prior, q, report = _run_training(
                normalize(train_part, fitted), fitted, config, k
            )
            cfg = PredictiveConfig(M=args.M, seed=config.seed)
            accs.append(test_accuracy(q, normalize(test_part, fitted), cfg))
            iters.append(report.iterations_run)
            wall += report.wall_time
        accs_arr = np.asarray(accs)
        rows.append(
            {
                "S": S,
                "schedule": _schedule_label(sched_doc),
                "algo": algo,
                "accuracy_mean": float(accs_arr.mean()),
                "accuracy_sd": float(accs_arr.std(ddof=1)) if len(accs) > 1 else 0.0,
                "iterations_mean": float(np.mean(iters)),
                "wall_time_s": wall,
            }
        )
        logger.info(
            "cell S=%s %s %s: accuracy %.4f +/- %.4f",
            S,
            rows[-1]["schedule"],
            algo,
            rows[-1]["accuracy_mean"],
            rows[-1]["accuracy_sd"],
        )

    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)

    _atomic_write(args.out, write)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_predictive_flags(sub, default_m=1000):
    sub.add_argument("--M", type=int, default=default_m,
                     help="posterior draws per prediction")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--threads", type=int, default=1,
                     help="ignored: serving is single-threaded")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vbnn",
        description="Variational Bayes for single-hidden-layer binary classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    p_synth.add_argument("--truth", default="reference",
                         help="'reference' or a truth JSON path")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.add_argument("--truth-out", default=None,
                         help="also save the truth function JSON here")
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="fit the variational posterior")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--schema", default=None)
    p_train.add_argument("--config", default=None, help="training config JSON")
    p_train.add_argument("--out", default=".", help="output directory")
    p_train.add_argument("--algo", choices=["bbvi", "bbvi-cv"], default=None)
    p_train.add_argument("--S", type=int, default=None)
    p_train.add_argument("--lr", type=float, default=None,
                         help="fixed learning rate (implies --schedule fixed)")
    p_train.add_argument("--schedule", choices=["fixed", "rm", "robbins_monro"],
                         default=None)
    p_train.add_argument("--rho0", type=float, default=None)
    p_train.add_argument("--b", type=float, default=None)
    p_train.add_argument("--c", type=float, default=None)
    p_train.add_argument("--max-iters", type=int, default=None, dest="max_iters")
    p_train.add_argument("--k", type=int, default=None, help="hidden nodes")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--threads", type=int, default=None,
                         help="training threads; results do not depend on it")
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="posterior-predictive probabilities")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--out", required=True)
    _add_predictive_flags(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("evaluate", help="accuracy on labeled data")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out", required=True)
    _add_predictive_flags(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_diag = sub.add_parser("diagnose",
                            help="distances and risk gap against a known truth")
    p_diag.add_argument("--model", required=True)
    p_diag.add_argument("--truth", required=True,
                        help="'reference' or a truth JSON path")
    p_diag.add_argument("--out", required=True)
    p_diag.add_argument("--n-mc", type=int, default=20000, dest="n_mc")
    _add_predictive_flags(p_diag, default_m=200)
    p_diag.set_defaults(func=cmd_diagnose)

    p_sweep = sub.add_parser("sweep", help="hyper-parameter grid with k-fold CV")
    p_sweep.add_argument("--grid", required=True, help="grid JSON path")
    p_sweep.add_argument("--data", required=True)
    p_sweep.add_argument("--schema", default=None)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--M", type=int, default=200)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--threads", type=int, default=None,
                         help="training threads; fold scoring is single-threaded")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("VBNN_LOG", "error").lower()
    logging.basicConfig(
        level=_LOG_LEVELS.get(level, logging.ERROR),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if level not in _LOG_LEVELS:
        logger.error("unknown VBNN_LOG level %r, using 'error'", level)

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ValueError,
        OSError,
        KeyError,
        ShapeMismatchError,
        SchemaError,
        DataError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
