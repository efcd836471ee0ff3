"""Subcommand CLI: synth, train, predict, evaluate, diagnose, sweep.

Structured artifacts are JSON, traces and predictions are CSV.  Every output
path is checked before the command's work starts (none may be one of the
command's inputs), and every output is written to a temporary file in the
destination directory and atomically renamed, so a failing command never
leaves a partial artifact behind.

Exit codes: 0 success (training converged), 2 training hit max_iters without
converging, 1 any error, a usage error included.  Warnings and errors are
logged to stderr; VBNN_LOG={error,info,debug} sets another level.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import logging
import os
import stat
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from .data import (
    REFERENCE_TRUTH,
    SchemaError,
    TableSchema,
    _is_plain,
    _open_table,
    _parse_table,
    _write_rows,
    default_schema,
    fit_normalization,
    generate_synthetic,
    load_csv,
    normalize,
    save_predictions_csv,
    save_report_csv,
    split,
    write_csv,
)
from .metrics import IntegrationConfig, TrueFunction, diagnostics_dict
from .model import (
    LabeledBatch,
    NetworkShape,
    PriorConfig,
    ShapeMismatchError,
    _check_counts,
    check_keys,
    json_field,
    numpy_build,
)
from .optimizer import (
    SCHEDULE_KEYS,
    Schedule,
    TrainConfig,
    report_summary,
    train,
)
from .prediction import (
    PredictiveConfig,
    evaluation_dict,
    plug_in_labels,
    predictive_probabilities,
    test_accuracy,
)
from .variational import Posterior

logger = logging.getLogger("vbnn")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

# hidden nodes when neither --k nor the config or grid sets "k"
_DEFAULT_K = 10


# ---------------------------------------------------------------------------
# atomic output helpers

def _atomic_write(path: str, writer) -> None:
    """Run ``writer(tmp_path)`` then atomically rename over ``path``; an OSError
    of any step, such as a full disk, is raised naming ``path``, with no file left."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp.{os.urandom(8).hex()}.part")
    try:  # exclusive, with the mode open(path, "w") gives
        os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        try:
            writer(tmp)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:  # name the destination, not the temporary file
        raise type(exc)(exc.errno, exc.strerror, path) from None


def _check_outputs(args, *paths: str) -> None:
    """Raise, before any work, an error naming the first path that an earlier one
    resolves to as well, that one of the command's inputs resolves to, that is a
    directory, or whose directory cannot be used: the OS's error from one
    ``os.stat`` of it, such as ENOENT, ENOTDIR or EACCES."""
    inputs = {os.path.realpath(path): flag for flag, path in _inputs(args).items()}
    seen = set()
    for path in paths:
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"output {path!r} is named twice")
        if real in inputs:
            raise ValueError(f"output {path!r} is the {inputs[real]} input")
        seen.add(real)
        try:
            os.stat(os.path.join(os.path.dirname(os.path.abspath(path)), "."))
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, path) from None
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _atomic_write_json(path: str, doc: dict) -> None:
    def write(tmp):
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=2, allow_nan=False)
            fh.write("\n")

    _atomic_write(path, write)


# ---------------------------------------------------------------------------
# artifact plumbing

@contextmanager
def _json_input(path: str, what: str):
    """Parse a JSON input and yield its document.

    The file must be UTF-8 text holding an object, with no NaN, Infinity or
    repeated key.  Any ValueError raised while parsing (bad syntax, or an
    integer literal too long for ``int``) or in the block (a value of the wrong
    kind, an unknown or out-of-range value, a shape mismatch), and a missing
    key in the block, is re-raised as a ValueError naming the file."""
    def reject(token):
        # RFC 8259 has no NaN or Infinity, and every writer here refuses them
        raise ValueError(f"{token} is not a number")

    def integer(text):
        try:
            return int(text)
        except ValueError:  # only Python's digit limit; its message advises programmers
            raise ValueError(f"it holds an integer literal over "
                             f"{sys.get_int_max_str_digits()} digits") from None

    def unique(pairs):
        # RFC 8259 leaves a repeated name's meaning open: refuse to pick one
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise KeyError(key)
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=reject, parse_int=integer,
                            object_pairs_hook=unique)
    except FileNotFoundError:
        raise FileNotFoundError(f"cannot read {what} file {path!r}: no such file")
    except KeyError as exc:  # raised by unique only
        raise ValueError(f"{what} file {path!r} repeats the key {exc.args[0]!r}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{what} file {path!r} is not UTF-8 text: {exc}") from None
    except ValueError as exc:  # a syntax error, NaN, Infinity or an over-long integer
        raise ValueError(f"{what} file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{what} file {path!r} must hold a JSON object at its top level")
    try:
        yield doc
    except KeyError as exc:
        raise ValueError(f"{what} file {path!r} has no key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ValueError(f"{what} file {path!r}: {exc}") from None


@contextmanager
def _read_against(path: str, what: str):
    """Name the file a schema came from in a SchemaError raised while data is
    read against that schema (a header, label or 0/1 column mismatch)."""
    try:
        yield
    except SchemaError as exc:
        raise SchemaError(f"{exc} (schema from {what} file {path!r})") from None


def _model_artifact(post: Posterior, config: TrainConfig, schema: TableSchema) -> dict:
    config_echo = config.to_json_dict()
    # threads is an execution detail, not a model parameter: artifacts must
    # be byte-identical for any worker count.
    config_echo.pop("threads", None)
    return {**post.to_json_dict(), "config": config_echo, "seed": config.seed,
            "schema": schema.to_json_dict()}


def _load_model(path: str) -> tuple[Posterior, TableSchema]:
    with _json_input(path, "model") as doc:
        check_keys(doc, ("shape", "prior", "variational", "config", "seed", "schema"), "a model")
        post = Posterior.from_json_dict(doc)
        schema = TableSchema.from_json_dict(json_field(doc, "schema", dict))
        schema.check_fitted()  # train writes the statistics: a model without them was edited
        return post, schema


def _schema_source(data_path: str, schema_path: str | None) -> str | None:
    """The --schema file, else the data file's sidecar if there is one."""
    path = schema_path or data_path + ".schema.json"
    return path if schema_path or os.path.exists(path) else None


def _inputs(args) -> dict[str, str]:
    """Each file the command reads, by the flag that names it."""
    inputs = {f"--{flag}": getattr(args, flag)
              for flag in ("model", "data", "config", "grid", "truth")
              if getattr(args, flag, None) not in (None, "reference")}
    if "schema" in vars(args):  # train and sweep: the data's --schema or sidecar
        path = _schema_source(args.data, args.schema)
        if path:
            inputs["--schema" if args.schema else "--data sidecar"] = path
    return inputs


def _load_labeled(data_path: str, schema_path: str | None) -> tuple[LabeledBatch, TableSchema]:
    """The data read against its --schema file or sidecar, if there is one."""
    path = _schema_source(data_path, schema_path)
    if path is None:
        return load_csv(data_path)  # no --schema and no sidecar: infer the columns
    with _json_input(path, "schema") as doc:
        schema = TableSchema.from_json_dict(doc)
    with _read_against(path, "schema"):
        return load_csv(data_path, schema)


def _load_truth(source: str) -> TrueFunction:
    if source == "reference":
        return REFERENCE_TRUTH
    with _json_input(source, "truth") as doc:
        return TrueFunction.from_json_dict(doc)


def _load_feature_rows(path: str, schema: TableSchema) -> np.ndarray:
    """Features for prediction; accepts full columns or feature columns only."""
    with _open_table(path) as (header, body):
        if header == [c.name for c in schema.feature_columns]:
            return _parse_table(path, header, body, schema)
    batch, _ = load_csv(path, schema)
    return batch.x


# ---------------------------------------------------------------------------
# config assembly for `train` and `sweep`

def _train_config_from(args, config: TrainConfig) -> TrainConfig:
    """The config with the CLI flags applied; a flag the command lacks is unset.

    --lr implies a fixed schedule and --rho0/--b/--c a decaying (rm) one;
    flags that imply different kinds are rejected.  Flags that change the
    schedule's kind start from the new kind's defaults.
    """
    def flag(name):
        return getattr(args, name, None)

    rates = {key: flag(name) for name, key in
             (("lr", "rho"), ("rho0", "rho0"), ("b", "b"), ("c", "c")) if flag(name) is not None}
    kinds = {kind for kind, keys in SCHEDULE_KEYS.items() if rates.keys() & keys}
    if len(kinds) > 1:
        raise ValueError(
            f"schedule flags mix the {' and '.join(sorted(kinds))} kinds: "
            "--lr sets a fixed rate and --rho0/--b/--c a decaying one"
        )
    schedule = config.schedule
    if kinds and kinds != {schedule.kind}:
        schedule = Schedule(kind=kinds.pop())
    values = {key: flag(key) for key in ("S", "max_iters", "seed", "threads")
              if flag(key) is not None}
    if flag("algo"):
        values["use_control_variates"] = args.algo == "bbvi-cv"
    return replace(config, schedule=replace(schedule, **rates), **values)


def _run_training(batch, config: TrainConfig, shape: NetworkShape):
    prior = PriorConfig.standard(shape.K)
    q, report = train(batch, prior, shape, config)
    return Posterior(shape, q, prior), report


def _diverged(report) -> str:
    return f"training diverged (non-finite estimate) at iteration {report.diverged_at}"


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    _check_outputs(args, args.out, args.out + ".schema.json", *filter(None, [args.truth_out]))
    truth = _load_truth(args.truth)
    batch = generate_synthetic(truth, args.n, seed=args.seed)
    schema = default_schema(truth.p)
    _atomic_write(args.out, lambda tmp: write_csv(batch, tmp, schema))
    _atomic_write_json(args.out + ".schema.json", schema.to_json_dict())
    if args.truth_out:
        _atomic_write_json(args.truth_out, truth.to_json_dict())
    logger.info("wrote %d synthetic rows to %s", batch.n, args.out)
    return 0


def cmd_train(args) -> int:
    model_out, report_out, summary_out = (os.path.join(args.out, name) for name in
                                          ("model.json", "report.csv", "summary.json"))
    try:  # the OS's error for a file among its parents, or one that cannot be searched
        if not stat.S_ISDIR(os.stat(args.out).st_mode):  # os.makedirs would refuse it
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), args.out)
    except FileNotFoundError:  # os.makedirs makes it, and any missing parent, after the fit
        pass
    else:
        _check_outputs(args, model_out, report_out, summary_out)
    # every flag is checked before any file is read; a --config may turn control
    # variates off, so only the flags' own --algo can refuse --S 1 this early
    _train_config_from(args, TrainConfig(use_control_variates=args.config is None))
    if args.k is not None:
        _check_counts(k=(args.k, 1))
    batch, schema = _load_labeled(args.data, args.schema)
    if batch.n == 0:
        raise ValueError(f"{args.data}: training needs at least one data row")
    try:
        schema = fit_normalization(schema, batch)
    except SchemaError as exc:  # a statistic that cannot normalize
        raise SchemaError(f"{args.data}: {exc}") from None
    batch = normalize(batch, schema)
    # the file is checked on its own, so that a bad flag is not blamed on it
    config, shape = TrainConfig(), NetworkShape(p=batch.p, k=_DEFAULT_K)
    if args.config:
        with _json_input(args.config, "config") as doc:
            # k sizes the network, not the training run
            shape = NetworkShape(p=batch.p, k=json_field(doc, "k", int, _DEFAULT_K))
            config = TrainConfig.from_json_dict({key: v for key, v in doc.items() if key != "k"})
    config = _train_config_from(args, config)
    if args.k is not None:
        shape = NetworkShape(p=batch.p, k=args.k)
    post, report = _run_training(batch, config, shape)

    os.makedirs(args.out, exist_ok=True)
    _atomic_write_json(model_out, _model_artifact(post, config, schema))
    _atomic_write(report_out, lambda tmp: save_report_csv(report, tmp))
    _atomic_write_json(summary_out, {**report_summary(report), **numpy_build()})

    if report.diverged:
        under = f" under config file {args.config!r}" if args.config else ""
        raise ValueError(_diverged(report) + under)
    logger.info(
        "finished after %d iterations (converged=%s)",
        report.iterations_run,
        report.converged,
    )
    return 0 if report.converged else 2


def _predictive_config(args) -> PredictiveConfig:
    return PredictiveConfig(M=args.M, seed=args.seed, threads=args.threads)


def cmd_predict(args) -> int:
    _check_outputs(args, args.out)
    cfg = _predictive_config(args)
    post, schema = _load_model(args.model)
    with _read_against(args.model, "model"):
        x = _load_feature_rows(args.data, schema)
    x = normalize(LabeledBatch(x=x, y=np.zeros(x.shape[0], dtype=np.int64)), schema).x
    probs = predictive_probabilities(post, x, cfg)
    labels = plug_in_labels(probs)
    _atomic_write(args.out, lambda tmp: save_predictions_csv(tmp, probs, labels))
    logger.info("wrote %d predictions to %s", probs.shape[0], args.out)
    return 0


def cmd_evaluate(args) -> int:
    _check_outputs(args, args.out)
    cfg = _predictive_config(args)
    post, schema = _load_model(args.model)
    with _read_against(args.model, "model"):
        batch, _ = load_csv(args.data, schema)
    if batch.n == 0:
        raise ValueError(f"{args.data}: accuracy is undefined on a file with no data rows")
    batch = normalize(batch, schema)
    doc = evaluation_dict(post, batch, cfg)
    _atomic_write_json(args.out, doc)
    logger.info("accuracy %.4f on %d rows", doc["accuracy"], doc["n"])
    return 0


def cmd_diagnose(args) -> int:
    _check_outputs(args, args.out)
    pred_cfg = _predictive_config(args)
    int_cfg = IntegrationConfig(n_mc=args.n_mc, seed=args.seed)
    post, schema = _load_model(args.model)
    for col in schema.feature_columns:
        if col.normalization != "none":
            raise SchemaError(
                "diagnose integrates over raw [0,1]^p inputs; the model was "
                f"trained with {col.normalization!r} normalization on "
                f"{col.name!r}, so the comparison space would not match"
            )
    truth = _load_truth(args.truth)
    try:
        doc = diagnostics_dict(post, truth, pred_cfg, int_cfg)
    except ShapeMismatchError as exc:  # a truth of another width than the model's
        raise ValueError(f"{exc} (truth {args.truth!r}, model file {args.model!r})") from None
    _atomic_write_json(args.out, doc)
    logger.info("hellinger %.4f, risk gap %.4f", doc["hellinger"], doc["risk_gap"])
    return 0


def _schedule_label(schedule: Schedule) -> str:
    values = ",".join(f"{key}={getattr(schedule, key)}" for key in SCHEDULE_KEYS[schedule.kind])
    return f"{schedule.kind}({values})"


def cmd_sweep(args) -> int:
    _check_outputs(args, args.out)
    # checked before any file is read, so that a bad flag is not blamed on one
    _train_config_from(args, TrainConfig())
    cfg = PredictiveConfig(M=args.M, seed=args.seed)
    batch, schema = _load_labeled(args.data, args.schema)
    if batch.n < 2:  # before the grid's folds are checked against the rows
        raise ValueError(f"{args.data}: a sweep needs at least 2 rows, found {batch.n}")
    with _json_input(args.grid, "grid") as grid:
        check_keys(grid, ("S", "schedule", "algo", "base", "k", "folds"), "a sweep grid")
        axes = [json_field(grid, key, list, []) for key in ("S", "schedule", "algo")]
        if not all(axes):
            raise ValueError("empty grid: S, schedule and algo must each be non-empty")
        base = json_field(grid, "base", dict, {})
        overridden = sorted(base.keys() & {"S", "schedule", "algo", "seed"})
        if overridden:
            raise ValueError(f"a sweep grid's base may not set {', '.join(overridden)}: the "
                             "grid's axes set S, schedule and algo, and --seed sets seed")
        shape = NetworkShape(p=batch.p, k=json_field(grid, "k", int, _DEFAULT_K))
        folds = json_field(grid, "folds", int, 5)
        cells = []
        for S, sched_doc, algo in itertools.product(*axes):
            doc = {**base, "S": S, "schedule": sched_doc, "algo": algo}
            cells.append((algo, _train_config_from(args, TrainConfig.from_json_dict(doc))))
        pairs = split(batch, folds, args.seed)

    keys = list(itertools.chain(*SCHEDULE_KEYS.values()))
    rows = []
    for algo, config in cells:
        accs, iters, wall = [], [], 0.0
        # each fold is scored on as many threads as it was fitted on
        cell_cfg = replace(cfg, threads=config.threads)
        for fold, (train_part, test_part) in enumerate(pairs):
            try:
                fitted = fit_normalization(schema, train_part)
                post, report = _run_training(normalize(train_part, fitted), config, shape)
                if report.diverged:
                    raise ValueError(_diverged(report))
                accs.append(test_accuracy(post, normalize(test_part, fitted), cell_cfg))
            except ValueError as exc:  # raised on one fold's rows under one cell's config
                raise ValueError(
                    f"{exc} in cell S={config.S}, schedule {_schedule_label(config.schedule)}, "
                    f"algo {algo}, on fold {fold} (folds 0-{folds - 1}) of grid file "
                    f"{args.grid!r}"
                ) from None
            iters.append(report.iterations_run)
            wall += report.wall_time
        own = config.schedule.to_json_dict()
        mean, sd = np.mean(accs), np.std(accs, ddof=1)
        rows.append([config.S, own["kind"], *(repr(own[key]) if key in own else "" for key in keys),
                     algo, mean, sd, np.mean(iters)])
        logger.info("cell S=%s %s %s: accuracy %.4f +/- %.4f, fit time %.3f s", config.S,
                    _schedule_label(config.schedule), algo, mean, sd, wall)

    header = ["S", "kind", *keys, "algo", "accuracy_mean", "accuracy_sd", "iterations_mean"]
    _atomic_write(args.out, lambda tmp: _write_rows(tmp, header, list(map(np.array, zip(*rows)))))
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _plain(kind):
    """An argparse type that reads a flag's value as ``kind`` only if it passes
    the test a data cell passes: ``1_0`` and a full-width digit are refused."""
    def parse(text: str):
        if not _is_plain(text):
            raise ValueError(text)
        return kind(text)

    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


_plain_int, _plain_float = _plain(int), _plain(float)


def _add_predictive_flags(sub, default_m=PredictiveConfig.M):
    sub.add_argument("--M", type=_plain_int, default=default_m,
                     help="posterior draws per prediction")
    sub.add_argument("--seed", type=_plain_int, default=0)
    sub.add_argument("--threads", type=_plain_int, default=1,
                     help="serving threads, the calling thread included (it alone serves "
                          "a one-block call); results do not depend on it")


def _synth_flags(p):
    p.add_argument("--truth", default="reference", help="'reference' or a truth JSON path")
    p.add_argument("--n", type=_plain_int, required=True)
    p.add_argument("--seed", type=_plain_int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--truth-out", default=None, help="also save the truth function JSON here")


def _train_flags(p):
    p.add_argument("--data", required=True)
    p.add_argument("--schema", default=None)
    p.add_argument("--config", default=None, help="training config JSON")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--algo", choices=["bbvi", "bbvi-cv"], default=None,
                   help="gradient estimator (default bbvi-cv: control variates)")
    p.add_argument("--S", type=_plain_int, default=None)
    p.add_argument("--lr", type=_plain_float, default=None,
                   help="fixed learning rate (default: the decaying rm schedule)")
    p.add_argument("--rho0", type=_plain_float, default=None)
    p.add_argument("--b", type=_plain_float, default=None)
    p.add_argument("--c", type=_plain_float, default=None)
    p.add_argument("--max-iters", type=_plain_int, default=None, dest="max_iters")
    p.add_argument("--k", type=_plain_int, default=None, help="hidden nodes")
    p.add_argument("--seed", type=_plain_int, default=None)
    p.add_argument("--threads", type=_plain_int, default=None,
                   help="training threads, the calling thread included (it alone "
                        "scores a one-block likelihood); results do not depend on it")


def _serving_flags(p):  # predict and evaluate
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_predictive_flags(p)


def _diagnose_flags(p):
    p.add_argument("--model", required=True)
    p.add_argument("--truth", required=True, help="'reference' or a truth JSON path")
    p.add_argument("--out", required=True)
    p.add_argument("--n-mc", type=_plain_int, default=IntegrationConfig.n_mc, dest="n_mc")
    _add_predictive_flags(p, default_m=200)


def _sweep_flags(p):
    p.add_argument("--grid", required=True, help="grid JSON path")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--M", type=_plain_int, default=200)
    p.add_argument("--seed", type=_plain_int, default=0)
    p.add_argument("--threads", type=_plain_int, default=None,
                   help="training and fold-scoring threads, the calling thread "
                        "included; results do not depend on it")


# each subcommand's help line, the function that adds its flags, the function
# that runs it and the flags that size its arrays
_COMMANDS = {
    "synth": ("generate a labeled synthetic dataset", _synth_flags, cmd_synth, "--n"),
    "train": ("fit the variational posterior", _train_flags, cmd_train, "--S or --k"),
    "predict": ("posterior-predictive probabilities", _serving_flags, cmd_predict, "--M"),
    "evaluate": ("accuracy on labeled data", _serving_flags, cmd_evaluate, "--M"),
    "diagnose": ("distances and risk gap against a known truth", _diagnose_flags,
                 cmd_diagnose, "--M or --n-mc"),
    "sweep": ("hyper-parameter grid with k-fold CV", _sweep_flags, cmd_sweep,
              "the grid's S or k, or --M"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone.

    For an argv that starts with ``command`` both give the same Namespace, help
    and errors; the second is the cheaper to build by every other command's
    flags, as argparse sets up a help formatter for each flag it adds."""
    parser = argparse.ArgumentParser(
        prog="vbnn",
        description="Variational Bayes for single-hidden-layer binary classifiers",
    )
    # a one-command parser still names every subcommand in the usage line of an
    # unrecognized-argument error; the full parser's default line names them too,
    # and a metavar would rename `command` in its missing-command error
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_flags, func, sizes) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_flags(p)
            p.set_defaults(func=func, sizes=sizes)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("VBNN_LOG", "").lower()
    logging.basicConfig(
        level=_LOG_LEVELS.get(level, logging.WARNING),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if level and level not in _LOG_LEVELS:
        logger.error("unknown VBNN_LOG level %r, logging warnings and errors", level)

    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    except SystemExit as exc:  # argparse's exit 2 for a usage error means max_iters here
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: {args.command} ran out of memory; lower {args.sizes}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
