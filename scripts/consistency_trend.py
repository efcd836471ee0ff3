#!/usr/bin/env python3
"""Posterior-consistency sweep: Hellinger distance and risk gap versus n.

Trains on growing synthetic samples from the reference truth and reports,
for each n, the per-seed Hellinger distance between the posterior-predictive
density and the truth, plus the excess classification risk and the fit's
final-window ELBO.  :func:`run_study` is the one statement of these fits;
the acceptance tests' criteria 6 and 7 run it at its defaults.

``--against OLD.csv`` compares this tree's rows with a table written by
``--out`` on another tree, fit by fit: the change in iterations, in
final-window ELBO (in units of its standard error) and in Hellinger and risk
gap (in units of their stderrs), then the medians per n.  A fit is flagged
when its converged outcome changed, its final-window ELBO moved more than 4
SE (perfbench's reference-fit rule) or its Hellinger more than 5 stderr
(perfbench's ``diagnose`` rule); any flag makes the exit status 1.  A table
that cannot be read, or lacks a requested fit or a column the comparison
reads, is a usage error (exit 2), found before any fit runs, as is an
``--out`` path in a directory that does not exist or that is a directory.

Every fit is served with serving seed ``SERVING_SEED`` on the same
``POINTS_SEED`` integration points, so after a change to serving all the
fits' d_hellinger values share one draw of Monte Carlo noise and move
together: a common sign among them is one draw, not a bias.  The report's
last line says so.

Usage:
    python3 scripts/consistency_trend.py --sizes 200 800 3200 --seeds 5 --out rows.csv
    python3 scripts/consistency_trend.py --against scripts/consistency_table.csv
"""

import argparse
import csv
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from vbnn.cli import _plain_int
from vbnn.data import REFERENCE_TRUTH, _write_rows, generate_synthetic
from vbnn.metrics import IntegrationConfig, diagnostics_dict
from vbnn.model import PriorConfig
from vbnn.optimizer import TrainConfig, train
from vbnn.prediction import PredictiveConfig
from vbnn.variational import Posterior

ELBO_SE_LIMIT = 4.0
HELLINGER_SE_LIMIT = 5.0
# the columns of an --against table that compare reads
OLD_COLUMNS = ("n", "seed", "iterations", "converged", "elbo_final", "hellinger", "risk_gap")
# every fit's PredictiveConfig and IntegrationConfig seeds
SERVING_SEED = 99
POINTS_SEED = 77


def run_study(sizes=(200, 800, 3200), seeds=5, S=TrainConfig.S, n_mc=IntegrationConfig.n_mc,
              M=200, log=None):
    """One row per fit of the reference config (max_iters 1500) on n rows of
    data seed 1000 + s with train seed s, for each n in ``sizes`` and s below
    ``seeds``.  A row holds n, seed, iterations, converged, diverged, the mean
    of the last ``conv_window`` ELBO estimates (``elbo_final``) with its
    standard error, and ``diagnostics_dict``'s distances and risks.  ``log``,
    when given, receives one progress line per fit."""
    shape = REFERENCE_TRUTH.network.shape
    prior = PriorConfig.standard(shape.K)
    base = TrainConfig(S=S, max_iters=1500)
    pred_cfg = PredictiveConfig(M=M, seed=SERVING_SEED)
    int_cfg = IntegrationConfig(n_mc=n_mc, seed=POINTS_SEED)

    rows = []
    for n in sizes:
        for seed in range(seeds):
            t0 = time.perf_counter()
            data = generate_synthetic(REFERENCE_TRUTH, n, seed=1000 + seed)
            q, rep = train(data, prior, shape, replace(base, seed=seed))
            window = rep.elbo_trace[-base.conv_window:]
            se = float(np.std(window, ddof=1) / math.sqrt(window.size)) if window.size > 1 else 0.0
            doc = diagnostics_dict(Posterior(shape, q, prior), REFERENCE_TRUTH, pred_cfg,
                                   int_cfg)
            del doc["n_mc"], doc["seed"]  # the integration's, the same for every fit
            rows.append({"n": n, "seed": seed, "iterations": rep.iterations_run,
                         "converged": rep.converged, "diverged": rep.diverged,
                         "elbo_final": float(window.mean()) if window.size else math.nan,
                         "elbo_final_se": se, **doc})
            if log:
                log(f"n={n:5d} seed={seed}: hellinger={doc['hellinger']:.4f} "
                    f"risk_gap={doc['risk_gap']:.5f} elbo_final={rows[-1]['elbo_final']:.4f} "
                    f"({rep.iterations_run} iters, {time.perf_counter() - t0:.0f}s)")
    return rows


def write_rows(path: str, rows: list[dict]) -> None:
    """Write ``run_study``'s rows as the ``--out`` table, through ``vbnn``'s CSV writer."""
    _write_rows(path, list(rows[0]), list(map(np.array, zip(*(row.values() for row in rows)))))


def read_rows(path: str) -> list[dict]:
    """The rows of a table written by ``--out``, numbers parsed; a cell that is
    neither a number nor True/False raises ValueError naming its line and column."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for line, row in enumerate(rows, start=2):
        for key, value in row.items():
            try:
                row[key] = value == "True" if value in ("True", "False") else float(value)
            except (TypeError, ValueError):  # TypeError: a short or long row
                raise ValueError(
                    f"line {line}, column {key!r}: {value!r} is not a number") from None
    return rows


def first_missing(old: list[dict], sizes, seeds: int) -> str | None:
    """The first column in ``OLD_COLUMNS`` or requested (n, seed) fit that an
    old table lacks, or None when ``compare`` can read all it needs."""
    columns = old[0].keys() if old else OLD_COLUMNS  # a table of no rows lacks only fits
    for column in OLD_COLUMNS:
        if column not in columns:
            return f"column {column!r}"
    fits = {(int(r["n"]), int(r["seed"])) for r in old}
    for n in sizes:
        for seed in range(seeds):
            if (n, seed) not in fits:
                return f"fit at n={n}, seed={seed}"
    return None


def _in_units(delta: float, unit: float) -> float:
    return delta / unit if unit > 0 else (0.0 if delta == 0 else math.copysign(math.inf, delta))


def compare(rows: list[dict], old: list[dict]) -> tuple[list[str], int]:
    """The ``--against`` report lines and the number of flagged fits; ``old``
    has every fit of ``rows`` (see :func:`first_missing`)."""
    by_key = {(int(r["n"]), int(r["seed"])): r for r in old}
    lines, deltas, flagged = [], {}, 0
    for row in rows:
        key = (row["n"], row["seed"])
        was = by_key[key]
        d = (row["iterations"] - int(was["iterations"]),
             _in_units(row["elbo_final"] - was["elbo_final"], row["elbo_final_se"]),
             _in_units(row["hellinger"] - was["hellinger"], row["hellinger_stderr"]),
             _in_units(row["risk_gap"] - was["risk_gap"], row["risk_gap_stderr"]))
        deltas.setdefault(row["n"], []).append(d)
        flags = [name for name, bad in (
            ("CONVERGED-CHANGED", row["converged"] != was["converged"]),
            (f"ELBO>{ELBO_SE_LIMIT:g}SE", abs(d[1]) > ELBO_SE_LIMIT),
            (f"HELLINGER>{HELLINGER_SE_LIMIT:g}SE", abs(d[2]) > HELLINGER_SE_LIMIT)) if bad]
        flagged += bool(flags)
        lines.append(f"n={key[0]:5d} seed={key[1]}: d_iters={d[0]:+5d}  d_elbo={d[1]:+.2e} SE  "
                     f"d_hellinger={d[2]:+.2e} se  d_risk_gap={d[3]:+.2e} se"
                     + (f"  FLAG {' '.join(flags)}" if flags else ""))
    for n, ds in deltas.items():
        med = np.median(np.array(ds), axis=0)
        lines.append(f"--- median at n={n}: d_iters={med[0]:+.1f}  d_elbo={med[1]:+.2e} SE  "
                     f"d_hellinger={med[2]:+.2e} se  d_risk_gap={med[3]:+.2e} se")
    lines.append(f"{flagged} of {len(rows)} fits flagged; every fit is served with seed "
                 f"{SERVING_SEED} on the same seed-{POINTS_SEED} points, so a serving change "
                 f"shifts all {len(rows)} d_hellinger by one shared Monte Carlo draw")
    return lines, flagged


def at_least(minimum: int):
    """argparse type for a count that must be >= minimum, read as ``vbnn``'s
    flags are (``cli._plain_int``)."""
    def count(text: str) -> int:
        value = _plain_int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return count


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", type=at_least(1), nargs="+", default=[200, 800, 3200])
    ap.add_argument("--seeds", type=at_least(1), default=5)
    # control variates need two draws
    ap.add_argument("--S", type=at_least(2), default=TrainConfig.S)
    ap.add_argument("--n-mc", type=at_least(2), default=IntegrationConfig.n_mc)
    ap.add_argument("--M", type=at_least(1), default=200)
    ap.add_argument("--out", default=None, help="optional CSV for the raw rows")
    ap.add_argument("--against", default=None, metavar="OLD.csv",
                    help="compare each fit with the same (n, seed) row of an --out table")
    args = ap.parse_args()
    try:
        old = read_rows(args.against) if args.against else None
    except (OSError, ValueError) as exc:
        ap.error(f"--against {args.against}: {exc.strerror if isinstance(exc, OSError) else exc}")
    if old is not None and (missing := first_missing(old, args.sizes, args.seeds)):
        ap.error(f"--against {args.against}: the table has no {missing}")
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        ap.error(f"--out {args.out}: no directory {os.path.dirname(args.out)!r}")
    if args.out and os.path.isdir(args.out):
        ap.error(f"--out {args.out}: Is a directory")

    rows = run_study(args.sizes, args.seeds, args.S, args.n_mc, args.M,
                     log=lambda line: print(line, flush=True))
    for n in args.sizes:
        med = np.median([r["hellinger"] for r in rows if r["n"] == n])
        print(f"--- median hellinger at n={n}: {med:.4f}")

    if args.out:
        write_rows(args.out, rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    if old is not None:
        lines, flagged = compare(rows, old)
        print(f"against {args.against}:")
        print("\n".join(lines))
        return 1 if flagged else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
