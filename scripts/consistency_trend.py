#!/usr/bin/env python3
"""Posterior-consistency sweep: Hellinger distance and risk gap versus n.

Trains on growing synthetic samples from the reference truth and reports,
for each n, the per-seed Hellinger distance between the posterior-predictive
density and the truth, plus the excess classification risk.

Usage:
    python3 scripts/consistency_trend.py --sizes 200 800 3200 --seeds 5
"""

import argparse
import csv
import sys
import time
from dataclasses import replace

import numpy as np

from vbnn.data import REFERENCE_TRUTH, generate_synthetic
from vbnn.metrics import IntegrationConfig, diagnostics_dict
from vbnn.model import PriorConfig
from vbnn.optimizer import REFERENCE_CONFIG, train
from vbnn.prediction import PredictiveConfig
from vbnn.variational import Posterior


def at_least(minimum: int):
    """argparse type for a count that must be >= minimum."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return count


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=at_least(1), nargs="+", default=[200, 800, 3200])
    ap.add_argument("--seeds", type=at_least(1), default=5)
    ap.add_argument("--S", type=at_least(1), default=200)
    ap.add_argument("--n-mc", type=at_least(2), default=20_000)
    ap.add_argument("--M", type=at_least(1), default=200)
    ap.add_argument("--out", default=None, help="optional CSV for the raw rows")
    args = ap.parse_args()

    shape = REFERENCE_TRUTH.network.shape
    prior = PriorConfig.standard(shape.K)
    base = replace(REFERENCE_CONFIG, S=args.S, max_iters=1500)
    pred_cfg = PredictiveConfig(M=args.M, seed=99)
    int_cfg = IntegrationConfig(n_mc=args.n_mc, seed=77)

    rows = []
    for n in args.sizes:
        for seed in range(args.seeds):
            t0 = time.perf_counter()
            data = generate_synthetic(REFERENCE_TRUTH, n, seed=1000 + seed)
            q, rep = train(data, prior, shape, replace(base, seed=seed))
            doc = diagnostics_dict(Posterior(shape, q, prior), REFERENCE_TRUTH, pred_cfg,
                                   int_cfg)
            rows.append({"n": n, "seed": seed, "iterations": rep.iterations_run,
                         "converged": rep.converged, **doc})
            print(f"n={n:5d} seed={seed}: hellinger={doc['hellinger']:.4f} "
                  f"risk_gap={doc['risk_gap']:.5f} "
                  f"({rep.iterations_run} iters, "
                  f"{time.perf_counter() - t0:.0f}s)", flush=True)
        med = np.median([r["hellinger"] for r in rows if r["n"] == n])
        print(f"--- median hellinger at n={n}: {med:.4f}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
