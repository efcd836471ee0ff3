#!/usr/bin/env python3
"""Paired comparison of gradient-variance traces with and without control
variates, on the reference synthetic benchmark.

Writes one CSV per arm (plain/cv) and prints windowed trace summaries.  The
fits are ``TrainConfig()``'s at the given S and max_iters; ``--window``
sizes only the printed profile, not when a fit stops.  An ``--out-dir`` that
cannot be made (a file of that name, say) is a usage error (exit 2), found
before any fit runs.

Usage:
    python3 scripts/variance_study.py --n 300 --S 200 --seeds 3 --out-dir out/
"""

import argparse
import os
from dataclasses import replace

from consistency_trend import at_least
from vbnn.data import REFERENCE_TRUTH, generate_synthetic, save_report_csv
from vbnn.model import PriorConfig
from vbnn.optimizer import TrainConfig, train


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=at_least(1), default=300)
    # control variates need two draws
    ap.add_argument("--S", type=at_least(2), default=TrainConfig.S)
    ap.add_argument("--seeds", type=at_least(1), default=3, help="number of paired seeds")
    ap.add_argument("--max-iters", type=at_least(1), default=400)
    ap.add_argument("--window", type=at_least(1), default=50,
                    help="iterations per window of the printed profile")
    ap.add_argument("--out-dir", default="variance_study_out")
    args = ap.parse_args()
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:  # such as a file of that name
        ap.error(f"--out-dir {args.out_dir}: {exc.strerror}")

    shape = REFERENCE_TRUTH.network.shape
    prior = PriorConfig.standard(shape.K)
    base = TrainConfig(S=args.S, max_iters=args.max_iters)

    for seed in range(args.seeds):
        data = generate_synthetic(REFERENCE_TRUTH, args.n, seed=1000 + seed)
        print(f"\n=== seed {seed} (n={args.n}, S={args.S}) ===")
        means = {}
        for label, use_cv in (("plain", False), ("cv", True)):
            config = replace(base, seed=seed, use_control_variates=use_cv)
            _, report = train(data, prior, shape, config)
            path = os.path.join(args.out_dir, f"trace_{label}_seed{seed}.csv")
            save_report_csv(report, path)
            means[label] = float(report.grad_var_trace.mean())
            print(f"{label:>6}: {report.iterations_run} iters, "
                  f"mean grad var {means[label]:.3e}")
            for start in range(0, report.iterations_run, args.window):
                window = report.grad_var_trace[start:start + args.window]
                print(f"        window@{start:4d}: {window.mean():.3e}")
        print(f"  variance ratio cv/plain = {means['cv'] / means['plain']:.4f}")


if __name__ == "__main__":
    main()
