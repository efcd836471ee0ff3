"""The benchmark's smoke mode still drives the program end to end.

perfbench calls the CLI and library by name and flag; running its smoke mode
here turns a rename into a test failure.  No timing is checked.
"""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from vbnn.data import REFERENCE_TRUTH
from vbnn.optimizer import TrainConfig

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke: ok" in proc.stdout, proc.stdout[-2000:]


@pytest.mark.parametrize("seed, threads, max_iters", [(0, 1, 2000), (3, 2, 150), (7, 1, 100)])
def test_perfbench_fits_the_reference_config(monkeypatch, seed, threads, max_iters):
    # perfbench restates the reference fit; the two statements must agree
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    assert workloads._train_config(seed, threads, max_iters) == replace(
        TrainConfig(), seed=seed, threads=threads, max_iters=max_iters)
    assert workloads.SHAPE == REFERENCE_TRUTH.network.shape
