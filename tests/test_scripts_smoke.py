"""The study scripts under scripts/ still run against the library.

Both build ``TrainConfig`` and call ``train`` directly, so an API change that
breaks them shows up here.  Tiny sizes; the exit status is checked, and the
header line of a report CSV that variance_study.py writes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, report", [
    ("variance_study.py", ["--n", "40", "--S", "10", "--seeds", "1",
                           "--max-iters", "20", "--window", "5", "--out-dir", "out"],
     "out/trace_plain_seed0.csv"),
    ("consistency_trend.py", ["--sizes", "40", "--seeds", "1", "--S", "10",
                              "--n-mc", "200", "--M", "10"], None),
], ids=["variance_study", "consistency_trend"])
def test_script_runs(tmp_path, script, args, report):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    if report:
        assert (tmp_path / report).read_bytes().startswith(b"iteration,elbo,grad_var,rho_t\r\n")
