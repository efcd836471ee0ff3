"""The benchmark's smoke mode still drives the program end to end.

perfbench calls the CLI and library by name and flag; running its smoke mode
here turns a rename into a test failure.  No timing is checked.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke: ok" in proc.stdout, proc.stdout[-2000:]
