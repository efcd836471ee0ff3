#!/usr/bin/env python3
"""sha256 of every artifact of README walkthrough steps 1-4.

Runs the walkthrough's ``vbnn`` lines other than ``sweep`` (synth, train,
predict, evaluate, diagnose), read from README.md, through ``vbnn.cli.main``
in a temporary directory, and prints ``sha256  name`` for each artifact.
``fit/summary.json`` is left out because it holds wall time.  Run it on two
trees and diff the output to see whether a change moved any artifact's bytes.

Usage:
    python3 scripts/walkthrough_hashes.py
"""

import hashlib
import os
import shlex
import sys
import tempfile
from pathlib import Path

from vbnn.cli import main as vbnn_main

README = Path(__file__).resolve().parents[1] / "README.md"
ARTIFACTS = ("train.csv", "test.csv", "truth.json", "fit/model.json", "fit/report.csv",
             "predictions.csv", "eval.json", "diag.json")


def walkthrough_commands(readme: str) -> list[list[str]]:
    """The README's ``vbnn`` command lines, continuations joined, sweep left out."""
    lines = readme.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("vbnn ") and not line.startswith("vbnn sweep")]


def main() -> int:
    commands = walkthrough_commands(README.read_text(encoding="utf-8"))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for argv in commands:
                code = vbnn_main(argv)
                if code != 0:
                    print(f"vbnn {shlex.join(argv)} exited {code}", file=sys.stderr)
                    return 1
            for name in ARTIFACTS:
                print(f"{hashlib.sha256(Path(name).read_bytes()).hexdigest()}  {name}")
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
