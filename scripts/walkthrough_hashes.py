#!/usr/bin/env python3
"""sha256 of every artifact of README walkthrough steps 1-4.

Runs the walkthrough's ``vbnn`` lines other than ``sweep`` (synth, train,
predict, evaluate, diagnose), read from README.md, through ``vbnn.cli.main``
in a temporary directory, and prints ``sha256  name`` for each artifact.
``fit/summary.json`` is left out because it holds wall time.  A first line
states the build, as ``vbnn.model.numpy_build`` gives it and ``summary.json``
records it: numpy's version, its active SIMD dispatch targets and OpenBLAS's
kernel.  The bytes are the same for any ``--threads`` on one build, but
numpy's float32 kernels and OpenBLAS's kernels round differently elsewhere,
so the hashes may differ there.  ``NPY_DISABLE_CPU_FEATURES="X86_V4
AVX512_ICL AVX512_SPR"`` runs an AVX-512 host's numpy at its AVX2 (X86_V3)
level.  ``scripts/walkthrough_hashes.txt`` holds this output at each recorded
build, and the test suite requires the block of the build it runs at.

Usage:
    python3 scripts/walkthrough_hashes.py
"""

import argparse
import hashlib
import os
import shlex
import sys
import tempfile
from pathlib import Path

from vbnn.cli import main as vbnn_main
from vbnn.model import numpy_build

README = Path(__file__).resolve().parents[1] / "README.md"
ARTIFACTS = ("train.csv", "test.csv", "truth.json", "fit/model.json", "fit/report.csv",
             "predictions.csv", "eval.json", "diag.json")


def walkthrough_commands(readme: str) -> list[list[str]]:
    """The README's ``vbnn`` command lines, continuations joined, sweep left out."""
    lines = readme.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("vbnn ") and not line.startswith("vbnn sweep")]


def build_statement() -> str:
    """The first line: ``numpy_build()``'s version, dispatch targets and OpenBLAS kernel."""
    build = numpy_build()
    return (f"# numpy {build['numpy']}, SIMD dispatch: {' '.join(build['simd']) or 'none'}, "
            f"OpenBLAS core: {build['openblas_core']}")


def main() -> int:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
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
            hashes = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
                      for name in ARTIFACTS}
        finally:
            os.chdir(cwd)
    print(build_statement())
    for name, digest in hashes.items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
