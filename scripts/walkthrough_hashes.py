#!/usr/bin/env python3
"""sha256 of every artifact of README walkthrough steps 1-4.

Runs the walkthrough's ``vbnn`` lines other than ``sweep`` (synth, train,
predict, evaluate, diagnose), read from README.md, through ``vbnn.cli.main``
in a temporary directory, and prints ``sha256  name`` for each artifact.
``fit/summary.json`` is left out because it holds wall time.

``--against OLD.txt`` compares the hashes with a saved run's output, the
same lines run on another tree: it then prints each artifact whose hash
differs (or that OLD.txt lacks) and exits 1 if any does.  An OLD.txt that
cannot be read, or has a line that is not ``sha256  name``, is a usage error
(exit 2), found before the walkthrough runs.

Usage:
    python3 scripts/walkthrough_hashes.py > old.txt
    python3 scripts/walkthrough_hashes.py --against old.txt
"""

import argparse
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


def read_hashes(path: str) -> dict[str, str]:
    """{name: sha256} of a saved run's output; a line that is not
    ``sha256  name`` raises ValueError naming its line."""
    hashes = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            digest, sep, name = line.rstrip("\n").partition("  ")
            if not (sep and name and len(digest) == 64):
                raise ValueError(f"line {number} is not 'sha256  name': {line.rstrip()!r:.80}")
            hashes[name] = digest
    return hashes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--against", default=None, metavar="OLD.txt",
                    help="compare each hash with a saved run's output")
    args = ap.parse_args()
    try:
        old = read_hashes(args.against) if args.against else None
    except (OSError, ValueError) as exc:
        ap.error(f"--against {args.against}: {exc.strerror if isinstance(exc, OSError) else exc}")

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
    for name, digest in hashes.items():
        print(f"{digest}  {name}")
    if old is None:
        return 0
    moved = [name for name in ARTIFACTS if old.get(name) != hashes[name]]
    print(f"against {args.against}:")
    for name in moved:
        print(f"DIFFERS {name}: {old.get(name, 'absent')} -> {hashes[name]}")
    print(f"{len(moved)} of {len(ARTIFACTS)} artifacts differ")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
