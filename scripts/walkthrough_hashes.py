#!/usr/bin/env python3
"""sha256 of every artifact of README walkthrough steps 1-4.

Runs the walkthrough's ``vbnn`` lines other than ``sweep`` (synth, train,
predict, evaluate, diagnose), read from README.md, through ``vbnn.cli.main``
in a temporary directory, and prints ``sha256  name`` for each artifact.
``fit/summary.json`` is left out because it holds wall time.  A first line
states numpy's version and its active SIMD dispatch targets, as
``vbnn.model.numpy_build`` gives them and ``summary.json`` records them: the
bytes are the same for any ``--threads`` on one host and one numpy build, but
numpy's float32 kernels round differently at another SIMD level, so the
hashes may differ there.  ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``
runs an AVX-512 host's numpy at its AVX2 (X86_V3) level.

``--against OLD.txt`` compares the hashes with a saved run's output, the
same lines run on another tree: it then prints each artifact whose hash
differs (or that OLD.txt lacks) and exits 1 if any does.  An OLD.txt that
cannot be read, has a line that is neither ``sha256  name`` nor the level
statement, or states another numpy version or SIMD level, is a usage error
(exit 2), found before the walkthrough runs.  An OLD.txt without the level
statement is compared as it stands.

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
from vbnn.model import numpy_build

README = Path(__file__).resolve().parents[1] / "README.md"
ARTIFACTS = ("train.csv", "test.csv", "truth.json", "fit/model.json", "fit/report.csv",
             "predictions.csv", "eval.json", "diag.json")


def walkthrough_commands(readme: str) -> list[list[str]]:
    """The README's ``vbnn`` command lines, continuations joined, sweep left out."""
    lines = readme.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("vbnn ") and not line.startswith("vbnn sweep")]


LEVEL = "# numpy "


def simd_level() -> str:
    """The level statement: ``numpy_build()``'s version and active dispatch targets."""
    build = numpy_build()
    return f"{LEVEL}{build['numpy']}, SIMD dispatch: {' '.join(build['simd']) or 'none'}"


def read_hashes(path: str) -> tuple[str | None, dict[str, str]]:
    """(level statement or None, {name: sha256}) of a saved run's output; a
    line that is neither raises ValueError naming its line."""
    level, hashes = None, {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if line.startswith(LEVEL):
                level = line.rstrip("\n")
                continue
            digest, sep, name = line.rstrip("\n").partition("  ")
            if not (sep and name and len(digest) == 64):
                raise ValueError(f"line {number} is not 'sha256  name': {line.rstrip()!r:.80}")
            hashes[name] = digest
    return level, hashes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--against", default=None, metavar="OLD.txt",
                    help="compare each hash with a saved run's output")
    args = ap.parse_args()
    level = simd_level()
    try:
        old_level, old = read_hashes(args.against) if args.against else (None, None)
    except (OSError, ValueError) as exc:
        ap.error(f"--against {args.against}: {exc.strerror if isinstance(exc, OSError) else exc}")
    if old_level not in (None, level):
        ap.error(f"--against {args.against}: its hashes are not comparable with this run's: "
                 f"it states {old_level[2:]!r}, this run {level[2:]!r}")

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
    print(level)
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
