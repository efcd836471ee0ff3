"""The scripts under scripts/ still run against the library.

The two study scripts build ``TrainConfig`` and call ``train`` directly, so
an API change that breaks them shows up here.  Tiny sizes; the exit status is
checked, and the header line of a report CSV that variance_study.py writes;
a count flag below its minimum (``--seeds 0``, ``--n-mc 1``, ``--S 1``), or one
that is not a plain ASCII number (``1_0``, a full-width digit), must be a
usage error that writes no file.  variance_study.py's ``--window`` must not
change its fits, and each window line it prints must be the mean of that
window of the trace CSV it writes.
consistency_trend.py's ``--against`` must find no change between two runs of
one tree, flag a fit whose final-window ELBO a table moves, and refuse a
missing table, a cell that is not a number or a table that lacks a requested
fit before fitting anything.  Its ``--out`` table must be the bytes
``csv.DictWriter`` writes for the rows ``run_study`` returns, and ``read_rows``
must read those rows back.  Each study script refuses an output path it
could not write before fitting anything.
walkthrough_hashes.py runs the README walkthrough through the CLI; its build
statement must be the one ``numpy_build()`` gives, and its output must be the
block that ``scripts/walkthrough_hashes.txt`` records for that build, at the
default SIMD level and at AVX2 in a child process; a failure names each
artifact whose hash moved.  A build with no recorded block skips.
"""

import csv
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vbnn.model import numpy_build

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, args, cwd, code=0, **env):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )
    assert proc.returncode == code, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc


@pytest.mark.parametrize("script, args, report", [
    ("variance_study.py", ["--n", "40", "--S", "10", "--seeds", "1",
                           "--max-iters", "20", "--window", "5", "--out-dir", "out"],
     "out/trace_plain_seed0.csv"),
    ("consistency_trend.py", ["--sizes", "40", "--seeds", "1", "--S", "10",
                              "--n-mc", "200", "--M", "10"], None),
], ids=["variance_study", "consistency_trend"])
def test_script_runs(tmp_path, script, args, report):
    run_script(script, args, tmp_path)
    if report:
        assert (tmp_path / report).read_bytes().startswith(b"iteration,elbo,grad_var,rho_t\r\n")


def test_consistency_against_compares_two_tables(tmp_path):
    study = ["--sizes", "40", "--seeds", "1", "--S", "10", "--n-mc", "200", "--M", "10"]
    run_script("consistency_trend.py", [*study, "--out", "old.csv"], tmp_path)
    out = run_script("consistency_trend.py", [*study, "--against", "old.csv"], tmp_path).stdout
    assert "n=   40 seed=0: d_iters=   +0  d_elbo=+0.00e+00 SE  d_hellinger=+0.00e+00 se" in out
    assert out.endswith("0 of 1 fits flagged; every fit is served with seed 99 on the same "
                        "seed-77 points, so a serving change shifts all 1 d_hellinger by one "
                        "shared Monte Carlo draw\n")

    with open(tmp_path / "old.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    row["elbo_final"] = str(float(row["elbo_final"]) + 4.5 * float(row["elbo_final_se"]))
    with open(tmp_path / "moved.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(row))
        writer.writeheader()
        writer.writerow(row)
    out = run_script("consistency_trend.py", [*study, "--against", "moved.csv"], tmp_path,
                     code=1).stdout
    assert "d_elbo=-4.50e+00 SE" in out and "FLAG ELBO>4SE" in out
    assert out.splitlines()[-1].startswith("1 of 1 fits flagged; ")


def test_consistency_out_is_the_table_dictwriter_writes(tmp_path):
    run_script("consistency_trend.py", ["--sizes", "40", "--seeds", "1", "--S", "10",
                                        "--n-mc", "200", "--M", "10", "--out", "rows.csv"],
               tmp_path)
    spec = importlib.util.spec_from_file_location("consistency_trend",
                                                  ROOT / "scripts" / "consistency_trend.py")
    trend = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trend)
    rows = trend.run_study(sizes=[40], seeds=1, S=10, n_mc=200, M=10)
    expected = io.StringIO(newline="")
    writer = csv.DictWriter(expected, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    assert (tmp_path / "rows.csv").read_bytes() == expected.getvalue().encode()
    assert trend.read_rows(str(tmp_path / "rows.csv")) == rows


def test_variance_study_window_sizes_only_the_profile(tmp_path):
    # a window of 2 used to be the fits' convergence window too, and stopped
    # seed 0's plain and cv fits at 12 and 15 of 60 iterations
    study = ["--n", "40", "--S", "10", "--seeds", "1", "--max-iters", "60"]
    for window in ("2", "50"):
        run_script("variance_study.py", [*study, "--window", window, "--out-dir", window],
                   tmp_path)
    for arm in ("plain", "cv"):
        name = f"trace_{arm}_seed0.csv"
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "50" / name).read_bytes()


def test_variance_study_prints_window_means_of_the_trace_it_writes(tmp_path):
    # 23 iterations in windows of 5: the last window holds 3
    window = 5
    out = run_script("variance_study.py", ["--n", "40", "--S", "10", "--seeds", "1",
                                           "--max-iters", "23", "--window", str(window),
                                           "--out-dir", "out"], tmp_path).stdout
    printed, arm = {}, None
    for line in out.splitlines():
        if " iters, mean grad var " in line:
            arm = line.split(":")[0].strip()
            printed[arm] = []
        elif "window@" in line:
            start, value = line.split("window@")[1].split(":")
            printed[arm].append((int(start), value.strip()))
    assert sorted(printed) == ["cv", "plain"]
    for arm, lines in printed.items():
        with open(tmp_path / "out" / f"trace_{arm}_seed0.csv", newline="") as fh:
            trace = [float(row["grad_var"]) for row in csv.DictReader(fh)]
        assert len(trace) == 23
        starts = list(range(0, len(trace), window))
        assert [start for start, _ in lines] == starts
        assert [value for _, value in lines] == [
            f"{np.mean(trace[start:start + window]):.3e}" for start in starts]


OLD_HEADER = "n,seed,iterations,converged,elbo_final,hellinger,risk_gap\n"


@pytest.mark.parametrize("table, error", [
    (OLD_HEADER + "40,0,5,True,-1,0.1,0\n", "the table has no fit at n=50, seed=0"),
    (None, "No such file or directory"),
    (OLD_HEADER + "40,0,x,True,-1,0.1,0\n", "line 2, column 'iterations': 'x' is not a number"),
], ids=["no-fit", "no-file", "not-a-number"])
def test_consistency_against_a_table_without_the_fit_is_a_usage_error(tmp_path, table, error):
    if table is not None:
        (tmp_path / "old.csv").write_text(table)
    proc = run_script("consistency_trend.py", ["--sizes", "40", "50", "--seeds", "1", "--S", "10",
                                               "--n-mc", "200", "--M", "10",
                                               "--against", "old.csv"], tmp_path, code=2)
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert errors == [f"consistency_trend.py: error: --against old.csv: {error}"]
    assert proc.stdout == ""


@pytest.mark.parametrize("script, args, error", [
    ("consistency_trend.py", ["--sizes", "40", "--seeds", "1", "--S", "10", "--n-mc", "200",
                              "--out", "nosuchdir/rows.csv"],
     "--out nosuchdir/rows.csv: no directory 'nosuchdir'"),
    ("consistency_trend.py", ["--sizes", "40", "--seeds", "1", "--S", "10", "--n-mc", "200",
                              "--M", "10", "--out", "adir"],
     "--out adir: Is a directory"),
    ("variance_study.py", ["--n", "40", "--seeds", "1", "--S", "10", "--max-iters", "20",
                           "--out-dir", "taken"],
     "--out-dir taken: File exists"),
], ids=["consistency_trend-out", "consistency_trend-out-directory",
        "variance_study-out-dir"])
def test_unwritable_output_path_is_a_usage_error(tmp_path, script, args, error):
    (tmp_path / "taken").write_text("")
    (tmp_path / "adir").mkdir()
    proc = run_script(script, args, tmp_path, code=2)
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert errors == [f"{script}: error: {error}"]
    assert proc.stdout == ""  # each fit prints a line


def walkthrough_moves(tmp_path, **env) -> tuple[str, list[str]]:
    """The script's build statement and each artifact whose hash differs from
    the block that scripts/walkthrough_hashes.txt records for it, as
    ``name: old -> new``; skips where no block states that build."""
    out = run_script("walkthrough_hashes.py", [], tmp_path, **env).stdout
    statement, *lines = out.splitlines()
    recorded = (ROOT / "scripts" / "walkthrough_hashes.txt").read_text().splitlines()
    if statement not in recorded:
        pytest.skip(f"walkthrough_hashes.txt records no block for {statement!r}")
    start = recorded.index(statement) + 1
    old = dict(line.split("  ")[::-1] for line in recorded[start:start + 8])
    new = dict(line.split("  ")[::-1] for line in lines)
    assert list(new) == list(old), lines
    return statement, [f"{name}: {old[name]} -> {digest}"
                       for name, digest in new.items() if digest != old[name]]


def test_walkthrough_hashes_prints_one_line_per_artifact(tmp_path):
    statement, moved = walkthrough_moves(tmp_path)
    build = numpy_build()
    simd = " ".join(build["simd"]) or "none"
    assert statement == (f"# numpy {build['numpy']}, SIMD dispatch: {simd}, "
                         f"OpenBLAS core: {build['openblas_core']}")
    assert not moved, "\n".join(moved)


@pytest.mark.skipif("X86_V4" not in numpy_build()["simd"],
                    reason="numpy runs below AVX-512 here")
def test_walkthrough_hashes_hold_at_the_avx2_level(tmp_path):
    # numpy reads NPY_DISABLE_CPU_FEATURES once, at import
    statement, moved = walkthrough_moves(
        tmp_path, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    assert "SIMD dispatch: X86_V3," in statement
    assert not moved, "\n".join(moved)


@pytest.mark.parametrize("script, flag, value, minimum", [
    ("consistency_trend.py", "--seeds", "0", 1),
    ("consistency_trend.py", "--sizes", "0", 1),
    ("consistency_trend.py", "--S", "1", 2),
    ("consistency_trend.py", "--n-mc", "1", 2),
    ("consistency_trend.py", "--M", "0", 1),
    ("variance_study.py", "--seeds", "0", 1),
    ("variance_study.py", "--n", "0", 1),
    ("variance_study.py", "--S", "1", 2),
    ("variance_study.py", "--max-iters", "0", 1),
    ("variance_study.py", "--window", "0", 1),
])
def test_size_below_its_minimum_is_a_usage_error(tmp_path, script, flag, value, minimum):
    extra = ["--out", "rows.csv"] if script == "consistency_trend.py" else []
    proc = run_script(script, [flag, value, *extra], tmp_path, code=2)
    assert f"argument {flag}: must be >= {minimum}, got {value}" in proc.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("script, flag", [
    ("consistency_trend.py", "--seeds"), ("consistency_trend.py", "--sizes"),
    ("consistency_trend.py", "--S"), ("consistency_trend.py", "--n-mc"),
    ("consistency_trend.py", "--M"), ("variance_study.py", "--seeds"),
    ("variance_study.py", "--n"), ("variance_study.py", "--S"),
    ("variance_study.py", "--max-iters"), ("variance_study.py", "--window"),
])
@pytest.mark.parametrize("value", ["1_0", "１２"])
def test_count_that_is_not_a_plain_number_is_a_usage_error(tmp_path, script, flag, value):
    # int() reads 1_0 as 10 and a full-width 12 as 12; every vbnn flag refuses both
    extra = ["--out", "rows.csv"] if script == "consistency_trend.py" else []
    proc = run_script(script, [flag, value, *extra], tmp_path, code=2)
    assert f"argument {flag}: invalid count value: {value!r}" in proc.stderr
    assert not any(tmp_path.iterdir())
