"""The scripts under scripts/ still run against the library.

The two study scripts build ``TrainConfig`` and call ``train`` directly, so
an API change that breaks them shows up here.  Tiny sizes; the exit status is
checked, and the header line of a report CSV that variance_study.py writes;
a count flag below its minimum (``--seeds 0``, ``--n-mc 1``, ``--S 1``) must
be a usage error that writes no file.  variance_study.py's ``--window`` must not
change its fits, and each window line it prints must be the mean of that
window of the trace CSV it writes.
consistency_trend.py's ``--against`` must find no change between two runs of
one tree, flag a fit whose final-window ELBO a table moves, and refuse a
missing table, a cell that is not a number or a table that lacks a requested
fit before fitting anything.  Each study script refuses an output path it
could not write before fitting anything.
walkthrough_hashes.py runs the README walkthrough through the CLI; its line
count and its numpy level statement are checked, not its hashes, and its
``--against`` must find no change against its own output, name the one
artifact whose saved hash is edited in an output without the level
statement, and refuse an output whose level statement is edited.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, args, cwd, code=0):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
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


def test_walkthrough_hashes_prints_one_line_per_artifact(tmp_path):
    # the hashes themselves are not gated: the script exists to diff two trees
    lines = run_script("walkthrough_hashes.py", [], tmp_path).stdout.splitlines()
    assert len(lines) == 9
    assert lines[0].startswith(f"# numpy {np.__version__}, SIMD dispatch: ")
    assert all(len(line.split("  ")[0]) == 64 for line in lines[1:])


def test_walkthrough_hashes_against_names_each_changed_artifact(tmp_path):
    saved = run_script("walkthrough_hashes.py", [], tmp_path).stdout
    (tmp_path / "old.txt").write_text(saved)
    out = run_script("walkthrough_hashes.py", ["--against", "old.txt"], tmp_path).stdout
    assert out == saved + "against old.txt:\n0 of 8 artifacts differ\n"

    # an output saved before the level statement existed is compared as it stands
    level, *lines = saved.splitlines(keepends=True)
    digest, name = lines[5].rstrip("\n").split("  ")
    assert name == "predictions.csv"
    lines[5] = f"{'0' * 64}  {name}\n"
    (tmp_path / "edited.txt").write_text("".join(lines))
    out = run_script("walkthrough_hashes.py", ["--against", "edited.txt"], tmp_path,
                     code=1).stdout
    assert out.splitlines()[-2:] == [f"DIFFERS predictions.csv: {'0' * 64} -> {digest}",
                                     "1 of 8 artifacts differ"]

    # an output that states another level is refused before the walkthrough runs
    edited = level.replace("SIMD dispatch: ", "SIMD dispatch: NOT_THIS_LEVEL ")
    (tmp_path / "other.txt").write_text(edited + saved[len(level):])
    proc = run_script("walkthrough_hashes.py", ["--against", "other.txt"], tmp_path, code=2)
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert errors == ["walkthrough_hashes.py: error: --against other.txt: its hashes are not "
                      f"comparable with this run's: it states {edited[2:].rstrip()!r}, "
                      f"this run {level[2:].rstrip()!r}"]
    assert proc.stdout == ""


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
