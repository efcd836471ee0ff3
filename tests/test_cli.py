"""End-to-end CLI behaviour: artifacts, exit codes, error messages."""

import argparse
import copy
import csv
import errno
import itertools
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from test_exports import readme_commands
from vbnn.cli import _atomic_write, build_parser, main
from vbnn.data import REFERENCE_TRUTH, load_csv, split, write_csv
from vbnn.model import flatten, numpy_build
from vbnn.optimizer import TrainReport, report_summary
from vbnn.prediction import PredictiveConfig, predictive_probabilities
from vbnn.variational import Posterior, softplus_inverse


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A synthetic dataset plus one quick trained model, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "train.csv"
    assert main(["synth", "--n", "60", "--seed", "5", "--out", str(data)]) == 0
    out = root / "fit"
    code = main([
        "train", "--data", str(data), "--out", str(out),
        "--S", "10", "--max-iters", "40", "--k", "2", "--seed", "1",
        "--lr", "0.05",
    ])
    assert code in (0, 2)
    return {"root": root, "data": data, "model": out / "model.json",
            "report": out / "report.csv", "summary": out / "summary.json"}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestSynth:
    def test_writes_data_sidecar_and_truth(self, tmp_path):
        out = tmp_path / "d.csv"
        truth_out = tmp_path / "truth.json"
        code = main(["synth", "--n", "25", "--seed", "7", "--out", str(out),
                     "--truth-out", str(truth_out)])
        assert code == 0
        batch, schema = load_csv(out)
        assert batch.n == 25 and batch.p == 2
        assert (tmp_path / "d.csv.schema.json").exists()
        doc = read_json(truth_out)
        assert doc["kind"] == "network"

    def test_custom_truth_json(self, tmp_path):
        truth_path = tmp_path / "truth.json"
        truth_path.write_text(json.dumps({"kind": "constant", "p": 3, "value": 50.0}))
        out = tmp_path / "d.csv"
        assert main(["synth", "--truth", str(truth_path), "--n", "30",
                     "--out", str(out)]) == 0
        batch, _ = load_csv(out)
        assert batch.p == 3
        assert batch.y.sum() == 30  # sigmoid(50) ~ 1

    def test_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", "--n", "15", "--seed", "2", "--out", str(a)])
        main(["synth", "--n", "15", "--seed", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestTrain:
    def test_artifacts_and_shapes(self, workdir):
        doc = read_json(workdir["model"])
        assert set(doc) == {"shape", "prior", "variational", "config", "seed", "schema"}
        assert doc["shape"] == {"p": 2, "k": 2}
        assert len(doc["variational"]["m"]) == 2 * (2 + 2) + 1
        assert "threads" not in doc["config"]

        summary = read_json(workdir["summary"])
        with open(workdir["report"]) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == summary["iterations_run"]
        assert [*rows[0]] == ["iteration", "elbo", "grad_var", "rho_t"]

    def test_summary_records_the_numpy_build_after_the_report(self, workdir):
        summary = read_json(workdir["summary"])
        traces = {name: np.zeros(1) for name in ("elbo_trace", "grad_var_trace", "rho_trace")}
        report_keys = list(report_summary(TrainReport(**traces, converged=True, wall_time=0.0)))
        assert list(summary) == [*report_keys, "numpy", "simd", "openblas_core"]
        assert {key: summary[key] for key in ("numpy", "simd", "openblas_core")} == numpy_build()

    @pytest.mark.skipif(numpy_build()["openblas_core"] is None,
                        reason="numpy bundles no scipy-openblas here")
    def test_numpy_build_names_the_openblas_kernel_picked_at_load(self):
        # OpenBLAS reads OPENBLAS_CORETYPE once, when numpy loads it
        proc = subprocess.run(
            [sys.executable, "-c",
             "from vbnn.model import numpy_build; print(numpy_build()['openblas_core'])"],
            capture_output=True, text=True, env=dict(os.environ, OPENBLAS_CORETYPE="Haswell"))
        assert (proc.returncode, proc.stdout) == (0, "Haswell\n"), proc.stderr

    def test_no_training_flag_fits_the_readme_data(self, tmp_path):
        # TrainConfig()'s defaults are the paper's fit, so the README's
        # training data converges and lands near the truth at the default k
        data = tmp_path / "train.csv"
        assert main(["synth", "--n", "800", "--seed", "1000", "--out", str(data)]) == 0
        out = tmp_path / "fit"
        assert main(["train", "--data", str(data), "--out", str(out)]) == 0
        diag = tmp_path / "diag.json"
        assert main(["diagnose", "--model", str(out / "model.json"), "--truth", "reference",
                     "--out", str(diag)]) == 0
        assert read_json(diag)["hellinger"] < 0.1

    def test_missing_config_file_names_it(self, tmp_path, capsys, workdir):
        code = main(["train", "--data", str(workdir["data"]),
                     "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code == 1
        assert "nope.json" in capsys.readouterr().err

    def test_control_variates_need_multiple_samples(self, tmp_path, capsys, workdir):
        code = main(["train", "--data", str(workdir["data"]), "--out", str(tmp_path),
                     "--algo", "bbvi-cv", "--S", "1"])
        assert code == 1
        assert "control variates require S" in capsys.readouterr().err

    def test_byte_identical_across_threads(self, tmp_path, workdir):
        # at S=300, k=2 a likelihood block holds 2**18 // (2 n) rows: one block
        # at n=60, so no helper thread starts, and two at n=600, so one does
        big = tmp_path / "train600.csv"
        assert main(["synth", "--n", "600", "--seed", "5", "--out", str(big)]) == 0
        for data in (workdir["data"], big):
            outs = []
            for threads in ("1", "8"):
                out = tmp_path / f"{data.stem}-t{threads}"
                code = main([
                    "train", "--data", str(data), "--out", str(out),
                    "--S", "300", "--max-iters", "12", "--k", "2", "--seed", "3",
                    "--threads", threads,
                ])
                assert code in (0, 2)
                outs.append(out)
            for name in ("model.json", "report.csv"):
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_exit_two_when_budget_too_small_to_converge(self, tmp_path, workdir):
        code = main(["train", "--data", str(workdir["data"]),
                     "--out", str(tmp_path / "m"), "--S", "5",
                     "--max-iters", "6", "--k", "2"])
        assert code == 2
        assert (tmp_path / "m" / "model.json").exists()

    def test_config_file_plus_flag_overrides(self, tmp_path, workdir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "S": 6, "max_iters": 8, "k": 2,
            "schedule": {"kind": "rm", "rho0": 1.0, "b": 100.0, "c": 0.3},
        }))
        out = tmp_path / "m"
        code = main(["train", "--data", str(workdir["data"]), "--config", str(cfg),
                     "--out", str(out), "--seed", "9"])
        assert code in (0, 2)
        doc = read_json(out / "model.json")
        assert doc["config"]["schedule"]["kind"] == "rm"
        assert doc["config"]["S"] == 6
        assert doc["seed"] == 9

    @pytest.mark.parametrize("doc, keys", [
        ({"prior": {"zeta": 5.0}, "max_iter": 8, "k": 2}, "max_iter, prior"),
        # training options that no longer exist
        ({"cv_holdout": True, "cv_pooled": False, "init_jitter": 0.1, "max_iters": 8},
         "cv_holdout, cv_pooled, init_jitter"),
    ], ids=["misspelt", "removed"])
    def test_unknown_config_keys_are_named(self, tmp_path, capsys, workdir, doc, keys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "m"
        code = main(["train", "--data", str(workdir["data"]), "--config", str(cfg),
                     "--out", str(out)])
        assert code == 1
        assert f"unknown key(s) for a training config: {keys}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("schedule, key", [({"kind": "fixed", "rhoo": 0.5}, "rhoo"),
                                               ({"kind": "rm", "rho": 0.5}, "rho")])
    def test_schedule_keys_of_another_kind_are_named(self, tmp_path, capsys, workdir,
                                                     schedule, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"S": 6, "max_iters": 8, "k": 2, "schedule": schedule}))
        out = tmp_path / "m"
        code = main(["train", "--data", str(workdir["data"]), "--config", str(cfg),
                     "--out", str(out)])
        assert code == 1
        assert f"schedule: {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("schedule, flags, expected", [
        ({"kind": "fixed", "rho": 0.01}, ["--rho0", "2", "--c", "0.5"],
         {"kind": "rm", "rho0": 2.0, "b": 100.0, "c": 0.5}),
        ({"kind": "fixed", "rho": 0.01}, ["--b", "100"],
         {"kind": "rm", "rho0": 1.0, "b": 100.0, "c": 0.3}),
        ({"kind": "rm", "rho0": 2.0, "b": 50.0}, ["--lr", "0.02"],
         {"kind": "fixed", "rho": 0.02}),
    ])
    def test_flags_switching_schedule_kind_still_train(self, tmp_path, workdir,
                                                       schedule, flags, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"S": 6, "max_iters": 8, "k": 2, "schedule": schedule}))
        out = tmp_path / "m"
        code = main(["train", "--data", str(workdir["data"]), "--config", str(cfg),
                     "--out", str(out)] + flags)
        assert code in (0, 2)
        assert read_json(out / "model.json")["config"]["schedule"] == expected

    @pytest.mark.parametrize("flags, changed, seed", [
        (["--c", "0.5"], {"schedule": {"kind": "rm", "rho0": 2.0, "b": 50.0, "c": 0.5}}, 4),
        (["--rho0", "2"], {}, 4),
        (["--algo", "bbvi-cv"], {"algo": "bbvi-cv"}, 4),
        (["--seed", "7"], {"seed": 7}, 7),
        (["--threads", "2"], {}, 4),
        ([], {}, 4),
    ], ids=["same-kind-rate", "same-kind", "algo", "seed", "threads", "no-flags"])
    def test_flags_apply_over_a_config_file(self, tmp_path, workdir, flags, changed, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"S": 6, "max_iters": 8, "k": 2, "seed": 4, "algo": "bbvi",
                                   "grad_clip": None,
                                   "schedule": {"kind": "rm", "rho0": 2.0, "b": 50.0}}))
        out = tmp_path / "m"
        code = main(["train", "--data", str(workdir["data"]), "--config", str(cfg),
                     "--out", str(out)] + flags)
        assert code in (0, 2)
        doc = read_json(out / "model.json")
        assert doc["config"] == {
            "S": 6, "algo": "bbvi", "max_iters": 8, "conv_window": 50, "grad_clip": None,
            "seed": 4, "schedule": {"kind": "rm", "rho0": 2.0, "b": 50.0, "c": 0.3},
            **changed}
        assert doc["seed"] == seed

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_number_in_config_names_the_file(self, tmp_path, capsys, workdir,
                                                      token):
        # Python's json reads these tokens; a NaN grad_clip once made a
        # non-finite gradient at iteration 0 and ended in a traceback
        cfg = tmp_path / "c.json"
        cfg.write_text(f'{{"grad_clip": {token}, "max_iters": 5}}')
        out = tmp_path / "fit"
        code = main(["train", "--data", str(workdir["data"]), "--out", str(out),
                     "--k", "3", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config file ") and "c.json" in err
        assert f"{token} is not a number" in err
        assert not out.exists()

    @pytest.mark.parametrize("config", [None, {"max_iters": 5}], ids=["no-config", "config"])
    def test_bad_flag_value_is_not_blamed_on_the_config(self, tmp_path, capsys, workdir,
                                                        config):
        argv = ["train", "--data", str(workdir["data"]), "--out", str(tmp_path / "m"),
                "--S", "0"]
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "c.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: S must be >= 1\n"

    def test_flags_of_two_schedule_kinds_are_rejected(self, tmp_path, capsys, workdir):
        out = tmp_path / "m"
        code = main(["train", "--data", str(workdir["data"]), "--out", str(out),
                     "--lr", "0.01", "--rho0", "2"])
        assert code == 1
        assert "fixed and rm" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_rate_is_rejected_before_the_fit(self, tmp_path, capsys, workdir):
        # model.json cannot hold an infinite rate, so the fit must not start
        out = tmp_path / "m"
        code = main(["train", "--data", str(workdir["data"]), "--out", str(out),
                     "--b", "inf", "--max-iters", "50"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: schedule 'b' must be a positive finite number, got inf\n")
        assert not (out / "model.json").exists()

    def test_header_only_data_is_rejected(self, tmp_path, capsys):
        data = tmp_path / "header-only.csv"
        data.write_text("x1,x2,y\n")
        out = tmp_path / "fit"
        assert main(["train", "--data", str(data), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {data}: training needs at least one data row\n")
        assert not out.exists()

    def test_byte_order_mark_is_not_part_of_a_column_name(self, tmp_path, workdir):
        data = tmp_path / "bom.csv"
        data.write_bytes(b"\xef\xbb\xbf" + workdir["data"].read_bytes())
        out = tmp_path / "fit"
        assert main(["train", "--data", str(data), "--out", str(out), "--S", "10",
                     "--max-iters", "5", "--k", "2", "--lr", "0.05"]) in (0, 2)
        names = [c["name"] for c in read_json(out / "model.json")["schema"]["columns"]]
        assert names == ["x1", "x2", "y"]

    @pytest.mark.parametrize("normalization, x1, message", [
        ("zscore", [1e200, 2e200, 3e200, 4e200], "zscore sd must be > 0 and finite, got inf"),
        ("minmax01", [1.7e308, -1.7e308, 0.0, 1.0],
         "minmax01 max - min must be > 0 and finite, got min=-1.7e+308, max=1.7e+308"),
    ], ids=["zscore-sd", "minmax01-range"])
    def test_overflowing_statistic_names_the_data_and_the_column(self, tmp_path, capsys,
                                                                normalization, x1, message):
        data = tmp_path / "train.csv"
        data.write_text("x1,y\n" + "".join(f"{v!r},{i % 2}\n" for i, v in enumerate(x1)))
        (tmp_path / "train.csv.schema.json").write_text(json.dumps({"columns": [
            {"name": "x1", "normalization": normalization}, {"name": "y", "kind": "label"}]}))
        out = tmp_path / "fit"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the refusal is all the output: no RuntimeWarning
            code = main(["train", "--data", str(data), "--out", str(out), "--S", "5",
                         "--max-iters", "5", "--k", "1"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {data}: column 'x1': {message}\n"
        assert not out.exists()

    def test_diverging_fit_warns_nothing_and_writes_strict_json(self, tmp_path, capsys):
        # fold 0 of a 3-fold split of the README's training data, plain and
        # unclipped at a large fixed rate and train seed 23: the gradient
        # variance overflows to inf at iteration 12 and the ELBO itself at
        # iteration 13.  Most such runaway fits (fold 1 at seed 0, say) drive
        # a parameter past float32's ~3.4e38, and so the likelihood to a
        # non-finite value, before any gradient variance overflows float64
        data = tmp_path / "train.csv"
        assert main(["synth", "--n", "800", "--seed", "1000", "--out", str(data)]) == 0
        batch, schema = load_csv(data)
        fold = tmp_path / "fold.csv"
        write_csv(split(batch, 3, 0)[0][0], fold, schema)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grad_clip": None}))
        out = tmp_path / "fit"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", "--data", str(fold), "--out", str(out), "--config", str(cfg),
                         "--algo", "bbvi", "--S", "20", "--lr", "0.01", "--k", "3",
                         "--seed", "23"])
        assert code == 1
        assert "diverged" in capsys.readouterr().err

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["diverged"] and summary["mean_grad_var"] is None
        assert summary["final_elbo"] < 0
        with open(out / "report.csv") as fh:
            grad_vars = [float(row["grad_var"]) for row in csv.DictReader(fh)]
        assert len(grad_vars) == summary["iterations_run"] and np.isinf(grad_vars).any()


class TestPredict:
    def test_matches_library_exactly(self, tmp_path, workdir):
        out = tmp_path / "pred.csv"
        code = main(["predict", "--model", str(workdir["model"]),
                     "--data", str(workdir["data"]), "--out", str(out),
                     "--M", "50", "--seed", "11"])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))

        doc = read_json(workdir["model"])
        post = Posterior.from_json_dict(doc)
        batch, _ = load_csv(workdir["data"])
        expected = predictive_probabilities(
            post, batch.x, PredictiveConfig(M=50, seed=11)
        )
        assert [float(r["p_hat"]) for r in rows] == list(expected)
        assert [int(r["label_hat"]) for r in rows] == list((expected >= 0.5).astype(int))

    def test_feature_only_csv_accepted(self, tmp_path, workdir):
        feat = tmp_path / "features.csv"
        feat.write_text("x1,x2\n0.25,0.75\n0.5,0.5\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(workdir["model"]),
                     "--data", str(feat), "--out", str(out)]) == 0
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 2

    def test_empty_input_writes_header_only(self, tmp_path, workdir):
        feat = tmp_path / "empty.csv"
        feat.write_text("x1,x2\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(workdir["model"]),
                     "--data", str(feat), "--out", str(out)]) == 0
        assert out.read_text() == "row_id,p_hat,label_hat\n"

    @pytest.mark.parametrize("text", ["x1,x2\r\n0.1,0.2\r\n", "x1,x2,y\r\n0.1,0.2,1\r\n"],
                             ids=["feature-only", "full-columns"])
    def test_byte_order_mark_file_predicts_against_a_clean_model(self, tmp_path, workdir,
                                                                 text):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for data in (plain, bom):
            assert main(["predict", "--model", str(workdir["model"]), "--data", str(data),
                         "--out", str(tmp_path / f"{data.stem}-pred.csv")]) == 0
        assert ((tmp_path / "bom-pred.csv").read_bytes()
                == (tmp_path / "plain-pred.csv").read_bytes())

    @pytest.mark.parametrize("text, message", [
        ("x1,x2\n0.1,0.2\n0.3,abc\n",
         "malformed, missing or non-finite values at line(s) 3 "
         "(line 3, column 'x2': 'abc')"),
        ("x1,x2\n0.1\n0.3,0.4\n",
         "malformed, missing or non-finite values at line(s) 2 "
         "(line 2 has 1 cell(s), expected 2)"),
        ("x1,x2\nnan,\nx,0.2\n1,2\ninf,0\n",
         "malformed, missing or non-finite values at line(s) 2, 3, 5 "
         "(line 2, column 'x1': 'nan'; line 2, column 'x2': ''; line 3, column 'x1': 'x')"),
    ], ids=["bad-cell", "short-row", "first-three-cells"])
    def test_bad_cells_are_quoted_with_line_and_column(self, tmp_path, capsys, workdir,
                                                       text, message):
        feat = tmp_path / "e.csv"
        feat.write_text(text)
        code = main(["predict", "--model", str(workdir["model"]),
                     "--data", str(feat), "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {feat}: {message}\n"

    def test_malformed_row_reports_line_and_leaves_no_file(self, tmp_path, capsys,
                                                           workdir):
        feat = tmp_path / "bad.csv"
        feat.write_text("x1,x2\n0.1,0.2\nbroken,0.4\n")
        out = tmp_path / "pred.csv"
        code = main(["predict", "--model", str(workdir["model"]),
                     "--data", str(feat), "--out", str(out)])
        assert code == 1
        assert "line(s) 3" in capsys.readouterr().err
        assert not out.exists()
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp")]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_cell_reports_its_line(self, tmp_path, capsys, workdir,
                                                      cell):
        feat = tmp_path / "features.csv"
        feat.write_text(f"x1,x2\n0.1,0.2\n0.3,{cell}\n")
        code = main(["predict", "--model", str(workdir["model"]),
                     "--data", str(feat), "--out", str(tmp_path / "p.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "features.csv" in err and "line(s) 3" in err

    @pytest.mark.parametrize("text", ["x1,flag\n0.3,0.5\n", "x1,flag,y\n0.3,0.5,1\n"],
                             ids=["feature-only", "full-columns"])
    def test_categorical_column_must_be_binary(self, tmp_path, capsys, text):
        model = tmp_path / "model.json"
        hand_built_model(model, schema_doc={"columns": [
            {"name": "x1"}, {"name": "flag", "kind": "categorical_binary"},
            {"name": "y", "kind": "label"}]})
        feat = tmp_path / "features.csv"
        feat.write_text(text)
        out = tmp_path / "p.csv"
        code = main(["predict", "--model", str(model), "--data", str(feat), "--out", str(out)])
        assert code == 1
        assert f"{feat}: categorical column 'flag' must be 0/1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["x1,flag\n0.3,1\n0.2, 0.5\n",
                                      "x1,flag,y\n0.3,1,1\n0.2, 0.5,0\n"],
                             ids=["feature-only", "full-columns"])
    def test_categorical_error_names_the_line_and_the_cell(self, tmp_path, capsys, text):
        model = tmp_path / "model.json"
        hand_built_model(model, schema_doc={"columns": [
            {"name": "x1"}, {"name": "flag", "kind": "categorical_binary"},
            {"name": "y", "kind": "label"}]})
        feat = tmp_path / "features.csv"
        feat.write_text(text)
        code = main(["predict", "--model", str(model), "--data", str(feat),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert (f"error: {feat}: categorical column 'flag' must be 0/1 (line 3: ' 0.5') "
                f"(schema from model file '{model}')") in capsys.readouterr().err

    def test_wrong_width_rejected(self, tmp_path, capsys, workdir):
        feat = tmp_path / "wide.csv"
        feat.write_text("x1,x2,x3,y\n0.1,0.2,0.3,1\n")
        code = main(["predict", "--model", str(workdir["model"]),
                     "--data", str(feat), "--out", str(tmp_path / "p.csv")])
        assert code == 1

    def test_wrong_length_prior_rejected(self, tmp_path, capsys, workdir):
        doc = read_json(workdir["model"])
        doc["prior"] = {"mu": [0.0] * 5, "zeta": [1.0] * 5}
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        code = main(["predict", "--model", str(model), "--data", str(workdir["data"]),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "model.json" in err and "the prior 5" in err
        assert not out.exists()

    @pytest.mark.parametrize("stats, message", [
        ({"normalization": "zscore", "mean": 0.0, "sd": -1.0},
         "zscore sd must be > 0 and finite, got -1.0"),
        ({"normalization": "zscore", "mean": 0.0, "sd": 0},
         "zscore sd must be > 0 and finite, got 0.0"),
        ({"normalization": "minmax01", "min": 1.0, "max": 1.0},
         "minmax01 max - min must be > 0 and finite, got min=1.0, max=1.0"),
        # max - min overflows, and every value would normalize to 0
        ({"normalization": "minmax01", "min": -1.7e308, "max": 1.7e308},
         "minmax01 max - min must be > 0 and finite, got min=-1.7e+308, max=1.7e+308"),
        ({"normalization": "zscore", "mean": 0.0, "sd": 1.0, "min": 9.0, "max": 1.0},
         "zscore normalization takes no min or max"),
        ({"normalization": "none", "sd": -4.0}, "none normalization takes no sd"),
        ({"normalization": "minmax01", "min": 0.0, "max": 1.0, "mean": 5.0},
         "minmax01 normalization takes no mean"),
    ], ids=["negative-sd", "zero-sd", "empty-range", "overflowing-range", "zscore-with-range",
            "none-with-sd", "minmax01-with-mean"])
    def test_unusable_statistics_name_the_model_and_the_column(self, tmp_path, capsys,
                                                               workdir, stats, message):
        doc = read_json(workdir["model"])
        doc["schema"]["columns"][0].update(stats)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        code = main(["predict", "--model", str(model), "--data", str(workdir["data"]),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (f"error: model file {str(model)!r}: "
                                           f"column 'x1': {message}\n")
        assert not out.exists()

    def test_out_of_range_minmax_features_are_reported_by_default(self, tmp_path):
        schema_doc = {"columns": [
            {"name": "x1", "kind": "numeric", "normalization": "minmax01",
             "min": 0.0, "max": 1.0},
            {"name": "x2", "kind": "numeric", "normalization": "none"},
            {"name": "y", "kind": "label", "normalization": "none"},
        ]}
        model = tmp_path / "model.json"
        hand_built_model(model, schema_doc=schema_doc)
        feat = tmp_path / "features.csv"
        feat.write_text("x1,x2\n5.0,0.5\n0.5,0.5\n")
        # a subprocess keeps the root logger of the test run untouched
        proc = subprocess.run(
            [sys.executable, "-m", "vbnn.cli", "predict", "--model", str(model),
             "--data", str(feat), "--out", str(tmp_path / "p.csv")],
            capture_output=True, text=True,
            env={k: v for k, v in os.environ.items() if k != "VBNN_LOG"},
        )
        assert proc.returncode == 0
        assert "1 value(s) fell outside the fitted minmax range" in proc.stderr


class TestEvaluate:
    def test_fields_and_consistency(self, tmp_path, workdir):
        out = tmp_path / "eval.json"
        code = main(["evaluate", "--model", str(workdir["model"]),
                     "--data", str(workdir["data"]), "--out", str(out),
                     "--M", "30"])
        assert code == 0
        doc = read_json(out)
        assert set(doc) == {"n", "accuracy", "error_rate"}
        assert doc["n"] == 60
        assert doc["error_rate"] == pytest.approx(1 - doc["accuracy"])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_its_line(self, tmp_path, capsys, workdir, cell):
        data = tmp_path / "labelled.csv"
        data.write_text(f"x1,x2,y\n0.1,0.2,1\n0.3,0.4,0\n{cell},0.6,1\n")
        code = main(["evaluate", "--model", str(workdir["model"]),
                     "--data", str(data), "--out", str(tmp_path / "e.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "labelled.csv" in err and "line(s) 4" in err

    def test_label_error_names_the_line_and_the_cell(self, tmp_path, capsys, workdir):
        data = tmp_path / "e2.csv"
        data.write_text("x1,x2,y\n0.1,0.2,1\n0.3,0.4,0\n0.5,0.6,2\n0.7,0.8,3\n")
        code = main(["evaluate", "--model", str(workdir["model"]),
                     "--data", str(data), "--out", str(tmp_path / "e.json")])
        assert code == 1
        assert (f"error: {data}: label column must contain only 0/1 values (line 4: '2')"
                in capsys.readouterr().err)

    def test_empty_data_names_the_file(self, tmp_path, capsys, workdir):
        data = tmp_path / "header-only.csv"
        data.write_text("x1,x2,y\n")
        out = tmp_path / "e.json"
        code = main(["evaluate", "--model", str(workdir["model"]),
                     "--data", str(data), "--out", str(out)])
        assert code == 1
        assert f"error: {data}: accuracy is undefined" in capsys.readouterr().err
        assert not out.exists()


class TestServingThreads:
    def test_threads_flag_does_not_change_outputs(self, tmp_path, workdir):
        # at M=400 and k=2 a serving block holds 109 rows at any thread count,
        # so 700 rows (and 700 points) are six full blocks and a partial seventh
        data = tmp_path / "serve.csv"
        assert main(["synth", "--n", "700", "--seed", "8", "--out", str(data)]) == 0

        def serve(threads):
            out = tmp_path / f"t{threads}"
            out.mkdir()
            common = ["--model", str(workdir["model"]), "--M", "400", "--seed", "6",
                      "--threads", threads]
            assert main(["predict", "--data", str(data),
                         "--out", str(out / "predictions.csv")] + common) == 0
            assert main(["evaluate", "--data", str(data),
                         "--out", str(out / "eval.json")] + common) == 0
            assert main(["diagnose", "--truth", "reference", "--n-mc", "700",
                         "--out", str(out / "diag.json")] + common) == 0
            return {name: (out / name).read_bytes()
                    for name in ("predictions.csv", "eval.json", "diag.json")}

        one = serve("1")
        assert serve("2") == one
        assert serve("8") == one

    @pytest.mark.parametrize("command, flags, message", [
        ("predict", ["--threads", "0"], "threads must be >= 1"),
        ("evaluate", ["--threads", "0"], "threads must be >= 1"),
        ("diagnose", ["--threads", "-2"], "threads must be >= 1"),
        ("diagnose", ["--n-mc", "1"], "n_mc must be >= 2"),
    ])
    @pytest.mark.parametrize("model", ["model", "missing"])
    def test_bad_flag_is_refused_before_the_model_is_read(self, tmp_path, capsys, workdir,
                                                          command, flags, message, model):
        inputs = (["--truth", "reference"] if command == "diagnose"
                  else ["--data", str(workdir["data"])])
        path = workdir["model"] if model == "model" else tmp_path / "missing.json"
        out = tmp_path / "out"
        assert main([command, "--model", str(path), *inputs, "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("train", ["--S", "0"], "S must be >= 1"),
    ("train", ["--S", "1"], "control variates require S >= 2"),
    ("train", ["--algo", "bbvi-cv", "--S", "1", "--config", "missing.json"],
     "control variates require S >= 2"),
    ("train", ["--k", "0"], "k must be >= 1"),
    ("train", ["--max-iters", "0"], "max_iters must be >= 1"),
    ("train", ["--threads", "0"], "threads must be >= 1"),
    ("train", ["--lr", "0"], "schedule 'rho' must be a positive finite number, got 0.0"),
    ("sweep", ["--M", "0"], "M must be >= 1"),
    ("sweep", ["--seed", "-1"], "seed must be >= 0"),
    ("sweep", ["--threads", "0"], "threads must be >= 1"),
])
def test_bad_flag_is_refused_before_the_data_is_read(tmp_path, capsys, monkeypatch,
                                                     command, flags, message):
    monkeypatch.chdir(tmp_path)  # none of the files named exists
    argv = [command, "--data", "missing.csv", "--out", "out", *flags]
    if command == "sweep":
        argv += ["--grid", "missing.json"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


def test_one_sample_is_valid_under_a_config_without_control_variates(tmp_path, workdir):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"algo": "bbvi", "max_iters": 3}))
    assert main(["train", "--data", str(workdir["data"]), "--out", str(tmp_path / "m"),
                 "--config", str(config), "--S", "1", "--k", "2", "--lr", "0.05"]) in (0, 2)
    assert read_json(tmp_path / "m" / "model.json")["config"]["S"] == 1


def hand_built_model(path, schema_doc=None, spread=1e-6):
    """model.json whose posterior mean is exactly the reference network."""
    from vbnn.data import REFERENCE_TRUTH, default_schema

    flat = flatten(REFERENCE_TRUTH.network)
    raw = softplus_inverse(np.full(flat.size, spread))
    doc = {
        "shape": {"p": 2, "k": 3},
        "prior": {"mu": [0.0] * flat.size, "zeta": [1.0] * flat.size},
        "variational": {"m": [float(v) for v in flat],
                        "r": [float(v) for v in raw]},
        "config": {},
        "seed": 0,
        "schema": schema_doc or default_schema(2).to_json_dict(),
    }
    path.write_text(json.dumps(doc))


class TestDiagnose:
    def test_near_zero_when_model_equals_truth(self, tmp_path):
        model = tmp_path / "model.json"
        hand_built_model(model)
        out = tmp_path / "diag.json"
        code = main(["diagnose", "--model", str(model), "--truth", "reference",
                     "--out", str(out), "--n-mc", "2000", "--M", "50"])
        assert code == 0
        doc = read_json(out)
        assert doc["hellinger"] < 0.01
        assert doc["risk_gap"] < 1e-6
        assert doc["risk_gap"] <= doc["risk_bound"] + 1e-15
        assert doc["n_mc"] == 2000

    def test_refuses_normalized_training_schema(self, tmp_path, capsys):
        schema_doc = {
            "columns": [
                {"name": "x1", "kind": "numeric", "normalization": "zscore",
                 "mean": 0.5, "sd": 0.2},
                {"name": "x2", "kind": "numeric", "normalization": "none"},
                {"name": "y", "kind": "label", "normalization": "none"},
            ]
        }
        model = tmp_path / "model.json"
        hand_built_model(model, schema_doc=schema_doc)
        code = main(["diagnose", "--model", str(model), "--truth", "reference",
                     "--out", str(tmp_path / "d.json")])
        assert code == 1
        assert "normalization" in capsys.readouterr().err

    def test_missing_truth_file(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        hand_built_model(model)
        code = main(["diagnose", "--model", str(model),
                     "--truth", str(tmp_path / "gone.json"),
                     "--out", str(tmp_path / "d.json")])
        assert code == 1
        assert "gone.json" in capsys.readouterr().err

    def test_truth_of_another_width_names_the_truth_and_the_model(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        hand_built_model(model)
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"kind": "constant", "p": 3, "value": 0.0}))
        out = tmp_path / "d.json"
        code = main(["diagnose", "--model", str(model), "--truth", str(truth),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "truth has p=3 but the posterior takes p=2" in err
        assert repr(str(truth)) in err and repr(str(model)) in err
        assert not out.exists()


class TestSweep:
    def test_single_cell_grid(self, tmp_path, workdir):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "S": [8],
            "schedule": [{"kind": "fixed", "rho": 0.05}],
            "algo": ["bbvi"],
            "k": 2,
            "folds": 3,
            "base": {"max_iters": 15, "conv_window": 5},
        }))
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--grid", str(grid), "--data", str(workdir["data"]),
                     "--out", str(out), "--M", "20", "--seed", "0"])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert [*rows[0]] == ["S", "kind", "rho", "rho0", "b", "c", "algo", "accuracy_mean",
                              "accuracy_sd", "iterations_mean"]
        assert 0.0 <= float(rows[0]["accuracy_mean"]) <= 1.0
        assert rows[0]["S"] == "8"

    def test_diverged_fold_is_an_error(self, tmp_path, capsys):
        # on the README's training data, fold 1 of this plain, unclipped cell
        # diverges at iteration 12, where a parameter past float32's ~3.4e38
        # makes the likelihood non-finite
        data = tmp_path / "train.csv"
        assert main(["synth", "--n", "800", "--seed", "1000", "--out", str(data)]) == 0
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"S": [20], "schedule": [{"kind": "fixed", "rho": 0.01}],
                                    "algo": ["bbvi"], "base": {"grad_clip": None}, "k": 3,
                                    "folds": 3}))
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--grid", str(grid), "--data", str(data), "--out", str(out),
                     "--seed", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert "diverged" in err and "at iteration 12" in err
        assert "S=20, schedule fixed(rho=0.01), algo bbvi, on fold 1" in err
        assert not out.exists()

    def test_error_in_a_fold_names_the_cell_and_the_fold(self, tmp_path, capsys):
        # x1 varies in the file, but fold 0 trains on two of its 0.5 rows
        data = tmp_path / "train.csv"
        data.write_text("x1,y\n0.5,0\n0.5,1\n0.6,0\n0.5,1\n")
        (tmp_path / "train.csv.schema.json").write_text(json.dumps({"columns": [
            {"name": "x1", "normalization": "zscore"}, {"name": "y", "kind": "label"}]}))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({**GRID, "folds": 2}))
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--grid", str(grid), "--data", str(data), "--out", str(out),
                     "--seed", "0"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: column 'x1': zscore sd must be > 0 and finite, got 0.0 in cell S=8, "
            f"schedule fixed(rho=0.05), algo bbvi, on fold 0 (folds 0-1) of grid file "
            f"{str(grid)!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [(["--seed", "-1"], "seed must be >= 0"),
                                                (["--threads", "0"], "threads must be >= 1")])
    def test_bad_flag_value_is_not_blamed_on_the_grid(self, tmp_path, capsys, workdir,
                                                      flags, message):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(GRID))
        code = main(["sweep", "--grid", str(grid), "--data", str(workdir["data"]),
                     "--out", str(tmp_path / "s.csv")] + flags)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_flags_reach_every_cell(self, tmp_path, workdir):
        # at M=9000 and k=2 a serving block holds 4 rows at one thread and 9 at
        # two, so each fold's 20 test rows are 5 blocks, or 3 at --threads 2
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({**GRID, "S": [6, 8], "base": {"max_iters": 4}}))

        def sweep(*flags):
            out = tmp_path / f"s{''.join(flags)}.csv"
            assert main(["sweep", "--grid", str(grid), "--data", str(workdir["data"]),
                         "--out", str(out), "--M", "9000", *flags]) == 0
            with open(out) as fh:
                assert len(list(csv.DictReader(fh))) == 2
            return out.read_bytes()

        assert sweep("--threads", "2") == sweep("--threads", "1")
        assert sweep("--seed", "5") != sweep()

    def test_bytes_match_the_row_at_a_time_writer(self, tmp_path, workdir):
        from test_data import reference_rows_csv  # test_data imports this module

        # each kind leaves the other kind's schedule cells empty
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({**GRID, "schedule": [
            {"kind": "fixed", "rho": 0.05}, {"kind": "rm", "rho0": 1.0, "b": 100.0, "c": 0.3}],
            "base": {"max_iters": 4}}))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", str(grid), "--data", str(workdir["data"]),
                     "--out", str(out), "--M", "5"]) == 0
        with open(out, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert [row[1:6] for row in rows] == [["fixed", "0.05", "", "", ""],
                                              ["rm", "", "1.0", "100.0", "0.3"]]
        reference_rows_csv(tmp_path / "rows.csv", header, rows)
        assert out.read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("base, keys", [
        ({"S": "abc", "algo": 7, "schedule": 1}, "S, algo, schedule"),
        ({"seed": 5, "max_iters": 15}, "seed"),
    ], ids=["axes", "seed"])
    def test_base_may_not_set_what_the_grid_always_sets(self, tmp_path, capsys, workdir,
                                                       base, keys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({**GRID, "base": base}))
        out = tmp_path / "s.csv"
        code = main(["sweep", "--grid", str(grid), "--data", str(workdir["data"]),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: grid file {str(grid)!r}: a sweep grid's base may not set {keys}: the "
            "grid's axes set S, schedule and algo, and --seed sets seed\n")
        assert not out.exists()

    def test_bad_draw_count_fails_before_any_fit(self, tmp_path, capsys, workdir,
                                                 monkeypatch):
        # one long cell: 3 folds of 2000 iterations each, were any of them fitted
        fits = []
        monkeypatch.setattr("vbnn.cli._run_training", lambda *a: fits.append(a))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({**GRID, "S": [200], "base": {"max_iters": 2000,
                                                                 "conv_window": 2000}}))
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--grid", str(grid), "--data", str(workdir["data"]),
                     "--out", str(out), "--M", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: M must be >= 1\n"
        assert fits == [] and not out.exists()

    def test_too_few_rows_are_blamed_on_the_data(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        assert main(["synth", "--n", "1", "--out", str(data)]) == 0
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(GRID))
        code = main(["sweep", "--grid", str(grid), "--data", str(data),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "one.csv: a sweep needs at least 2 rows, found 1" in err
        assert "grid.json" not in err

    def test_info_line_names_each_cells_own_S(self, tmp_path, caplog, workdir):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({**GRID, "S": [6, 8], "base": {"max_iters": 2}}))
        with caplog.at_level("INFO", logger="vbnn"):
            code = main(["sweep", "--grid", str(grid), "--data", str(workdir["data"]),
                         "--out", str(tmp_path / "s.csv"), "--M", "5"])
        assert code == 0
        cells = [r.getMessage() for r in caplog.records if r.getMessage().startswith("cell ")]
        assert [line.split()[1] for line in cells] == ["S=6", "S=8"]

    def test_empty_grid_is_an_error(self, tmp_path, capsys, workdir):
        grid = tmp_path / "grid.json"
        grid.write_text("{}")
        code = main(["sweep", "--grid", str(grid), "--data", str(workdir["data"]),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "empty grid" in capsys.readouterr().err


class TestDataHeaders:
    """Without a schema the columns come from the data file's header, so a
    header that cannot describe a batch is blamed on the data file."""

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("text, message", [
        ("y\n1\n0\n1\n", "needs a label and at least one feature column, found header ['y']"),
        ("x1,x1,y\n0.1,0.2,1\n0.3,0.4,0\n0.5,0.6,1\n",
         "column names must be unique, repeated: x1"),
    ], ids=["label-only", "repeated-name"])
    def test_bad_header_names_the_data_file(self, tmp_path, capsys, command, text, message):
        data = tmp_path / "d.csv"
        data.write_text(text)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(GRID))
        out = tmp_path / "out"
        argv = {"train": ["train", "--data", str(data), "--out", str(out)],
                "sweep": ["sweep", "--grid", str(grid), "--data", str(data),
                          "--out", str(out)]}[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {data}: {message}\n"
        assert not out.exists()


class TestUsage:
    def test_usage_error_exits_one(self, capsys):
        # exit 2 means "training hit max_iters", so a usage error must not use it
        assert main(["train", "--data", "x.csv", "--S", "abc"]) == 1
        assert "invalid int value: 'abc'" in capsys.readouterr().err

    def test_schedule_flag_is_a_usage_error(self, capsys):
        # the rate flags choose the kind: --lr a fixed one, --rho0/--b/--c a decaying one
        assert main(["train", "--data", "x.csv", "--schedule", "rm"]) == 1
        assert "unrecognized arguments: --schedule rm" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: vbnn")

    def test_per_command_parser_parses_as_the_full_parser(self):
        subcommands = next(action.choices for action in build_parser()._actions
                           if isinstance(action, argparse._SubParsersAction))
        assert [argv[0] for argv in EVERY_FLAG] == list(subcommands)
        for argv in EVERY_FLAG:
            flags = {option for action in subcommands[argv[0]]._actions
                     if not isinstance(action, argparse._HelpAction)
                     for option in action.option_strings}
            assert sorted(flags - set(argv)) == [], argv[0]
        for argv in [shlex.split(command)[1:] for command in readme_commands()] + EVERY_FLAG:
            full = build_parser().parse_args(argv)
            assert build_parser(argv[0]).parse_args(argv) == full, argv

    def test_per_command_parser_prints_what_the_full_parser_prints(self, capsys, monkeypatch):
        built = []

        def per_command(command=None):
            built.append(command)
            return build_parser(command)

        def run(argv, parser):
            monkeypatch.setattr("vbnn.cli.build_parser", parser)
            code = main(argv)
            return code, *capsys.readouterr()

        names = [argv[0] for argv in EVERY_FLAG]
        cases = [[], ["--help"], ["nosuch"], ["-h", "predict"]]
        for argv in EVERY_FLAG:  # help, required flags missing, a bad value, an extra argument
            cases += [[argv[0], "--help"], [argv[0]], [argv[0], "--seed", "x"], argv + ["extra"]]
        for argv in cases:
            built.clear()
            assert run(argv, per_command) == run(argv, lambda command=None: build_parser()), argv
            assert built == [argv[0] if argv and argv[0] in names else None], argv
        monkeypatch.setattr(sys, "argv", ["vbnn", "diagnose", "--help"])
        built.clear()
        assert run(None, per_command) == run(["diagnose", "--help"], per_command)
        assert built == ["diagnose", "diagnose"]

    @pytest.mark.parametrize("command", ["synth", "predict", "evaluate", "diagnose"])
    def test_negative_seed_is_named(self, tmp_path, capsys, workdir, command):
        data, model, out = str(workdir["data"]), str(workdir["model"]), str(tmp_path / "out")
        argv = {"synth": ["synth", "--n", "5", "--out", out],
                "predict": ["predict", "--model", model, "--data", data, "--out", out],
                "evaluate": ["evaluate", "--model", model, "--data", data, "--out", out],
                "diagnose": ["diagnose", "--model", model, "--truth", "reference",
                             "--out", out]}[command]
        assert main(argv + ["--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not os.path.exists(out)

    def test_missing_output_directory_names_the_output(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "d.csv"
        assert main(["synth", "--n", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.rstrip().endswith(f"{str(out)!r}")

    def test_output_that_is_a_directory_names_the_output(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        out.mkdir()
        assert main(["synth", "--n", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.rstrip().endswith(f"{str(out)!r}")
        assert ".part" not in err
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp.")]


# one argv per command that sets each of its flags
EVERY_FLAG = [
    ["synth", "--truth", "t.json", "--n", "5", "--seed", "1", "--out", "d.csv",
     "--truth-out", "u.json"],
    ["train", "--data", "d.csv", "--schema", "s.json", "--config", "c.json", "--out", "fit",
     "--algo", "bbvi", "--S", "5", "--lr", "0.1", "--rho0", "1", "--b", "2", "--c", "0.5",
     "--max-iters", "9", "--k", "2", "--seed", "3", "--threads", "2"],
    *([command, "--model", "m.json", "--data", "d.csv", "--out", "p.csv", "--M", "7",
       "--seed", "2", "--threads", "2"] for command in ("predict", "evaluate")),
    ["diagnose", "--model", "m.json", "--truth", "t.json", "--out", "g.json", "--n-mc", "50",
     "--M", "7", "--seed", "2", "--threads", "2"],
    ["sweep", "--grid", "g.json", "--data", "d.csv", "--schema", "s.json", "--out", "s.csv",
     "--M", "7", "--seed", "2", "--threads", "2"],
]


# every numeric flag of every command, and its type's name in argparse's message
NUMERIC_FLAGS = {
    "synth": {"--n": "int", "--seed": "int"},
    "train": {"--S": "int", "--lr": "float", "--rho0": "float", "--b": "float",
              "--c": "float", "--max-iters": "int", "--k": "int", "--seed": "int",
              "--threads": "int"},
    **{command: {"--M": "int", "--seed": "int", "--threads": "int"}
       for command in ("predict", "evaluate", "sweep")},
    "diagnose": {"--M": "int", "--n-mc": "int", "--seed": "int", "--threads": "int"},
}


def command_argv(command, workdir, tmp_path):
    """argv of a valid run of ``command`` on the workdir's data and model."""
    data, model, out = str(workdir["data"]), str(workdir["model"]), str(tmp_path / "out")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(GRID))
    return {
        "synth": ["synth", "--n", "5", "--out", out],
        "train": ["train", "--data", data, "--out", out],
        "predict": ["predict", "--model", model, "--data", data, "--out", out],
        "evaluate": ["evaluate", "--model", model, "--data", data, "--out", out],
        "diagnose": ["diagnose", "--model", model, "--truth", "reference", "--out", out],
        "sweep": ["sweep", "--grid", str(grid), "--data", data, "--out", out],
    }[command]


class TestNumericFlags:
    @pytest.mark.parametrize("command, flag", [(command, flag)
                                               for command, flags in NUMERIC_FLAGS.items()
                                               for flag in flags])
    @pytest.mark.parametrize("value", ["1_0", "１２"], ids=["underscore", "full-width"])
    def test_value_no_data_cell_holds_is_a_usage_error(self, tmp_path, capsys, workdir,
                                                       command, flag, value):
        # Python's int and float read both (as 10 and 12); a data cell may hold neither
        argv = command_argv(command, workdir, tmp_path) + [flag, value]
        assert main(argv) == 1
        kind = NUMERIC_FLAGS[command][flag]
        assert f"argument {flag}: invalid {kind} value: {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def raise_memory_error(*args, **kwargs):
    raise MemoryError


# each command, the call that does its work and the flags that size it
WORK = [
    ("synth", "generate_synthetic", "--n"),
    ("train", "train", "--S or --k"),
    ("predict", "predictive_probabilities", "--M"),
    ("evaluate", "evaluation_dict", "--M"),
    ("diagnose", "diagnostics_dict", "--M or --n-mc"),
    ("sweep", "train", "the grid's S or k, or --M"),
]


class TestOutOfMemory:
    @pytest.mark.parametrize("command, callee, sizes", WORK)
    def test_one_error_line_names_the_size_flags(self, tmp_path, capsys, workdir,
                                                 monkeypatch, command, callee, sizes):
        # a callee that raises stands in for a huge array: on an overcommitting
        # host such a request is granted and then filled
        monkeypatch.setattr(f"vbnn.cli.{callee}", raise_memory_error)
        assert main(command_argv(command, workdir, tmp_path)) == 1
        assert capsys.readouterr().err == (
            f"error: {command} ran out of memory; lower {sizes}\n")
        assert not (tmp_path / "out").exists()


def refuse_work(*args, **kwargs):
    pytest.fail("the command did its work before it checked its outputs")


class TestUnwritableOutputs:
    @pytest.mark.parametrize("blocked", ["directory-at-output", "no-output-directory",
                                         "below-a-file"])
    @pytest.mark.parametrize("command, callee", [(command, callee) for command, callee, _ in WORK])
    def test_refused_before_any_work(self, tmp_path, capsys, workdir, monkeypatch, command,
                                     callee, blocked):
        monkeypatch.setattr(f"vbnn.cli.{callee}", refuse_work)
        argv = command_argv(command, workdir, tmp_path)
        out = tmp_path / "out"
        if blocked == "directory-at-output":
            path = out / "model.json" if command == "train" else out  # train's --out is a directory
            path.mkdir(parents=True)
            error = "[Errno 21] Is a directory"
        elif blocked == "below-a-file":  # a file where a parent directory belongs
            (tmp_path / "afile").write_text("")
            path = tmp_path / "afile" / "out"
            argv[argv.index(str(out))] = str(path)
            error = "[Errno 20] Not a directory"
        elif command == "train":  # os.makedirs makes a missing --out, but not over a file
            path = out
            path.write_text("")
            error = "[Errno 17] File exists"
        else:
            path = tmp_path / "no" / "out"
            argv[argv.index(str(out))] = str(path)
            error = "[Errno 2] No such file or directory"
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {error}: {str(path)!r}\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("blocked", ["d.csv.schema.json", "t.json"],
                             ids=["sidecar", "truth-out"])
    def test_synth_writes_nothing_if_one_output_cannot_be_written(self, tmp_path, capsys,
                                                                  blocked):
        (tmp_path / blocked).mkdir()
        argv = ["synth", "--n", "5", "--out", str(tmp_path / "d.csv"),
                "--truth-out", str(tmp_path / "t.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 21] Is a directory: {str(tmp_path / blocked)!r}\n")
        assert os.listdir(tmp_path) == [blocked]

    @pytest.mark.parametrize("truth_out", ["d.csv", "./d.csv", "d.csv.schema.json"],
                             ids=["data", "data-by-another-name", "sidecar"])
    def test_synth_refuses_an_output_named_twice(self, tmp_path, capsys, monkeypatch,
                                                 truth_out):
        monkeypatch.setattr("vbnn.cli.generate_synthetic", refuse_work)
        truth_out = f"{tmp_path}/{truth_out}"
        argv = ["synth", "--n", "3", "--out", str(tmp_path / "d.csv"), "--truth-out", truth_out]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: output {truth_out!r} is named twice\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, flag", [("diagnose", "--model"), ("predict", "--data"),
                                               ("sweep", "--grid"), ("sweep", "--data sidecar")])
    def test_refuses_an_output_that_is_an_input(self, tmp_path, capsys, workdir, monkeypatch,
                                                command, flag):
        callee = {c: f for c, f, _ in WORK}[command]
        monkeypatch.setattr(f"vbnn.cli.{callee}", refuse_work)
        # copies, so that a failing run cannot spoil the module's files
        for path in (workdir["data"], workdir["model"], f"{workdir['data']}.schema.json"):
            shutil.copy(path, tmp_path)
        copies = {str(workdir[name]): str(tmp_path / workdir[name].name)
                  for name in ("data", "model")}
        argv = [copies.get(arg, arg) for arg in command_argv(command, workdir, tmp_path)]
        path = argv[argv.index(flag.split()[0]) + 1]
        if flag.endswith("sidecar"):
            path += ".schema.json"
        argv[argv.index("--out") + 1] = path
        with open(path, "rb") as fh:
            before = fh.read()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: output {path!r} is the {flag} input\n"
        with open(path, "rb") as fh:
            assert fh.read() == before


class TestOutputModes:
    # flags that keep each run small; synth also writes a truth file
    SMALL = {"synth": ["--truth-out"], "train": ["--S", "5", "--max-iters", "5", "--k", "2"],
             "predict": ["--M", "5"], "evaluate": ["--M", "5"],
             "diagnose": ["--M", "5", "--n-mc", "100"], "sweep": ["--M", "5"]}

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    @pytest.mark.parametrize("command", sorted(SMALL))
    def test_outputs_get_the_mode_a_plain_write_gives(self, tmp_path, workdir, command,
                                                      umask, mode):
        argv = command_argv(command, workdir, tmp_path) + self.SMALL[command]
        if command == "synth":
            argv.append(str(tmp_path / "out.truth.json"))
        old = os.umask(umask)
        try:
            assert main(argv) in (0, 2)
        finally:
            os.umask(old)
        written = [f for f in tmp_path.rglob("*") if f.is_file() and f.name != "grid.json"]
        assert len(written) == {"synth": 3, "train": 3}.get(command, 1)
        assert {f.name: oct(f.stat().st_mode & 0o777) for f in written} == {
            f.name: oct(mode) for f in written}


class TestAtomicWrite:
    @staticmethod
    def write_partial(tmp):
        with open(tmp, "w") as fh:
            fh.write("partial")

    def test_failing_writer_leaves_nothing(self, tmp_path):
        def failing(tmp):
            self.write_partial(tmp)
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError, match="writer failed"):
            _atomic_write(str(tmp_path / "out.json"), failing)
        assert os.listdir(tmp_path) == []

    def test_directory_at_path_is_named(self, tmp_path):
        path = tmp_path / "out.json"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            _atomic_write(str(path), self.write_partial)
        assert info.value.filename == str(path)
        assert os.listdir(tmp_path) == ["out.json"] and os.listdir(path) == []

    @pytest.mark.parametrize("code, names_tmp", [(errno.ENOSPC, False), (errno.EIO, True)],
                             ids=["ENOSPC-unnamed", "EIO-naming-the-temporary-file"])
    def test_writer_oserror_names_the_destination(self, tmp_path, code, names_tmp):
        def failing(tmp):
            self.write_partial(tmp)
            raise OSError(code, os.strerror(code), *([tmp] if names_tmp else []))

        path = tmp_path / "out.json"
        with pytest.raises(OSError) as info:
            _atomic_write(str(path), failing)
        assert (info.value.errno, info.value.filename) == (code, str(path))
        assert os.listdir(tmp_path) == []

    def test_missing_directory_is_named(self, tmp_path):
        path = tmp_path / "no" / "out.json"
        with pytest.raises(FileNotFoundError) as info:
            _atomic_write(str(path), self.write_partial)
        assert info.value.filename == str(path)
        assert os.listdir(tmp_path) == []


def json_input_argv(use, path, workdir, tmp_path):
    """argv of the command that reads ``path`` for ``use``, with valid other inputs."""
    data, model, out = str(workdir["data"]), str(workdir["model"]), str(tmp_path / "out")
    return {
        "train-config": ["train", "--data", data, "--config", path, "--out", out],
        "train-schema": ["train", "--data", data, "--schema", path, "--out", out],
        "sweep-grid": ["sweep", "--grid", path, "--data", data, "--out", out],
        "diagnose-truth": ["diagnose", "--model", model, "--truth", path, "--out", out],
        "synth-truth": ["synth", "--truth", path, "--n", "5", "--out", out],
        "predict-model": ["predict", "--model", path, "--data", data, "--out", out],
        "evaluate-model": ["evaluate", "--model", path, "--data", data, "--out", out],
        "diagnose-model": ["diagnose", "--model", path, "--truth", "reference",
                           "--out", out],
    }[use]


# a valid one-cell sweep grid
GRID = {"S": [8], "schedule": [{"kind": "fixed", "rho": 0.05}], "algo": ["bbvi"],
        "k": 2, "folds": 3, "base": {"max_iters": 15}}

# a valid p=2, k=2 model (K = 9) for the workdir's data
MODEL = {"shape": {"p": 2, "k": 2}, "prior": {"mu": [0.0] * 9, "zeta": [1.0] * 9},
         "variational": {"m": [0.0] * 9, "r": [0.0] * 9},
         "schema": {"columns": [{"name": "x1"}, {"name": "x2"},
                                {"name": "y", "kind": "label"}]}}


# a valid training config that sets every key
CONFIG = {"S": 6, "algo": "bbvi-cv", "max_iters": 3, "conv_window": 2, "grad_clip": 10.0,
          "seed": 1, "threads": 1, "k": 2,
          "schedule": {"kind": "rm", "rho0": 1.0, "b": 100.0, "c": 0.3}}

# the values each field of a JSON input is set to in turn
FUZZ_VALUES = [None, True, 0, -1, 1.5, 1e308, math.inf, math.nan, "", "x", [], [1], {},
               {"a": 1}]


def field_paths(doc, prefix=()):
    """The key path of every value in doc, walking into objects and into
    arrays of objects."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        path = (*prefix, key)
        if isinstance(doc, dict):
            yield path
        if isinstance(value, dict) or (isinstance(value, list) and value
                                       and all(isinstance(v, dict) for v in value)):
            yield from field_paths(value, path)


def with_field(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


class TestJsonInputs:
    @pytest.mark.parametrize("use", ["train-config", "sweep-grid", "diagnose-truth",
                                      "predict-model", "evaluate-model", "diagnose-model",
                                      "train-schema"])
    @pytest.mark.parametrize("text", ["[1]", "3"])
    def test_top_level_must_be_an_object(self, tmp_path, capsys, workdir, use, text):
        path = tmp_path / "in.json"
        path.write_text(text)
        code = main(json_input_argv(use, str(path), workdir, tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert "in.json" in err and "must hold a JSON object" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("use, doc, key", [
        ("predict-model", {}, "shape"),
        ("evaluate-model", {"shape": {"p": 2}}, "k"),
        ("diagnose-model", {"shape": {"p": 2, "k": 3}, "schema": {}}, "variational"),
        ("diagnose-truth", {"kind": "linear", "weights": [1.0, 1.0]}, "intercept"),
    ], ids=["shape", "k", "variational", "intercept"])
    def test_missing_key_names_the_file_and_the_key(self, tmp_path, capsys, workdir,
                                                    use, doc, key):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code = main(json_input_argv(use, str(path), workdir, tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert "in.json" in err and f"has no key '{key}'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("use, doc, key", [
        ("predict-model", {"shape": [1]}, "shape"),
        ("evaluate-model", {"shape": {"p": 2, "k": 2}, "variational": [1]}, "variational"),
        ("train-config", {"schedule": 5}, "schedule"),
        ("sweep-grid", {**GRID, "schedule": [1]}, "schedule"),
        ("sweep-grid", {**GRID, "base": [1]}, "base"),
        ("sweep-grid", {**GRID, "S": 5}, "S"),
        ("sweep-grid", {**GRID, "k": [2]}, "k"),
        ("diagnose-truth", {"kind": "network", "shape": [2], "flat_theta": [0.0]}, "shape"),
        # integer fields
        ("train-config", {"S": 20.9}, "S"),
        ("train-config", {"seed": True}, "seed"),
        ("predict-model", {"shape": {"p": 2.9, "k": 2}}, "p"),
        ("sweep-grid", {**GRID, "k": 2.5}, "k"),
        ("sweep-grid", {**GRID, "folds": True}, "folds"),
        # number fields and arrays of numbers
        ("predict-model", {**MODEL, "variational": {"m": [{}] + [0.0] * 8, "r": [0.0] * 9}},
         "m"),
        ("predict-model", {**MODEL, "schema": {"columns": [1, 2, 3]}}, "columns"),
        ("predict-model", {**MODEL, "prior": {"mu": [0.0] * 9, "zeta": [True] + [1.0] * 8}},
         "zeta"),
        ("predict-model", {**MODEL, "schema": {"columns": [
            {"name": "x1", "normalization": "zscore", "mean": "0", "sd": 1.0},
            {"name": "x2"}, {"name": "y", "kind": "label"}]}}, "mean"),
        ("train-config", {"schedule": {"kind": "fixed", "rho": [0.1]}}, "rho"),
        ("train-config", {"schedule": {"kind": "fixed", "rho": True}}, "rho"),
        ("train-config", {"schedule": {"kind": ["rm"]}}, "kind"),
        ("train-config", {"grad_clip": "10"}, "grad_clip"),
        ("sweep-grid", {**GRID, "schedule": [{"kind": "rm", "c": False}]}, "c"),
        ("diagnose-truth", {"kind": "constant", "p": 2, "value": [1]}, "value"),
        ("diagnose-truth", {"kind": "linear", "intercept": 0.0, "weights": [1, None]},
         "weights"),
        ("diagnose-truth", {"kind": "network", "shape": {"p": 2, "k": 1},
                            "flat_theta": [0.0] * 4 + ["0"]}, "flat_theta"),
        ("train-schema", {"columns": 5}, "columns"),
        ("train-schema", {"columns": [1, 2, 3]}, "columns"),
    ], ids=["model-shape", "model-variational", "config-schedule", "grid-schedule",
            "grid-base", "grid-S", "grid-k", "truth-shape", "config-S-float",
            "config-seed-bool", "model-p-float", "grid-k-float", "grid-folds-bool",
            "model-m-item", "model-columns-item", "model-zeta-bool", "model-stat-string",
            "config-rho-array", "config-rho-bool", "config-kind-array", "config-clip-string",
            "grid-c-bool", "truth-value-array", "truth-weights-item", "truth-theta-item",
            "schema-columns", "schema-columns-item"])
    def test_wrong_kind_names_the_file_and_the_key(self, tmp_path, capsys, workdir,
                                                   use, doc, key):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code = main(json_input_argv(use, str(path), workdir, tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert "in.json" in err and f"key '{key}' must be" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("use, doc, message", [
        ("train-config", {"algo": "bbvi-x"}, "unknown algo 'bbvi-x'"),
        ("train-config", {"schedule": {"kind": "exponential"}},
         "unknown schedule kind 'exponential'"),
        ("train-schema", {"columns": [{"name": "x1", "kind": ["numeric"]}, {"name": "x2"},
                                      {"name": "y", "kind": "label"}]},
         "unknown column kind ['numeric']"),
        ("sweep-grid", {**GRID, "folds": 1}, "folds must be >= 2"),
        ("sweep-grid", {**GRID, "k": 0}, "p and k must be >= 1"),
    ], ids=["config-algo", "config-kind", "schema-kind", "grid-folds", "grid-k"])
    def test_unknown_or_out_of_range_value_names_the_file(self, tmp_path, capsys, workdir,
                                                           use, doc, message):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code = main(json_input_argv(use, str(path), workdir, tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "in.json" in err and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("use, doc, key", [
        ("sweep-grid", {**GRID, "fold": 3}, "fold"),
        ("sweep-grid", {**GRID, "base": {"max_iter": 15}}, "max_iter"),
        ("train-config", {"conv_rel_tol": 1e-4}, "conv_rel_tol"),
        ("train-config", {"schedule": {"kind": "rm", "rho": 0.1}}, "rho"),
        ("train-schema", {"columns": [{"name": "x1", "normalisation": "zscore"},
                                      {"name": "x2"}, {"name": "y", "kind": "label"}]},
         "normalisation"),
        ("predict-model", {**MODEL, "schema": {"columns": [
            {"name": "x1"}, {"name": "x2", "sdev": 1.0}, {"name": "y", "kind": "label"}]}},
         "sdev"),
        ("predict-model", {**MODEL, "shape": {"p": 2, "k": 2, "K": 9}}, "K"),
        ("synth-truth", {"kind": "constant", "p": 2, "value": 1, "typo": 3}, "typo"),
        ("diagnose-truth", {"kind": "constant", "p": 2, "value": 1, "typo": 3}, "typo"),
        ("diagnose-truth", {"kind": "linear", "intercept": 0.0, "weights": [1.0, 1.0],
                            "p": 2}, "p"),
        ("synth-truth", {"kind": "network", "shape": {"p": 2, "k": 1, "q": 3},
                         "flat_theta": [0.0] * 5}, "q"),
        ("diagnose-truth", {"kind": "network", "shape": {"p": 2, "k": 1},
                            "flat_theta": [0.0] * 5, "theta": []}, "theta"),
        ("train-schema", {"columns": [{"name": "x1"}, {"name": "x2"},
                                      {"name": "y", "kind": "label"}], "version": 1},
         "version"),
        ("predict-model", {**MODEL, "posterior": {}}, "posterior"),
        ("predict-model", {**MODEL, "variational": {**MODEL["variational"], "s": [1.0] * 9}},
         "s"),
        ("predict-model", {**MODEL, "prior": {**MODEL["prior"], "sigma": [1.0] * 9}}, "sigma"),
        ("predict-model", {**MODEL, "schema": {**MODEL["schema"], "label": "y"}}, "label"),
    ], ids=["grid-fold", "grid-base", "config-tol", "config-schedule", "schema-column",
            "model-column", "model-shape", "synth-constant", "diagnose-constant",
            "diagnose-linear", "synth-network-shape", "diagnose-network", "schema-top",
            "model-top", "model-variational", "model-prior", "model-schema"])
    def test_unknown_key_names_the_file_and_the_key(self, tmp_path, capsys, workdir,
                                                    use, doc, key):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code = main(json_input_argv(use, str(path), workdir, tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "in.json" in err
        assert "unknown key(s) for " in err and err.rstrip().endswith(f": {key}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("use", ["train-config", "train-schema", "sweep-grid",
                                     "diagnose-truth", "synth-truth", "predict-model",
                                     "evaluate-model", "diagnose-model"])
    @pytest.mark.parametrize("text, message", [
        (b'{"S": 5, "S": 7}', "repeats the key 'S'"),
        (b'{"schedule": {"kind": "rm", "kind": "fixed"}}', "repeats the key 'kind'"),
        (b'{"kind": "caf\xe9"}', "is not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 "
                                 "in position 13: invalid continuation byte"),
    ], ids=["repeated-key", "repeated-nested-key", "not-utf-8"])
    def test_repeated_key_or_non_utf8_text_names_the_file(self, tmp_path, capsys, workdir,
                                                           use, text, message):
        path = tmp_path / "in.json"
        path.write_bytes(text)
        what = use.split("-")[1]
        code = main(json_input_argv(use, str(path), workdir, tmp_path))
        assert code == 1
        assert capsys.readouterr().err == f"error: {what} file {str(path)!r} {message}\n"
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("use, text, key", [
        ("diagnose-truth", '{"kind": "constant", "p": 2, "value": N}', "value"),
        ("synth-truth", '{"kind": "linear", "intercept": 0.0, "weights": [1.0, N]}',
         "weights"),
        ("predict-model", json.dumps({**MODEL, "variational": {
            "m": [0.0] * 8 + ["N"], "r": [0.0] * 9}}).replace('"N"', "N"), "m"),
        ("train-schema", '{"columns": [{"name": "x1", "normalization": "zscore", '
                         '"mean": 0.0, "sd": N}, {"name": "x2"}, '
                         '{"name": "y", "kind": "label"}]}', "sd"),
        ("train-config", '{"schedule": {"kind": "fixed", "rho": N}}', "rho"),
    ], ids=["truth-value", "truth-weights-item", "model-m-item", "schema-sd", "config-rho"])
    @pytest.mark.parametrize("number", ["1e999", "-1e999", "1" + "0" * 400],
                             ids=["1e999", "-1e999", "400-digits"])
    def test_number_no_float_holds_names_the_file_and_the_key(self, tmp_path, capsys,
                                                               workdir, use, text, key,
                                                               number):
        # json reads 1e999 as inf, and a 400-digit integer overflows float()
        path = tmp_path / "in.json"
        path.write_text(text.replace("N", number))
        code = main(json_input_argv(use, str(path), workdir, tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "in.json" in err
        assert f"key '{key}' must be " in err and "finite number" in err
        assert not (tmp_path / "out").exists()

    def test_integer_too_long_to_read_names_the_file(self, tmp_path, capsys, workdir):
        path = tmp_path / "in.json"
        path.write_text('{"kind": "constant", "p": 2, "value": 1' + "0" * 4999 + "}")
        code = main(json_input_argv("diagnose-truth", str(path), workdir, tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: truth file {str(path)!r} is not valid JSON: ")
        assert f"an integer literal over {sys.get_int_max_str_digits()} digits" in err
        assert "set_int_max_str_digits" not in err  # Python's advice to programmers
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("use", ["predict-model", "evaluate-model", "diagnose-model"])
    @pytest.mark.parametrize("column, message", [
        ({"name": "x1", "normalization": "zscore"}, "zscore needs mean and sd"),
        ({"name": "x1", "normalization": "minmax01", "min": 0.0}, "minmax01 needs min and max"),
    ], ids=["zscore", "minmax01"])
    def test_unfitted_schema_names_the_file_and_the_column(self, tmp_path, capsys, workdir,
                                                           use, column, message):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({**MODEL, "schema": {"columns": [
            column, {"name": "x2"}, {"name": "y", "kind": "label"}]}}))
        code = main(json_input_argv(use, str(path), workdir, tmp_path))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: model file {str(path)!r}: column 'x1' is not fitted: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("use", ["predict-model", "train-config", "sweep-grid",
                                     "train-schema", "diagnose-truth"])
    def test_every_field_at_every_value_exits_cleanly(self, tmp_path, capsys, workdir, use):
        # each field of a valid input set to each of FUZZ_VALUES: the command
        # succeeds (exit 0, or 2 for a fit that ran out of iterations) or exits
        # 1 naming the file; it never raises
        valid = {
            "predict-model": lambda: read_json(workdir["model"]),
            "train-config": lambda: CONFIG,
            "sweep-grid": lambda: {**GRID, "base": {"max_iters": 2}},
            "train-schema": lambda: read_json(str(workdir["data"]) + ".schema.json"),
            "diagnose-truth": REFERENCE_TRUTH.to_json_dict,
        }[use]()
        # few draws and iterations, to keep the whole sweep fast
        fast = {"predict-model": ["--M", "5"], "sweep-grid": ["--M", "5"],
                "diagnose-truth": ["--M", "5", "--n-mc", "50"],
                "train-schema": ["--max-iters", "3", "--S", "4", "--k", "2"]}.get(use, [])
        path = tmp_path / "in.json"
        argv = json_input_argv(use, str(path), workdir, tmp_path) + fast
        failures = []
        for field in field_paths(valid):
            for value in FUZZ_VALUES:
                path.write_text(json.dumps(with_field(valid, field, value)))
                try:
                    code = main(argv)
                except Exception as exc:  # any exception is a failure
                    code, err = "raised", repr(exc)
                else:
                    err = capsys.readouterr().err
                if code not in (0, 2) and not (code == 1 and err.startswith("error: ")
                                               and "in.json" in err):
                    failures.append(f"{'.'.join(map(str, field))}={value!r}: {code} {err}")
        assert not failures, "\n".join(failures)


# a valid data file for a model whose schema is x1, a 0/1 flag and the label y
CSV_ROWS = [[b"x1", b"flag", b"y"], [b"0.1", b"0", b"1"], [b"0.5", b"1", b"0"],
            [b"0.9", b"1", b"1"]]

# cells that Python's float reads (as 10 and 1) but that are not plain ASCII numbers
NOT_PLAIN = [b"1_0", "１".encode()]

# the values each data cell is set to in turn
CELL_VALUES = [b"", b" ", b"nan", b"inf", b"-inf", b"1e309", b"x", b'"1"', b"0x10", b"1_0",
               "１".encode(), b'"1,2"', b"-0", b"True", b"2", b"0.5", b"1e-400", b"\xff"]


def csv_bytes(rows, end=b"\n"):
    return b"".join(b",".join(row) + end for row in rows)


# whole-file mutations of a data file's rows
CSV_STRUCTURES = {
    "bom": lambda rows: b"\xef\xbb\xbf" + csv_bytes(rows),
    "cr-line-ends": lambda rows: csv_bytes(rows, end=b"\r"),
    "extra-cell": lambda rows: csv_bytes(rows[:2] + [rows[2] + [b"0"]] + rows[3:]),
    "short-row": lambda rows: csv_bytes(rows[:2] + [rows[2][:-1]] + rows[3:]),
    "unclosed-quote": lambda rows: csv_bytes(rows[:2] + [[b'"' + rows[2][0]] + rows[2][1:]]
                                             + rows[3:]),
    "blank-line": lambda rows: csv_bytes(rows[:2] + [[]] + rows[2:]),
    "header-only": lambda rows: csv_bytes(rows[:1]),
    "empty-file": lambda rows: b"",
    "repeated-header-name": lambda rows: csv_bytes([rows[0][:1] * 2 + rows[0][2:]]
                                                   + rows[1:]),
    "padded-header-names": lambda rows: csv_bytes([[b" " + h + b" " for h in rows[0]]]
                                                  + rows[1:]),
    "utf-16": lambda rows: csv_bytes(rows).decode().encode("utf-16"),
    "cp1252-header": lambda rows: csv_bytes([["âge".encode("cp1252")] + rows[0][1:]]
                                            + rows[1:]),
}


class TestCsvInputs:
    @pytest.mark.parametrize("command", ["train", "predict-full", "predict-features"])
    def test_every_cell_and_structure_exits_cleanly(self, tmp_path, capsys, command):
        # each data cell set to each of CELL_VALUES, and each of CSV_STRUCTURES:
        # the command succeeds (exit 0, or 2 for a fit that ran out of
        # iterations) or exits 1 naming the file, and a bad cell of a UTF-8
        # file is named by its line and column; it never raises, and each of
        # NOT_PLAIN is such a bad cell
        model = tmp_path / "model.json"
        hand_built_model(model, schema_doc={"columns": [
            {"name": "x1"}, {"name": "flag", "kind": "categorical_binary"},
            {"name": "y", "kind": "label"}]})
        data, out = tmp_path / "in.csv", str(tmp_path / "out")
        argv = (["train", "--data", str(data), "--out", out, "--S", "2", "--max-iters", "1",
                 "--k", "1", "--lr", "0.05"] if command == "train" else
                ["predict", "--model", str(model), "--data", str(data), "--out", out,
                 "--M", "1"])
        rows = [row[:2] for row in CSV_ROWS] if command == "predict-features" else CSV_ROWS
        header = [name.decode() for name in rows[0]]

        def run(content):
            data.write_bytes(content)
            try:
                code = main(argv)
            except Exception as exc:  # any exception is a failure
                return "raised", repr(exc)
            return code, capsys.readouterr().err

        failures = []
        for i, j in itertools.product(range(1, len(rows)), range(len(header))):
            for value in CELL_VALUES:
                mutated = [list(row) for row in rows]
                mutated[i][j] = value
                code, err = run(csv_bytes(mutated))
                named = code == 1 and err.startswith("error: ") and str(data) in err
                if value != b"\xff":  # a file that is not UTF-8 has no line to name
                    column = f"column {header[j]!r}" in err or (
                        header[j] == "y" and "label column" in err)
                    named = named and f"line {i + 1}" in err and column
                if (code not in (0, 2) or value in NOT_PLAIN) and not named:
                    failures.append(f"line {i + 1}, {header[j]}={value!r}: {code} {err}")
        for name, mutate in CSV_STRUCTURES.items():
            code, err = run(mutate(rows))
            if code not in (0, 2) and not (code == 1 and err.startswith("error: ")
                                           and str(data) in err):
                failures.append(f"{name}: {code} {err}")
        assert not failures, "\n".join(failures)


NO_SCIPY_RUN = """
import json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
from vbnn.cli import main

d = sys.argv[1]
codes = [
    main(["synth", "--n", "40", "--seed", "1", "--out", d + "/d.csv",
          "--truth-out", d + "/truth.json"]),
    main(["train", "--data", d + "/d.csv", "--out", d + "/fit", "--S", "10",
          "--max-iters", "20", "--k", "2", "--lr", "0.05"]),
    main(["predict", "--model", d + "/fit/model.json", "--data", d + "/d.csv",
          "--out", d + "/p.csv", "--M", "20"]),
    main(["diagnose", "--model", d + "/fit/model.json", "--truth", d + "/truth.json",
          "--out", d + "/diag.json", "--M", "20", "--n-mc", "200"]),
]
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules}))
"""


class TestRuntime:
    def test_commands_run_without_scipy(self, tmp_path):
        proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["codes"][0] == doc["codes"][2] == doc["codes"][3] == 0
        assert doc["codes"][1] in (0, 2)
        assert not doc["scipy"]


class TestLogging:
    def test_info_level_via_environment(self, tmp_path):
        # a subprocess keeps the root logger of the test run untouched
        env = dict(os.environ, VBNN_LOG="info")
        proc = subprocess.run(
            [sys.executable, "-m", "vbnn.cli", "synth", "--n", "5",
             "--out", str(tmp_path / "d.csv")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "INFO vbnn" in proc.stderr
        assert "wrote 5 synthetic rows" in proc.stderr

    def test_quiet_by_default(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "vbnn.cli", "synth", "--n", "5",
             "--out", str(tmp_path / "d.csv")],
            capture_output=True, text=True,
            env={k: v for k, v in os.environ.items() if k != "VBNN_LOG"},
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_unknown_level_is_named_and_the_command_still_runs(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "vbnn.cli", "synth", "--n", "5",
             "--out", str(tmp_path / "d.csv")],
            capture_output=True, text=True, env=dict(os.environ, VBNN_LOG="loud"),
        )
        assert proc.returncode == 0
        assert "unknown VBNN_LOG level 'loud'" in proc.stderr
        assert load_csv(tmp_path / "d.csv")[0].n == 5
