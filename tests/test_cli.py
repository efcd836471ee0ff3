"""End-to-end CLI behaviour: artifacts, exit codes, error messages."""

import copy
import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from vbnn.cli import main
from vbnn.data import REFERENCE_TRUTH, load_csv, split, write_csv
from vbnn.model import flatten
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
        outs = []
        for threads in ("1", "8"):
            out = tmp_path / f"t{threads}"
            code = main([
                "train", "--data", str(workdir["data"]), "--out", str(out),
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
        ({"kind": "fixed", "rho": 0.01}, ["--schedule", "rm"],
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

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_number_in_config_names_the_file(self, tmp_path, capsys, workdir,
                                                      token):
        # Python's json reads these tokens; a NaN grad_clip once ended in a
        # NonFiniteGradientError traceback at iteration 0
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

    def test_diverging_fit_warns_nothing_and_writes_strict_json(self, tmp_path, capsys):
        # fold 1 of a 3-fold split of the README's training data, at a large
        # fixed rate: the gradient variance overflows to inf at iteration 12
        # and the ELBO itself at iteration 13
        data = tmp_path / "train.csv"
        assert main(["synth", "--n", "800", "--seed", "1000", "--out", str(data)]) == 0
        batch, schema = load_csv(data)
        fold = tmp_path / "fold.csv"
        write_csv(split(batch, 3, 0)[1][0], fold, schema)
        out = tmp_path / "fit"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", "--data", str(fold), "--out", str(out), "--S", "20",
                         "--lr", "0.01", "--k", "3", "--seed", "0"])
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


class TestServingThreads:
    def test_threads_flag_does_not_change_outputs(self, tmp_path, workdir):
        def serve(threads):
            out = tmp_path / f"t{threads}"
            out.mkdir()
            common = ["--model", str(workdir["model"]), "--M", "40", "--seed", "6",
                      "--threads", threads]
            assert main(["predict", "--data", str(workdir["data"]),
                         "--out", str(out / "predictions.csv")] + common) == 0
            assert main(["evaluate", "--data", str(workdir["data"]),
                         "--out", str(out / "eval.json")] + common) == 0
            assert main(["diagnose", "--truth", "reference", "--n-mc", "300",
                         "--out", str(out / "diag.json")] + common) == 0
            return {name: (out / name).read_bytes()
                    for name in ("predictions.csv", "eval.json", "diag.json")}

        assert serve("1") == serve("8")


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
        assert [*rows[0]] == ["S", "schedule", "algo", "accuracy_mean",
                              "accuracy_sd", "iterations_mean", "wall_time_s"]
        assert 0.0 <= float(rows[0]["accuracy_mean"]) <= 1.0
        assert rows[0]["S"] == "8"

    def test_diverged_fold_is_an_error(self, tmp_path, capsys):
        # on the README's training data, fold 1 of this cell diverges at
        # iteration 13 (the fit of TestTrain's diverging-fit test)
        data = tmp_path / "train.csv"
        assert main(["synth", "--n", "800", "--seed", "1000", "--out", str(data)]) == 0
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"S": [20], "schedule": [{"kind": "fixed", "rho": 0.01}],
                                    "algo": ["bbvi"], "k": 3, "folds": 3}))
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--grid", str(grid), "--data", str(data), "--out", str(out),
                     "--seed", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert "diverged" in err and "at iteration 13" in err
        assert "S=20, schedule fixed(rho=0.01), algo bbvi, on fold 1" in err
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

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: vbnn")

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
        ("train-config", {"schedule": {"rho": True}}, "rho"),
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
        ("sweep-grid", {**GRID, "folds": 1}, "kfold needs at least 2 folds"),
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
    ], ids=["grid-fold", "grid-base", "config-tol", "config-schedule", "schema-column",
            "model-column", "model-shape", "synth-constant", "diagnose-constant",
            "diagnose-linear", "synth-network-shape", "diagnose-network"])
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
