"""End-to-end CLI behaviour: artifacts, exit codes, error messages."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from vbnn.cli import main
from vbnn.data import load_csv
from vbnn.model import flatten
from vbnn.prediction import PredictiveConfig, predictive_probabilities
from vbnn.variational import VariationalParams, softplus_inverse


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

    def test_unknown_config_keys_are_named(self, tmp_path, capsys, workdir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prior": {"zeta": 5.0}, "max_iter": 8, "k": 2}))
        out = tmp_path / "m"
        code = main(["train", "--data", str(workdir["data"]), "--config", str(cfg),
                     "--out", str(out)])
        assert code == 1
        assert "unknown training config key(s): max_iter, prior" in capsys.readouterr().err
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
         {"kind": "rm", "rho0": 2.0, "b": 100.0, "c": 0.5, "strict_rm": False}),
        ({"kind": "fixed", "rho": 0.01}, ["--schedule", "robbins_monro"],
         {"kind": "rm", "rho0": 1.0, "b": 100.0, "c": 0.3, "strict_rm": False}),
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

    def test_flags_of_two_schedule_kinds_are_rejected(self, tmp_path, capsys, workdir):
        out = tmp_path / "m"
        code = main(["train", "--data", str(workdir["data"]), "--out", str(out),
                     "--lr", "0.01", "--rho0", "2"])
        assert code == 1
        assert "fixed and rm" in capsys.readouterr().err
        assert not out.exists()


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
        q = VariationalParams.from_json_dict(doc["variational"])
        batch, _ = load_csv(workdir["data"])
        expected = predictive_probabilities(
            q, batch.x, PredictiveConfig(M=50, seed=11)
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

    def test_empty_grid_is_an_error(self, tmp_path, capsys, workdir):
        grid = tmp_path / "grid.json"
        grid.write_text("{}")
        code = main(["sweep", "--grid", str(grid), "--data", str(workdir["data"]),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "empty grid" in capsys.readouterr().err


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
