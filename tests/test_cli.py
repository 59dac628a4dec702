import hashlib
import json
import shutil

import numpy as np
import pytest

from probcast.cli import main
from probcast.gfb import load_dataset


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*args):
    return main([str(a) for a in args])


class TestSynthCommand:
    def test_same_flags_identical_files(self, tmp_path):
        a, b = tmp_path / "a.gfb", tmp_path / "b.gfb"
        assert run("synth", "--seed", 7, "--nlat", 8, "--nlon", 16,
                   "--steps", 50, "--out", a) == 0
        assert run("synth", "--seed", 7, "--nlat", 8, "--nlon", 16,
                   "--steps", 50, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_steps_is_usage_error(self, tmp_path, capsys):
        rc = run("synth", "--seed", 1, "--steps", 0, "--out", tmp_path / "x.gfb")
        assert rc != 0
        assert "error" in capsys.readouterr().err

    def test_generated_file_passes_validation(self, tmp_path):
        out = tmp_path / "toy.gfb"
        assert run("synth", "--seed", 3, "--nlat", 6, "--nlon", 12,
                   "--steps", 30, "--out", out) == 0
        ds = load_dataset(out)
        assert ds.n_time == 30


class TestHelp:
    @pytest.mark.parametrize("cmd", ["synth", "train", "ensemble", "stack",
                                     "evaluate", "baselines", "explore",
                                     "contours"])
    def test_help_exits_zero_and_lists_flags(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            run(cmd, "--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train x2 -> ensemble x2 -> stack -> evaluate, at smoke scale."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "toy.gfb"
    split = "0.6,0.1,0.15,0.15"
    assert run("synth", "--seed", 5, "--nlat", 8, "--nlon", 16, "--steps", 400,
               "--out", data) == 0
    common = ["--data", data, "--split", split, "--lead-hours", 72,
              "--bins", 5, "--blocks", 1, "--lr", "2e-3", "--epochs", 6]
    assert run("train", *common, "--seed", 1, "--inputs", "z:500,t:850",
               "--target", "z:500", "--out", root / "m1") == 0
    assert run("train", *common, "--seed", 2, "--inputs", "z:500,t:850,z:850",
               "--target", "z:500", "--out", root / "m2") == 0
    for name in ("m1", "m2"):
        for split_name in ("stacked_validation", "test"):
            assert run("ensemble", "--data", data, "--split", split,
                       "--model", root / name / "model.pwnn",
                       "--members", 6, "--seed", 9,
                       "--split-name", split_name,
                       "--out", root / f"{name}_{split_name}") == 0
    assert run("stack", "--learners",
               f"{root / 'm1_stacked_validation'},{root / 'm2_stacked_validation'}",
               "--seed", 3, "--out", root / "stack") == 0
    return root, data


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        root, _ = pipeline
        assert (root / "m1" / "model.pwnn").exists()
        assert (root / "m1" / "history.csv").exists()
        assert (root / "m1_test" / "pooled_probs.npy").exists()
        assert (root / "stack" / "stack.pwnn").exists()

    def test_ensemble_manifest_has_seeds(self, pipeline):
        root, _ = pipeline
        manifest = json.loads((root / "m1_test" / "manifest.json").read_text())
        assert manifest["n_members"] == 6
        assert len(manifest["member_seeds"]) == 6
        assert manifest["binspec"]["n_bins"] == 5

    def test_evaluate_ensemble_report_fully_populated(self, pipeline):
        root, _ = pipeline
        out = root / "eval_m1"
        assert run("evaluate", "--ensemble", root / "m1_test", "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        for key in ("weighted_rmse", "weighted_mse", "mse_ci", "mean_crps",
                    "coverage", "topk", "spread", "spread_skill", "variable",
                    "lead_hours", "n_samples", "split"):
            assert key in report
            assert report[key] is not None
        assert set(report["coverage"]) == {"ci95", "ci99", "sigma1", "sigma2"}
        assert set(report["topk"]) == {"1", "2", "3", "4", "5"}
        assert "reference (not reproduced)" in (out / "report.txt").read_text()

    def test_evaluate_reruns_byte_identical(self, pipeline):
        root, _ = pipeline
        out1, out2 = root / "eval_a", root / "eval_b"
        assert run("evaluate", "--ensemble", root / "m1_test", "--out", out1) == 0
        assert run("evaluate", "--ensemble", root / "m1_test", "--out", out2) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()

    def test_evaluate_stack(self, pipeline):
        root, _ = pipeline
        out = root / "eval_stack"
        learners = f"{root / 'm1_test'},{root / 'm2_test'}"
        assert run("evaluate", "--stack", root / "stack" / "stack.pwnn",
                   "--learners", learners, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["weighted_rmse"] > 0

    @pytest.mark.parametrize("altered", [("m2_test",), ("m1_test", "m2_test")])
    def test_evaluate_stack_refuses_other_bin_spec(self, pipeline, altered,
                                                   tmp_path):
        root, _ = pipeline
        dirs = {name: root / name for name in ("m1_test", "m2_test")}
        for name in altered:
            dirs[name] = tmp_path / name
            shutil.copytree(root / name, dirs[name])
            manifest = json.loads((dirs[name] / "manifest.json").read_text())
            manifest["binspec"]["v_max"] += 1.0
            (dirs[name] / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "eval"
        with pytest.raises(SystemExit, match="bin spec"):
            run("evaluate", "--stack", root / "stack" / "stack.pwnn", "--learners",
                f"{dirs['m1_test']},{dirs['m2_test']}", "--out", out)
        assert not out.exists()

    @pytest.mark.parametrize("cmd", [
        ["train", "--epochs", 0],
        ["explore", "--levels", "z:850", "--epochs", 0],
        ["train", "--batch-size", 0],
        ["explore", "--levels", "z:850", "--batch-size", 0],
        ["ensemble", "--model", "m1/model.pwnn", "--members", 0],
        ["explore", "--levels", "z:850", "--members", 0],
    ])
    def test_epochs_below_one_is_usage_error(self, pipeline, cmd, tmp_path):
        root, data = pipeline
        cmd = [root / a if a == "m1/model.pwnn" else a for a in cmd]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(*cmd, "--data", data, "--seed", 1, "--out", out)
        assert exc.value.code == 2
        assert not out.exists()

    def test_baselines_command(self, pipeline, capsys):
        root, data = pipeline
        assert run("baselines", "--data", data, "--target", "z:500",
                   "--lead-hours", 72, "--split", "0.6,0.1,0.15,0.15",
                   "--split-name", "test") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["persistence_rmse"] > 0
        assert out["climatology_rmse"] > 0

    def test_contours_emits_three_level_groups(self, pipeline, capsys):
        root, _ = pipeline
        out = root / "contours"
        manifest = json.loads((root / "m1_test" / "manifest.json").read_text())
        mid = (manifest["binspec"]["v_min"] + manifest["binspec"]["v_max"]) / 2
        assert run("contours", "--ensemble", root / "m1_test", "--sample", 0,
                   "--threshold", mid, "--contour-levels", "0.1,0.5,0.9",
                   "--out", out) == 0
        csv = (out / "contours.csv").read_text()
        levels = {line.split(",")[0] for line in csv.strip().split("\n")[1:]}
        assert levels == {"0.1", "0.5", "0.9"}
        assert (out / "contours.svg").read_text().startswith("<svg")

    def test_commands_do_not_mutate_inputs(self, pipeline):
        root, data = pipeline
        before = sha(data)
        assert run("evaluate", "--ensemble", root / "m1_test",
                   "--out", root / "eval_c") == 0
        assert sha(data) == before

    def test_missing_input_gives_clean_error(self, tmp_path, capsys):
        rc = run("evaluate", "--ensemble", tmp_path / "nope", "--out",
                 tmp_path / "out")
        assert rc != 0
        assert "error" in capsys.readouterr().err


class TestExploreCommand:
    def test_explore_writes_reports(self, tmp_path, capsys):
        data = tmp_path / "toy.gfb"
        assert run("synth", "--seed", 11, "--nlat", 6, "--nlon", 12,
                   "--steps", 200, "--out", data) == 0
        out = tmp_path / "explore"
        assert run("explore", "--data", data, "--seed", 0,
                   "--base-inputs", "z:500,t:850", "--target", "z:500",
                   "--levels", "z:850;z:850+t:500", "--lead-hours", 72,
                   "--blocks", 1, "--bins", 5, "--members", 2,
                   "--epochs", 2, "--out", out) == 0
        rows = json.loads((out / "importance.json").read_text())["rows"]
        assert len(rows) == 2
        assert sum(r["selected"] for r in rows) == 1
        assert (out / "importance.csv").exists()
        manifest = json.loads((out / "explore_manifest.json").read_text())
        assert len(manifest["experiments"]) == 3  # benchmark + 2 candidates
