import argparse
import hashlib
import json
import shutil
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from probcast.cli import _load_learners, build_parser, main
from probcast.ensemble import EnsembleSet, ensemble_spread
from probcast.gfb import load_dataset
from probcast.grid import (SPLIT_NAMES, GridSpec, SplitPlan, climatology,
                           persistence_forecast)
from probcast.verification import weighted_rmse


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


SPLIT = (0.6, 0.1, 0.15, 0.15)
REQUIRED = (None, True, None, None, "_StoreAction")
SEED = (None, True, "int", None, "_StoreAction")
# option: (default, required, type name, choices, action class), per command
FLAG_TABLE = {
    "synth": {
        "--out": REQUIRED, "--seed": SEED,
        "--nlat": (16, False, "int", None, "_StoreAction"),
        "--nlon": (32, False, "int", None, "_StoreAction"),
        "--steps": (2000, False, "int", None, "_StoreAction"),
        "--step-hours": (6, False, "int", None, "_StoreAction"),
        "--amplitude": (1.0, False, "float", None, "_StoreAction"),
    },
    "train": {
        "--data": REQUIRED, "--out": REQUIRED, "--seed": SEED,
        "--inputs": ("z:500,t:850", False, "_parse_varlist", None, "_StoreAction"),
        "--target": ("z:500", False, "_parse_channel", None, "_StoreAction"),
        "--lead-hours": (72, False, "int", None, "_StoreAction"),
        "--blocks": (2, False, "int", None, "_StoreAction"),
        "--bins": (10, False, "int", None, "_StoreAction"),
        "--kernel": (5, False, "int", None, "_StoreAction"),
        "--dropout": (0.1, False, "float", None, "_StoreAction"),
        "--split": (SPLIT, False, "_parse_split", None, "_StoreAction"),
        "--lr": (1e-3, False, "positive float", None, "_StoreAction"),
        "--epochs": (20, False, "positive int", None, "_StoreAction"),
        "--batch-size": (32, False, "positive int", None, "_StoreAction"),
    },
    "ensemble": {
        "--data": REQUIRED, "--model": REQUIRED, "--out": REQUIRED, "--seed": SEED,
        "--members": (32, False, "positive int", None, "_StoreAction"),
        "--split": (SPLIT, False, "_parse_split", None, "_StoreAction"),
        "--split-name": ("test", False, None, SPLIT_NAMES, "_StoreAction"),
    },
    "stack": {"--learners": REQUIRED, "--out": REQUIRED, "--seed": SEED},
    "evaluate": {
        "--ensemble": (None, False, None, None, "_StoreAction"),
        "--stack": (None, False, None, None, "_StoreAction"),
        "--learners": (None, False, None, None, "_StoreAction"),
        "--out": REQUIRED,
        "--no-reference": (False, False, None, None, "_StoreTrueAction"),
    },
    "baselines": {
        "--data": REQUIRED,
        "--target": ("z:500", False, "_parse_channel", None, "_StoreAction"),
        "--lead-hours": (72, False, "int", None, "_StoreAction"),
        "--split": (SPLIT, False, "_parse_split", None, "_StoreAction"),
        "--split-name": ("test", False, None, SPLIT_NAMES, "_StoreAction"),
        "--out": (None, False, None, None, "_StoreAction"),
    },
    "explore": {
        "--data": REQUIRED, "--out": REQUIRED, "--seed": SEED,
        "--base-inputs": ("z:500,t:850", False, "_parse_varlist", None, "_StoreAction"),
        "--target": ("z:500", False, "_parse_channel", None, "_StoreAction"),
        "--levels": (None, True, "_parse_candidates", None, "_StoreAction"),
        "--lead-hours": (72, False, "int", None, "_StoreAction"),
        "--blocks": (1, False, "int", None, "_StoreAction"),
        "--bins": (10, False, "int", None, "_StoreAction"),
        "--members": (8, False, "positive int", None, "_StoreAction"),
        "--split": (SPLIT, False, "_parse_split", None, "_StoreAction"),
        "--lr": (1e-3, False, "positive float", None, "_StoreAction"),
        "--epochs": (8, False, "positive int", None, "_StoreAction"),
        "--batch-size": (32, False, "positive int", None, "_StoreAction"),
    },
    "contours": {
        "--ensemble": REQUIRED, "--out": REQUIRED,
        "--sample": (0, False, "int", None, "_StoreAction"),
        "--threshold": (None, True, "float", None, "_StoreAction"),
        "--contour-levels": ("0.1,0.5,0.9", False, "_parse_floats", None, "_StoreAction"),
    },
}


def test_flag_table():
    """Every command's flags keep their defaults, requiredness, types and choices."""
    def type_name(parse):
        if parse is None:
            return None
        if parse.__name__ == "positive":  # _positive(cast): name the cast too
            return f"positive {type(parse('1')).__name__}"
        return parse.__name__

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    table = {name: {a.option_strings[0]: (a.default, a.required, type_name(a.type),
                                          a.choices, type(a).__name__)
                    for a in parser._actions if not isinstance(a, argparse._HelpAction)}
             for name, parser in sub.choices.items()}
    assert table == FLAG_TABLE


@pytest.mark.parametrize("cmd", ["ensemble --model m.pwnn --seed 1", "baselines"])
def test_unknown_split_name_is_usage_error(cmd, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*cmd.split(), "--data", tmp_path / "absent.gfb", "--out", tmp_path / "o",
            "--split-name", "nope")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "nope" in err and all(name in err for name in SPLIT_NAMES)


def test_split_names_are_the_split_plan_fields():
    assert SPLIT_NAMES == tuple(f.name for f in fields(SplitPlan))


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

    @pytest.mark.parametrize("flags", [("--ensemble", "--stack"), ()],
                             ids=["both", "neither"])
    def test_evaluate_scores_exactly_one_of_ensemble_or_stack(self, pipeline, flags,
                                                              tmp_path):
        root, _ = pipeline
        paths = {"--ensemble": root / "m1_test", "--stack": root / "stack" / "stack.pwnn"}
        out = tmp_path / "eval"
        with pytest.raises(SystemExit) as exc:
            run("evaluate", *[a for f in flags for a in (f, paths[f])],
                "--learners", f"{root / 'm1_test'},{root / 'm2_test'}", "--out", out)
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("scored", ["--ensemble", "--stack"])
    def test_evaluate_learners_go_with_stack_only(self, pipeline, scored, tmp_path,
                                                  capsys):
        """--ensemble with --learners, or --stack without it, is a usage error."""
        root, _ = pipeline
        out = tmp_path / "eval"
        args = {"--ensemble": ["--ensemble", root / "m1_test",
                               "--learners", tmp_path / "absent"],
                "--stack": ["--stack", root / "stack" / "stack.pwnn"]}[scored]
        with pytest.raises(SystemExit) as exc:
            run("evaluate", *args, "--out", out)
        assert exc.value.code == 2
        assert "--learners" in capsys.readouterr().err
        assert not out.exists()

    def test_ensemble_takes_member_expectations_once(self, pipeline, tmp_path,
                                                     monkeypatch):
        root, data = pipeline
        calls = []
        member_expectations = EnsembleSet.member_expectations

        def counted(ens):
            calls.append(ens)
            return member_expectations(ens)

        monkeypatch.setattr(EnsembleSet, "member_expectations", counted)
        out = tmp_path / "e"
        assert run("ensemble", "--data", data, "--split", "0.6,0.1,0.15,0.15",
                   "--model", root / "m1" / "model.pwnn", "--members", 6,
                   "--seed", 9, "--out", out) == 0
        assert len(calls) == 1
        monkeypatch.undo()
        ens = calls[0]
        _, spread = ensemble_spread(ens, load_dataset(data).grid)
        saved = np.load(out / "member_expectations.npy")
        assert saved.tobytes() == ens.member_expectations().tobytes()
        assert json.loads((out / "manifest.json").read_text())["spread"] == spread

    def test_ensemble_summary_shows_zero_spread(self, pipeline, tmp_path, capsys):
        _, data = pipeline
        # a dropout rate this small drops nothing, so both members are one forecast
        assert run("train", "--data", data, "--seed", 1, "--bins", 5, "--blocks", 1,
                   "--epochs", 1, "--dropout", "1e-12", "--out", tmp_path / "m") == 0
        capsys.readouterr()
        assert run("ensemble", "--data", data, "--model", tmp_path / "m" / "model.pwnn",
                   "--members", 2, "--seed", 9, "--out", tmp_path / "e") == 0
        assert json.loads((tmp_path / "e" / "manifest.json").read_text())["spread"] == 0.0
        assert ", spread 0\n" in capsys.readouterr().out

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

    def test_stack_refuses_learner_listed_twice(self, pipeline, tmp_path):
        root, _ = pipeline
        learner = root / "m1_stacked_validation"
        out = tmp_path / "stack"
        with pytest.raises(SystemExit, match="listed twice"):
            run("stack", "--learners", f"{learner},{learner}", "--seed", 3,
                "--out", out)
        assert not (out / "stack.pwnn").exists()

    @pytest.mark.parametrize("cmd", [["evaluate"],
                                     ["contours", "--sample", 0, "--threshold", 0]],
                             ids=["evaluate", "contours"])
    def test_refuses_negative_mass_density(self, pipeline, cmd, tmp_path, capsys):
        root, _ = pipeline
        shutil.copytree(root / "m1_test", tmp_path / "m1_test")
        path = tmp_path / "m1_test" / "pooled_probs.npy"
        probs = np.load(path)
        probs[..., 0] -= 0.5
        probs[..., 1] += 0.5
        assert probs.min() < 0
        np.save(path, probs)
        out = tmp_path / "out"
        assert run(*cmd, "--ensemble", tmp_path / "m1_test", "--out", out) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("spread", [-50.0, float("nan"), float("inf"), "1.0", True],
                             ids=["negative", "nan", "inf", "string", "bool"])
    def test_evaluate_refuses_bad_manifest_spread(self, pipeline, spread, tmp_path,
                                                  capsys):
        root, _ = pipeline
        shutil.copytree(root / "m1_test", tmp_path / "m1_test")
        path = tmp_path / "m1_test" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["spread"] = spread
        path.write_text(json.dumps(manifest))
        out = tmp_path / "eval"
        assert run("evaluate", "--ensemble", tmp_path / "m1_test", "--out", out) == 1
        assert "ensemble spread" in capsys.readouterr().err.partition("error: ")[2]
        assert not out.exists()

    @pytest.mark.parametrize("edit", [lambda b: b.pop("v_min"),
                                      lambda b: b.update(width=1.0),
                                      lambda b: b.update(v_max="x")],
                             ids=["missing", "unknown", "ill-typed"])
    def test_evaluate_refuses_bad_manifest_bin_spec(self, pipeline, edit,
                                                    tmp_path, capsys):
        root, _ = pipeline
        shutil.copytree(root / "m1_test", tmp_path / "m1_test")
        path = tmp_path / "m1_test" / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest["binspec"])
        path.write_text(json.dumps(manifest))
        out = tmp_path / "eval"
        assert run("evaluate", "--ensemble", tmp_path / "m1_test", "--out", out) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("cmd", [
        ["train", "--epochs", 0],
        ["explore", "--levels", "z:850", "--epochs", 0],
        ["train", "--batch-size", 0],
        ["explore", "--levels", "z:850", "--batch-size", 0],
        ["ensemble", "--model", "m1/model.pwnn", "--members", 0],
        ["explore", "--levels", "z:850", "--members", 0],
        ["train", "--lr=-2e-3"],
        ["train", "--lr", 0],
        ["train", "--lr", "nan"],
        ["explore", "--levels", "z:850", "--lr=-2e-3"],
        ["explore", "--levels", "z:850", "--lr", "inf"],
        ["train", "--mode", "categorical"],
    ])
    def test_epochs_below_one_is_usage_error(self, pipeline, cmd, tmp_path):
        root, data = pipeline
        cmd = [root / a if a == "m1/model.pwnn" else a for a in cmd]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(*cmd, "--data", data, "--seed", 1, "--out", out)
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("dropout", ["--dropout=-0.3", "--dropout=nan"])
    def test_train_refuses_dropout_outside_unit_interval(self, pipeline, dropout,
                                                         tmp_path, capsys):
        _, data = pipeline
        out = tmp_path / "out"
        assert run("train", dropout, "--data", data, "--seed", 1, "--out", out) == 1
        assert capsys.readouterr().err.startswith("error: dropout rate")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, field", [("--bins", "0", "n_bins"),
                                                   ("--inputs", ",", "inputs"),
                                                   ("--kernel", "-1", "kernel")])
    def test_train_refuses_impossible_config(self, pipeline, flag, value, field,
                                             tmp_path, capsys):
        _, data = pipeline
        out = tmp_path / "out"
        assert run("train", f"{flag}={value}", "--data", data, "--seed", 1,
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("cmd, flag", [
        (["train", "--inputs", "z"], "--inputs"),
        (["train", "--target", "z"], "--target"),
        (["train", "--target", "z:500,t:850"], "--target"),
        (["baselines", "--target", "z"], "--target"),
        (["explore", "--base-inputs", "z", "--levels", "z:850"], "--base-inputs"),
        (["explore", "--levels", "z"], "--levels"),
        (["contours", "--contour-levels", "0.1,x"], "--contour-levels"),
        (["explore", "--levels", ";"], "--levels"),
        (["explore", "--levels", "+"], "--levels"),
    ])
    def test_malformed_channel_flag_is_usage_error(self, pipeline, cmd, flag, tmp_path,
                                                   capsys):
        root, data = pipeline
        needs = {"train": ["--data", data, "--seed", 1],
                 "baselines": ["--data", data],
                 "explore": ["--data", data, "--seed", 1],
                 "contours": ["--ensemble", root / "m1_test", "--threshold", 0]}
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(*cmd, *needs[cmd[0]], "--out", out)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_baselines_command(self, pipeline, capsys):
        root, data = pipeline
        assert run("baselines", "--data", data, "--target", "z:500",
                   "--lead-hours", 72, "--split", "0.6,0.1,0.15,0.15",
                   "--split-name", "test") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["persistence_rmse"] > 0
        assert out["climatology_rmse"] > 0

    def test_baselines_equal_direct_scores(self, pipeline, capsys):
        _, data = pipeline
        assert run("baselines", "--data", data, "--target", "z:500",
                   "--lead-hours", 72, "--split-name", "test") == 0
        out = json.loads(capsys.readouterr().out)
        ds = load_dataset(data)
        splits = SplitPlan.from_fractions(ds.n_time)
        pred, truth = persistence_forecast(ds, "z", 500, 72, splits.test)
        clim = climatology(ds, "z", 500, splits.train).values
        assert out["persistence_rmse"] == weighted_rmse(pred, truth, ds.grid)
        assert out["climatology_rmse"] == weighted_rmse(
            np.repeat(clim[None], len(truth), axis=0), truth, ds.grid)

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


def test_load_learners_holds_one_density_at_a_time(tmp_path):
    """Each learner's density is freed before the next one loads."""
    rng = np.random.default_rng(0)
    grid = GridSpec.regular(8, 16)
    dirs = []
    for name in ("a", "b"):
        probs = rng.random((32, 8, 16, 100))
        probs /= probs.sum(axis=-1, keepdims=True)
        d = tmp_path / name
        d.mkdir()
        np.save(d / "pooled_probs.npy", probs)
        np.save(d / "truth.npy", np.zeros(probs.shape[:-1]))
        (d / "manifest.json").write_text(json.dumps({
            "binspec": {"v_min": 0.0, "v_max": 1.0, "n_bins": 100},
            "latitudes_deg": grid.latitudes_deg.tolist(),
            "longitudes_deg": grid.longitudes_deg.tolist()}))
        dirs.append(str(d))
    tracemalloc.start()
    try:
        outputs = _load_learners(",".join(dirs))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(outputs) == 2
    assert peak <= 1.3 * probs.nbytes, peak / probs.nbytes


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
