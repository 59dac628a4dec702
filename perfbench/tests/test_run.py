"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

TINY_GRID = dict(n_lat=8, n_lon=16, n_steps=200)
TINY = {
    "toy_train": dict(TINY_GRID, probe_batch=4),
    "toy_ensemble": dict(TINY_GRID, members=3, probe_batch=4),
    "paper_shape": dict(TINY_GRID, n_bins=12, n_blocks=2, batch_size=4, train_samples=8,
                        val_samples=4, test_samples=4, members=2, probe_batch=4),
    "toy_stack": dict(TINY_GRID, epochs=2, batch_size=1024, probe_batch=4),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, sizes in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            dataclasses.replace(workloads.WORKLOADS[name], **sizes))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(run, "REFERENCE_PATH", tmp_path / "ref.json")
    return tmp_path


def _run(capsys, *argv):
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _record(capsys, workload, seed):
    """Store a tiny run's outputs as the reference for its atmosphere."""
    res = _run(capsys, "--workload", workload, "--seed", str(seed), "--seconds", "0",
               "--trace", "0", "--update-reference")
    assert res["failed"] == 0


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    declared = run.declared_metrics()["per_layer" if trace else "end_to_end"]
    _record(capsys, workload, 3)
    res = _run(capsys, "--workload", workload, "--seed", "3", "--seconds", "0",
               "--trace", str(trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 2
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    for value in res["metrics"].values():
        assert isinstance(value["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_self_times_cover_the_unit(tiny, capsys):
    _record(capsys, "toy_train", 1)
    res = _run(capsys, "--workload", "toy_train", "--seed", "1", "--seconds", "0",
               "--trace", "1")
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["autodiff.conv2d.calls"] > 0 and m["nn.adam.steps"] == m["autodiff.backward.calls"]
    assert 0.0 <= m["trace.unattributed_frac"] < 0.5
    record = json.loads(next((tiny / "out").glob("toy_train_*trace1.json")).read_text())
    assert any(s["name"] == "autodiff.conv2d.vjp" for s in record["spans"])


def test_corrupted_reference_counts_as_failed_check(tiny, capsys):
    ref = tiny / "ref.json"
    args = ["--workload", "toy_ensemble", "--seed", "2", "--seconds", "0", "--trace", "0"]
    _record(capsys, "toy_ensemble", 2)
    assert _run(capsys, *args)["failed"] == 0

    stored = json.loads(ref.read_text())
    entry = stored["workloads"]["toy_ensemble"][str(workloads.atmosphere(2))]
    entry["crps"] *= 1.01
    ref.write_text(json.dumps(stored))
    res = _run(capsys, *args)
    assert res["correct"] is False
    assert res["failed"] == res["attempted"] > 0


@pytest.mark.parametrize("stored", [False, True])
def test_missing_reference_counts_as_failed_check(tiny, capsys, stored):
    if stored:  # the file exists but holds no entry for this atmosphere
        _record(capsys, "toy_stack", 4)
    res = _run(capsys, "--workload", "toy_stack", "--seed", "5", "--seconds", "0",
               "--trace", "0")
    assert res["correct"] is False
    assert res["failed"] == res["attempted"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toy_train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
