"""probcast benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload toy_train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
Metric names and units come from BENCHMARK.json. Human-readable lines go
first; the last line of standard output is the JSON result. With --trace 1
the run also writes its spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_UNITS = 2
# Relative tolerance of the reference check; training amplifies last-bit changes.
RTOL = 1e-4


def _limit_blas_threads():
    """No more BLAS threads than cores; must run before numpy is imported."""
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= ncpu:
            os.environ[var] = str(ncpu)
    return ncpu


NPROC = _limit_blas_threads()

if not (ROOT / "src" / "probcast" / "__init__.py").is_file():
    sys.exit(f"probcast sources not found under {ROOT / 'src'}; "
             "run from the root of a probcast checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import probcast  # noqa: E402
from probcast import autodiff  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = sorted((ROOT / "src" / "probcast").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": workloads.digest([np.frombuffer(p.read_bytes(), np.uint8) for p in src]),
        "probcast": probcast.__version__,
        "seed": seed,
        "atmosphere": workloads.atmosphere(seed),
    }


def declared_metrics() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]}}


def load_reference() -> dict:
    """Stored outputs per workload and atmosphere; empty when the file is missing."""
    return json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() else {}


def conv_probe(shape, repeats: int = 5) -> dict:
    """Median ms of one conv2d forward and of its backward, called directly."""
    B, C_in, C_out, H, W, k = shape
    rng = np.random.default_rng(0)
    x = autodiff.Tensor(rng.standard_normal((B, C_in, H, W)).astype(np.float32),
                        requires_grad=True)
    w = autodiff.Tensor((0.1 * rng.standard_normal((C_out, C_in, k, k))).astype(np.float32),
                        requires_grad=True)
    b = autodiff.Tensor(np.zeros(C_out, np.float32), requires_grad=True)
    fwd, vjp = [], []
    for _ in range(repeats + 1):  # the first pass warms caches and is dropped
        t0 = time.perf_counter()
        y = autodiff.conv2d(x, w, b)
        t1 = time.perf_counter()
        loss = autodiff.tensor_sum(y)
        t2 = time.perf_counter()
        loss.backward()
        t3 = time.perf_counter()
        fwd.append(t1 - t0)
        vjp.append(t3 - t2)
    return {"fwd_ms": 1e3 * statistics.median(fwd[1:]),
            "vjp_ms": 1e3 * statistics.median(vjp[1:])}


def conv_probe_one_thread(shape) -> dict:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--conv-probe",
           ",".join(str(s) for s in shape)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class Runner:
    """Set-up repeats, timed units, checks and the derived metrics of one run."""

    def __init__(self, name, spec, seed, reference, recording, tracer=None):
        self.name, self.spec, self.seed = name, spec, seed
        self.atm = workloads.atmosphere(seed)
        self.reference = reference.get("workloads", {}).get(name, {}).get(str(self.atm))
        self.recording = recording    # storing this run's outputs: nothing to compare to
        self.tracer = tracer
        self.units = []       # per unit: wall, phases, scores, failures, traced flag
        self.first = None
        self.state = None

    def setup(self, work) -> list:
        times = []
        for i in range(SETUP_REPEATS):
            self.state = None
            root = self.tracer.begin(f"setup-{i}", "bench.setup") if self.tracer else None
            t0 = time.perf_counter()
            self.state = workloads.setup(self.spec, self.atm, work)
            times.append(time.perf_counter() - t0)
            if self.tracer:
                self.tracer.end(root)
        return times

    def run_units(self, seconds: float, min_units: int, traced: bool):
        walls = []
        t_start = time.perf_counter()
        while (len(walls) < min_units
               or time.perf_counter() - t_start + statistics.median(walls) <= seconds):
            run_id = f"unit-{len(self.units)}"
            root = self.tracer.begin(run_id, "bench.unit") if traced else None
            t0 = time.perf_counter()
            raw = workloads.unit(self.spec, self.state)
            wall = time.perf_counter() - t0
            if traced:
                self.tracer.end(root)
            walls.append(wall)
            res = workloads.outcome(self.spec, self.state, raw)
            fails = workloads.check(res, self.first)
            if not self.recording:
                fails += workloads.check_reference(res, self.reference, RTOL)
            if self.first is None:
                self.first = res
            res.pop("density")
            self.units.append({"run": run_id, "wall_s": wall, "traced": traced,
                               "phases": raw["phases"], "failures": fails, **res})
            print(f"unit {run_id}: wall {wall:.4f} s, log_score {res['log_score']!r}, "
                  f"crps {res['crps']!r}, sha256 {res['sha256'][:16]}"
                  + (f", FAILED: {'; '.join(fails)}" if fails else ""), flush=True)

    def phase_metrics(self, units) -> dict:
        """The workload's phase throughputs and scores, as medians over units."""
        def med(fn):
            vals = [fn(u) for u in units]
            vals = [v for v in vals if v is not None]
            return statistics.median(vals) if vals else 0.0

        def rate(u, key):
            ph = u["phases"]
            return ph[key + "_items"] / ph[key + "_s"] if key + "_s" in ph else None

        primary = workloads.PRIMARY[self.spec.kind]
        return {
            "wall_s": med(lambda u: u["wall_s"]),
            "items_per_s": med(lambda u: rate(u, primary)),
            "log_score": med(lambda u: u["log_score"]),
            "train_samples_per_s": med(lambda u: rate(u, "train")),
            "ensemble_member_samples_per_s": med(lambda u: rate(u, "ensemble")),
            "stack_rows_per_s": med(lambda u: rate(u, "stack")),
            "verify_s": med(lambda u: u["phases"].get("verify_s")),
            "crps": med(lambda u: u["crps"]),
        }

    def counts(self):
        failed = sum(1 for u in self.units if u["failures"])
        return len(self.units), failed


def per_layer(tracer, setup_ids, unit_ids, names) -> dict:
    """Per-layer metrics from spans: '<span>_s' inclusive, '<span>.self_s',
    '<span>.calls', or a counter; set-up layers average over set-up runs."""
    scopes = {"setup": tracer.summary(setup_ids), "unit": tracer.summary(unit_ids)}
    aliases = {"autodiff.conv2d.calls": "autodiff.conv2d.fwd.calls",
               "nn.adam.steps": "nn.adam.step.calls"}
    setup_layers = ("synth.", "gfb.", "checkpoint.", "binning.fit_bins", "resnet.build_samples")
    out = {}
    for name in names:
        summ = scopes["setup" if name.startswith(setup_layers) else "unit"]
        key = aliases.get(name, name)
        table, counters = summ["spans"], summ["counters"]
        if key in counters:
            out[name] = counters[key]
        elif key.endswith(".self_s"):
            out[name] = table.get(key[:-7], {}).get("self_s", 0.0)
        elif key.endswith(".calls"):
            out[name] = float(table.get(key[:-6], {}).get("calls", 0))
        elif key.endswith("_s"):
            out[name] = table.get(key[:-2], {}).get("incl_s", 0.0)
        else:
            out[name] = 0.0
    return out


def layer_table(tracer, unit_ids) -> str:
    table = tracer.summary(unit_ids)["spans"]
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"{'span':<34} {'calls':>8} {'incl s':>10} {'self s':>10}"]
    lines += [f"{name:<34} {r['calls']:>8.0f} {r['incl_s']:>10.4f} {r['self_s']:>10.4f}"
              for name, r in rows]
    return "\n".join(lines)


def result_line(correct, attempted, failed, values, units) -> str:
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run(args) -> int:
    declared = declared_metrics()
    spec = workloads.WORKLOADS[args.workload]
    reference = load_reference()
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    tracer = spans.Tracer() if args.trace else None
    runner = Runner(args.workload, spec, args.seed, reference, args.update_reference, tracer)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "env": env, "trace": args.trace}

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        if tracer:
            tracer.install()
        try:
            setup_times = runner.setup(Path(work))
        finally:
            if tracer:
                tracer.uninstall()
        if not args.trace:
            runner.run_units(args.seconds, MIN_UNITS, traced=False)
        else:
            # untraced units first, then traced ones: their ratio is the overhead
            runner.run_units(args.seconds / 2, 1, traced=False)
            tracer.install()
            try:
                runner.run_units(args.seconds / 2, 1, traced=True)
            finally:
                tracer.uninstall()
        runner.state = None

    attempted, failed = runner.counts()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = runner.units[0]
    print(f"output sha256 {first['sha256']}"
          + ("" if runner.reference is None else
             f" (reference {runner.reference.get('sha256', '')[:16]}, bit-identical: "
             f"{first['sha256'] == runner.reference.get('sha256')})"), flush=True)
    if runner.reference is None and not args.update_reference:
        print(f"no stored reference for {args.workload} on atmosphere {runner.atm}: "
              "every unit counts as failed")

    plain = [u for u in runner.units if not u["traced"]]
    phase = runner.phase_metrics(plain)
    phase.update(setup_s=statistics.median(setup_times), peak_rss_mb=peak_rss_mb,
                 check_fail_ratio=failed / attempted)
    record.update(setup_times=setup_times, units=runner.units)
    all_units = {**declared["per_layer"], **declared["end_to_end"]}
    print(f"{args.workload}: " + ", ".join(
        f"{k} {v:.6g} {all_units[k]}" for k, v in sorted(phase.items())), flush=True)

    if not args.trace:
        values = {name: phase[name] for name in declared["end_to_end"]}
        units = declared["end_to_end"]
    else:
        setup_ids = [f"setup-{i}" for i in range(SETUP_REPEATS)]
        traced = [u for u in runner.units if u["traced"]]
        unit_ids = [u["run"] for u in traced]
        values = per_layer(tracer, setup_ids, unit_ids, declared["per_layer"])
        traced_phase = runner.phase_metrics(traced)
        for name in ("train_samples_per_s", "ensemble_member_samples_per_s",
                     "stack_rows_per_s", "verify_s", "log_score", "crps"):
            values[name] = traced_phase[name]
        values["check_fail_ratio"] = phase["check_fail_ratio"]
        values["trace.overhead_frac"] = traced_phase["wall_s"] / phase["wall_s"] - 1.0
        table = tracer.summary(unit_ids)["spans"]
        unit_table = table.get("bench.unit", {"incl_s": 0.0, "self_s": 0.0})
        values["trace.unattributed_frac"] = (unit_table["self_s"] / unit_table["incl_s"]
                                             if unit_table["incl_s"] else 0.0)
        self_sum = sum(r["self_s"] for r in table.values())
        n_spans = sum(r["calls"] for r in table.values())
        values["trace.span_cost_frac"] = n_spans * tracer.span_cost_s() / phase["wall_s"]
        print(f"traced wall {traced_phase['wall_s']:.4f} s; sum of self times "
              f"{self_sum:.4f} s per unit; untraced wall {phase['wall_s']:.4f} s; "
              f"{n_spans:.0f} spans per unit cost {values['trace.span_cost_frac']:.2%} "
              f"of it", flush=True)
        shape = spec.probe_shape()
        probe = conv_probe(shape)
        probe_1t = conv_probe_one_thread(shape)
        values.update({"autodiff.conv2d.probe_fwd_ms": probe["fwd_ms"],
                       "autodiff.conv2d.probe_vjp_ms": probe["vjp_ms"],
                       "autodiff.conv2d.probe_fwd_ms_1t": probe_1t["fwd_ms"],
                       "autodiff.conv2d.probe_vjp_ms_1t": probe_1t["vjp_ms"]})
        print(layer_table(tracer, unit_ids))
        units = declared["per_layer"]
        record["spans"] = tracer.records()
        record["counters"] = [[r, n, v] for (r, n), v in tracer.counters.items()]

    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"declared metrics the run does not produce: {missing}")
    record["metrics"] = values
    out = OUT_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, default=float) + "\n")

    if args.update_reference:
        ref = load_reference()
        entry = ref.setdefault("workloads", {}).setdefault(args.workload, {})
        entry[str(runner.atm)] = {"log_score": first["log_score"], "crps": first["crps"],
                                  "sha256": first["sha256"]}
        REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")

    print(result_line(failed == 0, attempted, failed, values, units))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--update-reference", action="store_true",
                   help="store this run's outputs in reference.json for its atmosphere")
    p.add_argument("--conv-probe", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.conv_probe:
        print(json.dumps(conv_probe([int(v) for v in args.conv_probe.split(",")])))
        return 0
    if args.workload is None:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
