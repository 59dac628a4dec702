"""Command-line pipeline: synth -> train -> ensemble -> stack -> evaluate,
plus exploration sweeps and contour extraction.

Every command is deterministic given its flags; all randomness flows from
explicit seeds. Input files are never mutated; artifacts land in --out.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .binning import BinSpec, DensityGrid, discretize, expectation
from .contours import contours_to_csv, contours_to_svg, probability_contours
from .ensemble import ensemble_spread, generate_ensemble, linear_pool
from .gfb import load_dataset, save_dataset
from .grid import Dataset, GridSpec, SplitPlan, climatology, persistence_forecast
from .resnet import (ResNet, ResNetConfig, TrainingSchedule, build_samples,
                     lead_steps, train)
from .stacking import LearnerOutput, StackModel, average_combine, stack_predict, train_stack
from .synth import SynthConfig, synth_generate
from .verification import (assemble_report, cdf_threshold, render_report_table,
                           weighted_rmse)
from . import exploration

logger = logging.getLogger(__name__)


def _parse_varlist(text: str) -> list:
    """'z:500,t:850,solar:surface' -> [('z', 500), ('t', 850), ('solar', 'surface')]."""
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, level = item.partition(":")
        if not level:
            raise argparse.ArgumentTypeError(f"channel {item!r} needs name:level")
        out.append((name, level if level in ("surface", "constant") else int(level)))
    return out


def _parse_split(text: str):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("--split needs 4 fractions")
    return parts


def _splits(ds: Dataset, fractions) -> SplitPlan:
    tr, nv, sv, te = fractions
    return SplitPlan.from_fractions(ds.n_time, tr, nv, sv, te)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# --- commands ---------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = SynthConfig(n_lat=args.nlat, n_lon=args.nlon, n_steps=args.steps,
                      step_hours=args.step_hours, amplitude=args.amplitude)
    ds = synth_generate(cfg, seed=args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, out)
    print(f"wrote {out}: {ds.n_time} steps x {len(ds.variables)} variables on "
          f"{ds.grid.n_lat}x{ds.grid.n_lon}, step {ds.step_hours} h")
    for name, level in ds.variables:
        vals = ds.values(name, level)
        print(f"  {name}:{level}  min {vals.min():.4g}  max {vals.max():.4g}")
    return 0


def cmd_train(args) -> int:
    ds = load_dataset(args.data)
    splits = _splits(ds, args.split)
    cfg = ResNetConfig(inputs=_parse_varlist(args.inputs),
                       target=_parse_varlist(args.target)[0],
                       lead_hours=args.lead_hours, n_blocks=args.blocks,
                       n_bins=args.bins, mode=args.mode,
                       dropout_rate=args.dropout if args.dropout > 0 else None,
                       kernel=args.kernel)
    sched = TrainingSchedule(initial_lr=args.lr, max_epochs=args.epochs,
                             batch_size=args.batch_size)
    model = ResNet(cfg, seed=args.seed)
    history = train(model, ds, splits.train, splits.neural_validation, sched,
                    seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "model.pwnn")
    (out / "history.csv").write_text(history.to_csv())
    meta = {"data": str(args.data), "split": args.split, "seed": args.seed,
            "config": cfg.to_json_dict(), "best_epoch": history.best_epoch,
            "best_val_loss": min(history.val_loss)}
    (out / "train_manifest.json").write_text(json.dumps(meta, indent=2,
                                                        sort_keys=True) + "\n")
    print(f"trained {cfg.mode} model: {len(history.epochs)} epochs, "
          f"best val loss {min(history.val_loss):.6g} at epoch {history.best_epoch}")
    print(f"wrote {out / 'model.pwnn'}")
    return 0


def cmd_ensemble(args) -> int:
    ds = load_dataset(args.data)
    splits = _splits(ds, args.split)
    model = ResNet.load(args.model)
    split_range = splits.range(args.split_name)
    X, truth, _ = build_samples(ds, model.cfg, split_range)
    ens = generate_ensemble(model, X, n_members=args.members,
                            master_seed=args.seed)
    pooled = linear_pool(ens.members)
    spread_field, spread_scalar = (None, None)
    if args.members >= 2:
        spread_field, spread_scalar = ensemble_spread(ens, ds.grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "pooled_probs.npy", pooled.probs)
    np.save(out / "member_expectations.npy", ens.member_expectations())
    np.save(out / "truth.npy", truth)
    manifest = {
        "model": str(args.model),
        "data": str(args.data),
        "split": args.split,
        "split_name": args.split_name,
        "n_members": args.members,
        "master_seed": args.seed,
        "member_seeds": ens.member_seeds,
        "binspec": model.binspec.to_json_dict(),
        "variable": list(model.cfg.target),
        "lead_hours": model.cfg.lead_hours,
        "latitudes_deg": ds.grid.latitudes_deg.tolist(),
        "longitudes_deg": ds.grid.longitudes_deg.tolist(),
        "spread": spread_scalar,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                  sort_keys=True) + "\n")
    rmse = weighted_rmse(expectation(pooled), truth, ds.grid)
    print(f"pooled {args.members}-member ensemble on {args.split_name}: "
          f"weighted RMSE {rmse:.6g}" +
          (f", spread {spread_scalar:.6g}" if spread_scalar else ""))
    print(f"wrote {out}")
    return 0


def _load_ensemble_dir(path):
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    pooled = np.load(path / "pooled_probs.npy")
    truth = np.load(path / "truth.npy")
    spec = BinSpec.from_json_dict(manifest["binspec"])
    grid = GridSpec(np.array(manifest["latitudes_deg"]),
                    np.array(manifest["longitudes_deg"]))
    return manifest, DensityGrid(pooled, spec), truth, grid


def _load_learners(dirs: str, spec: BinSpec | None = None):
    """Pooled expectations of the comma-listed ensemble dirs, each read once.

    Every learner must cover the first one's samples and use one bin spec:
    spec when given, else the first learner's. Returns (outputs, first
    manifest, bin spec, truth, grid).
    """
    outputs = []
    for d in map(Path, dirs.split(",")):
        manifest, pooled, t, g = _load_ensemble_dir(d)
        if not outputs:
            first, truth, grid = manifest, t, g
            spec = pooled.spec if spec is None else spec
        if pooled.spec != spec:
            raise SystemExit(f"learner {d} uses a different bin spec")
        if not np.array_equal(t, truth):
            raise SystemExit(f"learner {d} covers different samples")
        outputs.append(LearnerOutput(str(d), expectation(pooled)))
    return outputs, first, spec, truth, grid


def cmd_stack(args) -> int:
    outputs, _, spec, truth, grid = _load_learners(args.learners)
    true_bins = discretize(truth, spec).bins
    model = train_stack(outputs, true_bins, spec, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "stack.pwnn")
    fused = stack_predict(model, outputs)
    rmse_stack = weighted_rmse(expectation(fused), truth, grid)
    rmse_avg = weighted_rmse(average_combine(outputs), truth, grid)
    meta = {"learners": [o.learner_id for o in outputs], "seed": args.seed,
            "train_rows_rmse": rmse_stack, "average_baseline_rmse": rmse_avg}
    (out / "stack_manifest.json").write_text(json.dumps(meta, indent=2,
                                                        sort_keys=True) + "\n")
    print(f"stacked {len(outputs)} learners: training-rows RMSE {rmse_stack:.6g} "
          f"(simple average {rmse_avg:.6g})")
    print(f"wrote {out / 'stack.pwnn'}")
    return 0


def cmd_evaluate(args) -> int:
    if args.ensemble:
        manifest, pooled, truth, grid = _load_ensemble_dir(args.ensemble)
        spread = manifest.get("spread")
        variable, level = manifest["variable"]
        report = assemble_report(pooled, truth, grid, variable=variable,
                                 level=level, lead_hours=manifest["lead_hours"],
                                 split=manifest["split_name"], spread=spread)
    elif args.stack:
        if not args.learners:
            raise SystemExit("--stack evaluation needs --learners")
        model = StackModel.load(args.stack)
        outputs, manifest0, _, truth, grid = _load_learners(args.learners,
                                                            model.binspec)
        fused = stack_predict(model, outputs)
        variable, level = manifest0["variable"]
        report = assemble_report(fused, truth, grid, variable=variable,
                                 level=level, lead_hours=manifest0["lead_hours"],
                                 split=manifest0["split_name"])
    else:
        raise SystemExit("evaluate needs --ensemble DIR or --stack PWNN")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json())
    table = render_report_table(report, include_reference=not args.no_reference)
    (out / "report.txt").write_text(table)
    print(table, end="")
    return 0


def cmd_baselines(args) -> int:
    ds = load_dataset(args.data)
    splits = _splits(ds, args.split)
    variable, level = _parse_varlist(args.target)[0]
    split_range = splits.range(args.split_name)
    steps = lead_steps(ds, args.lead_hours)
    pred, truth = persistence_forecast(ds, variable, level, args.lead_hours,
                                       split_range)
    rmse_persist = weighted_rmse(pred, truth, ds.grid)
    clim = climatology(ds, variable, level, splits.train)
    a, b = split_range
    clim_stack = np.repeat(clim.values[None], b - a - steps, axis=0)
    truth_clim = ds.values(variable, level)[a + steps:b]
    rmse_clim = weighted_rmse(clim_stack, truth_clim, ds.grid)
    result = {"persistence_rmse": rmse_persist, "climatology_rmse": rmse_clim,
              "lead_hours": args.lead_hours, "split_name": args.split_name}
    print(json.dumps(result, indent=2, sort_keys=True))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "baselines.json").write_text(json.dumps(result, indent=2,
                                                       sort_keys=True) + "\n")
    return 0


def cmd_explore(args) -> int:
    ds = load_dataset(args.data)
    splits = _splits(ds, args.split)
    base = _parse_varlist(args.base_inputs)
    target = _parse_varlist(args.target)[0]
    sched = TrainingSchedule(initial_lr=args.lr, max_epochs=args.epochs,
                             batch_size=args.batch_size)
    spec = exploration.ExperimentSpec(
        name="benchmark", base_inputs=base, target=target,
        lead_hours=args.lead_hours, n_blocks=args.blocks, n_bins=args.bins,
        n_members=args.members, seed=args.seed)
    _, (bench_mse, _, _) = exploration.run_benchmark(spec, ds, splits, sched)
    rows = []
    specs = [spec.to_json_dict()]
    for candidate in args.levels.split(";"):
        candidate = candidate.strip()
        if not candidate:
            continue
        extra = _parse_varlist(candidate.replace("+", ","))
        cspec = exploration.ExperimentSpec(
            name=candidate, base_inputs=base, extra_inputs=extra, target=target,
            lead_hours=args.lead_hours, n_blocks=args.blocks, n_bins=args.bins,
            n_members=args.members, seed=args.seed)
        rows.append(exploration.run_candidate(cspec, bench_mse, ds, splits, sched))
        specs.append(cspec.to_json_dict())
    report = exploration.build_report(bench_mse, rows)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "importance.json").write_text(report.to_json())
    (out / "importance.csv").write_text(report.to_csv())
    (out / "explore_manifest.json").write_text(
        json.dumps({"experiments": specs, "data": str(args.data),
                    "split": args.split}, indent=2, sort_keys=True) + "\n")
    chosen = [r for r in report.rows if r.selected]
    print(report.to_csv(), end="")
    if chosen:
        print(f"selected: {chosen[0].name} at {chosen[0].relative_pct:.2f}% "
              f"of benchmark")
    return 0


def cmd_contours(args) -> int:
    manifest, pooled, truth, grid = _load_ensemble_dir(args.ensemble)
    probs = pooled.probs
    if probs.ndim == 4:
        if not 0 <= args.sample < probs.shape[0]:
            raise SystemExit(f"--sample must be in [0, {probs.shape[0]})")
        probs = probs[args.sample]
    tm = cdf_threshold(DensityGrid(probs, pooled.spec), args.threshold)
    levels = tuple(float(v) for v in args.contour_levels.split(","))
    contours = probability_contours(tm, grid, levels=levels)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "contours.csv").write_text(contours_to_csv(contours))
    (out / "contours.svg").write_text(contours_to_svg(contours, grid))
    for level in sorted(contours):
        n_lines = len(contours[level])
        n_verts = sum(len(c.vertices) for c in contours[level])
        print(f"level {level:g}: {n_lines} polylines, {n_verts} vertices")
    print(f"wrote {out / 'contours.csv'} and contours.svg")
    return 0


# --- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="probcast",
        description="Desk-scale probabilistic gridded forecasting pipeline")
    p.add_argument("--log", default="warning",
                   help="logging level (debug/info/warning)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic dataset (GFB1)")
    sp.add_argument("--out", required=True, help="output .gfb path")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--nlat", type=int, default=16)
    sp.add_argument("--nlon", type=int, default=32)
    sp.add_argument("--steps", type=int, default=2000)
    sp.add_argument("--step-hours", type=int, default=6)
    sp.add_argument("--amplitude", type=float, default=1.0)
    sp.set_defaults(func=cmd_synth)

    tp = sub.add_parser("train", help="train one learner")
    tp.add_argument("--data", required=True)
    tp.add_argument("--out", required=True)
    tp.add_argument("--seed", type=int, required=True)
    tp.add_argument("--inputs", default="z:500,t:850",
                    help="comma list of input channels name:level")
    tp.add_argument("--target", default="z:500")
    tp.add_argument("--lead-hours", type=int, default=72)
    tp.add_argument("--blocks", type=int, default=2)
    tp.add_argument("--bins", type=int, default=10)
    tp.add_argument("--mode", choices=("categorical", "continuous"),
                    default="categorical")
    tp.add_argument("--kernel", type=int, default=5)
    tp.add_argument("--dropout", type=float, default=0.1)
    tp.add_argument("--split", type=_parse_split, default=[0.6, 0.1, 0.15, 0.15],
                    help="train,neural_val,stacked_val,test fractions")
    tp.add_argument("--lr", type=float, default=1e-3)
    tp.add_argument("--epochs", type=_positive_int, default=20)
    tp.add_argument("--batch-size", type=_positive_int, default=32)
    tp.set_defaults(func=cmd_train)

    ep = sub.add_parser("ensemble", help="dropout-at-inference ensemble")
    ep.add_argument("--data", required=True)
    ep.add_argument("--model", required=True, help="model.pwnn path")
    ep.add_argument("--out", required=True)
    ep.add_argument("--seed", type=int, required=True)
    ep.add_argument("--members", type=_positive_int, default=32)
    ep.add_argument("--split", type=_parse_split, default=[0.6, 0.1, 0.15, 0.15])
    ep.add_argument("--split-name", default="test",
                    choices=("train", "neural_validation", "stacked_validation",
                             "test"))
    ep.set_defaults(func=cmd_ensemble)

    kp = sub.add_parser("stack", help="train the stacked combiner")
    kp.add_argument("--learners", required=True,
                    help="comma list of ensemble output dirs")
    kp.add_argument("--out", required=True)
    kp.add_argument("--seed", type=int, required=True)
    kp.set_defaults(func=cmd_stack)

    vp = sub.add_parser("evaluate", help="full verification report")
    vp.add_argument("--ensemble", help="ensemble dir to score")
    vp.add_argument("--stack", help="stack.pwnn to score (needs --learners)")
    vp.add_argument("--learners", help="ensemble dirs feeding the stack")
    vp.add_argument("--out", required=True)
    vp.add_argument("--no-reference", action="store_true",
                    help="omit full-scale reference rows")
    vp.set_defaults(func=cmd_evaluate)

    bp = sub.add_parser("baselines", help="persistence and climatology RMSE")
    bp.add_argument("--data", required=True)
    bp.add_argument("--target", default="z:500")
    bp.add_argument("--lead-hours", type=int, default=72)
    bp.add_argument("--split", type=_parse_split, default=[0.6, 0.1, 0.15, 0.15])
    bp.add_argument("--split-name", default="test")
    bp.add_argument("--out", default=None)
    bp.set_defaults(func=cmd_baselines)

    xp = sub.add_parser("explore", help="benchmark-relative input importance")
    xp.add_argument("--data", required=True)
    xp.add_argument("--out", required=True)
    xp.add_argument("--seed", type=int, required=True)
    xp.add_argument("--base-inputs", default="z:500,t:850")
    xp.add_argument("--target", default="z:500")
    xp.add_argument("--levels", required=True,
                    help="candidate extra-channel sets, ';'-separated, channels "
                         "joined by '+', e.g. 'z:200;z:200+z:850'")
    xp.add_argument("--lead-hours", type=int, default=72)
    xp.add_argument("--blocks", type=int, default=1)
    xp.add_argument("--bins", type=int, default=10)
    xp.add_argument("--members", type=_positive_int, default=8)
    xp.add_argument("--split", type=_parse_split, default=[0.6, 0.1, 0.15, 0.15])
    xp.add_argument("--lr", type=float, default=1e-3)
    xp.add_argument("--epochs", type=_positive_int, default=8)
    xp.add_argument("--batch-size", type=_positive_int, default=32)
    xp.set_defaults(func=cmd_explore)

    cp = sub.add_parser("contours", help="CDF threshold contour maps")
    cp.add_argument("--ensemble", required=True, help="ensemble dir")
    cp.add_argument("--out", required=True)
    cp.add_argument("--sample", type=int, default=0)
    cp.add_argument("--threshold", type=float, required=True)
    cp.add_argument("--contour-levels", default="0.1,0.5,0.9")
    cp.set_defaults(func=cmd_contours)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log.upper(), logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, RuntimeError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
