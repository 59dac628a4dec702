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
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .binning import BinSpec, DensityGrid, discretize, expectation
from .contours import contours_to_csv, contours_to_svg, probability_contours
from .ensemble import generate_ensemble, linear_pool, spread_from_expectations
from .gfb import json_text, load_dataset, save_dataset
from .grid import (DEFAULT_SPLIT, SPLIT_NAMES, GridSpec, SplitPlan, climatology,
                   persistence_forecast)
from .resnet import ResNet, ResNetConfig, TrainingSchedule, build_samples, train
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


def _parse_channel(text: str) -> tuple:
    """'z:500' -> ('z', 500); exactly one channel."""
    channels = _parse_varlist(text)
    if len(channels) != 1:
        raise argparse.ArgumentTypeError(f"needs one channel name:level, got {text!r}")
    return channels[0]


def _parse_candidates(text: str) -> list:
    """'z:200;z:200+z:850' -> [('z:200', [('z', 200)]), ('z:200+z:850', [...])]."""
    candidates = [(c.strip(), _parse_varlist(c.replace("+", ",")))
                  for c in text.split(";") if c.strip()]
    if not candidates or not all(extra for _, extra in candidates):
        raise argparse.ArgumentTypeError(
            f"needs one or more candidate sets of name:level channels, got {text!r}")
    return candidates


def _parse_floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def _parse_split(text: str) -> tuple:
    parts = _parse_floats(text)
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("--split needs 4 fractions")
    return parts


def _positive(cast):
    def positive(text: str):
        value = cast(text)
        if not 0 < value < np.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
        return value
    return positive


# --- commands ---------------------------------------------------------------------


def _dataset(args):
    """The --data dataset and its --split plan."""
    ds = load_dataset(args.data)
    return ds, SplitPlan.from_fractions(ds.n_time, *args.split)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    ds, splits = _dataset(args)
    cfg = ResNetConfig(inputs=args.inputs, target=args.target,
                       lead_hours=args.lead_hours, n_blocks=args.blocks,
                       n_bins=args.bins, dropout_rate=args.dropout,
                       kernel=args.kernel)
    sched = TrainingSchedule(initial_lr=args.lr, max_epochs=args.epochs,
                             batch_size=args.batch_size)
    model = ResNet(cfg, seed=args.seed)
    history = train(model, ds, splits.train, splits.neural_validation, sched,
                    seed=args.seed)
    out = _out_dir(args)
    model.save(out / "model.pwnn")
    (out / "history.csv").write_text(history.to_csv())
    meta = {"data": str(args.data), "split": args.split, "seed": args.seed,
            "config": asdict(cfg), "best_epoch": history.best_epoch,
            "best_val_loss": min(history.val_loss)}
    (out / "train_manifest.json").write_text(json_text(meta))
    print(f"trained model: {len(history.epochs)} epochs, "
          f"best val loss {min(history.val_loss):.6g} at epoch {history.best_epoch}")
    print(f"wrote {out / 'model.pwnn'}")
    return 0


def cmd_ensemble(args) -> int:
    ds, splits = _dataset(args)
    model = ResNet.load(args.model)
    split_range = splits.range(args.split_name)
    X, truth, _ = build_samples(ds, model.cfg, split_range)
    ens = generate_ensemble(model, X, n_members=args.members,
                            master_seed=args.seed)
    pooled = linear_pool(ens.members)
    exps = ens.member_expectations()
    spread_scalar = (spread_from_expectations(exps, ds.grid)[1]
                     if args.members >= 2 else None)
    out = _out_dir(args)
    np.save(out / "pooled_probs.npy", pooled.probs)
    np.save(out / "member_expectations.npy", exps)
    np.save(out / "truth.npy", truth)
    manifest = {
        "model": str(args.model),
        "data": str(args.data),
        "split": args.split,
        "split_name": args.split_name,
        "n_members": args.members,
        "master_seed": args.seed,
        "member_seeds": ens.member_seeds,
        "binspec": asdict(model.binspec),
        "variable": list(model.cfg.target),
        "lead_hours": model.cfg.lead_hours,
        "latitudes_deg": ds.grid.latitudes_deg.tolist(),
        "longitudes_deg": ds.grid.longitudes_deg.tolist(),
        "spread": spread_scalar,
    }
    (out / "manifest.json").write_text(json_text(manifest))
    rmse = weighted_rmse(expectation(pooled), truth, ds.grid)
    print(f"pooled {args.members}-member ensemble on {args.split_name}: "
          f"weighted RMSE {rmse:.6g}" +
          (f", spread {spread_scalar:.6g}" if spread_scalar is not None else ""))
    print(f"wrote {out}")
    return 0


def _load_ensemble_dir(path):
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    pooled = np.load(path / "pooled_probs.npy")
    truth = np.load(path / "truth.npy")
    try:
        spec = BinSpec(**manifest["binspec"])
    except TypeError as exc:  # missing, unknown or ill-typed fields
        raise ValueError(f"bad bin spec in {path / 'manifest.json'}: {exc}") from exc
    grid = GridSpec(np.array(manifest["latitudes_deg"]),
                    np.array(manifest["longitudes_deg"]))
    return manifest, DensityGrid(pooled, spec), truth, grid


def _load_learners(dirs: str, spec: BinSpec | None = None):
    """Pooled expectations of the comma-listed ensemble dirs, each read once.

    Every learner must be a different dir, cover the first one's samples and
    use one bin spec: spec when given, else the first learner's. Returns
    (outputs, first manifest, bin spec, truth, grid).
    """
    outputs, seen = [], set()
    for d in map(Path, dirs.split(",")):
        if d.resolve() in seen:
            raise SystemExit(f"learner {d} is listed twice")
        seen.add(d.resolve())
        manifest, pooled, t, g = _load_ensemble_dir(d)
        if not outputs:
            first, truth, grid = manifest, t, g
            spec = pooled.spec if spec is None else spec
        if pooled.spec != spec:
            raise SystemExit(f"learner {d} uses a different bin spec")
        if not np.array_equal(t, truth):
            raise SystemExit(f"learner {d} covers different samples")
        outputs.append(LearnerOutput(str(d), expectation(pooled)))
        del pooled  # else it lives on while the next learner's density loads
    return outputs, first, spec, truth, grid


def cmd_stack(args) -> int:
    outputs, _, spec, truth, grid = _load_learners(args.learners)
    true_bins = discretize(truth, spec).bins
    model = train_stack(outputs, true_bins, spec, seed=args.seed)
    out = _out_dir(args)
    model.save(out / "stack.pwnn")
    fused = stack_predict(model, outputs)
    rmse_stack = weighted_rmse(expectation(fused), truth, grid)
    rmse_avg = weighted_rmse(average_combine(outputs), truth, grid)
    meta = {"learners": [o.learner_id for o in outputs], "seed": args.seed,
            "train_rows_rmse": rmse_stack, "average_baseline_rmse": rmse_avg}
    (out / "stack_manifest.json").write_text(json_text(meta))
    print(f"stacked {len(outputs)} learners: training-rows RMSE {rmse_stack:.6g} "
          f"(simple average {rmse_avg:.6g})")
    print(f"wrote {out / 'stack.pwnn'}")
    return 0


def cmd_evaluate(args) -> int:
    if args.ensemble is not None:
        manifest, density, truth, grid = _load_ensemble_dir(args.ensemble)
        spread = manifest.get("spread")
        if spread is not None and (type(spread) not in (int, float)
                                   or not 0 <= spread < np.inf):
            raise ValueError(f"ensemble spread in {args.ensemble} must be null or a "
                             f"finite number >= 0, got {spread!r}")
    else:
        model = StackModel.load(args.stack)
        outputs, manifest, _, truth, grid = _load_learners(args.learners,
                                                           model.binspec)
        density, spread = stack_predict(model, outputs), None
    variable, level = manifest["variable"]
    report = assemble_report(density, truth, grid, variable=variable, level=level,
                             lead_hours=manifest["lead_hours"],
                             split=manifest["split_name"], spread=spread)
    out = _out_dir(args)
    (out / "report.json").write_text(report.to_json())
    table = render_report_table(report, include_reference=not args.no_reference)
    (out / "report.txt").write_text(table)
    print(table, end="")
    return 0


def cmd_baselines(args) -> int:
    ds, splits = _dataset(args)
    variable, level = args.target
    pred, truth = persistence_forecast(ds, variable, level, args.lead_hours,
                                       splits.range(args.split_name))
    clim = climatology(ds, variable, level, splits.train)
    result = {"persistence_rmse": weighted_rmse(pred, truth, ds.grid),
              "climatology_rmse": weighted_rmse(np.broadcast_to(clim.values, truth.shape),
                                                truth, ds.grid),
              "lead_hours": args.lead_hours, "split_name": args.split_name}
    text = json_text(result)
    print(text, end="")
    if args.out:
        (_out_dir(args) / "baselines.json").write_text(text)
    return 0


def cmd_explore(args) -> int:
    ds, splits = _dataset(args)
    sched = TrainingSchedule(initial_lr=args.lr, max_epochs=args.epochs,
                             batch_size=args.batch_size)
    spec = exploration.ExperimentSpec(
        name="benchmark", base_inputs=args.base_inputs, target=args.target,
        lead_hours=args.lead_hours, n_blocks=args.blocks, n_bins=args.bins,
        n_members=args.members, seed=args.seed)
    _, (bench_mse, _, _) = exploration.run_benchmark(spec, ds, splits, sched)
    rows = []
    specs = [asdict(spec)]
    for candidate, extra in args.levels:
        cspec = replace(spec, name=candidate, extra_inputs=extra)
        rows.append(exploration.run_candidate(cspec, bench_mse, ds, splits, sched))
        specs.append(asdict(cspec))
    report = exploration.build_report(bench_mse, rows)
    out = _out_dir(args)
    (out / "importance.json").write_text(report.to_json())
    (out / "importance.csv").write_text(report.to_csv())
    (out / "explore_manifest.json").write_text(
        json_text({"experiments": specs, "data": str(args.data), "split": args.split}))
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
    contours = probability_contours(tm, grid, levels=args.contour_levels)
    out = _out_dir(args)
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

    # flags that several commands take, each defined once and passed as a parent
    dataset, target, fit, split_name, seed, out = (
        argparse.ArgumentParser(add_help=False) for _ in range(6))
    dataset.add_argument("--data", required=True, help="GFB1 dataset path")
    dataset.add_argument("--split", type=_parse_split, default=DEFAULT_SPLIT,
                         help="train,neural_val,stacked_val,test fractions")
    target.add_argument("--target", type=_parse_channel, default="z:500")
    target.add_argument("--lead-hours", type=int, default=72)
    fit.add_argument("--bins", type=int, default=10)
    fit.add_argument("--lr", type=_positive(float), default=1e-3)
    fit.add_argument("--batch-size", type=_positive(int), default=32)
    split_name.add_argument("--split-name", default="test", choices=SPLIT_NAMES)
    seed.add_argument("--seed", type=int, required=True)
    out.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("synth", parents=[seed],
                        help="generate a synthetic dataset (GFB1)")
    sp.add_argument("--out", required=True, help="output .gfb path")
    sp.add_argument("--nlat", type=int, default=16)
    sp.add_argument("--nlon", type=int, default=32)
    sp.add_argument("--steps", type=int, default=2000)
    sp.add_argument("--step-hours", type=int, default=6)
    sp.add_argument("--amplitude", type=float, default=1.0)
    sp.set_defaults(func=cmd_synth)

    tp = sub.add_parser("train", parents=[dataset, target, fit, seed, out],
                        help="train one learner")
    tp.add_argument("--inputs", type=_parse_varlist, default="z:500,t:850",
                    help="comma list of input channels name:level")
    tp.add_argument("--blocks", type=int, default=2)
    tp.add_argument("--kernel", type=int, default=5)
    tp.add_argument("--dropout", type=float, default=0.1,
                    help="dropout rate in [0, 1); 0 disables dropout")
    tp.add_argument("--epochs", type=_positive(int), default=20)
    tp.set_defaults(func=cmd_train)

    ep = sub.add_parser("ensemble", parents=[dataset, split_name, seed, out],
                        help="dropout-at-inference ensemble")
    ep.add_argument("--model", required=True, help="model.pwnn path")
    ep.add_argument("--members", type=_positive(int), default=32)
    ep.set_defaults(func=cmd_ensemble)

    kp = sub.add_parser("stack", parents=[seed, out],
                        help="train the stacked combiner")
    kp.add_argument("--learners", required=True,
                    help="comma list of ensemble output dirs")
    kp.set_defaults(func=cmd_stack)

    vp = sub.add_parser("evaluate", parents=[out], help="full verification report")
    scored = vp.add_mutually_exclusive_group(required=True)
    scored.add_argument("--ensemble", help="ensemble dir to score")
    scored.add_argument("--stack", help="stack.pwnn to score (needs --learners)")
    vp.add_argument("--learners", help="ensemble dirs feeding the stack (--stack only)")
    vp.add_argument("--no-reference", action="store_true",
                    help="omit full-scale reference rows")
    vp.set_defaults(func=cmd_evaluate)

    bp = sub.add_parser("baselines", parents=[dataset, target, split_name],
                        help="persistence and climatology RMSE")
    bp.add_argument("--out", default=None)
    bp.set_defaults(func=cmd_baselines)

    xp = sub.add_parser("explore", parents=[dataset, target, fit, seed, out],
                        help="benchmark-relative input importance")
    xp.add_argument("--base-inputs", type=_parse_varlist, default="z:500,t:850")
    xp.add_argument("--levels", type=_parse_candidates, required=True,
                    help="candidate extra-channel sets, ';'-separated, channels "
                         "joined by '+', e.g. 'z:200;z:200+z:850'")
    xp.add_argument("--blocks", type=int, default=1)
    xp.add_argument("--members", type=_positive(int), default=8)
    xp.add_argument("--epochs", type=_positive(int), default=8)
    xp.set_defaults(func=cmd_explore)

    cp = sub.add_parser("contours", parents=[out], help="CDF threshold contour maps")
    cp.add_argument("--ensemble", required=True, help="ensemble dir")
    cp.add_argument("--sample", type=int, default=0)
    cp.add_argument("--threshold", type=float, required=True)
    cp.add_argument("--contour-levels", type=_parse_floats, default="0.1,0.5,0.9")
    cp.set_defaults(func=cmd_contours)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "evaluate" and (args.stack is not None) != bool(args.learners):
        parser.error("evaluate --stack needs --learners, and only --stack reads it")
    logging.basicConfig(level=getattr(logging, args.log.upper(), logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, RuntimeError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
