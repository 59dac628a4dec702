"""Input-importance harness: benchmark-relative errors and CI-aware optimum picks."""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field, replace

from .binning import expectation
from .ensemble import generate_ensemble, linear_pool
from .gfb import json_text
from .grid import Dataset, SplitPlan
from .resnet import ResNet, ResNetConfig, TrainingSchedule, build_samples, train
from .verification import weighted_mse_ci

logger = logging.getLogger(__name__)


@dataclass
class ExperimentSpec:
    """One training experiment: base inputs plus candidate extra channels."""

    name: str
    base_inputs: list                 # always-on channels, e.g. both targets
    extra_inputs: list = field(default_factory=list)
    target: tuple = ("z", 500)
    lead_hours: int = 72
    n_blocks: int = 5
    n_bins: int = 100
    kernel: int = 5
    n_members: int = 32
    seed: int = 0

    def all_inputs(self) -> list:
        return list(self.base_inputs) + list(self.extra_inputs)


@dataclass
class ImportanceRow:
    """Benchmark-relative result of one experiment."""

    name: str
    levels: list                     # the extra inputs, the cost driver
    mse: float
    ci_lo: float
    ci_hi: float
    relative_pct: float
    relative_ci: tuple
    selected: bool = False

    @property
    def cost(self) -> int:
        return len(self.levels)

    @classmethod
    def from_absolute(cls, name: str, levels: list, mse: float, ci_lo: float,
                      ci_hi: float, benchmark_mse: float) -> "ImportanceRow":
        """Express an absolute MSE and its interval as percentages of the
        benchmark, treating the benchmark as a fixed scale."""
        scale = 100.0 / benchmark_mse
        return cls(name=name, levels=list(levels), mse=mse, ci_lo=ci_lo,
                   ci_hi=ci_hi, relative_pct=mse * scale,
                   relative_ci=(ci_lo * scale, ci_hi * scale))


@dataclass
class ImportanceReport:
    benchmark_mse: float
    rows: list

    def to_json(self) -> str:
        d = asdict(self)
        for row in d["rows"]:
            row["ci"] = [row.pop("ci_lo"), row.pop("ci_hi")]
        return json_text(d)

    def to_csv(self) -> str:
        lines = ["name,n_levels,mse,ci_lo,ci_hi,relative_pct,rel_lo,rel_hi,selected"]
        for r in self.rows:
            lines.append("%s,%d,%.10g,%.10g,%.10g,%.6g,%.6g,%.6g,%d" % (
                r.name, r.cost, r.mse, r.ci_lo, r.ci_hi, r.relative_pct,
                r.relative_ci[0], r.relative_ci[1], int(r.selected)))
        return "\n".join(lines) + "\n"


def _pooled_mse(spec: ExperimentSpec, ds: Dataset, splits: SplitPlan,
                sched: TrainingSchedule):
    """Train one learner, pool a dropout ensemble, score its expectation."""
    cfg = ResNetConfig(inputs=spec.all_inputs(), target=spec.target,
                       lead_hours=spec.lead_hours, n_blocks=spec.n_blocks,
                       n_bins=spec.n_bins, kernel=spec.kernel)
    model = ResNet(cfg, seed=spec.seed)
    train(model, ds, splits.train, splits.neural_validation, sched, seed=spec.seed)
    X, truth, _ = build_samples(ds, cfg, splits.stacked_validation)
    ens = generate_ensemble(model, X, n_members=spec.n_members,
                            master_seed=spec.seed)
    pooled = linear_pool(ens.members)
    mse, lo, hi = weighted_mse_ci(expectation(pooled), truth, ds.grid)
    return model, (mse, lo, hi)


def run_benchmark(spec: ExperimentSpec, ds: Dataset, splits: SplitPlan,
                  sched: TrainingSchedule):
    """The no-extra-inputs run every candidate is compared against."""
    bench = replace(spec, extra_inputs=[])
    model, stats = _pooled_mse(bench, ds, splits, sched)
    logger.info("benchmark MSE %.6g CI [%.6g, %.6g]", *stats)
    return model, stats


def run_candidate(spec: ExperimentSpec, benchmark_mse: float, ds: Dataset,
                  splits: SplitPlan, sched: TrainingSchedule) -> ImportanceRow:
    """One candidate experiment expressed relative to the benchmark MSE.

    The benchmark is treated as a fixed scale: the candidate's interval is
    multiplied by 100/benchmark, matching per-candidate error bars.
    """
    _, (mse, lo, hi) = _pooled_mse(spec, ds, splits, sched)
    return ImportanceRow.from_absolute(spec.name, spec.extra_inputs, mse, lo, hi,
                                       benchmark_mse)


def _intervals_overlap(a: ImportanceRow, b: ImportanceRow) -> bool:
    return a.ci_lo <= b.ci_hi and b.ci_lo <= a.ci_hi


def select_optimum(rows: list) -> ImportanceRow:
    """Lowest error wins; under CI overlap with the best, fewer levels win.

    Deterministic and order-independent: candidates overlapping the
    best-error row compete on (level count, error, lexicographic levels).
    """
    if not rows:
        raise ValueError("no experiment rows to select from")
    best = min(rows, key=lambda r: (r.relative_pct, r.cost, _level_key(r)))
    pool = [r for r in rows if r is best or _intervals_overlap(r, best)]
    chosen = min(pool, key=lambda r: (r.cost, r.relative_pct, _level_key(r)))
    for r in rows:
        r.selected = r is chosen
    return chosen


def _level_key(row: ImportanceRow):
    return tuple(str(v) for v in row.levels)


def build_report(benchmark_mse: float, rows: list) -> ImportanceReport:
    select_optimum(rows)
    ordered = sorted(rows, key=lambda r: r.relative_pct)
    return ImportanceReport(benchmark_mse=benchmark_mse, rows=ordered)
