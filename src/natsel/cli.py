"""Experiment runner: run / sweep / analyze subcommands.

``run`` executes one config over its seed list and writes per-seed
artifacts plus a cross-seed aggregate, whose final test row is the
run's summary.  A config's seeds train in lockstep, in stacks of as
many as keep their train splits within ``_STACK_BYTES``.  ``sweep``
repeats a run along one axis (sigma, rho, or layout) and tabulates
final accuracies.  ``analyze`` post-processes an existing run directory
into plotting-ready CSVs.
Override flags and sweep values are read like the INI keys they set.

Exit codes: 0 success, 1 configuration/validation error, 2 runtime abort.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    correlation_report,
    ns_distribution,
    write_box_stats,
    write_fits,
    write_scatter,
)
from .config import (
    ExperimentConfig,
    apply_overrides,
    classifier_for,
    datasets_for,
    parse_config,
    serialize_config,
    set_keys,
)
from .errors import ConfigError, FormatError, NatselError
from .model import Classifier, save_checkpoint
from .trainer import (
    Run,
    _read_scores,
    _replacing,
    _score_log,
    _write_table,
    read_metrics_csv,
    train,
    write_metrics_csv,
)

__all__ = [
    "SIGMA_AXIS",
    "RHO_AXIS",
    "LAYOUT_AXIS",
    "SWEEP_AXES",
    "RunSummary",
    "run_experiment",
    "sweep",
    "analyze_run",
    "main",
]

# Canonical sweep grids exercised by the comparison tables.
SIGMA_AXIS = (0.0, 0.1, 0.5, 0.8, 1.0, 1.5, 1.8)
RHO_AXIS = (0.0, 0.1, 0.5, 0.8, 1.0, 1.5, 1.8)
LAYOUT_AXIS = ("1x2", "2x2", "2x4", "4x2", "4x4")

# The train splits one stack of seeds may hold at once, whatever the
# model: a stack has as many seeds as keep their splits within it, and
# at least one.  The shipped configs' splits, 512 kB at most, stack 16
# seeds; a 409-image 32x32x3 split (10 MB) or an MNIST-sized one
# (376 MB) trains alone.
_STACK_BYTES = 8 << 20

# Sweep axis -> (the INI key it sets, its default grid).
SWEEP_AXES = {
    "sigma": ("weighting.sigma", SIGMA_AXIS),
    "rho": ("weighting.rho", RHO_AXIS),
    "layout": ("grouping.layout", LAYOUT_AXIS),
}


@dataclass(frozen=True)
class RunSummary:
    """Cross-seed result of one experiment."""

    label: str
    run_dir: str
    seed_accuracy: tuple[tuple[int, float], ...]
    mean_accuracy: float
    std_accuracy: float

    @property
    def single_seed(self) -> bool:
        return len(self.seed_accuracy) == 1


def run_experiment(config: ExperimentConfig, echo=print) -> RunSummary:
    """Train every seed, write artifacts, aggregate across seeds."""
    run_dir = Path(config.output_dir) / config.label
    run_dir.mkdir(parents=True, exist_ok=True)
    with _replacing(run_dir / "config.ini") as tmp:
        tmp.write_text(serialize_config(config))

    per_seed_records = {}
    finals = []
    while len(per_seed_records) < len(config.seeds):
        pending = config.seeds[len(per_seed_records):]
        for seed, records in _train_stack(config, pending, run_dir):
            per_seed_records[seed] = records
            final_acc = [r.accuracy for r in records if r.split == "test"][-1]
            finals.append((seed, final_acc))
            echo(f"seed {seed}: final test accuracy {final_acc:.4f}")

    rows = _write_aggregate(run_dir / "aggregate.csv", config.seeds,
                            per_seed_records)
    # the last row is the final epoch's test row
    mean, std = rows[-1][4:6]
    summary = RunSummary(label=config.label, run_dir=str(run_dir),
                         seed_accuracy=tuple(finals), mean_accuracy=mean,
                         std_accuracy=std)
    flag = " [single seed]" if summary.single_seed else ""
    echo(f"{config.label}: final test accuracy "
         f"{summary.mean_accuracy:.4f} +/- {summary.std_accuracy:.4f} "
         f"over {len(finals)} seed(s){flag}")
    return summary


def _run_for(config: ExperimentConfig, seed: int) -> Run:
    train_set, test_set = datasets_for(config, seed)
    model = Classifier(classifier_for(
        config, seed, image_shape=train_set.image_shape,
        class_count=train_set.class_count))
    return Run(config.train, seed, train_set, test_set, model)


def _train_stack(config: ExperimentConfig, seeds, run_dir: Path):
    """Train the first of ``seeds`` in lockstep and write each one's
    metrics, checkpoint and score log; returns (seed, records) pairs.

    The stack holds as many seeds as keep their train splits within
    ``_STACK_BYTES``, and at least one.  Every artifact of every
    seed is written to its temporary file first, the score logs as
    their rows are scored, and all of them are renamed into place
    together once the whole stack has written; a stack whose training
    or any write fails leaves no artifact of any of its seeds.  Only
    the metrics records outlive the call: the stack's datasets and
    models are released before the next stack's data is built.
    """
    runs = [_run_for(config, seeds[0])]
    size = max(1, _STACK_BYTES // max(1, runs[0].train_set.images.nbytes))
    runs += [_run_for(config, seed) for seed in seeds[1:size]]
    with ExitStack() as pending:
        def temporary(name: str) -> Path:
            return pending.enter_context(_replacing(run_dir / name))

        if config.train.weighting.rho != 0.0:
            runs = [run._replace(score_sink=pending.enter_context(_score_log(
                run_dir / f"scores_{run.seed}.csv"))) for run in runs]
        per_run = train(runs)
        for run, records in zip(runs, per_run):
            write_metrics_csv(temporary(f"metrics_{run.seed}.csv"), records)
            save_checkpoint(run.model, temporary(f"checkpoint_{run.seed}.bin"))
    return [(run.seed, records) for run, records in zip(runs, per_run)]


def _write_aggregate(path, seeds, per_seed_records) -> list[tuple]:
    """Write and return the mean and sample std (n-1) of loss/accuracy
    per (epoch, split); the std of a single seed is 0."""
    def mean_std(values) -> tuple[float, float]:
        values = np.array(values)
        return (float(values.mean()),
                float(values.std(ddof=1)) if len(seeds) > 1 else 0.0)

    rows = []
    for i, r in enumerate(per_seed_records[seeds[0]]):
        same = [per_seed_records[s][i] for s in seeds]
        rows.append((r.epoch, r.split, *mean_std([x.mean_loss for x in same]),
                     *mean_std([x.accuracy for x in same]), len(seeds)))
    _write_table(path, ("epoch", "split", "mean_loss_mean", "mean_loss_std",
                        "accuracy_mean", "accuracy_std", "seed_count"), rows)
    return rows


def sweep(config: ExperimentConfig, axis: str, values=None,
          echo=print) -> list[tuple[str, RunSummary]]:
    """One run_experiment per value along an axis of ``SWEEP_AXES``.

    Each value is read, as text, like the INI key its axis sets.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    key, grid = SWEEP_AXES[axis]
    values = [str(v) for v in (grid if values is None else values)]
    if not values:
        raise ConfigError("sweep needs at least one value")

    # every value's config is built, and so checked, before the first run
    subs = []
    for value in values:
        tag = value.replace(".", "p")
        subs.append((value, set_keys(config, {
            key: value, "experiment.label": f"{config.label}_{axis}_{tag}"})))
    if len({sub.label for _, sub in subs}) != len(subs):
        raise ConfigError(f"sweep values {values} repeat a run label, whose "
                          "runs would overwrite each other's artifacts")
    results = [(value, run_experiment(sub, echo=echo)) for value, sub in subs]

    table = Path(config.output_dir) / f"sweep_{axis}.csv"
    table.parent.mkdir(parents=True, exist_ok=True)
    _write_table(table, ("axis", "value", "accuracy_mean", "accuracy_std"),
                 ((axis, value, summary.mean_accuracy, summary.std_accuracy)
                  for value, summary in results))
    echo(f"sweep table written to {table}")
    return results


def analyze_run(run_dir, echo=print) -> None:
    """Turn an existing run directory into plotting-ready CSVs.

    Consumes only the archived config and logs; training state is never
    touched.  Per seed it writes score box stats, the two correlation
    scatters, and the fitted lines.
    """
    run_dir = Path(run_dir)
    config_path = run_dir / "config.ini"
    if not config_path.exists():
        raise ConfigError(f"{run_dir} has no config.ini; not a run directory")
    config = parse_config(config_path.read_text())
    for seed in config.seeds:
        metrics_path = run_dir / f"metrics_{seed}.csv"
        if not metrics_path.exists():
            raise ConfigError(f"missing {metrics_path}")
        records = read_metrics_csv(metrics_path)
        if all(r.per_class_ns is None for r in records):
            raise ConfigError(f"{metrics_path} has no scored epochs "
                              "(a rho = 0 run scores nothing to analyze)")
        train_set, _ = datasets_for(config, seed)

        scores_path = run_dir / f"scores_{seed}.csv"
        if scores_path.exists():
            rows = _read_scores(scores_path)
            if not rows:
                raise ConfigError(f"{scores_path} holds no score rows")
            last_epoch = max(r.epoch for r in rows)
            final = [r for r in rows if r.epoch == last_epoch]
            stats = ns_distribution(
                [r.s for r in final], [r.label for r in final],
                train_set.class_count)
            write_box_stats(run_dir / f"box_stats_{seed}.csv", stats)

        report = correlation_report(records, train_set.label_counts())
        write_scatter(run_dir / f"scatter_count_{seed}.csv", zip(
            report.class_ids, report.counts, report.mean_scores))
        write_scatter(run_dir / f"scatter_accuracy_{seed}.csv", zip(
            report.class_ids, report.accuracies, report.mean_scores))
        write_fits(run_dir / f"fits_{seed}.csv", report.fits)
        echo(f"seed {seed}: analysis artifacts written to {run_dir}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="natsel",
        description="competition-weighted training experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_overrides(p):
        p.add_argument("--output", help="output directory override")
        p.add_argument("--label", help="run label override")
        p.add_argument("--seeds", help="comma list of seeds")
        p.add_argument("--sigma", help="weight floor override")
        p.add_argument("--rho", help="weight slope override")
        p.add_argument("--layout", help="grid layout override, e.g. 2x2")

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("config", help="path to an INI experiment config")
    add_overrides(run_p)

    sweep_p = sub.add_parser("sweep", help="repeat a config along one axis")
    sweep_p.add_argument("config", help="path to an INI experiment config")
    sweep_p.add_argument("--axis", required=True,
                         choices=tuple(SWEEP_AXES))
    sweep_p.add_argument("--values",
                         help="comma list of axis values (defaults to the "
                              "standard grid)")
    add_overrides(sweep_p)

    an_p = sub.add_parser("analyze",
                          help="post-process an existing run directory")
    an_p.add_argument("run_dir", help="directory written by a previous run")
    return parser


def _overridden(config: ExperimentConfig, args) -> ExperimentConfig:
    return apply_overrides(
        config, sigma=args.sigma, rho=args.rho, layout=args.layout,
        seeds=args.seeds, label=args.label, output_dir=args.output)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = parse_config(Path(args.config).read_text())
            run_experiment(_overridden(config, args))
        elif args.command == "sweep":
            config = parse_config(Path(args.config).read_text())
            config = _overridden(config, args)
            values = None
            if args.values is not None:
                values = [tok for tok in args.values.split(",") if tok]
            sweep(config, args.axis, values)
        else:
            analyze_run(args.run_dir)
    except (ConfigError, FormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (NatselError, OSError) as err:
        print(f"aborted: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
