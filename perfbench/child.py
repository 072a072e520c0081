"""One benchmark run in a fresh process: set up, run, check, report.

Started by ``run.py`` with the BLAS thread count pinned in its
environment.  It times the set-up (import, config parse, ``datasets_for``
and model construction), then one ``natsel.cli.run_experiment`` over the
training seeds ``workloads.run_seeds`` derives from ``--seed``, then
checks the artifacts the run wrote.  The last line of its standard
output is one JSON object; a run that raises still prints one, with
``ok`` false.

    python3 perfbench/child.py --root . --workload mlp_nsws --seed 1 \
        --work .perfbench_runs/work/x [--trace-out spans.jsonl]
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

# The span-derived scoring ratio and the program's own ns_seconds ratio
# time the same intervals of the same run; a larger relative gap means
# the spans no longer sit where the program's timer does.
RATIO_TOLERANCE = 0.25


def _blas_manifest() -> dict:
    """numpy/BLAS versions and the BLAS thread count actually in effect."""
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    symbols = ("scipy_openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads", "openblas_get_num_threads")
    for lib in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in symbols:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads}


def _check_outputs(config) -> tuple[dict, list]:
    """Re-read the artifacts of every seed of the run; (facts, problems)."""
    from natsel.config import datasets_for
    from natsel.model import load_checkpoint, save_checkpoint
    from natsel.trainer import (deterministic_csv_bytes, evaluate,
                                read_metrics_csv)

    problems = []
    run_dir = Path(config.output_dir) / config.label
    train_cfg = config.train
    epochs = train_cfg.epochs
    scored = train_cfg.weighting.rho != 0.0
    m = train_cfg.layout.group_size
    batch = train_cfg.batch_size
    chance = 1.0 / config.data.classes
    digest = hashlib.sha256()
    accuracies = []
    samples = score_rows = composites = 0
    seconds = ns_seconds = 0.0

    for seed in config.seeds:
        train_set, test_set = datasets_for(config, seed)
        n_train = len(train_set)
        samples += epochs * n_train
        per_epoch = sum(min(batch, n_train - lo) // m
                        for lo in range(0, n_train, batch)) if scored else 0

        metrics_path = run_dir / f"metrics_{seed}.csv"
        records = read_metrics_csv(metrics_path)
        train_rows = [r for r in records if r.split == "train"]
        test_rows = [r for r in records if r.split == "test"]
        if len(train_rows) != epochs or len(test_rows) != epochs:
            problems.append(f"seed {seed}: metrics CSV has {len(train_rows)} "
                            f"train and {len(test_rows)} test rows, "
                            f"expected {epochs} each")
        for r in train_rows:
            if r.train_forward_passes != n_train:
                problems.append(f"seed {seed} epoch {r.epoch}: "
                                f"train_forward_passes "
                                f"{r.train_forward_passes} != N={n_train}")
            if r.ns_forward_passes != per_epoch:
                problems.append(f"seed {seed} epoch {r.epoch}: "
                                f"ns_forward_passes {r.ns_forward_passes} "
                                f"!= {per_epoch}")
        composites += sum(r.ns_forward_passes for r in train_rows)
        seconds += sum(r.seconds for r in train_rows)
        ns_seconds += sum(r.ns_seconds for r in train_rows)

        scores_path = run_dir / f"scores_{seed}.csv"
        rows = 0
        if scores_path.exists():
            with open(scores_path, newline="") as fh:
                rows = sum(1 for _ in csv.reader(fh)) - 1
        if rows != (epochs * n_train if scored else 0):
            problems.append(f"seed {seed}: score log has {rows} rows, "
                            f"expected {epochs * n_train if scored else 0}")
        score_rows += rows

        accuracy = test_rows[-1].accuracy if test_rows else float("nan")
        if not (math.isfinite(accuracy) and accuracy > chance):
            problems.append(f"seed {seed}: final test accuracy {accuracy} "
                            f"not above chance {chance}")
        accuracies.append(accuracy)

        checkpoint_path = run_dir / f"checkpoint_{seed}.bin"
        checkpoint = checkpoint_path.read_bytes()
        reloaded = load_checkpoint(checkpoint_path)
        resaved = run_dir / "checkpoint_roundtrip.bin"
        save_checkpoint(reloaded, resaved)
        if resaved.read_bytes() != checkpoint:
            problems.append(f"seed {seed}: checkpoint bytes change on "
                            "load/save round trip")
        replayed = evaluate(reloaded, test_set, train_cfg.loss).accuracy
        if replayed != accuracy:
            problems.append(f"seed {seed}: reloaded checkpoint scores "
                            f"{replayed}, run reported {accuracy}")

        digest.update(deterministic_csv_bytes(metrics_path))
        digest.update(checkpoint)

    facts = {
        "test_accuracy": sum(accuracies) / len(accuracies),
        "samples": samples,
        "score_rows": score_rows,
        "composites": composites,
        "csv_ratio": ns_seconds / (seconds - ns_seconds) if scored else 0.0,
        "output_digest": digest.hexdigest(),
    }
    return facts, problems


def _layer_metrics(tracer, facts: dict) -> dict:
    """Per-layer numbers of one traced run, keyed by metric name."""
    times = tracer.layer_times()

    def busy(name):
        return times.get(name, {}).get("busy", 0.0)

    def own(name):
        return times.get(name, {}).get("self", 0.0)

    scoring = busy("nscore.batch_ns_scores") + busy("weighting.compute_weights")
    epoch_loop = busy("trainer.train") - busy("trainer.evaluate")
    ratio = scoring / (epoch_loop - scoring) if scoring else 0.0
    return {
        "trainer.train.self_s": own("trainer.train"),
        "tensor.backward.s": busy("tensor.backward"),
        "tensor.records_per_step": (tracer.tape_records / tracer.steps
                                    if tracer.steps else 0.0),
        "trainer.weighted_batch_loss.s": busy("trainer.weighted_batch_loss"),
        "nscore.batch_ns_scores.self_s": own("nscore.batch_ns_scores"),
        "nscore.batch_ns_scores.calls":
            times.get("nscore.batch_ns_scores", {}).get("calls", 0),
        "model.forward_batch.score_s": busy("model.forward_batch.score"),
        "nscore.composites": tracer.composites,
        "nscore.overhead_ratio": ratio,
        "nscore.overhead_ratio_csv": facts["csv_ratio"],
        "model.forward_batch.train_s": busy("model.forward_batch.train"),
        "model.forward_batch.eval_s": busy("model.forward_batch.eval"),
        "trainer.evaluate.self_s": own("trainer.evaluate"),
        "weighting.compute_weights.s": busy("weighting.compute_weights"),
        "trainer.sgd_momentum_step.s": busy("trainer.sgd_momentum_step"),
        "data.epoch_indices.s": busy("data.epoch_indices"),
        "cli.run_experiment.self_s": own("cli.run_experiment"),
        "cli.score_rows": facts["score_rows"],
        "config.datasets_for.s": busy("config.datasets_for"),
        "trace.missing_wrappers": len(tracer.missing),
    }


def _trace_problems(layers: dict, facts: dict) -> list:
    """Cross-checks of the scoring spans against the program's counters."""
    problems = []
    if layers["nscore.composites"] != facts["composites"]:
        problems.append(f"traced {layers['nscore.composites']} composites, "
                        f"CSV counts {facts['composites']}")
    spans = layers["nscore.overhead_ratio"]
    own = layers["nscore.overhead_ratio_csv"]
    if abs(spans - own) > RATIO_TOLERANCE * own:
        problems.append(f"span scoring ratio {spans:.4f} vs CSV ratio "
                        f"{own:.4f}")
    return problems


def _run(args) -> dict:
    root = Path(args.root).resolve()
    src = root / "src"
    sys.path.insert(0, str(src))

    started = time.perf_counter()
    import natsel.cli
    from natsel.config import classifier_for, datasets_for
    from natsel.model import Classifier

    config = workloads.load_config(args.workload, root, args.seed, args.work)
    first = config.seeds[0]
    train_set, _ = datasets_for(config, first)
    Classifier(classifier_for(config, first,
                              image_shape=train_set.image_shape,
                              class_count=train_set.class_count))
    setup_s = time.perf_counter() - started
    del train_set

    if not Path(natsel.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"natsel imported from {natsel.__file__}, "
                           f"not from {src}")

    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()
    started = time.perf_counter()
    try:
        natsel.cli.run_experiment(config, echo=lambda *a, **k: None)
    finally:
        run_s = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    facts, problems = _check_outputs(config)
    report = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb,
              **facts}
    if tracer is not None:
        tracer.write(args.trace_out)
        layers = _layer_metrics(tracer, facts)
        report.update(layers=layers, missing=tracer.missing)
        if "natsel.trainer.batch_ns_scores" not in tracer.missing:
            problems += _trace_problems(layers, facts)
    report.update(ok=not problems, problems=problems,
                  manifest=_blas_manifest())
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()
    try:
        report = _run(args)
    except Exception as err:  # one failed run is reported, not fatal
        traceback.print_exc()
        report = {"ok": False, "problems": [f"{type(err).__name__}: {err}"]}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
