"""natsel training benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload mlp_nsws --seed 1 --seconds 30 --trace 0

Run from the root of a natsel checkout.  Each measured run is a fresh
child process (``child.py``) with the BLAS thread count pinned to 1.  It
sets up, calls ``natsel.cli.run_experiment`` once over the training
seeds derived from ``--seed``, and checks what the run wrote.  Runs
repeat until ``--seconds`` have passed, at least ``MIN_RUNS`` times.
Between runs this process times a fixed numpy probe; run time is
reported scaled to the reference machine's speed by the probe time (see
``_end_to_end``), and so is set-up time.
All runs of one seed must write identical metrics-CSV and checkpoint
bytes.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced runs and prints the
per-layer metrics from the traced ones, plus the tracing overhead
(traced minus untraced run time).  Artifacts, the environment manifest
and the last run's spans go to ``.perfbench_runs/`` in the checkout.
Exits 2 without a result when the checkout has no natsel sources.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, config_path  # noqa: E402

MIN_RUNS = 3
MAX_RUNS = 40
# Stop starting runs after this long, so a slow machine still exits
# well inside three minutes.
LAUNCH_CUTOFF_S = 100.0
CHILD_TIMEOUT_S = 60.0
BLAS_THREADS = "1"
# About the median time of ``_probe`` on the reference machine (2-vCPU
# Xeon VM at 2.1 GHz, Python 3.11, numpy 2.4, one BLAS thread).
PROBE_REF_S = 0.42
# How far natsel's times follow the probe's, as the exponent of the speed
# correction.  Over ten-seed sets on the reference machine, the log-log
# slope of run time on probe time was 0.43-0.66 wherever the two
# correlated: the probe swings about twice as much as a run, and a full
# ratio (exponent 1) over-corrects.
PROBE_EXPONENT = 0.6


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _run_child(root: Path, workload: str, seed: int, work: Path,
               trace_out: Path | None, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(root),
           "--workload", workload, "--seed", str(seed), "--work", str(work)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": [f"run exceeded {CHILD_TIMEOUT_S} s"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = {"ok": False, "problems": [f"exit {proc.returncode}, no report"]}
    if not report.get("ok"):
        _log(proc.stderr.strip())
    return report


def _probe() -> float:
    """Seconds for a fixed Python and numpy workload that never calls natsel.

    The host's speed swings by up to 2x over tens of seconds (see the
    README), in a process's CPU time as much as in its wall time.  This
    process runs the probe just before and just after each child, so its
    time tracks the speed the child's run saw, while the child's memory
    and allocator state stay untouched.  Like natsel's hot path, the
    per-sample taped loss chain, it is interpreter-bound: small-array
    numpy calls and scalar arithmetic driven from Python.  Its arrays fit
    in L1, because a probe over a few MB proved two to three times more
    sensitive to the host's load than natsel's runs and over-corrected.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    rows = rng.standard_normal((64, 64))
    weight = rng.standard_normal((64, 32)) * 0.1
    started = time.perf_counter()
    total = 0.0
    for i in range(20000):
        x = rows[i % 64:i % 64 + 1]
        hidden = np.maximum(x @ weight, 0.0)
        shifted = np.exp(hidden - hidden.max())
        grad = (shifted / shifted.sum()).T @ x
        total += float(grad[0, 0])
        for j in range(20):
            total += (i ^ j) * 1e-9
    if not np.isfinite(total):
        raise RuntimeError("probe produced a non-finite sum")
    return time.perf_counter() - started


def _median(reports, key):
    values = [r[key] for r in reports if key in r]
    return statistics.median(values) if values else 0.0


def _end_to_end(reports, names) -> dict:
    """Medians over the ok runs; times at the reference machine's speed.

    The host's speed swings by up to 2x over tens of seconds, so a median
    of raw times depends on which minutes it was taken in.  Each child's
    probe time is the mean of the ``_probe`` calls on either side of it.
    A mean time times (``PROBE_REF_S`` / mean probe time) to the power
    ``PROBE_EXPONENT`` removes most of the machine's speed and keeps the
    program's, since the probe never calls natsel.
    """
    ok = [r for r in reports if r.get("ok")]
    values = {name: _median(ok, name) for name in names}
    if ok:
        speed = (PROBE_REF_S * len(ok)
                 / sum(r["probe_s"] for r in ok)) ** PROBE_EXPONENT
        values["run_ref_s"] = statistics.mean(r["run_s"] for r in ok) * speed
        values["setup_s"] = statistics.mean(r["setup_s"] for r in ok) * speed
        values["samples_per_ref_s"] = ok[0]["samples"] / values["run_ref_s"]
    return values


def _per_layer(reports, names) -> dict:
    ok = [r for r in reports if r.get("ok")]
    traced = [r for r in ok if "layers" in r]
    values = {name: _median([r["layers"] for r in traced], name)
              for name in names}
    values["trace.overhead_s"] = (
        _median(traced, "run_s")
        - _median([r for r in ok if "layers" not in r], "run_s"))
    return values


def _mark_unrepeatable(reports) -> None:
    """Fail every ok run whose outputs differ from the first ok run's."""
    keys = ("output_digest", "test_accuracy")
    ok = [r for r in reports if r.get("ok")]
    for r in ok[1:]:
        differ = [k for k in keys if r[k] != ok[0][k]]
        if differ:
            r["ok"] = False
            r["problems"].append(f"rerun of the same seed changed {differ}")
            _log(f"rerun of the same seed changed {differ}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    src = root / "src" / "natsel"
    if not (src / "__init__.py").is_file():
        _log(f"error: no natsel sources under {root}; run from a checkout")
        return 2
    out = root / ".perfbench_runs"
    out.mkdir(exist_ok=True)
    # Byte-compile first so no measured set-up pays for it.
    compileall.compile_dir(str(src), quiet=1)

    # Set before numpy is first imported (by the probe), and inherited by
    # every child.
    os.environ.update(OPENBLAS_NUM_THREADS=BLAS_THREADS,
                      OMP_NUM_THREADS=BLAS_THREADS,
                      MKL_NUM_THREADS=BLAS_THREADS)
    env = dict(os.environ)
    manifest = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "blas_threads_pinned": int(BLAS_THREADS),
        "config_sha256": hashlib.sha256(
            config_path(args.workload, root).read_bytes()).hexdigest(),
    }
    tag = f"{args.workload}-{args.seed}"
    trace_path = out / f"trace-{tag}.jsonl"

    _probe()  # warm-up: numpy import and first-call costs
    started = time.perf_counter()
    reports = []
    probe_s = _probe()
    while True:
        elapsed = time.perf_counter() - started
        if len(reports) >= MAX_RUNS or elapsed >= LAUNCH_CUTOFF_S:
            break
        if len(reports) >= MIN_RUNS and elapsed >= args.seconds:
            break
        traced = args.trace == 1 and len(reports) % 2 == 1
        report = _run_child(root, args.workload, args.seed,
                            out / f"work-{tag}-{len(reports)}",
                            trace_path if traced else None, env)
        probe_after = _probe()
        report["probe_s"] = (probe_s + probe_after) / 2
        probe_s = probe_after
        reports.append(report)
        _log(f"run {len(reports)}{' traced' if traced else ''}: "
             f"run_s={report.get('run_s')} probe_s={report.get('probe_s')} "
             f"setup_s={report.get('setup_s')}")
        for problem in report.get("problems", []):
            _log(f"run {len(reports)}: {problem}")
    _mark_unrepeatable(reports)
    failed = sum(1 for r in reports if not r.get("ok"))

    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        values = _per_layer(reports, units)
        missing = sorted({m for r in reports for m in r.get("missing", [])})
        if missing:
            _log(f"missing (reported as zero): {', '.join(missing)}")
    else:
        values = _end_to_end(reports, units)
    manifest.update(next((r["manifest"] for r in reports if "manifest" in r),
                         {}))
    untraced = [r for r in reports if r.get("ok") and "layers" not in r]
    manifest["run_s_median"] = _median(untraced, "run_s")
    manifest["setup_s_median"] = _median(untraced, "setup_s")
    manifest["probe_s_median"] = _median(untraced, "probe_s")
    manifest["runs"] = len(reports)
    manifest["loadavg_end"] = os.getloadavg()
    (out / f"manifest-{tag}.json").write_text(json.dumps(manifest, indent=1))
    _log(json.dumps(manifest))

    result = {
        "correct": failed == 0,
        "attempted": len(reports),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
