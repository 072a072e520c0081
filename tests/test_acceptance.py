"""Acceptance gate: eleven checks, one printed verdict line each.

Each test prints ``[criterion N] name: PASS/FAIL (detail)`` on the real
terminal (bypassing capture) and then asserts, so a full run always shows
eleven verdict lines.  Criteria 7, 8, and 10 train on the shipped configs
in ``configs/``; the rest are property suites with frozen oracles.
"""

import csv
import math
import time
from pathlib import Path

import numpy as np

from conftest import (
    centroid_model,
    finite_difference,
    group_members,
    max_relative_error,
    reference_resize,
    taped_gradients,
    train_erm,
)
from natsel.cli import LAYOUT_AXIS, RHO_AXIS, SIGMA_AXIS, run_experiment, sweep
from natsel.config import (
    apply_overrides,
    classifier_for,
    datasets_for,
    parse_config,
    train_for,
)
from natsel.data import DataSettings, build_splits
from natsel.imageops import GridLayout, bilinear_resize
from natsel.model import Classifier, ClassifierConfig, LossConfig
from natsel.nscore import batch_ns_scores, params_hash
from natsel.trainer import (
    deterministic_csv_bytes,
    duality_check,
    read_metrics_csv,
    train,
    weighted_batch_loss,
    write_metrics_csv,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

quiet = lambda *args, **kwargs: None


def _verdict(capsys, num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[criterion {num:2d}] {name}: "
              f"{'PASS' if ok else 'FAIL'}{tail}", flush=True)
    assert ok, f"criterion {num} ({name}) failed{tail}"


def _load(name):
    return parse_config((CONFIG_DIR / f"{name}.ini").read_text())


def _last_test_record(records):
    return [r for r in records if r.split == "test"][-1]


def _run_arm(config, seed):
    train_set, test_set = datasets_for(config, seed)
    model = Classifier(classifier_for(config, seed,
                                      image_shape=train_set.image_shape,
                                      class_count=train_set.class_count))
    _, records = train(train_for(config, seed), train_set, test_set, model)
    return records


def test_criterion_01_group_normalization(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    groups_checked = 0
    ok = True
    for it in range(120):
        for layout in (GridLayout(1, 2), GridLayout(2, 2)):
            k = int(rng.integers(2, 6))
            hidden = () if it % 2 == 0 else (4,)
            model = Classifier(ClassifierConfig(
                input_shape=(3, 3, 1), hidden=hidden, class_count=k,
                init_seed=int(rng.integers(0, 2**31))))
            batch = int(rng.integers(8, 17))
            images = rng.random((batch, 3, 3, 1))
            labels = rng.integers(0, k, size=batch)
            result = batch_ns_scores(images, labels, model, layout)
            for group in range(result.group_count):
                idx = group_members(result, group)
                total = result.score[idx].sum()
                ok = ok and abs(total - 1.0) <= 1e-9
                ok = ok and np.all(result.score[idx] > 0.0)
                ok = ok and np.all(result.score[idx] < 1.0)
                groups_checked += 1
    elapsed = time.perf_counter() - started
    ok = ok and groups_checked >= 1000 and elapsed < 10.0
    _verdict(capsys, 1, "group score normalization", ok,
             f"{groups_checked} groups, {elapsed:.1f}s")


def test_criterion_02_detached_scoring(capsys):
    rng = np.random.default_rng(202)
    ok = True
    for case in range(100):
        model = Classifier(ClassifierConfig(
            input_shape=(3, 3, 1), hidden=(4,), class_count=3,
            init_seed=case))
        batch = int(rng.integers(4, 12))
        images = rng.random((batch, 3, 3, 1))
        labels = rng.integers(0, 3, size=batch)
        layout = GridLayout(1, 2) if case % 2 == 0 else GridLayout(2, 2)
        before = params_hash(model)
        batch_ns_scores(images, labels, model, layout)
        ok = ok and params_hash(model) == before
    _verdict(capsys, 2, "scoring leaves parameters untouched", ok,
             "100 invocations")


def test_criterion_03_plain_training_equivalence(capsys):
    started = time.perf_counter()
    config = apply_overrides(_load("reference"), sigma=1.0, rho=0.0)
    seed = config.seeds[0]
    train_set, test_set = datasets_for(config, seed)

    model_a = Classifier(classifier_for(config, seed,
                                        image_shape=train_set.image_shape,
                                        class_count=train_set.class_count))
    _, records_a = train(train_for(config, seed), train_set, test_set,
                         model_a)
    model_b = Classifier(classifier_for(config, seed,
                                        image_shape=train_set.image_shape,
                                        class_count=train_set.class_count))
    _, records_b = train_erm(train_for(config, seed), train_set, test_set,
                             model_b)
    elapsed = time.perf_counter() - started

    same_metrics = ([r.deterministic_key() for r in records_a]
                    == [r.deterministic_key() for r in records_b])
    same_params = params_hash(model_a) == params_hash(model_b)
    ok = same_metrics and same_params and elapsed < 60.0
    _verdict(capsys, 3, "rho=0 training equals the plain loop bitwise", ok,
             f"{elapsed:.1f}s")


def test_criterion_04_weighted_gradient_fidelity(capsys):
    # The path training runs: batched taped logits into the fused loss.
    rng = np.random.default_rng(404)
    loss_cfgs = (LossConfig(),
                 LossConfig(kind="focal", focal_gamma=2.0),
                 LossConfig(kind="label_smoothing", smoothing_epsilon=0.1))
    worst = 0.0
    for loss_cfg in loss_cfgs:
        for case in range(50):
            model = Classifier(ClassifierConfig(
                input_shape=(4, 4, 1), hidden=(6,), class_count=3,
                init_seed=1000 + case))
            assert sum(p.size for p in model.parameters) <= 1000
            images = rng.random((3, 4, 4, 1))
            labels = rng.integers(0, 3, size=3)
            weights = rng.uniform(0.5, 2.0, size=3)

            def batch_loss(params, tape=None):
                logits = model.forward_batch(images, tape=tape)
                return weighted_batch_loss(logits, labels, weights, loss_cfg,
                                           tape=tape)

            analytic = taped_gradients(batch_loss, model.parameters)
            numeric = finite_difference(
                lambda params: float(batch_loss(params)),
                model.parameters, step=1e-6)
            worst = max(worst, max_relative_error(analytic, numeric))
    ok = worst <= 1e-5
    _verdict(capsys, 4, "weighted loss gradients match finite differences",
             ok, f"max rel err {worst:.2e} over 50 cases x "
                 f"{len(loss_cfgs)} losses")


def test_criterion_05_resize_matches_oracle(capsys):
    rng = np.random.default_rng(505)
    worst = 0.0
    images_used = 0
    for h in range(1, 10):
        for w in range(1, 10):
            img = rng.random((h, w, 1))
            images_used += 1
            for out_h in range(1, 10):
                for out_w in range(1, 10):
                    got = bilinear_resize(img, (out_h, out_w))
                    want = reference_resize(img, out_h, out_w)
                    worst = max(worst, float(np.abs(got - want).max()))
    # Fresh images over a second pass of mixed channel counts.
    for _ in range(200 - images_used):
        h, w = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        c = int(rng.integers(1, 4))
        img = rng.random((h, w, c))
        images_used += 1
        out_h, out_w = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        got = bilinear_resize(img, (out_h, out_w))
        want = reference_resize(img, out_h, out_w)
        worst = max(worst, float(np.abs(got - want).max()))
    ok = worst <= 1e-12 and images_used >= 200
    _verdict(capsys, 5, "bilinear resize equals per-pixel oracle", ok,
             f"max abs err {worst:.2e}, {images_used} images")


def test_criterion_06_fitness_risk_duality(capsys):
    settings = DataSettings(classes=2, height=4, width=4, channels=1,
                            class_counts=(6, 6), noise_std=0.0,
                            test_per_class=1)
    dataset, _ = build_splits(settings, 77)
    candidates = [centroid_model(dataset, scale=0.5 * (k + 1))
                  for k in range(10)]
    ok = True
    for ceiling in (1.0, 10.0, 100.0):
        report = duality_check(candidates, dataset, fitness_ceiling=ceiling)
        ok = ok and report.spearman == -1.0
        ok = ok and report.fitness_order == report.risk_order
    _verdict(capsys, 6, "fitness ranking mirrors risk ranking", ok,
             "10 settings, ceilings {1, 10, 100}, spearman -1 exact")


def test_criterion_07_longtail_gain(capsys):
    started = time.perf_counter()
    nslf = _load("longtail_nslf")
    baseline = apply_overrides(nslf, sigma=1.0, rho=0.0)
    gaps = []
    wins = 0
    for seed in nslf.seeds:
        base_balanced = float(np.mean(
            _last_test_record(_run_arm(baseline, seed)).per_class_accuracy))
        nslf_balanced = float(np.mean(
            _last_test_record(_run_arm(nslf, seed)).per_class_accuracy))
        gaps.append(nslf_balanced - base_balanced)
        wins += nslf_balanced >= base_balanced
    elapsed = time.perf_counter() - started
    mean_gap = float(np.mean(gaps))
    ok = mean_gap >= 0.01 and wins >= 2 and elapsed < 600.0
    _verdict(capsys, 7, "loser-focusing lifts long-tail balanced accuracy",
             ok, f"mean gap {100 * mean_gap:+.2f} pts, wins {wins}/3, "
                 f"{elapsed:.0f}s")


def test_criterion_08_label_noise_robustness(capsys):
    started = time.perf_counter()
    nsws = _load("labelnoise_nsws")
    baseline = apply_overrides(nsws, sigma=1.0, rho=0.0)
    base_accs = []
    nsws_accs = []
    for seed in nsws.seeds:
        base_accs.append(_last_test_record(_run_arm(baseline, seed)).accuracy)
        nsws_accs.append(_last_test_record(_run_arm(nsws, seed)).accuracy)
    elapsed = time.perf_counter() - started
    base_mean = float(np.mean(base_accs))
    nsws_mean = float(np.mean(nsws_accs))
    ok = nsws_mean >= base_mean and elapsed < 600.0
    _verdict(capsys, 8, "winner-strengthening tolerates 20% label noise",
             ok, f"clean-test {nsws_mean:.4f} vs baseline {base_mean:.4f}, "
                 f"{elapsed:.0f}s")


def test_criterion_09_scoring_overhead(capsys, tmp_path):
    config = _load("reference")
    seed = config.seeds[0]
    train_set, test_set = datasets_for(config, seed)
    model = Classifier(classifier_for(config, seed,
                                      image_shape=train_set.image_shape,
                                      class_count=train_set.class_count))
    _, records = train(train_for(config, seed), train_set, test_set, model)
    write_metrics_csv(tmp_path / "metrics.csv", records)
    records = read_metrics_csv(tmp_path / "metrics.csv")

    m = config.train.layout.group_size
    batch = config.train.batch_size
    n = len(train_set)
    expected_groups = sum((min(batch, n - start)) // m
                          for start in range(0, n, batch))
    train_records = [r for r in records if r.split == "train"]
    counts_ok = all(r.ns_forward_passes == expected_groups
                    and r.train_forward_passes == n for r in train_records)

    ns_time = sum(r.ns_seconds for r in train_records)
    total = sum(r.seconds for r in train_records)
    overhead = ns_time / (total - ns_time)
    # per-step split, so a reading shows which side of the ratio moved
    steps = len(train_records) * math.ceil(n / batch)
    ok = counts_ok and overhead < 0.35
    _verdict(capsys, 9, "composite scoring overhead", ok,
             f"{expected_groups} composites/epoch, "
             f"scoring {1e6 * ns_time / steps:.1f} us/step, "
             f"rest {1e6 * (total - ns_time) / steps:.1f} us/step, "
             f"wall overhead {100 * overhead:.1f}%")


def test_criterion_10_sweep_machinery(capsys, tmp_path):
    started = time.perf_counter()
    longtail = apply_overrides(_load("longtail_nslf"),
                               output_dir=str(tmp_path))
    axes = {
        "sigma": (apply_overrides(longtail, rho=1.0, label="sig"),
                  SIGMA_AXIS),
        "rho": (apply_overrides(longtail, label="rho_ax"), RHO_AXIS),
        "layout": (apply_overrides(longtail, label="lay"), LAYOUT_AXIS),
    }
    ok = True
    sigma_accs = {}
    for axis, (config, expected_values) in axes.items():
        results = sweep(config, axis, echo=quiet)
        table = tmp_path / f"sweep_{axis}.csv"
        with open(table, newline="") as fh:
            rows = list(csv.reader(fh))
        ok = ok and rows[0] == ["axis", "value", "accuracy_mean",
                                "accuracy_std"]
        ok = ok and [r[1] for r in rows[1:]] == [str(v)
                                                 for v in expected_values]
        for row in rows[1:]:
            value_ok = (math.isfinite(float(row[2]))
                        and math.isfinite(float(row[3])))
            ok = ok and value_ok
        if axis == "sigma":
            sigma_accs = {row[1]: float(row[2]) for row in rows[1:]}
        ok = ok and len(results) == len(expected_values)
    best_positive = max(acc for value, acc in sigma_accs.items()
                        if float(value) > 0.0)
    ok = ok and sigma_accs["0.0"] < best_positive
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1800.0
    _verdict(capsys, 10, "sweeps complete and sigma=0 trails sigma>0", ok,
             f"sigma=0 {sigma_accs['0.0']:.4f} vs best {best_positive:.4f}, "
             f"{elapsed:.0f}s")


def test_criterion_11_bitwise_repeatability(capsys, tmp_path):
    config = _load("reference")
    first = run_experiment(
        apply_overrides(config, output_dir=str(tmp_path / "a")), echo=quiet)
    second = run_experiment(
        apply_overrides(config, output_dir=str(tmp_path / "b")), echo=quiet)
    ok = first.seed_accuracy == second.seed_accuracy
    for seed in config.seeds:
        a = tmp_path / "a" / config.label / f"metrics_{seed}.csv"
        b = tmp_path / "b" / config.label / f"metrics_{seed}.csv"
        ok = ok and deterministic_csv_bytes(a) == deterministic_csv_bytes(b)
        ca = tmp_path / "a" / config.label / f"checkpoint_{seed}.bin"
        cb = tmp_path / "b" / config.label / f"checkpoint_{seed}.bin"
        ok = ok and ca.read_bytes() == cb.read_bytes()
    _verdict(capsys, 11, "reruns reproduce metrics byte for byte", ok,
             f"{len(config.seeds)} seeds, two executions")
