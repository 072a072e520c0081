"""End-to-end command line: run, sweep, analyze, exit codes."""

import csv
import dataclasses
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest

import natsel.cli
import natsel.model
from natsel.cli import (
    LAYOUT_AXIS,
    RHO_AXIS,
    SIGMA_AXIS,
    main,
    run_experiment,
    sweep,
)
from natsel.config import parse_config, set_keys
from natsel.errors import ConfigError, TrainingDiverged
from natsel.nscore import NSResult
from natsel.trainer import (
    _read_scores,
    _Step,
    deterministic_csv_bytes,
    read_metrics_csv,
)

from conftest import save_idx, write_scores

quiet = lambda *args, **kwargs: None

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASE = """
[experiment]
label = demo
output_dir = {out}
seeds = 1,2

[dataset]
classes = 2
height = 4
width = 4
balanced_count = 8
test_per_class = 4
noise_std = 0.1

[model]
hidden = 8

[train]
batch_size = 8
epochs = 2
learning_rate = 0.5
momentum = 0.9

[grouping]
layout = 1x2

[weighting]
sigma = 0.7
rho = 1.0
"""


# (text in BASE, its replacement): each gives a value that parse_config
# rejects, so a run stops before it writes anything.
BAD_VALUES = [
    ("noise_std = 0.1", "noise_std = -1"),
    ("[dataset]", "[dataset]\nlabel_noise_rate = 1.5"),
    ("classes = 2", "classes = 1"),
    ("height = 4", "height = 0"),
    ("balanced_count = 8", "balanced_count = 0"),
    ("test_per_class = 4", "test_per_class = 0"),
    ("[dataset]", "[dataset]\nvariant = cifar1000"),
    ("[dataset]", "[dataset]\nvariant = cifar100"),
    ("[model]", "[model]\nconv_kernel = -2"),
    ("[model]", "[model]\nconv_kernel = 3\nconv_channels = 0"),
    ("[model]", "[model]\nconv_kernel = 5"),
    ("hidden = 8", "hidden = 0"),
    ("seeds = 1,2", "seeds = 5,5"),
]


def write_config(tmp_path, name="config.ini", out="out", extra=""):
    path = tmp_path / name
    path.write_text(BASE.format(out=tmp_path / out) + extra)
    return path


class TestRun:
    def test_run_writes_all_artifacts(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["run", str(cfg_path)]) == 0
        run_dir = tmp_path / "out" / "demo"
        for name in ("config.ini", "aggregate.csv", "metrics_1.csv",
                     "metrics_2.csv", "checkpoint_1.bin", "checkpoint_2.bin",
                     "scores_1.csv", "scores_2.csv"):
            assert (run_dir / name).exists(), name

    def test_archived_config_reparses_to_effective_settings(self, tmp_path):
        main(["run", str(write_config(tmp_path))])
        archived = (tmp_path / "out" / "demo" / "config.ini").read_text()
        cfg = parse_config(archived)
        assert cfg.train.weighting.strategy == "ns_ws"
        assert cfg.seeds == (1, 2)
        assert cfg.train.batch_size == 8

    def test_reruns_are_deterministic(self, tmp_path):
        main(["run", str(write_config(tmp_path, "a.ini", out="out_a"))])
        main(["run", str(write_config(tmp_path, "b.ini", out="out_b"))])
        for seed in (1, 2):
            a = tmp_path / "out_a" / "demo" / f"metrics_{seed}.csv"
            b = tmp_path / "out_b" / "demo" / f"metrics_{seed}.csv"
            assert deterministic_csv_bytes(a) == deterministic_csv_bytes(b)
            ca = (tmp_path / "out_a" / "demo" / f"checkpoint_{seed}.bin")
            cb = (tmp_path / "out_b" / "demo" / f"checkpoint_{seed}.bin")
            assert ca.read_bytes() == cb.read_bytes()

    def test_uniform_weighting_skips_score_log(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["run", str(cfg_path), "--rho", "0.0",
                     "--label", "plain"]) == 0
        run_dir = tmp_path / "out" / "plain"
        assert (run_dir / "metrics_1.csv").exists()
        assert not (run_dir / "scores_1.csv").exists()

    def test_aggregate_matches_per_seed_metrics(self, tmp_path):
        main(["run", str(write_config(tmp_path))])
        run_dir = tmp_path / "out" / "demo"
        per_seed = {s: read_metrics_csv(run_dir / f"metrics_{s}.csv")
                    for s in (1, 2)}
        with open(run_dir / "aggregate.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "split", "mean_loss_mean",
                           "mean_loss_std", "accuracy_mean", "accuracy_std",
                           "seed_count"]
        assert len(rows) - 1 == len(per_seed[1])
        for i, row in enumerate(rows[1:]):
            recs = [per_seed[s][i] for s in (1, 2)]
            assert int(row[0]) == recs[0].epoch
            assert row[1] == recs[0].split
            accs = np.array([r.accuracy for r in recs])
            assert abs(float(row[4]) - accs.mean()) <= 1e-12
            assert abs(float(row[5]) - accs.std(ddof=1)) <= 1e-12
            assert int(row[6]) == 2

    def test_score_log_round_trip(self, tmp_path):
        cfg_path = write_config(tmp_path)
        main(["run", str(cfg_path)])
        run_dir = tmp_path / "out" / "demo"
        rows = _read_scores(run_dir / "scores_1.csv")
        assert rows, "score log should not be empty"
        config = parse_config(cfg_path.read_text())
        sigma = config.train.weighting.sigma
        rho = config.train.weighting.rho
        for epoch, step, gid, sample, label, q, s, w in rows:
            assert 0 <= epoch < 2
            assert label in (0, 1)
            assert 0.0 < s < 1.0 or (gid == -1 and s == 0.5)
            assert abs(w - (sigma + rho * s)) <= 1e-12

    def test_score_log_bytes_match_csv_writer(self, tmp_path):
        # The score log formats rows itself; its bytes must be what the
        # csv module writes for the same per-sample rows.
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, size=20)
        steps = []
        for step in range(3):
            idx = rng.permutation(20)[:6]
            gids = np.array([0, 0, 1, 1, -1, -1])
            ns = NSResult(rng.random(6), rng.random(6), gids, 2)
            steps.append(_Step(step // 2, step, idx, labels[idx],
                               np.zeros(6, dtype=np.int64), 1.0, ns,
                               rng.random(6) * 1e-20, 0.0))
        write_scores(tmp_path / "fast.csv", steps)
        with open(tmp_path / "plain.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "step", "group_id", "sample_index",
                             "label", "q", "s", "w"])
            for st in steps:
                for pos in range(st.indices.shape[0]):
                    writer.writerow([
                        st.epoch, st.step, int(st.ns.group_ids[pos]),
                        int(st.indices[pos]), int(labels[st.indices[pos]]),
                        repr(float(st.ns.raw[pos])),
                        repr(float(st.ns.score[pos])),
                        repr(float(st.weights[pos]))])
        assert (tmp_path / "fast.csv").read_bytes() == \
            (tmp_path / "plain.csv").read_bytes()

    def test_failed_training_leaves_no_artifacts_of_that_seed(
            self, tmp_path, monkeypatch):
        # With no room for a second split, every seed is a stack of one.
        real_train = natsel.cli.train
        calls = []

        def train_fails_second_seed(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise TrainingDiverged(1, 3, "batch loss", float("nan"), 2)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(natsel.cli, "_STACK_BYTES", 0)
        monkeypatch.setattr(natsel.cli, "train", train_fails_second_seed)
        assert main(["run", str(write_config(tmp_path))]) == 2
        run_dir = tmp_path / "out" / "demo"
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "checkpoint_1.bin", "config.ini", "metrics_1.csv",
            "scores_1.csv"]

    def test_interrupted_write_leaves_no_partial_artifact(
            self, tmp_path, monkeypatch):
        def save_half(model, path):
            with open(path, "wb") as fh:
                fh.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(natsel.cli, "save_checkpoint", save_half)
        assert main(["run", str(write_config(tmp_path))]) == 2
        run_dir = tmp_path / "out" / "demo"
        assert sorted(p.name for p in run_dir.iterdir()) == ["config.ini"]

    @pytest.mark.parametrize("writer", ["write_metrics_csv",
                                        "save_checkpoint"])
    def test_failed_write_of_the_second_seed_leaves_no_artifact_of_the_stack(
            self, tmp_path, monkeypatch, writer):
        # Seeds 1 and 2 train as one stack.  Seed 2's write raises once
        # its file is written, after seed 1 has written everything.
        real = getattr(natsel.cli, writer)
        calls = []

        def fails_second(*args):
            calls.append(args)
            real(*args)
            if len(calls) == 2:
                raise OSError("disk full")

        monkeypatch.setattr(natsel.cli, writer, fails_second)
        assert main(["run", str(write_config(tmp_path))]) == 2
        assert len(calls) == 2
        run_dir = tmp_path / "out" / "demo"
        assert sorted(p.name for p in run_dir.iterdir()) == ["config.ini"]

    def test_run_for_stamps_run_seed(self, tmp_path):
        config = parse_config(write_config(tmp_path).read_text())
        run = natsel.cli._run_for(config, 99)
        assert run.seed == 99
        assert run.config == config.train
        assert run.model.config.init_seed == natsel.cli.classifier_for(
            config, 99).init_seed

    def test_single_seed_flag(self, tmp_path):
        cfg_path = write_config(tmp_path)
        config = parse_config(cfg_path.read_text())
        summary = run_experiment(
            parse_config(cfg_path.read_text().replace("seeds = 1,2",
                                                      "seeds = 1")),
            echo=quiet)
        assert summary.single_seed
        assert summary.std_accuracy == 0.0
        assert summary.mean_accuracy == summary.seed_accuracy[0][1]
        full = run_experiment(config, echo=quiet)
        assert not full.single_seed


    def test_each_seed_is_released_before_the_next(self, tmp_path,
                                                   monkeypatch):
        # Weak references to every seed's datasets and model: when the
        # next seed's data is requested, nothing of the last one is alive.
        # With no room for a second split, every seed is a stack of one.
        monkeypatch.setattr(natsel.cli, "_STACK_BYTES", 0)
        built = []
        alive_at_request = []
        build_datasets = natsel.cli.datasets_for

        def datasets_for(config, seed):
            alive_at_request.append([ref() is not None for ref in built])
            pair = build_datasets(config, seed)
            built.extend(weakref.ref(ds) for ds in pair)
            return pair

        def classifier(cfg):
            model = natsel.model.Classifier(cfg)
            built.append(weakref.ref(model))
            return model

        monkeypatch.setattr(natsel.cli, "datasets_for", datasets_for)
        monkeypatch.setattr(natsel.cli, "Classifier", classifier)
        lines = []
        config = parse_config(write_config(tmp_path).read_text().replace(
            "seeds = 1,2", "seeds = 1,2,3"))
        run_experiment(config, echo=lines.append)
        assert alive_at_request == [[], [False] * 3, [False] * 6]
        assert [line.split(":")[0] for line in lines] == \
            ["seed 1", "seed 2", "seed 3", "demo"]


class TestLockstep:
    """A config's seeds train as stacks: as many seeds per ``train``
    call as keep their splits within ``_STACK_BYTES``, whatever the
    model."""

    def counted_train(self, monkeypatch):
        calls = []
        real_train = natsel.cli.train

        def train(runs):
            calls.append([run.seed for run in runs])
            return real_train(runs)

        monkeypatch.setattr(natsel.cli, "train", train)
        return calls

    def assert_same_artifacts(self, stacked: Path, alone: Path):
        """Each of three seeds' metrics (without their wall-clock
        columns), checkpoint and score log, and the aggregate, are equal
        in the two run directories."""
        names = sorted(p.name for p in alone.iterdir())
        assert names == sorted(p.name for p in stacked.iterdir())
        # config.ini names its own output directory
        names.remove("config.ini")
        assert len(names) == 3 * 3 + 1
        for artifact in names:
            read = (deterministic_csv_bytes if artifact.startswith("metrics_")
                    else lambda path: path.read_bytes())
            assert read(stacked / artifact) == read(alone / artifact), \
                artifact

    def test_mlp_and_conv_seeds_stack_alike(self, tmp_path, monkeypatch):
        # The 1 kB splits of the tiny configs fit the budget whatever the
        # model, so each config's three seeds are one stack, and the conv
        # stack writes the bytes of its seeds trained one at a time.
        calls = self.counted_train(monkeypatch)
        seeds = "seeds = 1,2,3"
        mlp = parse_config(write_config(tmp_path).read_text().replace(
            "seeds = 1,2", seeds))
        conv = parse_config(write_config(tmp_path).read_text().replace(
            "seeds = 1,2", seeds).replace("hidden = 8",
                                          "hidden = 8\nconv_kernel = 2"))
        run_experiment(mlp, echo=quiet)
        run_experiment(dataclasses.replace(conv, label="conv"), echo=quiet)
        assert calls == [[1, 2, 3], [1, 2, 3]]
        monkeypatch.setattr(natsel.cli, "_STACK_BYTES", 0)
        run_experiment(dataclasses.replace(conv, label="conv_alone"),
                       echo=quiet)
        assert calls[2:] == [[1], [2], [3]]
        out = tmp_path / "out"
        self.assert_same_artifacts(out / "conv", out / "conv_alone")

    def test_a_stack_is_released_before_the_next(self, tmp_path,
                                                 monkeypatch):
        # Room for two of the 2 kB train splits: seeds 1 and 2 are one
        # stack, alive together, and both are gone when seed 3's data is
        # requested.
        monkeypatch.setattr(natsel.cli, "_STACK_BYTES", 2 * 16 * 4 * 4 * 8)
        calls = self.counted_train(monkeypatch)
        built = []
        alive_at_request = []
        build_datasets = natsel.cli.datasets_for

        def datasets_for(config, seed):
            alive_at_request.append([ref() is not None for ref in built])
            pair = build_datasets(config, seed)
            built.extend(weakref.ref(ds) for ds in pair)
            return pair

        def classifier(cfg):
            model = natsel.model.Classifier(cfg)
            built.append(weakref.ref(model))
            return model

        monkeypatch.setattr(natsel.cli, "datasets_for", datasets_for)
        monkeypatch.setattr(natsel.cli, "Classifier", classifier)
        lines = []
        config = parse_config(write_config(tmp_path).read_text().replace(
            "seeds = 1,2", "seeds = 1,2,3"))
        run_experiment(config, echo=lines.append)
        assert calls == [[1, 2], [3]]
        assert alive_at_request == [[], [True] * 3, [False] * 6]
        assert [line.split(":")[0] for line in lines] == \
            ["seed 1", "seed 2", "seed 3", "demo"]

    def test_divergence_in_a_stack_leaves_no_artifact_of_it(
            self, tmp_path, monkeypatch):
        # A NaN in seed 2's train images: the run raises naming seed 2,
        # and no seed of the stack keeps a metrics, checkpoint or score
        # file, finished or temporary.
        build_datasets = natsel.cli.datasets_for

        def datasets_for(config, seed):
            train_set, test_set = build_datasets(config, seed)
            if seed == 2:
                train_set.images[3, 1, 2, 0] = np.nan
            return train_set, test_set

        monkeypatch.setattr(natsel.cli, "datasets_for", datasets_for)
        calls = self.counted_train(monkeypatch)
        config = parse_config(write_config(tmp_path).read_text().replace(
            "seeds = 1,2", "seeds = 1,2,3"))
        with pytest.raises(TrainingDiverged, match="seed 2") as info:
            run_experiment(config, echo=quiet)
        assert info.value.seed == 2
        assert calls == [[1, 2, 3]]
        run_dir = tmp_path / "out" / "demo"
        assert sorted(p.name for p in run_dir.iterdir()) == ["config.ini"]

    @pytest.mark.parametrize("name", ["reference", "labelnoise_nsws",
                                      "longtail_nslf"])
    def test_stacked_seeds_write_the_bytes_of_seeds_run_alone(
            self, tmp_path, monkeypatch, name):
        # Every artifact of the three shipped seeds trained as one stack
        # against the same seeds trained one at a time, two epochs each:
        # metrics without their wall-clock columns, checkpoints, score
        # logs and the aggregate.
        calls = self.counted_train(monkeypatch)
        config = set_keys(parse_config((CONFIGS / f"{name}.ini").read_text()),
                          {"train.epochs": "2"})
        dirs = {}
        for mode, budget in (("stacked", natsel.cli._STACK_BYTES),
                             ("alone", 0)):
            monkeypatch.setattr(natsel.cli, "_STACK_BYTES", budget)
            dirs[mode] = tmp_path / mode / config.label
            run_experiment(dataclasses.replace(
                config, output_dir=str(tmp_path / mode)), echo=quiet)
        seeds = list(config.seeds)
        assert calls == [seeds] + [[seed] for seed in seeds]
        self.assert_same_artifacts(dirs["stacked"], dirs["alone"])


class TestCifarRun:
    """``natsel run`` on CIFAR binary batches: one record is the label
    byte(s), then 3072 channel-planar pixels."""

    CONFIG = """
[experiment]
label = cifar
output_dir = {out}
seeds = 5

[dataset]
kind = cifar_binary
variant = {variant}
train_path = {train}
test_path = {test}

[model]
hidden = 4

[train]
batch_size = 4
epochs = 1
learning_rate = 0.1

[grouping]
layout = 1x2

[weighting]
sigma = 0.7
rho = 1.0
"""

    @staticmethod
    def write_batch(path, labels, label_bytes):
        rng = np.random.default_rng(len(labels))
        path.write_bytes(b"".join(
            bytes([0] * (label_bytes - 1) + [label])
            + rng.integers(0, 256, 3072, dtype=np.uint8).tobytes()
            for label in labels))

    @pytest.mark.parametrize("variant,label_bytes,classes", [
        ("cifar10", 1, 10), ("cifar100", 2, 100)])
    def test_one_epoch_writes_every_artifact(self, tmp_path, variant,
                                             label_bytes, classes):
        top = classes - 1
        self.write_batch(tmp_path / "train.bin", [0, 3, top, 3, 1, top, 0, 2],
                         label_bytes)
        self.write_batch(tmp_path / "test.bin", [top, 0, 3, 1], label_bytes)
        cfg_path = tmp_path / "cifar.ini"
        cfg_path.write_text(self.CONFIG.format(
            out=tmp_path / "out", variant=variant,
            train=tmp_path / "train.bin", test=tmp_path / "test.bin"))
        assert parse_config(cfg_path.read_text()).data.kind == "cifar_binary"
        assert main(["run", str(cfg_path)]) == 0
        run_dir = tmp_path / "out" / "cifar"
        assert sorted(path.name for path in run_dir.iterdir()) == [
            "aggregate.csv", "checkpoint_5.bin", "config.ini",
            "metrics_5.csv", "scores_5.csv"]
        model = natsel.model.load_checkpoint(run_dir / "checkpoint_5.bin")
        assert model.config.class_count == classes
        assert tuple(model.config.input_shape) == (32, 32, 3)
        records = read_metrics_csv(run_dir / "metrics_5.csv")
        assert [r.split for r in records] == ["train", "test"]
        assert all(len(r.per_class_accuracy) == classes for r in records)
        assert len(_read_scores(run_dir / "scores_5.csv")) == 8


class TestExitCodes:
    def test_bad_config_exits_one(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[train]\nbatch_sizes = 8\n")
        assert main(["run", str(path)]) == 1

    def test_one_member_groups_exit_one_without_run_dir(self, tmp_path):
        cfg_path = write_config(tmp_path)
        cfg_path.write_text(cfg_path.read_text().replace("layout = 1x2",
                                                         "layout = 1x1"))
        assert main(["run", str(cfg_path)]) == 1
        assert main(["run", str(write_config(tmp_path, "ok.ini")),
                     "--layout", "1x1"]) == 1
        assert main(["sweep", str(write_config(tmp_path, "ok.ini")),
                     "--axis", "layout", "--values", "2x2,1x1"]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old,new", BAD_VALUES,
                             ids=[new.split("\n")[-1] for _, new in BAD_VALUES])
    def test_bad_value_exits_one_without_run_dir(self, tmp_path, old, new):
        cfg_path = write_config(tmp_path)
        text = cfg_path.read_text()
        assert text.count(old) == 1
        cfg_path.write_text(text.replace(old, new))
        with pytest.raises(ConfigError):
            parse_config(cfg_path.read_text())
        assert main(["run", str(cfg_path)]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,key", [
        (["run", "--seeds", "5,x"], "experiment.seeds"),
        (["sweep", "--axis", "sigma", "--values", "1,x"], "weighting.sigma"),
        (["run", "--sigma", "x"], "weighting.sigma"),
        (["run", "--layout", "3"], "grouping.layout"),
    ], ids=["seeds", "sweep_values", "sigma", "layout"])
    def test_bad_flag_value_exits_one_without_run_dir(self, tmp_path, capsys,
                                                      argv, key):
        cfg_path = write_config(tmp_path)
        assert main(argv[:1] + [str(cfg_path)] + argv[1:]) == 1
        assert f"error: {key}: cannot read " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_duplicate_seed_flag_exits_one_without_run_dir(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["run", str(cfg_path), "--seeds", "5,5"]) == 1
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.ini")]) == 2

    def test_divergence_exits_two(self, tmp_path):
        cfg_path = write_config(
            tmp_path, extra="").with_name("diverge.ini")
        cfg_path.write_text(BASE.format(out=tmp_path / "out")
                            .replace("learning_rate = 0.5",
                                     "learning_rate = 1e250")
                            .replace("seeds = 1,2", "seeds = 1")
                            .replace("rho = 1.0", "rho = 0.0"))
        assert main(["run", str(cfg_path)]) == 2

    def test_empty_train_split_exits_one(self, tmp_path, capsys):
        # An IDX train split with no images: the run stops at train's
        # split check, not at sizing the stack by the split's bytes.
        (tmp_path / "train_images").write_bytes(
            struct.pack(">4i", 0x803, 0, 4, 4))
        (tmp_path / "train_labels").write_bytes(struct.pack(">2i", 0x801, 0))
        save_idx(tmp_path / "test_images", np.zeros((4, 4, 4)))
        save_idx(tmp_path / "test_labels", np.array([0, 1, 0, 1]))
        cfg_path = tmp_path / "empty.ini"
        cfg_path.write_text(
            f"[experiment]\noutput_dir = {tmp_path / 'out'}\n"
            "[dataset]\nkind = idx_files\nclasses = 2\n" + "".join(
                f"{name} = {tmp_path / name}\n" for name in (
                    "train_images", "train_labels", "test_images",
                    "test_labels")))
        assert main(["run", str(cfg_path)]) == 1
        assert "empty train split" in capsys.readouterr().err

    def test_overflow_exits_two_with_only_the_abort_line(self, tmp_path,
                                                         capsys):
        # sigma = 1e307 weights the first batch's losses past the float
        # range.  The library's check reports it, and numpy warns of
        # nothing (the suite raises every RuntimeWarning).
        assert main(["run", str(CONFIGS / "reference.ini"), "--sigma",
                     "1e307", "--rho", "0", "--seeds", "2024", "--output",
                     str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("aborted: non-finite batch loss (inf)")
        assert err.count("\n") == 1

    def test_analyze_missing_dir_exits_one(self, tmp_path):
        assert main(["analyze", str(tmp_path / "not_a_run")]) == 1


class TestOverrides:
    def test_seed_label_output_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["run", str(cfg_path), "--seeds", "5",
                     "--label", "alt", "--output",
                     str(tmp_path / "elsewhere")]) == 0
        run_dir = tmp_path / "elsewhere" / "alt"
        assert (run_dir / "metrics_5.csv").exists()
        assert not (run_dir / "metrics_1.csv").exists()

    def test_layout_override(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["run", str(cfg_path), "--layout", "2x2",
                     "--label", "wide"]) == 0
        archived = (tmp_path / "out" / "wide" / "config.ini").read_text()
        assert parse_config(archived).train.layout.group_size == 4


class TestSweep:
    def test_axes_are_the_published_grids(self):
        assert SIGMA_AXIS == RHO_AXIS == (0.0, 0.1, 0.5, 0.8, 1.0, 1.5, 1.8)
        assert LAYOUT_AXIS == ("1x2", "2x2", "2x4", "4x2", "4x4")

    def test_sigma_sweep_writes_table_and_run_dirs(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["sweep", str(cfg_path), "--axis", "sigma",
                     "--values", "0.5,1.0", "--seeds", "1"]) == 0
        out = tmp_path / "out"
        with open(out / "sweep_sigma.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["axis", "value", "accuracy_mean", "accuracy_std"]
        assert [r[:2] for r in rows[1:]] == [["sigma", "0.5"],
                                             ["sigma", "1.0"]]
        assert (out / "demo_sigma_0p5" / "metrics_1.csv").exists()
        assert (out / "demo_sigma_1p0" / "metrics_1.csv").exists()

    def test_table_matches_run_summaries(self, tmp_path):
        config = parse_config(write_config(tmp_path).read_text())
        results = sweep(config, "layout", values=("1x2", "2x2"), echo=quiet)
        with open(tmp_path / "out" / "sweep_layout.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        for row, (value, summary) in zip(rows[1:], results):
            assert row[1] == value
            assert float(row[2]) == summary.mean_accuracy
            assert float(row[3]) == summary.std_accuracy

    def test_interrupted_table_write_leaves_no_partial_table(
            self, tmp_path, monkeypatch):
        # The second row's std raises after the header and first row are
        # written: neither the table nor its temporary file may remain.
        class Summary:
            def __init__(self, fail):
                self.mean_accuracy, self.fail = 0.5, fail

            @property
            def std_accuracy(self):
                if self.fail:
                    raise OSError("disk full")
                return 0.0

        calls = iter((False, True))
        monkeypatch.setattr(natsel.cli, "run_experiment",
                            lambda config, echo: Summary(next(calls)))
        config = parse_config(write_config(tmp_path).read_text())
        with pytest.raises(OSError, match="disk full"):
            sweep(config, "sigma", values=("0.5", "1.0"), echo=quiet)
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("axis,values", [
        ("sigma", ("0.5", "0.5")), ("layout", ("2x2", "1x2", "2x2"))],
        ids=["sigma", "layout"])
    def test_repeated_value_raises_before_any_run(self, tmp_path, axis,
                                                  values):
        # A repeated value once trained twice into one run directory, and
        # the table listed it twice.
        config = parse_config(write_config(tmp_path).read_text())
        with pytest.raises(ConfigError, match="repeat a run label"):
            sweep(config, axis, values=values, echo=quiet)
        assert not (tmp_path / "out").exists()

    def test_unknown_axis(self, tmp_path):
        config = parse_config(write_config(tmp_path).read_text())
        with pytest.raises(ConfigError, match="axis"):
            sweep(config, "temperature", echo=quiet)
        with pytest.raises(ConfigError, match="at least one"):
            sweep(config, "sigma", values=(), echo=quiet)


class TestAnalyze:
    def test_analyze_writes_plot_csvs(self, tmp_path):
        cfg_path = write_config(tmp_path)
        main(["run", str(cfg_path)])
        run_dir = tmp_path / "out" / "demo"
        assert main(["analyze", str(run_dir)]) == 0
        for seed in (1, 2):
            for stem in ("box_stats", "scatter_count", "scatter_accuracy",
                         "fits"):
                assert (run_dir / f"{stem}_{seed}.csv").exists(), (stem, seed)

    def test_box_stats_cover_every_class(self, tmp_path):
        cfg_path = write_config(tmp_path)
        main(["run", str(cfg_path)])
        run_dir = tmp_path / "out" / "demo"
        main(["analyze", str(run_dir)])
        with open(run_dir / "box_stats_1.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["0", "1"]
        for row in rows[1:]:
            assert 0.0 < float(row[3]) < 1.0  # median group share

    def test_balanced_run_notes_undefined_count_fit(self, tmp_path):
        cfg_path = write_config(tmp_path)
        main(["run", str(cfg_path)])
        run_dir = tmp_path / "out" / "demo"
        main(["analyze", str(run_dir)])
        with open(run_dir / "fits_1.csv", newline="") as fh:
            rows = {r[0]: r for r in list(csv.reader(fh))[1:]}
        assert "zero variance" in rows["count_vs_score"][4]

    def test_scatters_hold_counts_accuracies_and_scores(self, tmp_path):
        main(["run", str(write_config(tmp_path))])
        run_dir = tmp_path / "out" / "demo"
        main(["analyze", str(run_dir)])
        records = read_metrics_csv(run_dir / "metrics_1.csv")
        scored = [r for r in records if r.split == "train"][-1]
        tested = [r for r in records if r.split == "test"][-1]
        views = {}
        for view in ("count", "accuracy"):
            with open(run_dir / f"scatter_{view}_1.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["class", "x", "y"]
            assert [r[0] for r in rows[1:]] == ["0", "1"]
            views[view] = rows[1:]
        # class sizes are written as floats, like every other x
        assert [r[1] for r in views["count"]] == ["8.0", "8.0"]
        assert tuple(float(r[1]) for r in views["accuracy"]) == \
            tested.per_class_accuracy
        for rows in views.values():
            assert tuple(float(r[2]) for r in rows) == scored.per_class_ns

    @pytest.mark.parametrize("name,row,problem", [
        ("metrics_1.csv", "0,train,0.5", "3 cells, expected 10"),
        ("metrics_1.csv", "1,test,x,0.5,0.5;0.5,,1.0,0,0,0.0",
         "could not convert"),
        ("scores_1.csv", "0,0,0", "3 cells, expected 8"),
        ("scores_1.csv", "1,3,0,5,1,x,0.5,1.2", "could not convert"),
    ], ids=["metrics_short_row", "metrics_non_numeric_cell",
            "scores_short_row", "scores_non_numeric_cell"])
    def test_bad_row_exits_one_naming_file_and_line(self, tmp_path, capsys,
                                                     name, row, problem):
        main(["run", str(write_config(tmp_path))])
        path = tmp_path / "out" / "demo" / name
        with open(path, newline="") as fh:
            line = sum(1 for _ in fh) + 1
        with open(path, "a", newline="") as fh:
            fh.write(row + "\r\n")
        capsys.readouterr()
        assert main(["analyze", str(path.parent)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {path}, line {line}: {problem}")

    def test_header_only_score_log_exits_one(self, tmp_path, capsys):
        main(["run", str(write_config(tmp_path))])
        path = tmp_path / "out" / "demo" / "scores_1.csv"
        with open(path, newline="") as fh:
            header = fh.readline()
        path.write_text(header, newline="")
        capsys.readouterr()
        assert main(["analyze", str(path.parent)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}")

    def test_unscored_run_exits_one_naming_metrics_file(self, tmp_path,
                                                         capsys):
        main(["run", str(write_config(tmp_path)), "--rho", "0",
              "--label", "plain"])
        run_dir = tmp_path / "out" / "plain"
        before = sorted(p.name for p in run_dir.iterdir())
        capsys.readouterr()
        assert main(["analyze", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run_dir / 'metrics_1.csv'} ")
        assert "no scored epochs" in err
        assert sorted(p.name for p in run_dir.iterdir()) == before

    def test_interrupted_write_leaves_no_partial_artifact(self, tmp_path,
                                                          monkeypatch):
        main(["run", str(write_config(tmp_path))])
        run_dir = tmp_path / "out" / "demo"
        before = sorted(p.name for p in run_dir.iterdir())
        real_report = natsel.cli.correlation_report

        def report_failing_after_one_fit(*args):
            # the fits file is opened and its first row written before
            # the second row raises
            report = real_report(*args)

            def fits():
                yield report.fits[0]
                raise OSError("disk full")

            return dataclasses.replace(report, fits=fits())

        monkeypatch.setattr(natsel.cli, "correlation_report",
                            report_failing_after_one_fit)
        assert main(["analyze", str(run_dir)]) == 2
        # seed 1's box stats and scatters are complete; its fits, and
        # every artifact of seed 2, were never written
        assert sorted(p.name for p in run_dir.iterdir()) == sorted(
            before + ["box_stats_1.csv", "scatter_count_1.csv",
                      "scatter_accuracy_1.csv"])

    def test_analyze_without_metrics_exits_one(self, tmp_path):
        run_dir = tmp_path / "fake_run"
        run_dir.mkdir()
        cfg_path = write_config(tmp_path)
        (run_dir / "config.ini").write_text(cfg_path.read_text())
        assert main(["analyze", str(run_dir)]) == 1
