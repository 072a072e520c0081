"""INI config parsing, canonical serialization, and run derivation."""

import numpy as np
import pytest

from natsel.config import (
    DEFAULT_SEEDS,
    DataSettings,
    ExperimentConfig,
    apply_overrides,
    classifier_for,
    datasets_for,
    parse_config,
    serialize_config,
    train_for,
)
from natsel.data import build_splits
from natsel.errors import ConfigError
from natsel.imageops import GridLayout
from natsel.model import LOSS_KINDS
from natsel.seeds import derive_seed

from conftest import save_idx

FULL_TEXT = """
[experiment]
label = longtail_demo
output_dir = out/runs
seeds = 7,8

[dataset]
kind = synthetic_blobs
classes = 4
height = 6
width = 6
channels = 1
n_max = 50
imbalance_factor = 10.0
noise_std = 0.1
label_noise_rate = 0.2
test_per_class = 5

[model]
hidden = 16,8
conv_kernel = 3
conv_channels = 4

[train]
batch_size = 16
epochs = 6
learning_rate = 0.25
momentum = 0.8
decay = 3:0.1,5:0.5
loss = focal
focal_gamma = 1.5

[grouping]
layout = 1x2
group_size = 2

[weighting]
sigma = 2.5
rho = -1.0
strategy = ns_lf

[sampler]
kind = cbs
"""


class TestDefaults:
    def test_empty_text_yields_defaults(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()
        assert cfg.label == "experiment"
        assert cfg.output_dir == "runs"
        assert cfg.seeds == DEFAULT_SEEDS == (2024, 2025, 2026)
        assert cfg.data.kind == "synthetic_blobs"
        assert cfg.data.classes == 10
        assert (cfg.data.height, cfg.data.width, cfg.data.channels) == (8, 8, 1)
        assert cfg.data.noise_std == 0.05
        assert cfg.data.train_counts() == (100,) * 10
        assert cfg.hidden == (32,)
        assert cfg.conv_kernel == 0

    def test_default_training_plan(self):
        t = parse_config("").train
        assert t.batch_size == 32
        assert t.epochs == 8
        assert t.learning_rate == 0.5
        assert t.momentum == 0.9
        assert t.decay_milestones == ()
        assert t.layout == GridLayout(2, 2)
        assert (t.weighting.sigma, t.weighting.rho) == (1.0, 0.0)
        assert t.weighting.strategy == "uniform"
        assert t.sampler == "instance_uniform"
        assert t.loss.kind == "cross_entropy"

    def test_full_text(self):
        cfg = parse_config(FULL_TEXT)
        assert cfg.label == "longtail_demo"
        assert cfg.seeds == (7, 8)
        assert cfg.data.n_max == 50
        assert cfg.data.imbalance_factor == 10.0
        assert cfg.data.train_counts() == (50, 23, 11, 5)
        assert cfg.hidden == (16, 8)
        assert cfg.train.decay_milestones == ((3, 0.1), (5, 0.5))
        assert cfg.train.loss.kind == "focal"
        assert cfg.train.loss.focal_gamma == 1.5
        assert cfg.train.layout == GridLayout(1, 2)
        assert cfg.train.weighting.strategy == "ns_lf"
        assert cfg.train.sampler == "cbs"


class TestStrictness:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[trainning]\nbatch_size = 8\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key train.lr"):
            parse_config("[train]\nlr = 0.5\n")

    def test_bad_integer(self):
        with pytest.raises(ConfigError, match="train.batch_size"):
            parse_config("[train]\nbatch_size = many\n")

    def test_bad_float(self):
        with pytest.raises(ConfigError, match="weighting.sigma"):
            parse_config("[weighting]\nsigma = big\n")

    def test_bad_decay(self):
        with pytest.raises(ConfigError, match="train.decay"):
            parse_config("[train]\ndecay = sometimes\n")

    def test_bad_layout_is_labeled(self):
        with pytest.raises(ConfigError, match="grouping.layout"):
            parse_config("[grouping]\nlayout = 2by2\n")

    def test_group_size_must_match_layout(self):
        text = "[grouping]\nlayout = 2x4\ngroup_size = 4\n"
        with pytest.raises(ConfigError, match="group_size"):
            parse_config(text)
        consistent = "[grouping]\nlayout = 2x4\ngroup_size = 8\n"
        assert parse_config(consistent).train.layout == GridLayout(2, 4)

    def test_unknown_loss(self):
        with pytest.raises(ConfigError, match="train.loss"):
            parse_config("[train]\nloss = hinge\n")

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError, match="weighting.strategy"):
            parse_config("[weighting]\nstrategy = ns_random\n")

    def test_strategy_sign_mismatch(self):
        text = "[weighting]\nsigma = 1.0\nrho = 0.5\nstrategy = ns_lf\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_negative_sigma(self):
        with pytest.raises(ConfigError):
            parse_config("[weighting]\nsigma = -0.1\n")

    def test_weights_that_can_go_negative_fail_before_epoch_0(self):
        # sigma + rho < 0 would make compute_weights raise mid-training,
        # once some score crossed sigma/|rho|; parsing refuses it instead.
        text = "[weighting]\nsigma = 0.5\nrho = -1.0\nstrategy = ns_lf\n"
        with pytest.raises(ConfigError, match="sigma must be at least 1.0"):
            parse_config(text)
        edge = parse_config(text.replace("sigma = 0.5", "sigma = 1.0"))
        assert edge.train.weighting.bounds == (0.0, 1.0)
        with pytest.raises(ConfigError):
            apply_overrides(parse_config(FULL_TEXT), sigma=0.5)

    @pytest.mark.parametrize("setting", ["sigma = nan", "sigma = inf",
                                         "rho = inf"])
    def test_non_finite_weights_fail_before_epoch_0(self, setting):
        # A non-finite sigma or sigma + rho would first show as a
        # non-finite weight at the first scored batch; parsing refuses it.
        text = f"[weighting]\n{setting}\n"
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config(text)

    @pytest.mark.parametrize("key,value", [
        ("train.learning_rate", "nan"),
        ("train.learning_rate", "inf"),
        ("train.decay", "2:nan"),
        ("train.decay", "2:inf"),
        ("train.focal_gamma", "nan"),
        ("train.focal_gamma", "inf"),
        ("dataset.noise_std", "inf"),
        ("dataset.imbalance_factor", "nan"),
        ("dataset.imbalance_factor", "inf"),
    ])
    def test_non_finite_numbers_fail_before_epoch_0(self, key, value):
        # Each would parse and then fail mid-run, or (imbalance_factor)
        # silently give class counts (100, 1, 1, ...); the error names
        # the key that was set.
        section, name = key.split(".")
        extra = "n_max = 100\n" if name == "imbalance_factor" else ""
        text = f"[{section}]\n{extra}{name} = {value}\n"
        with pytest.raises(ConfigError, match=f"^{key}: "):
            parse_config(text)

    @pytest.mark.parametrize("key,text", [
        ("model.hidden", "[model]\nhidden = 0\n"),
        ("model.conv_kernel", "[model]\nconv_kernel = 9\n"),
        ("model.conv_kernel", "[model]\nconv_kernel = -2\n"),
        ("model.conv_channels", "[model]\nconv_kernel = 3\nconv_channels = 0\n"),
        ("weighting.sigma", "[weighting]\nsigma = -1\n"),
        ("weighting.sigma", "[weighting]\nsigma = nan\n"),
        ("weighting.rho", "[weighting]\nrho = inf\n"),
        ("weighting.rho", "[weighting]\nsigma = 0.5\nrho = -1.0\n"),
        ("grouping.layout", "[grouping]\nlayout = 1x1\n[weighting]\nrho = 1\n"),
        ("train.loss", "[train]\nloss = hinge\n"),
        ("dataset.height", "[dataset]\nheight = 1\n"),
        ("dataset.width", "[dataset]\nwidth = 0\n"),
        ("dataset.class_counts",
         "[dataset]\nclasses = 2\nclass_counts = 0,5\n"),
        ("dataset.n_max", "[dataset]\nn_max = 100\n"),
        ("model.conv_channels", "[model]\nconv_channels = -5\n"),
    ], ids=["hidden", "kernel-too-large", "kernel-negative", "channels",
            "sigma-negative", "sigma-nan", "rho-inf", "rho-negative-weights",
            "layout-1x1", "loss", "height-1", "width-0", "class-counts-zero",
            "lone-n-max", "channels-without-kernel"])
    def test_value_errors_name_their_key(self, key, text):
        # A value that reads but does not fit fails with the key that
        # set it, whichever class checks it.
        with pytest.raises(ConfigError, match=f"^{key}: ") as err:
            parse_config(text)
        if key == "train.loss":
            assert str(LOSS_KINDS) in str(err.value)

    def test_one_member_groups_fail_before_epoch_0_when_scoring(self):
        # A 1x1 layout leaves nobody to compete with; with rho != 0 the
        # first scored batch would fail, so parsing refuses it instead.
        text = "[grouping]\nlayout = 1x1\n[weighting]\nrho = 1.0\n"
        with pytest.raises(ConfigError, match="groups of at least 2"):
            parse_config(text)
        plain = parse_config(text.replace("rho = 1.0", "rho = 0.0"))
        assert plain.train.layout.group_size == 1
        with pytest.raises(ConfigError, match="groups of at least 2"):
            apply_overrides(parse_config(FULL_TEXT), layout="1x1")
        with pytest.raises(ConfigError, match="groups of at least 2"):
            apply_overrides(plain, rho=1.0)

    def test_model_checks_wait_for_file_backed_image_shapes(self, tmp_path):
        text = ("[dataset]\nkind = cifar_binary\n"
                f"train_path = {tmp_path / 'a.bin'}\n"
                f"test_path = {tmp_path / 'b.bin'}\n"
                "[model]\nconv_kernel = 33\n")
        assert parse_config(text).conv_kernel == 33
        for bad in ("conv_kernel = -2", "hidden = 0",
                    "conv_kernel = 3\nconv_channels = 0"):
            with pytest.raises(ConfigError):
                parse_config(text.replace("conv_kernel = 33", bad))

    def test_syntax_error(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config("[experiment\nlabel = x\n")


class TestDataSettings:
    def test_count_modes_are_exclusive(self):
        with pytest.raises(ConfigError, match="choose one"):
            DataSettings(balanced_count=50, n_max=100, imbalance_factor=10.0)
        with pytest.raises(ConfigError, match="choose one"):
            DataSettings(class_counts=(5, 5), balanced_count=50, classes=2)

    def test_longtail_knobs_go_together(self):
        with pytest.raises(ConfigError, match="go together"):
            DataSettings(n_max=100)
        with pytest.raises(ConfigError, match="go together"):
            DataSettings(imbalance_factor=10.0)

    def test_class_counts_length_checked(self):
        with pytest.raises(ConfigError, match="class_counts"):
            DataSettings(classes=3, class_counts=(5, 5))
        assert DataSettings(classes=2,
                            class_counts=(5, 4)).train_counts() == (5, 4)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="dataset.kind"):
            DataSettings(kind="imagenet")

    def test_idx_files_need_paths(self):
        with pytest.raises(ConfigError, match="idx_files"):
            DataSettings(kind="idx_files", train_images="a.idx")

    def test_cifar_needs_paths(self):
        with pytest.raises(ConfigError, match="cifar_binary"):
            DataSettings(kind="cifar_binary", train_path="train.bin")

    def test_experiment_validation(self):
        with pytest.raises(ConfigError, match="seeds"):
            ExperimentConfig(seeds=())
        with pytest.raises(ConfigError, match="label"):
            ExperimentConfig(label="")


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        cfg = parse_config(FULL_TEXT)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_serialized_text_is_a_fixed_point(self):
        text = serialize_config(parse_config(FULL_TEXT))
        assert serialize_config(parse_config(text)) == text

    def test_defaults_round_trip(self):
        cfg = parse_config("")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_float_values_survive_exactly(self):
        text = "[train]\nlearning_rate = 0.1\n[weighting]\nsigma = 0.30000000000000004\n"
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again.train.learning_rate == cfg.train.learning_rate
        assert again.train.weighting.sigma == cfg.train.weighting.sigma


class TestOverrides:
    def test_rho_override_relabels_strategy(self):
        base = parse_config("")
        up = apply_overrides(base, rho=1.0)
        assert up.train.weighting.strategy == "ns_ws"
        down = apply_overrides(base, rho=-0.5)
        assert down.train.weighting.strategy == "ns_lf"

    def test_layout_override(self):
        out = apply_overrides(parse_config(""), layout="4x4")
        assert out.train.layout.group_size == 16
        direct = apply_overrides(parse_config(""), layout=GridLayout(1, 2))
        assert direct.train.layout == GridLayout(1, 2)

    def test_values_are_read_like_their_ini_keys(self):
        base = parse_config("")
        from_text = apply_overrides(base, sigma="2", seeds="4,5")
        from_values = apply_overrides(base, sigma=2, seeds=(4, 5))
        assert from_text == from_values
        assert from_text.train.weighting.sigma == 2.0
        assert isinstance(from_text.train.weighting.sigma, float)
        assert from_text.seeds == (4, 5)
        for name, bad, key in [("sigma", "x", "weighting.sigma"),
                               ("seeds", "5,x", "experiment.seeds"),
                               ("layout", "3", "grouping.layout")]:
            with pytest.raises(ConfigError, match=f"{key}: cannot read"):
                apply_overrides(base, **{name: bad})
        with pytest.raises(TypeError):
            apply_overrides(base, strategy="ns_ws")

    def test_identity_when_nothing_given(self):
        base = parse_config(FULL_TEXT)
        assert apply_overrides(base) == base

    def test_bookkeeping_overrides(self):
        out = apply_overrides(parse_config(""), seeds=[1, 2],
                              label="alt", output_dir="elsewhere")
        assert out.seeds == (1, 2)
        assert out.label == "alt"
        assert out.output_dir == "elsewhere"


class TestRunDerivation:
    def test_recipe_seed_comes_from_run_seed(self):
        cfg = parse_config(FULL_TEXT)
        train, test = datasets_for(cfg, 2024)
        clean, want_test = build_splits(cfg.data,
                                        derive_seed(2024, "dataset"))
        assert np.array_equal(train.images, clean.images)
        assert np.array_equal(train.clean_labels, clean.labels)
        assert np.array_equal(test.images, want_test.images)
        assert tuple(np.bincount(train.clean_labels)) == (50, 23, 11, 5)
        assert train.image_shape == (6, 6, 1)
        assert np.sum(train.labels != train.clean_labels) == int(0.2 * 89)
        other, _ = datasets_for(cfg, 2025)
        assert not np.array_equal(other.images, train.images)

    def test_classifier_config(self):
        cfg = parse_config(FULL_TEXT)
        model_cfg = classifier_for(cfg, 2024)
        assert model_cfg.init_seed == derive_seed(2024, "init")
        assert model_cfg.hidden == (16, 8)
        assert model_cfg.conv is not None
        assert model_cfg.conv.kernel == 3
        plain = classifier_for(parse_config(""), 1)
        assert plain.conv is None

    def test_classifier_shape_overrides(self):
        cfg = parse_config("")
        model_cfg = classifier_for(cfg, 1, image_shape=(4, 4, 3),
                                   class_count=2)
        assert model_cfg.input_shape == (4, 4, 3)
        assert model_cfg.class_count == 2

    def test_train_for_stamps_run_seed(self):
        cfg = parse_config(FULL_TEXT)
        t = train_for(cfg, 99)
        assert t.seed == 99
        assert t.batch_size == cfg.train.batch_size
        assert t.weighting == cfg.train.weighting

    def test_datasets_for_synthetic(self):
        cfg = parse_config("[dataset]\nclasses = 3\nbalanced_count = 6\n"
                           "test_per_class = 2\nheight = 4\nwidth = 4\n")
        train, test = datasets_for(cfg, 2024)
        assert tuple(train.label_counts()) == (6, 6, 6)
        assert tuple(test.label_counts()) == (2, 2, 2)
        again, _ = datasets_for(cfg, 2024)
        assert np.array_equal(train.images, again.images)
        other, _ = datasets_for(cfg, 2025)
        assert not np.array_equal(train.images, other.images)

    def test_datasets_for_idx_files(self, tmp_path):
        ds, _ = build_splits(
            parse_config("[dataset]\nclasses = 2\nbalanced_count = 3\n"
                         "height = 4\nwidth = 4\n").data, 5)
        paths = {name: str(tmp_path / f"{name}.idx")
                 for name in ("ti", "tl", "vi", "vl")}
        save_idx(paths["ti"], ds.images)
        save_idx(paths["tl"], ds.labels)
        save_idx(paths["vi"], ds.images[:2])
        save_idx(paths["vl"], ds.labels[:2])
        text = ("[dataset]\nkind = idx_files\nclasses = 2\n"
                f"train_images = {paths['ti']}\ntrain_labels = {paths['tl']}\n"
                f"test_images = {paths['vi']}\ntest_labels = {paths['vl']}\n")
        train, test = datasets_for(parse_config(text), 1)
        assert len(train.labels) == 6
        assert len(test.labels) == 2
        assert train.class_count == 2
