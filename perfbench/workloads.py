"""The benchmark's workloads: which experiment each one runs.

Why each was chosen is recorded with it in ``BENCHMARK.json``.

``mlp_nsws`` and ``mlp_plain`` share the shipped reference config, so
they differ only in whether competition scoring runs: a change to the
scoring path should move the first and leave the second unchanged.
``conv_longtail`` is defined here, not in ``configs/``, because no
shipped config exercises the conv stage at CIFAR shape.
"""

from __future__ import annotations

from pathlib import Path

HERE = Path(__file__).resolve().parent

# Training seeds per run, as in the shipped configs.  On the MLP
# workloads the final test accuracy of one training seed varies by 6-7%
# (quartile spread over median) from seed to seed; the mean over three
# seeds, which is what ``natsel run`` reports, varies by 3-4%.
SEEDS_PER_RUN = 3

WORKLOADS = ("mlp_nsws", "mlp_plain", "conv_longtail")


def run_seeds(seed: int) -> tuple[int, ...]:
    """Training seeds for one benchmark seed; distinct seeds never share."""
    return tuple(SEEDS_PER_RUN * seed + i for i in range(SEEDS_PER_RUN))


def config_path(name: str, root: Path) -> Path:
    """The INI file a workload starts from."""
    if name == "conv_longtail":
        return HERE / "conv_longtail.ini"
    return root / "configs" / "reference.ini"


def load_config(name: str, root: Path, seed: int, output_dir):
    """The workload's experiment config for one benchmark seed."""
    from natsel.config import apply_overrides, parse_config

    config = parse_config(config_path(name, root).read_text())
    if name == "mlp_plain":
        config = apply_overrides(config, sigma=1.0, rho=0.0)
    return apply_overrides(config, seeds=run_seeds(seed), label=name,
                           output_dir=str(output_dir))
