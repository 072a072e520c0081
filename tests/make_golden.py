"""Write ``tests/golden.json``: the output bytes of four short runs.

    python3 tests/make_golden.py

Each run is one seed (the config's first) of a shipped config or of the
benchmark's conv workload.  The file holds the sha256 of every artifact
whose bytes are deterministic: each checkpoint, each metrics CSV with
its wall-clock columns stripped (``deterministic_csv_bytes``), each
score log and ``aggregate.csv``, and for the ``longtail_nslf`` run the
CSVs ``natsel analyze`` writes from it.  ``test_golden`` reruns the same
runs and compares.

OpenBLAS picks its kernels by CPU, and numpy's reductions can change
between versions, so the bytes are only comparable on the platform that
wrote them.  The file also records that platform's fingerprint, and the
test skips where it differs.  Regenerate the file only in a change that
moves output bytes on purpose, and say which digests moved and why.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
GOLDEN = TESTS / "golden.json"
CONFIGS = (
    ROOT / "configs" / "reference.ini",
    ROOT / "configs" / "labelnoise_nsws.ini",
    ROOT / "configs" / "longtail_nslf.ini",
    ROOT / "perfbench" / "conv_longtail.ini",
)
# Runs whose directory is also analyzed, so the analyze CSVs are pinned.
ANALYZED = ("longtail_nslf",)


def _openblas_core() -> str | None:
    """The CPU core name the bundled OpenBLAS chose its kernels for."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_corename64_",
                       "scipy_openblas_get_corename",
                       "openblas_get_corename"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return fn().decode("ascii", "replace")
    return None


def fingerprint() -> dict:
    """numpy version, BLAS build, OpenBLAS core and machine type.

    Of the BLAS entry of ``np.show_config``, the name, version and build
    configuration are kept; its directory entries name the build host's
    paths and say nothing about the kernels.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "openblas_core": _openblas_core(),
        "machine": platform.machine(),
    }


def digests() -> dict[str, str]:
    """sha256 of each deterministic artifact, keyed ``<label>/<file>``."""
    from natsel.cli import analyze_run, run_experiment
    from natsel.config import apply_overrides, parse_config
    from natsel.trainer import deterministic_csv_bytes

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path in CONFIGS:
            config = parse_config(path.read_text())
            config = apply_overrides(config, seeds=config.seeds[:1],
                                     output_dir=tmp)
            run_experiment(config, echo=lambda *a, **k: None)
            run_dir = Path(tmp) / config.label
            if config.label in ANALYZED:
                analyze_run(run_dir, echo=lambda *a, **k: None)
            for artifact in sorted(run_dir.iterdir()):
                if artifact.name == "config.ini":
                    continue
                data = (deterministic_csv_bytes(artifact)
                        if artifact.name.startswith("metrics_")
                        else artifact.read_bytes())
                out[f"{config.label}/{artifact.name}"] = \
                    hashlib.sha256(data).hexdigest()
    return out


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    golden = {"fingerprint": fingerprint(), "digests": digests()}
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {len(golden['digests'])} digests to {GOLDEN}")


if __name__ == "__main__":
    main()
