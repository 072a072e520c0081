"""Spans around natsel's public functions, recorded from outside the library.

The tracer rebinds the module attributes that callers look up at call
time (``natsel.trainer.batch_ns_scores``, ``Classifier.forward_batch``,
...) to thin wrappers.  Each call becomes one span: name, start, end,
parent span and run id.  Spans stay in memory until ``write`` is called
at the end of the run.  Nothing inside the library changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute, span name).  A forward_batch span is split by its
# parent span into train / score / eval when metrics are derived.
WRAPPED = (
    ("natsel.cli", "run_experiment", "cli.run_experiment"),
    ("natsel.cli", "datasets_for", "config.datasets_for"),
    ("natsel.cli", "train", "trainer.train"),
    ("natsel.trainer", "epoch_indices", "data.epoch_indices"),
    ("natsel.trainer", "batch_ns_scores", "nscore.batch_ns_scores"),
    ("natsel.trainer", "compute_weights", "weighting.compute_weights"),
    ("natsel.trainer", "weighted_batch_loss", "trainer.weighted_batch_loss"),
    ("natsel.trainer", "backward", "tensor.backward"),
    ("natsel.trainer", "sgd_momentum_step", "trainer.sgd_momentum_step"),
    ("natsel.trainer", "evaluate", "trainer.evaluate"),
    ("natsel.model.Classifier", "forward_batch", "model.forward_batch"),
)

_FORWARD_ROLE = {
    "trainer.train": "train",
    "nscore.batch_ns_scores": "score",
    "trainer.evaluate": "eval",
}


def _resolve(dotted: str):
    """The module or class named by a dotted path, or None if it is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """Installs span wrappers, records spans and counts, derives layer times."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # One span per call: [name, start, end, parent index or -1].
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.tape_records = 0
        self.steps = 0
        self.composites = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner_path, attr, name in WRAPPED:
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            before = self._count_tape if name == "tensor.backward" else None
            after = (self._count_composites
                     if name == "nscore.batch_ns_scores" else None)
            setattr(owner, attr, self._wrap(original, name, before, after))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name, before=None, after=None):
        """A span around every call; optional hooks see the arguments
        before the span opens and the result after it closes."""
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(result)
            return result
        return traced

    def _count_tape(self, tape, *_):
        """Tape records of one step, read before ``backward`` replays them."""
        self.steps += 1
        entries = getattr(tape, "_entries", None)
        if entries is not None:
            self.tape_records += len(entries)
        elif "GradTape._entries" not in self.missing:
            self.missing.append("GradTape._entries")

    def _count_composites(self, result):
        """One composite per full group: each non-negative group id once."""
        self.composites += len({int(g) for g in result.group_ids if g >= 0})

    def write(self, path) -> None:
        """One JSON object per span, in call order."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i,
                                     "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds, and self seconds.

        Self time is a span's duration minus the time its direct child
        spans cover; spans of one thread nest, so children never overlap.
        ``model.forward_batch`` is split into ``.train``/``.score``/``.eval``
        by the name of its parent span.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if name == "model.forward_batch":
                parent_name = self.spans[parent][0] if parent >= 0 else ""
                name = f"{name}.{_FORWARD_ROLE.get(parent_name, 'other')}"
            entry = out.setdefault(name, {"calls": 0, "busy": 0.0,
                                          "self": 0.0})
            entry["calls"] += 1
            entry["busy"] += end - start
            entry["self"] += end - start - child_time[i]
        return out
