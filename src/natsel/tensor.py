"""Tape-based reverse-mode differentiation over float64 arrays.

Parameters, activations and losses are plain float64 arrays.  The tape
holds no operations of its own: the classifier (its conv stage, if any,
and its dense stack) and the fused weighted loss each append one entry
with :meth:`GradTape.record`.  The classifier checks its outputs for
finiteness, the loss its input logits (in ``softmax_rows``) and ``train``
each run's loss.  So every taped step is two entries, MLP or conv, for one
run or for a stack of runs whose arrays carry a leading run axis; the loss
entry, the last, outputs the root: the 0-d sum of the runs' losses.

Aliasing: arrays are passed as they are, without copies, so an output may
share memory with an input, and a gradient is the accumulated adjoint
itself when it has its parameter's shape.  This is safe because no
record, pullback or caller writes to an array it was given, but for the
optimizer step (:func:`natsel.trainer.sgd_momentum_step`), in two ways:
it updates the parameter vector, an array of its own, in place, and it
writes into the gradient once :func:`backward` has spent it, a fresh
array from the classifier's pullback.

:func:`backward` replays the entries in exact reverse order from the
root, accumulating adjoints additively.  Entries and adjoints are keyed by
array identity, and the tape keeps every recorded array alive, so no
identity is reused while it replays.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .errors import ShapeError

__all__ = ["GradTape", "backward"]

# A tape entry: (output, pull) where pull maps the output adjoint to an
# iterable of (input array, adjoint contribution) pairs.
_Pull = Callable[[np.ndarray], Iterable[tuple[np.ndarray, np.ndarray]]]


class GradTape:
    """Ordered record of taped operations plus a parameter registry."""

    def __init__(self):
        self._entries: list[tuple[np.ndarray, _Pull]] = []
        self._parameters: list[np.ndarray] = []

    def register(self, *parameters: np.ndarray) -> None:
        """Register arrays whose gradients :func:`backward` must report."""
        for p in parameters:
            if not isinstance(p, np.ndarray):
                raise TypeError("parameters must be arrays")
            self._parameters.append(p)

    def record(self, output: np.ndarray, pull: _Pull) -> None:
        """Append one entry; ``pull`` maps the output adjoint to
        (input, adjoint contribution) pairs."""
        self._entries.append((output, pull))


def backward(tape: GradTape) -> list[np.ndarray]:
    """Gradients of the output of the tape's last record, the root, one
    per registered parameter, in registration order.

    Parameters not reachable from the root get zero gradients.  Adjoints
    are accumulated additively, so a value used twice sums both
    contributions.  A gradient is its accumulated adjoint itself when the
    shapes match, and otherwise a read-only broadcast of it.  A tape with
    no record, or whose last output is not 0-d, raises ``ShapeError``.
    """
    if not tape._entries:
        raise ShapeError("backward needs a recorded root; the tape is empty")
    root = tape._entries[-1][0]
    if root.shape != ():
        raise ShapeError(f"backward root must be scalar, got shape {root.shape}")

    adjoints: dict[int, np.ndarray] = {id(root): np.ones((), dtype=np.float64)}
    for output, pull in reversed(tape._entries):
        out_adj = adjoints.pop(id(output), None)
        if out_adj is None:
            continue
        for array, contribution in pull(out_adj):
            key = id(array)
            if key in adjoints:
                adjoints[key] = adjoints[key] + contribution
            else:
                adjoints[key] = contribution

    grads = []
    for p in tape._parameters:
        acc = adjoints.get(id(p))
        if acc is None:
            acc = np.zeros(p.shape)
        grads.append(acc if acc.shape == p.shape
                     else np.broadcast_to(acc, p.shape))
    return grads
