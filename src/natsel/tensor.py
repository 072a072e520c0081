"""Tape-based reverse-mode differentiation over float64 arrays.

Parameters, activations and losses are plain float64 arrays.  The tape
holds no operations of its own: the classifier's conv stage, its dense
stack and the fused weighted loss each append one entry with
:meth:`GradTape.record`, and check their own outputs for finiteness.
So a taped MLP step is two entries and a conv step three.

Aliasing: arrays are passed as they are, without copies, so an output may
share memory with an input and a gradient may be the accumulated adjoint
itself.  This is safe because no record, pullback or caller writes to an
array it was given; the optimizer's in-place parameter update
(:func:`natsel.trainer.sgd_momentum_step`) is the one exception, and
parameters are arrays of their own.

:func:`backward` replays the entries in exact reverse order,
accumulating adjoints additively.  Entries and adjoints are keyed by
array identity, and the tape keeps every recorded array alive, so no
identity is reused while it replays.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .errors import ShapeError, TapeError

__all__ = ["GradTape", "backward"]

# A tape entry: (output, pull) where pull maps the output adjoint to an
# iterable of (input array, adjoint contribution) pairs.
_Pull = Callable[[np.ndarray], Iterable[tuple[np.ndarray, np.ndarray]]]


class GradTape:
    """Ordered record of taped operations plus a parameter registry."""

    def __init__(self):
        self._entries: list[tuple[np.ndarray, _Pull]] = []
        self._outputs: set[int] = set()
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
        self._outputs.add(id(output))


def backward(tape: GradTape, root: np.ndarray) -> list[np.ndarray]:
    """Gradients of the scalar ``root``, one per registered parameter, in
    registration order.

    Parameters not reachable from ``root`` get zero gradients.  Adjoints are
    accumulated additively, so a value used twice sums both contributions.
    """
    if root.shape != ():
        raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
    if id(root) not in tape._outputs:
        raise TapeError("root was not produced on this tape")

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
        grads.append(np.zeros(p.shape) if acc is None
                     else np.broadcast_to(acc, p.shape))
    return grads
