"""Tape-based reverse-mode differentiation over float64 arrays.

Parameters, activations and losses are plain float64 arrays.
Every public operation validates that its output is finite and raises
:class:`NumericError` otherwise.

Aliasing: arrays are passed as they are, without copies, so an output may
share memory with an input (``reshape`` returns a view) and a gradient
may be the accumulated adjoint itself.  This is safe because no
operation, pullback or caller writes to an array it was given; the
optimizer's in-place parameter update
(:func:`natsel.trainer.sgd_momentum_step`) is the one exception, and
parameters are arrays of their own.

Gradients are recorded on an explicit :class:`GradTape`: operations called
with ``tape=...`` append one entry each, and :func:`backward` replays the
entries in exact reverse order, accumulating adjoints additively.  Entries
and adjoints are keyed by array identity, and the tape keeps every
recorded array alive, so no identity is reused while it replays.
Passing ``tape=None`` gives the plain (detached) numeric result.

Only the primitives the classifier's taped forward uses live here; the
conv stage and the fused loss record one entry each with
:meth:`GradTape.record`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericError, ShapeError, TapeError

__all__ = [
    "GradTape",
    "backward",
    "matmul",
    "add_row",
    "relu",
    "reshape",
]

# A tape entry: (output, pull) where pull maps the output adjoint to an
# iterable of (input array, adjoint contribution) pairs.
_Pull = Callable[[np.ndarray], Iterable[tuple[np.ndarray, np.ndarray]]]


class GradTape:
    """Ordered record of primitive operations plus a parameter registry."""

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


def _finite(compute, op: str) -> np.ndarray:
    """Evaluate an array expression and reject non-finite results.

    IEEE overflow/invalid warnings are silenced; the NumericError carries
    the diagnosis instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = compute()
    if not np.isfinite(values).all():
        raise NumericError(f"{op} produced non-finite values")
    return values


def matmul(a: np.ndarray, b: np.ndarray, tape: GradTape | None = None
           ) -> np.ndarray:
    """Matrix product of a [M,K] by a [K,N] array."""
    if len(a.shape) != 2 or len(b.shape) != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out = _finite(lambda: a @ b, "matmul")
    if tape is not None:
        def pull(g: np.ndarray):
            return ((a, g @ b.T), (b, a.T @ g))

        tape.record(out, pull)
    return out


def add_row(a: np.ndarray, row: np.ndarray, tape: GradTape | None = None
            ) -> np.ndarray:
    """Add a [1, M] row to every row of an [N, M] array (a bias add)."""
    if len(a.shape) != 2 or row.shape != (1, a.shape[1]):
        raise ShapeError(f"add_row: cannot add a {row.shape} row to "
                         f"shape {a.shape}")
    out = _finite(lambda: a + row, "add_row")
    if tape is not None:
        def pull(g: np.ndarray):
            return ((a, g), (row, g.sum(axis=0, keepdims=True)))

        tape.record(out, pull)
    return out


def relu(a: np.ndarray, tape: GradTape | None = None) -> np.ndarray:
    out = np.maximum(a, 0.0)
    if tape is not None:
        mask = a > 0.0  # derivative at exactly 0 taken as 0

        def pull(g: np.ndarray):
            return ((a, g * mask),)

        tape.record(out, pull)
    return out


def reshape(a: np.ndarray, shape: Sequence[int],
            tape: GradTape | None = None) -> np.ndarray:
    shape = tuple(int(d) for d in shape)
    out = a.reshape(shape)
    if tape is not None:
        old = a.shape

        def pull(g: np.ndarray):
            return ((a, g.reshape(old)),)

        tape.record(out, pull)
    return out
