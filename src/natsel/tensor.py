"""Dense float64 tensors with tape-based reverse-mode differentiation.

Tensors are immutable values (the optimizer's in-place parameter update is
the single documented exception, see :func:`natsel.trainer.sgd_momentum_step`).
Every public operation validates that its output is finite and raises
:class:`NumericError` otherwise.

Aliasing: a :class:`Tensor` wraps a float64 C-contiguous array as it is,
without a copy, so a tensor may share memory with the array it was built
from, with another tensor (``reshape`` returns a view) or with an adjoint
(:func:`backward` can hand back the accumulated adjoint itself).  This is
safe because no tensor operation, pullback or caller writes to the array
a tensor wraps; the optimizer's in-place parameter update is the one
exception, and parameters wrap arrays of their own.

Gradients are recorded on an explicit :class:`GradTape`: operations called
with ``tape=...`` append one entry each, and :func:`backward` replays the
entries in exact reverse order, accumulating adjoints additively.  Passing
``tape=None`` gives the plain (detached) numeric result.

Only the primitives the classifier's taped forward uses live here; the
conv stage and the fused loss record one entry each with
:meth:`GradTape.record`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericError, ShapeError, TapeError

__all__ = [
    "Tensor",
    "GradTape",
    "backward",
    "matmul",
    "add_row",
    "relu",
    "reshape",
]


class Tensor:
    """A dense multi-dimensional array of float64, row-major.

    A float64 C-contiguous array is wrapped, not copied; anything else
    (lists, numbers, other dtypes, non-contiguous views) is converted.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64, order="C")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of the elements."""
        return self.values.reshape(-1)

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


# A tape entry: (output, pull) where pull maps the output adjoint to an
# iterable of (input tensor, adjoint contribution) pairs.
_Pull = Callable[[np.ndarray], Iterable[tuple[Tensor, np.ndarray]]]


class GradTape:
    """Ordered record of primitive operations plus a parameter registry."""

    def __init__(self):
        self._entries: list[tuple[Tensor, _Pull]] = []
        self._outputs: set[int] = set()
        self._parameters: list[Tensor] = []

    def register(self, *parameters: Tensor) -> None:
        """Register tensors whose gradients :func:`backward` must report."""
        for p in parameters:
            if not isinstance(p, Tensor):
                raise TypeError("parameters must be Tensors")
            self._parameters.append(p)

    @property
    def parameters(self) -> tuple[Tensor, ...]:
        return tuple(self._parameters)

    def record(self, output: Tensor, pull: _Pull) -> None:
        """Append one entry; ``pull`` maps the output adjoint to
        (input, adjoint contribution) pairs."""
        self._entries.append((output, pull))
        self._outputs.add(id(output))


def backward(tape: GradTape, root: Tensor) -> dict[Tensor, Tensor]:
    """Return gradients of the scalar ``root`` for every registered parameter.

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
        for tensor, contribution in pull(out_adj):
            key = id(tensor)
            if key in adjoints:
                adjoints[key] = adjoints[key] + contribution
            else:
                adjoints[key] = contribution

    grads: dict[Tensor, Tensor] = {}
    for p in tape._parameters:
        acc = adjoints.get(id(p))
        if acc is None:
            grads[p] = Tensor(np.zeros(p.shape))
        else:
            grads[p] = Tensor(np.broadcast_to(acc, p.shape))
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


def matmul(a: Tensor, b: Tensor, tape: GradTape | None = None) -> Tensor:
    """Matrix product of a [M,K] by a [K,N] tensor."""
    if len(a.shape) != 2 or len(b.shape) != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out = Tensor(_finite(lambda: a.values @ b.values, "matmul"))
    if tape is not None:
        av, bv = a.values, b.values

        def pull(g: np.ndarray):
            return ((a, g @ bv.T), (b, av.T @ g))

        tape.record(out, pull)
    return out


def add_row(a: Tensor, row: Tensor, tape: GradTape | None = None) -> Tensor:
    """Add a [1, M] row to every row of an [N, M] tensor (a bias add)."""
    if len(a.shape) != 2 or row.shape != (1, a.shape[1]):
        raise ShapeError(f"add_row: cannot add a {row.shape} row to "
                         f"shape {a.shape}")
    out = Tensor(_finite(lambda: a.values + row.values, "add_row"))
    if tape is not None:
        def pull(g: np.ndarray):
            return ((a, g), (row, g.sum(axis=0, keepdims=True)))

        tape.record(out, pull)
    return out


def relu(a: Tensor, tape: GradTape | None = None) -> Tensor:
    out = Tensor(np.maximum(a.values, 0.0))
    if tape is not None:
        mask = a.values > 0.0  # derivative at exactly 0 taken as 0

        def pull(g: np.ndarray):
            return ((a, g * mask),)

        tape.record(out, pull)
    return out


def reshape(a: Tensor, shape: Sequence[int], tape: GradTape | None = None) -> Tensor:
    shape = tuple(int(d) for d in shape)
    out = Tensor(a.values.reshape(shape))
    if tape is not None:
        old = a.shape

        def pull(g: np.ndarray):
            return ((a, g.reshape(old)),)

        tape.record(out, pull)
    return out
