"""Small configurable classifier: optional single conv stage plus an MLP.

The taped step, scoring and evaluation run one dense stack,
``Classifier._dense_stack``; only the taped forward keeps its inputs.

Checkpoint byte layout (``save_checkpoint`` / ``load_checkpoint``):

    "NSCKPT 1\\n"                 ASCII magic + format version
    "config <compact json>\\n"    echo of the ClassifierConfig
    "params <count>\\n"           total number of float64 values
    <count * 8 bytes>             ``Classifier.vector``, little-endian

The block is ``Classifier.vector``: the parameter arrays in
construction order, row-major, of which ``Classifier.parameters`` are
views.  The order: the conv stage's weight and bias as one
[k*k*C + 1, F] array, the bias its last row (if a conv stage is
configured), then per dense layer weight [in, out] and bias [1, out].

A stack of runs (``Classifier.stack``) is one classifier whose vector
[S, P] carries a leading run axis, as do its parameters [S, ...] and
its gradient [S, P]: its taped forward takes [S, N, H, W, C] images
and records every run's classifier as one entry.  Each run's own
``Classifier`` keeps its row of the stack's vector, so it scores,
evaluates and saves the stack's current values, and a run's slice of
each product and batch sum has the bits of that run taped alone.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, NumericError, ShapeError
from .tensor import GradTape

__all__ = [
    "ConvSpec",
    "ClassifierConfig",
    "LossConfig",
    "Classifier",
    "softmax_rows",
    "sample_losses",
    "save_checkpoint",
    "load_checkpoint",
]

# Probability floor applied before any log; prevents -inf on confident
# mistakes without materially distorting gradients.
PROB_FLOOR = 1e-12

_CHECKPOINT_MAGIC = "NSCKPT 1"

LOSS_KINDS = ("cross_entropy", "focal", "label_smoothing")


@dataclass(frozen=True)
class ConvSpec:
    kernel: int
    channels: int

    def __post_init__(self):
        if self.kernel < 1:
            raise ConfigError(f"model.conv_kernel: a conv stage needs a "
                              f"positive kernel, got {self.kernel}")
        if self.channels < 1:
            raise ConfigError(f"model.conv_channels: must be positive, "
                              f"got {self.channels}")


@dataclass(frozen=True)
class ClassifierConfig:
    input_shape: tuple[int, int, int]  # (H0, W0, channels)
    hidden: tuple[int, ...]
    class_count: int
    init_seed: int
    conv: ConvSpec | None = None

    def __post_init__(self):
        h, w, c = self.input_shape
        if h < 2 or w < 2 or c < 1:
            raise ConfigError(f"input shape {self.input_shape} too small")
        if self.class_count < 2:
            raise ConfigError("class_count must be at least 2")
        if any(width < 1 for width in self.hidden):
            raise ConfigError(f"model.hidden: widths must be positive, "
                              f"got {self.hidden}")
        if self.conv is not None and self.conv.kernel > min(h, w):
            raise ConfigError(f"model.conv_kernel: {self.conv.kernel} is "
                              f"larger than the {h}x{w} input")

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ClassifierConfig":
        """The config ``to_json`` wrote.  A count or seed that is not a
        JSON integer raises TypeError rather than being truncated."""
        raw = json.loads(text)
        conv = raw.get("conv")
        return cls(
            input_shape=tuple(raw["input_shape"]),
            hidden=tuple(raw["hidden"]),
            class_count=_integer(raw["class_count"]),
            init_seed=_integer(raw["init_seed"]),
            conv=None if conv is None else ConvSpec(
                _integer(conv["kernel"]), _integer(conv["channels"])),
        )


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class LossConfig:
    kind: str = "cross_entropy"
    focal_gamma: float = 2.0
    smoothing_epsilon: float = 0.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"train.loss: unknown kind {self.kind!r}, "
                              f"expected one of {LOSS_KINDS}")
        if not 0.0 <= self.focal_gamma < math.inf:
            raise ConfigError(f"train.focal_gamma: must be finite and "
                              f"non-negative, got {self.focal_gamma}")
        if not 0.0 <= self.smoothing_epsilon < 1.0:
            raise ConfigError(f"train.smoothing_epsilon: must lie in [0, 1), "
                              f"got {self.smoothing_epsilon}")


# Working-set budget of one conv block: its channel planes
# [B, C, H*W + k-1], its patch columns [k*k*C + 1, B*H'*W] and its
# pre-activations [B*H'*W, F].  At 1 MiB a block stays in a 2 MiB L2
# cache while it is built, multiplied and rectified, and no role forms
# the columns of a whole batch.  32x32x3 inputs with a 3x3 kernel and
# 8 channels give 3-image blocks.
_BLOCK_BYTES = 1 << 20


def _columns(xs: np.ndarray, kernel: int) -> np.ndarray:
    """Patch columns [k*k*C + 1, N*H'*W] of an [N, H, W, C] stack, the
    last row all ones so that ``cols.T @ [W; b]`` carries the bias.

    Each image is copied into channel planes [C, H*W + k-1] whose zero
    tail keeps every shifted window in bounds.  Row (dy, dx, c) of the
    columns is then plane c read from offset dy*W + dx for H'*W values,
    so column (i, y0, x0) holds pixel (y0 + dy, x0 + dx, c) of image i:
    one strided view, copied in runs of H'*W values.  Columns with
    x0 >= W' = W-k+1 wrap into the next row (or the zero tail); they
    are computed alongside the valid windows and discarded by callers.
    """
    n, h, w, c = xs.shape
    span = (h - kernel + 1) * w
    planes = np.empty((n, c, h * w + kernel - 1))
    planes[:, :, :h * w] = xs.reshape(n, h * w, c).transpose(0, 2, 1)
    planes[:, :, h * w:] = 0.0
    sn, sc, sp = planes.strides
    view = np.ndarray((kernel, kernel, c, n, span), planes.dtype, planes, 0,
                      (w * sp, sp, sc, sn, sp))
    cols = np.empty((kernel * kernel * c + 1, n * span))
    cols[:-1].reshape(view.shape)[...] = view
    cols[-1] = 1.0
    return cols


class Classifier:
    """MLP classifier with an optional leading convolution stage.

    Its parameters are one float64 ``vector`` [P], the checkpoint's
    block; ``parameters`` are views of it in construction order.  Weights
    initialize uniformly in [-1/sqrt(fan_in), +1/sqrt(fan_in)] from the
    config seed, so identical configs always start identically.
    """

    def __init__(self, config: ClassifierConfig):
        self.config = config
        h, w, c = config.input_shape
        layout = []  # (fan_in, shape) of each parameter, in order

        if config.conv is not None:
            k, f = config.conv.kernel, config.conv.channels
            # [W; b]: one draw gives the values of the weight's draw
            # followed by the bias's, in checkpoint order.
            layout.append((k * k * c, (k * k * c + 1, f)))
            # Conv geometry: the activation shape [H', W', F]; the images
            # per block, as many as keep a block's channel planes, patch
            # columns and pre-activations within _BLOCK_BYTES, and at
            # least one; and the images per untaped chunk, as many as
            # keep a chunk's activations within two block budgets,
            # rounded down to a multiple of 8, and at least 8.
            #
            # The multiple of 8 keeps the logits' bits independent of
            # the chunking: with OpenBLAS, a product whose row count is
            # a multiple of 4 and at least 8 gives each row the same bits
            # as the product over the whole batch, while 1-4, 6, 9 or 18
            # rows may not.  Only a final chunk of another size can then
            # differ, in the last bits of every dense layer (200 test
            # images stream as six 32-image chunks and one of 8).
            out_h, out_w = h - k + 1, w - k + 1
            self._act_shape = (out_h, out_w, f)
            flat_in = out_h * out_w * f
            block_bytes = 8 * (c * (h * w + k - 1)
                               + (k * k * c + 1 + f) * out_h * w)
            self._block = max(1, _BLOCK_BYTES // block_bytes)
            self._chunk = max(8, 2 * _BLOCK_BYTES // (8 * flat_in) // 8 * 8)
        else:
            flat_in = h * w * c

        fan_in = flat_in
        for width in list(config.hidden) + [config.class_count]:
            layout += [(fan_in, (fan_in, width)), (fan_in, (1, width))]
            fan_in = width
        fan_ins, shapes = zip(*layout)
        ends = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
        self._spans = [(slice(start, end), shape) for start, end, shape
                       in zip([0] + ends, ends, shapes)]
        rng = np.random.default_rng(config.init_seed)
        self._bind(np.concatenate([
            rng.uniform(-b, b, math.prod(shape))
            for b, shape in zip(1.0 / np.sqrt(fan_ins), shapes)]))

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of ``flat`` [..., P], laid out like ``vector``, one per
        parameter in order, each with ``flat``'s leading run axes."""
        lead = flat.shape[:-1]
        return [flat[..., span].reshape(lead + shape)
                for span, shape in self._spans]

    def _bind(self, vector: np.ndarray) -> None:
        """Store ``vector`` [..., P] and make ``parameters`` views of it."""
        self.vector = vector
        self.parameters = self.views(vector)
        head = self.config.conv is not None
        if head:
            self._conv_wb = self.parameters[0]
        self._dense = list(zip(self.parameters[head::2],
                               self.parameters[head + 1::2]))

    @classmethod
    def stack(cls, models) -> "Classifier":
        """One classifier whose vector [S, P] stacks the vectors of
        ``models``, one row per run, and whose parameters are [S, ...].

        The models must share every config setting but ``init_seed``.
        Each model's vector becomes its row of the stack's, so an
        in-place update of the stack updates every model, and each model
        scores, evaluates and saves its own run.  A stack is taped only.
        """
        first = models[0]
        for model in models:
            if replace(model.config, init_seed=0) != \
                    replace(first.config, init_seed=0):
                raise ConfigError(
                    f"stacked classifiers differ in more than init_seed: "
                    f"{first.config} and {model.config}")
        if len({id(model) for model in models}) != len(models):
            raise ConfigError("a classifier appears twice in one stack")
        stacked = copy.copy(first)
        stacked._bind(np.stack([model.vector for model in models]))
        for model, row in zip(models, stacked.vector):
            model._bind(row)
        return stacked

    def forward_batch(self, xs, tape: GradTape | None = None) -> np.ndarray:
        """Logits [N, K] for a stack of N inputs, converted to float64.

        With a ``tape`` the whole classifier is one record.  Its forward
        is ``logits``' one dense stack, ``_dense_stack``, run on the conv
        activations or the flattened input, with every conv block's
        product and every dense layer's biased pre-activation checked for
        finiteness.  The record keeps each dense layer's input and no
        mask: the pullback derives each ReLU mask from the rectified input
        it feeds, ``h > 0`` (derivative at 0 taken as 0), the conv
        activations included.  It returns the adjoint of ``vector`` and
        of no input: one fresh array laid out like ``vector``, into whose
        ``views`` each parameter's adjoint is written.

        A stack of S runs (``stack``) takes [S, N, H, W, C] images and
        returns [S, N, K] logits.  Its products are ``np.matmul`` over
        the run axis and its bias adjoints sums over the batch axis, -2,
        so each run's slice has the bits of that run taped alone; a
        ``NumericError`` names in ``run`` the first run that failed.
        """
        xs = np.asarray(xs, dtype=np.float64)
        lead = self.vector.shape[:-1]
        if (xs.ndim != len(lead) + 4 or xs.shape[:len(lead)] != lead
                or xs.shape[-3:] != self.config.input_shape):
            raise ShapeError(
                f"batch shape {xs.shape} does not match model "
                f"input {self.config.input_shape}"
            )
        if tape is None:
            if lead:
                raise ShapeError("a stack of runs is taped only")
            return self.logits(xs)
        conv = self.config.conv is not None
        inputs = []
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._dense_stack(
                self._conv_act(xs, checked=True) if conv
                else xs.reshape(xs.shape[:-3] + (-1,)), inputs)

        def pull(g: np.ndarray):
            outs = [g]  # each dense layer's output adjoint, last first
            for i in range(len(self._dense) - 1, 0, -1):
                g = (g @ _t(self._dense[i][0])) * (inputs[i] > 0.0)
                outs.append(g)
            if conv:
                # The activations' adjoint is masked in place and spent
                # before the gradient is allocated, so it never coexists
                # with the first weight's adjoint: at N = 32 on 32x32
                # images both are batch-sized.
                gact = g @ _t(self._dense[0][0])
                np.multiply(gact, inputs[0] > 0.0, out=gact)
                head = self._conv_grad(xs, gact)
                del gact
            grad = np.empty(self.vector.shape)
            views = self.views(grad)
            if conv:
                views[0][...] = head
            for x, gy, gw, gb in zip(inputs, outs[::-1], views[conv::2],
                                     views[conv + 1::2]):
                np.matmul(_t(x), gy, out=gw)
                np.sum(gy, axis=-2, keepdims=True, out=gb)
            return ((self.vector, grad),)

        tape.record(out, pull)
        return out

    def logits(self, xs: np.ndarray) -> np.ndarray:
        """Untaped logits [N, K] of an [N, H, W, C] array.

        ``forward_batch``'s arithmetic, ``_dense_stack``, without its
        finiteness checks: :func:`softmax_rows` checks the logits once.
        A conv model's input is walked in chunks of ``_chunk`` whole
        images, each chunk's activations run through the whole dense
        stack into its output rows, so one chunk's are alive at a time.
        """
        if self.config.conv is None:
            return self._dense_stack(xs.reshape(xs.shape[0], -1))
        step = self._chunk
        out = np.empty((xs.shape[0], self.config.class_count))
        for s in range(0, xs.shape[0], step):
            out[s:s + step] = self._dense_stack(self._conv_act(xs[s:s + step]))
        return out

    def _dense_stack(self, h: np.ndarray, inputs=None) -> np.ndarray:
        """``h W + b`` per dense layer of ``h`` [..., N, D], each hidden
        output rectified in place.  A 2-D product is ``ndarray.dot`` and a
        stack's ``np.matmul``, the same BLAS call, the first with less
        overhead on scoring's small operands.  Only the taped forward
        passes a list ``inputs``: each layer's input is appended to it and
        each biased pre-activation checked for finiteness, so a hidden
        -inf that the ReLU would zero still raises."""
        for i, (weight, bias) in enumerate(self._dense):
            if i:
                np.maximum(h, 0.0, out=h)
            if inputs is not None:
                inputs.append(h)
            h = h.dot(weight) if h.ndim == 2 else np.matmul(h, weight)
            h += bias
            if inputs is not None and not np.isfinite(h).all():
                raise NumericError(f"dense layer {i} produced non-finite "
                                   f"values", _first_failing_run(h))
        return h

    def _conv_act(self, xs: np.ndarray, checked: bool = False) -> np.ndarray:
        """ReLU conv activations [..., N, H'*W'*F] of an [..., N, H, W, C]
        array, each run of a stack with its own ``[W; b]``.

        The batch is walked in blocks of ``_block`` images: a block's
        patch columns are built, multiplied by ``[W; b]`` over all H'*W
        window starts (the columns' ones row carries the bias) and
        rectified while they are in cache, then dropped.  Only the
        valid windows (x0 < W') are kept: one rectifying pass compacts
        them into the output.  When ``checked`` (the taped path), each
        block's product is checked for finiteness, wrapped windows
        included.
        """
        n, _, w, _ = xs.shape[-4:]
        out_h, out_w, f = self._act_shape
        step = self._block
        act = np.empty(xs.shape[:-3] + self._act_shape)
        for run, (x, wb, a) in enumerate(_per_run(xs, self._conv_wb, act)):
            for s in range(0, n, step):
                blk = slice(s, s + step)
                pre = _columns(x[blk], self.config.conv.kernel).T @ wb
                if checked and not np.isfinite(pre).all():
                    raise NumericError("conv stage produced non-finite "
                                       "values", run)
                valid = pre.reshape(-1, out_h, w, f)[:, :, :out_w]
                np.maximum(valid, 0.0, out=a[blk])
        return act.reshape(xs.shape[:-3] + (-1,))

    def _conv_grad(self, xs: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Adjoint of ``[W; b]`` from the adjoint ``g`` [..., N, H'*W'*F]
        of the conv pre-activations, that is, the activations' adjoint
        already masked by the ReLU.

        No patch columns are kept from the forward.  Per block, the
        columns are rebuilt from the input and ``g`` is copied into a
        [B, H', W, F] buffer whose wrapped windows stay zero, so they
        contribute nothing.  One product ``cols @ g`` per block gives the
        weight adjoint in its first k*k*C rows and, from the ones row,
        the bias adjoint.
        """
        n, _, w, _ = xs.shape[-4:]
        out_h, out_w, f = self._act_shape
        step = self._block
        buf = np.zeros((min(n, step), out_h, w, f))
        gwb = np.zeros(self._conv_wb.shape)
        for x, gr, out in _per_run(xs, g, gwb):
            gr = gr.reshape(n, out_h, out_w, f)
            for s in range(0, n, step):
                blk, b = slice(s, s + step), min(step, n - s)
                buf[:b, :, :out_w] = gr[blk]
                cols = _columns(x[blk], self.config.conv.kernel)
                out += cols @ buf[:b].reshape(-1, f)
        return gwb


def _per_run(xs: np.ndarray, *arrays: np.ndarray):
    """Per run of a stack, or for the one run: its [N, H, W, C] images
    and its slice of each array, whose leading run axes are those of
    ``xs``.  The slices of a contiguous array are views."""
    lead = len(xs.shape) - 4
    return zip(xs.reshape((-1,) + xs.shape[-4:]),
               *(a.reshape((-1,) + a.shape[lead:]) for a in arrays))


def _t(a: np.ndarray) -> np.ndarray:
    """The transpose of each matrix in the last two axes."""
    return a.swapaxes(-1, -2)


def _first_failing_run(values: np.ndarray) -> int:
    """Index of the first run of a stack's [S, N, M] values holding a
    non-finite value; 0 for one run's [N, M]."""
    finite = np.isfinite(values).reshape(-1, values.shape[-2]
                                         * values.shape[-1])
    return int(finite.all(axis=1).argmin())


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of [N, K] logits, max-subtracted for stability.

    Computed as exp(z - max - logsumexp).  This is the library's one
    posterior, read by the loss, evaluation and composite scoring, and
    the one finiteness check on the untaped paths: non-finite logits
    raise NumericError.
    """
    if logits.ndim != 2 or logits.shape[1] < 1:
        raise ShapeError(f"softmax expects [N, K] logits, got {logits.shape}")
    if not np.isfinite(logits).all():
        raise NumericError("softmax of non-finite logits")
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    e = np.exp(shifted)
    return np.exp(shifted - np.log(np.add.reduce(e, axis=1, keepdims=True)))


def sample_losses(logits: np.ndarray, labels: np.ndarray, cfg: LossConfig,
                  grad: bool = False):
    """Per-sample losses [N] of [N, K] logits, and optionally their
    gradients with respect to the logits, [N, K], in closed form.

    With p = softmax(z) and p_y floored at PROB_FLOOR:

        cross_entropy    -log p_y
        focal            (1 - p_y)^gamma * -log p_y
        label_smoothing  (1 - eps) * -log p_y + eps/K * sum_k -log p_k

    A floored probability passes no gradient, and the focal modulator's
    derivative is taken as 0 where 1 - p_y is exactly 0.  The gradient
    is u - p * sum_k u_k with u = p * dloss/dp, the softmax pullback.
    """
    p = softmax_rows(logits)
    n, k = p.shape
    if labels.shape != (n,):
        raise ShapeError(f"{labels.shape} labels for {n} rows of logits")
    if n and (labels.min() < 0 or labels.max() >= k):
        raise ConfigError(f"label out of range for {k} classes")
    rows = np.arange(n)
    p_y = p[rows, labels]
    q = np.maximum(p_y, PROB_FLOOR)
    nll = -np.log(q)
    if cfg.kind == "cross_entropy":
        losses = nll
    elif cfg.kind == "focal":
        modulator = (1.0 - q) ** cfg.focal_gamma
        losses = modulator * nll
    else:
        eps = cfg.smoothing_epsilon
        all_logs = np.log(np.maximum(p, PROB_FLOOR)).sum(axis=1)
        losses = (1.0 - eps) * nll + (-eps / k) * all_logs
    if not grad:
        return losses

    # p_y * d(-log p_y)/dp_y = -1 wherever the floor is not active
    u_y = -(p_y > PROB_FLOOR).astype(np.float64)
    if cfg.kind == "focal":
        gamma = cfg.focal_gamma
        base = 1.0 - q
        d_mod = np.zeros(n)
        np.power(base, gamma - 1.0, out=d_mod, where=base > 0.0)
        u_y *= gamma * d_mod * nll * q + modulator
        u = np.zeros((n, k))
    elif cfg.kind == "label_smoothing":
        u_y *= 1.0 - eps
        u = (p > PROB_FLOOR) * (-eps / k)
    else:
        u = np.zeros((n, k))
    u[rows, labels] += u_y
    return losses, u - p * u.sum(axis=1, keepdims=True)


def save_checkpoint(model: Classifier, path: str | Path) -> None:
    """The header, then ``model.vector``.  A stack has no checkpoint."""
    if model.vector.ndim != 1:
        raise ShapeError("a stack has no checkpoint: each run's own model "
                         "saves its checkpoint")
    header = (
        f"{_CHECKPOINT_MAGIC}\n"
        f"config {model.config.to_json()}\n"
        f"params {model.vector.size}\n"
    ).encode("ascii")
    block = np.ascontiguousarray(model.vector, dtype="<f8").tobytes()
    Path(path).write_bytes(header + block)


def load_checkpoint(path: str | Path) -> Classifier:
    parts = Path(path).read_bytes().split(b"\n", 3)
    if len(parts) < 4:
        raise FormatError(f"{path}: truncated checkpoint header")
    magic, config_line, count_line, block = parts
    if magic != _CHECKPOINT_MAGIC.encode("ascii"):
        raise FormatError(f"{path}: bad checkpoint magic")
    try:
        if not (config_line.startswith(b"config ")
                and count_line.startswith(b"params ")):
            raise ValueError("expected 'config ' and 'params ' lines")
        config = ClassifierConfig.from_json(
            config_line[len(b"config "):].decode("ascii"))
        count = int(count_line[len(b"params "):])
        if len(block) != count * 8:
            raise FormatError(f"{path}: parameter block is {len(block)} "
                              f"bytes, expected {count * 8}")
        model = Classifier(config)  # TypeError on a non-integer width
    except (ConfigError, AttributeError, KeyError, TypeError,
            ValueError) as err:
        raise FormatError(
            f"{path}: malformed checkpoint header: {err!r}") from None
    if model.vector.size != count:
        raise FormatError(f"{path}: parameter count does not match config")
    model.vector[...] = np.frombuffer(block, dtype="<f8")
    return model
