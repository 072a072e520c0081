"""Small configurable classifier: optional single conv stage plus an MLP.

Checkpoint byte layout (``save_checkpoint`` / ``load_checkpoint``):

    "NSCKPT 1\\n"                 ASCII magic + format version
    "config <compact json>\\n"    echo of the ClassifierConfig
    "params <count>\\n"           total number of float64 values
    <count * 8 bytes>             little-endian float64 parameter block,
                                  arrays in construction order, row-major

Construction order: the conv stage's weight and bias as one
[k*k*C + 1, F] array, the bias its last row (if a conv stage is
configured), then per dense layer weight [in, out] and bias [1, out].
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
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
        raw = json.loads(text)
        conv = raw.get("conv")
        return cls(
            input_shape=tuple(raw["input_shape"]),
            hidden=tuple(raw["hidden"]),
            class_count=int(raw["class_count"]),
            init_seed=int(raw["init_seed"]),
            conv=None if conv is None else ConvSpec(int(conv["kernel"]),
                                                    int(conv["channels"])),
        )


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

    Weights initialize uniformly in [-1/sqrt(fan_in), +1/sqrt(fan_in)] from
    the config seed, so identical configs always start identically.
    """

    def __init__(self, config: ClassifierConfig):
        self.config = config
        h, w, c = config.input_shape
        rng = np.random.default_rng(config.init_seed)
        self.parameters: list[np.ndarray] = []

        if config.conv is not None:
            k, f = config.conv.kernel, config.conv.channels
            # [W; b]: one draw gives the values of the weight's draw
            # followed by the bias's, in checkpoint order.
            self._conv_wb = self._init_param(rng, k * k * c,
                                             (k * k * c + 1, f))
            self.parameters.append(self._conv_wb)
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
            # rows may not.  Only a final partial chunk can then differ
            # in the last bits (200 test images stream as six 32-image
            # chunks and one of 8).
            out_h, out_w = h - k + 1, w - k + 1
            self._act_shape = (out_h, out_w, f)
            flat_in = out_h * out_w * f
            block_bytes = 8 * (c * (h * w + k - 1)
                               + (k * k * c + 1 + f) * out_h * w)
            self._block = max(1, _BLOCK_BYTES // block_bytes)
            self._chunk = max(8, 2 * _BLOCK_BYTES // (8 * flat_in) // 8 * 8)
        else:
            flat_in = h * w * c

        self._dense: list[tuple[np.ndarray, np.ndarray]] = []
        widths = list(config.hidden) + [config.class_count]
        fan_in = flat_in
        for width in widths:
            weight = self._init_param(rng, fan_in, (fan_in, width))
            bias = self._init_param(rng, fan_in, (1, width))
            self._dense.append((weight, bias))
            self.parameters += [weight, bias]
            fan_in = width

    @staticmethod
    def _init_param(rng: np.random.Generator, fan_in: int,
                    shape: tuple[int, ...]) -> np.ndarray:
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    @property
    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters)

    def forward_batch(self, xs, tape: GradTape | None = None) -> np.ndarray:
        """Logits [N, K] for a stack of N inputs, converted to float64."""
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 4 or xs.shape[1:] != self.config.input_shape:
            raise ShapeError(
                f"batch shape {xs.shape} does not match model "
                f"input {self.config.input_shape}"
            )
        if tape is None:
            return self.logits(xs)
        if self.config.conv is not None:
            return self._dense_stage(self._conv_stage(xs, tape), tape)
        return self._dense_stage(xs.reshape(xs.shape[0], -1), tape)

    def logits(self, xs: np.ndarray) -> np.ndarray:
        """Untaped logits [N, K] of an [N, H, W, C] array.

        The same arithmetic as the taped ``forward_batch``, on plain
        arrays and without per-operation finiteness checks:
        :func:`softmax_rows` checks the logits once.  Products use
        ``ndarray.dot``, the same BLAS call as ``@`` with less overhead
        on the small operands of scoring.  A conv model's input is
        walked in chunks of ``_chunk`` whole images: each chunk's conv
        activations are multiplied by the first dense weight into their
        output rows and dropped, so no more than one chunk of
        activations is ever alive.
        """
        (weight, bias), *rest = self._dense
        if self.config.conv is None:
            out = xs.reshape(xs.shape[0], -1).dot(weight)
        else:
            step = self._chunk
            out = np.empty((xs.shape[0], weight.shape[1]))
            for s in range(0, xs.shape[0], step):
                np.matmul(self._conv_act(xs[s:s + step]), weight,
                          out=out[s:s + step])
        out += bias
        for weight, bias in rest:
            np.maximum(out, 0.0, out=out)
            out = out.dot(weight)
            out += bias
        return out

    def _conv_act(self, xs: np.ndarray, checked: bool = False) -> np.ndarray:
        """ReLU conv activations [N, H'*W'*F] of an [N, H, W, C] array.

        The batch is walked in blocks of ``_block`` images: a block's
        patch columns are built, multiplied by ``[W; b]`` over all H'*W
        window starts (the columns' ones row carries the bias) and
        rectified while they are in cache, then dropped.  Only the
        valid windows (x0 < W') are kept: one rectifying pass compacts
        them into the output.  When ``checked`` (the taped path), each
        block's product is checked for finiteness, wrapped windows
        included.
        """
        n, w = xs.shape[0], xs.shape[2]
        out_h, out_w, f = self._act_shape
        step = self._block
        act = np.empty((n, out_h, out_w, f))
        for s in range(0, n, step):
            blk = slice(s, s + step)
            pre = _columns(xs[blk], self.config.conv.kernel).T @ self._conv_wb
            if checked and not np.isfinite(pre).all():
                raise NumericError("conv stage produced non-finite values")
            valid = pre.reshape(-1, out_h, w, f)[:, :, :out_w]
            np.maximum(valid, 0.0, out=act[blk])
        return act.reshape(n, -1)

    def _conv_stage(self, xs: np.ndarray, tape: GradTape) -> np.ndarray:
        """ReLU conv activations [N, H'*W'*F] as one tape record.

        The pullback returns the adjoint of ``[W; b]`` only: the input
        is data, so no adjoint is formed for it.  No patch columns or
        ReLU masks are kept from the forward.  Per block, the mask
        ``act > 0`` (derivative at 0 taken as 0) is derived from the
        kept activations into one reused buffer, the columns are rebuilt
        from the input, and the masked adjoint is scattered into a
        zeroed [B, H', W, F] buffer, so the wrapped windows contribute
        nothing.  One product ``cols @ gm`` per block gives the weight
        adjoint in its first k*k*C rows and, from the ones row, the bias
        adjoint.
        """
        weight, k = self._conv_wb, self.config.conv.kernel
        n, w = xs.shape[0], xs.shape[2]
        out_h, out_w, f = self._act_shape
        step = self._block
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._conv_act(xs, checked=True)

        def pull(g: np.ndarray):
            g = g.reshape(n, out_h, out_w, f)
            act = out.reshape(g.shape)
            buf = np.zeros((min(n, step), out_h, w, f))
            mask = np.empty((min(n, step), out_h, out_w, f), dtype=bool)
            gwb = np.zeros(weight.shape)
            for s in range(0, n, step):
                blk, b = slice(s, s + step), min(step, n - s)
                np.greater(act[blk], 0.0, out=mask[:b])
                np.multiply(g[blk], mask[:b], out=buf[:b, :, :out_w])
                gwb += _columns(xs[blk], k) @ buf[:b].reshape(-1, f)
            return ((weight, gwb),)

        tape.record(out, pull)
        return out

    def _dense_stage(self, x: np.ndarray, tape: GradTape) -> np.ndarray:
        """Logits [N, K] of the flat activations ``x`` as one tape record.

        The forward is ``logits``' arithmetic, ``h W + b`` per layer
        with a ReLU between layers, and checks each layer's biased
        pre-activation for finiteness, so a hidden -inf that the ReLU
        would zero still raises.  The record keeps each layer's input;
        the pullback derives each ReLU mask from the rectified input it
        feeds, ``h > 0`` (derivative at 0 taken as 0).  It returns every
        weight and bias adjoint, and an adjoint for ``x`` only when a
        conv stage produced it; raw images get none.
        """
        input_adjoint = self.config.conv is not None
        inputs = []
        out = x
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (weight, bias) in enumerate(self._dense):
                if i:
                    np.maximum(out, 0.0, out=out)
                inputs.append(out)
                out = out.dot(weight)
                out += bias
                if not np.isfinite(out).all():
                    raise NumericError(
                        f"dense layer {i} produced non-finite values")

        def pull(g: np.ndarray):
            pairs = []
            for i in range(len(self._dense) - 1, -1, -1):
                weight, bias = self._dense[i]
                pairs += ((weight, inputs[i].T @ g),
                          (bias, g.sum(axis=0, keepdims=True)))
                if i:
                    g = (g @ weight.T) * (inputs[i] > 0.0)
                elif input_adjoint:
                    pairs.append((x, g @ weight.T))
            return pairs

        tape.record(out, pull)
        return out


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of [N, K] logits, max-subtracted for stability.

    Computed as exp(z - max - logsumexp).  This is the one finiteness
    check on the untaped paths: non-finite logits raise NumericError.
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
    header = (
        f"{_CHECKPOINT_MAGIC}\n"
        f"config {model.config.to_json()}\n"
        f"params {model.num_parameters}\n"
    ).encode("ascii")
    block = b"".join(
        np.ascontiguousarray(p, dtype="<f8").tobytes()
        for p in model.parameters
    )
    Path(path).write_bytes(header + block)


def load_checkpoint(path: str | Path) -> Classifier:
    parts = Path(path).read_bytes().split(b"\n", 3)
    if len(parts) < 4:
        raise FormatError(f"{path}: truncated checkpoint header")
    magic, config_line, count_line, block = parts
    if magic.decode("ascii", "replace") != _CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic")
    config_line = config_line.decode("ascii")
    count_line = count_line.decode("ascii")
    if not config_line.startswith("config ") or not count_line.startswith("params "):
        raise FormatError(f"{path}: malformed checkpoint header")
    config = ClassifierConfig.from_json(config_line[len("config "):])
    count = int(count_line[len("params "):])

    if len(block) != count * 8:
        raise FormatError(
            f"{path}: parameter block is {len(block)} bytes, expected {count * 8}"
        )
    model = Classifier(config)
    if model.num_parameters != count:
        raise FormatError(f"{path}: parameter count does not match config")
    flat = np.frombuffer(block, dtype="<f8")
    cursor = 0
    for p in model.parameters:
        p[...] = flat[cursor:cursor + p.size].reshape(p.shape)
        cursor += p.size
    return model
