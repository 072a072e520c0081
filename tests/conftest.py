"""Shared helpers for the test suite."""

import struct

import numpy as np

from natsel.data import _IDX_IMAGE4_MAGIC, _IDX_IMAGE_MAGIC, _IDX_LABEL_MAGIC
from natsel.errors import FormatError, ShapeError
from natsel.tensor import GradTape, backward


def finite_difference(build, params, step=1e-6):
    """Central-difference gradients of a scalar function of parameters.

    ``build(params) -> float`` must evaluate the function fresh from the
    current parameter values.  Returns one array per parameter.  This is
    the independent oracle route: no tape involved.
    """
    grads = []
    for p in params:
        flat = p.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = build(params)
            flat[i] = keep - step
            down = build(params)
            flat[i] = keep
            g[i] = (up - down) / (2.0 * step)
        grads.append(g.reshape(p.shape))
    return grads


def taped_gradients(build, params):
    """Tape-route gradients of ``build(params, tape) -> 0-d array``."""
    tape = GradTape()
    tape.register(*params)
    return backward(tape, build(params, tape))


# Other spellings of an integer-valued float64 array, equal to it in
# value: the inputs forward_batch and bilinear_resize convert to float64.
INPUT_FORMS = {
    "list": lambda a: a.tolist(),
    "int": lambda a: a.astype(np.int64).tolist(),
    "float32": lambda a: a.astype(np.float32),
    "int64": lambda a: a.astype(np.int64),
    "strided": lambda a: np.repeat(a, 2, axis=-2)[..., ::2, :],
    "transposed": lambda a: np.asfortranarray(a),
}


def max_relative_error(analytic, numeric, floor=1e-3):
    """max |a - n| / max(|a|, |n|, floor) over all entries.

    The floor keeps near-zero entries from exploding the ratio; 1e-3 is
    far above roundoff and far below any real gradient mismatch.
    """
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def forward_one(model, x: np.ndarray) -> np.ndarray:
    """Logits [K] of one HxWxC input: a one-image untaped batch."""
    return model.forward_batch(x[np.newaxis])[0]


# Taped ops for the backward and gradient tests.  The library tapes whole
# stages, so these record their entries with GradTape.record; operands of
# an elementwise binary op must have equal shapes.

def _taped(out, tape, pull):
    if tape is not None:
        tape.record(out, pull)
    return out


def add(a, b, tape=None):
    assert a.shape == b.shape
    return _taped(a + b, tape, lambda g: ((a, g), (b, g)))


def mul(a, b, tape=None):
    assert a.shape == b.shape
    return _taped(a * b, tape, lambda g: ((a, g * b), (b, g * a)))


def scale(a, factor, tape=None):
    """Multiply by a constant that is not differentiated through."""
    return _taped(a * factor, tape, lambda g: ((a, g * factor),))


def exp(a, tape=None):
    out = np.exp(a)
    return _taped(out, tape, lambda g: ((a, g * out),))


def tsum(a, tape=None):
    """Sum of all elements as a 0-d array, the usual backward root."""
    return _taped(np.array(np.sum(a)), tape,
                  lambda g: ((a, np.full(a.shape, float(g))),))


def matmul(a, b, tape=None):
    """Matrix product of a [M, K] by a [K, N] array."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul cannot multiply {a.shape} by {b.shape}")
    return _taped(a @ b, tape, lambda g: ((a, g @ b.T), (b, a.T @ g)))


def add_row(a, row, tape=None):
    """Add a [1, M] row to every row of an [N, M] array (a bias add)."""
    if a.ndim != 2 or row.shape != (1, a.shape[1]):
        raise ShapeError(f"add_row cannot add a {row.shape} row to {a.shape}")
    return _taped(a + row, tape,
                  lambda g: ((a, g), (row, g.sum(axis=0, keepdims=True))))


def relu(a, tape=None):
    mask = a > 0.0  # derivative at exactly 0 taken as 0
    return _taped(np.maximum(a, 0.0), tape, lambda g: ((a, g * mask),))


def reshape(a, shape, tape=None):
    return _taped(a.reshape(shape), tape,
                  lambda g: ((a, g.reshape(a.shape)),))


def reference_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Per-pixel bilinear resize oracle: explicit loops, four-term blend.

    Output pixel (i, j) samples the source at half-pixel centers
    ((i + 0.5) * H / H' - 0.5, (j + 0.5) * W / W' - 0.5), clamped to the
    valid range, then blends the four surrounding pixels.
    """
    h, w, c = img.shape
    out = np.empty((out_h, out_w, c))
    for i in range(out_h):
        sy = min(max((i + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0 = int(np.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for j in range(out_w):
            sx = min(max((j + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            x0 = int(np.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            for ch in range(c):
                out[i, j, ch] = (
                    (1 - fy) * (1 - fx) * img[y0, x0, ch]
                    + (1 - fy) * fx * img[y0, x1, ch]
                    + fy * (1 - fx) * img[y1, x0, ch]
                    + fy * fx * img[y1, x1, ch]
                )
    return out


def centroid_model(dataset, scale=1.0, init_seed=0):
    """Linear nearest-centroid classifier for a labeled image dataset.

    weight[:, k] = scale * mean image of class k, bias[k] = -scale/2 *
    ||centroid_k||^2, so argmax logit = argmin distance to centroid.  On
    zero-noise template data this classifies perfectly, and ``scale``
    tunes the confidence (larger scale, lower loss) without changing the
    decision boundary.
    """
    from natsel.model import Classifier, ClassifierConfig

    shape = dataset.image_shape
    k = dataset.class_count
    model = Classifier(ClassifierConfig(
        input_shape=shape, hidden=(), class_count=k, init_seed=init_seed))
    weight = np.zeros((int(np.prod(shape)), k))
    bias = np.zeros((1, k))
    for c in range(k):
        centroid = dataset.images[dataset.labels == c].mean(axis=0).reshape(-1)
        weight[:, c] = scale * centroid
        bias[0, c] = -0.5 * scale * float(centroid @ centroid)
    model.parameters[0][...] = weight
    model.parameters[1][...] = bias
    return model


def softmax_vector(z: np.ndarray) -> np.ndarray:
    """Per-vector softmax oracle: exp(z - max - log sum exp(z - max))."""
    shifted = z - np.max(z)
    return np.exp(shifted - np.log(np.sum(np.exp(shifted))))


def loss_oracle(p: np.ndarray, y: int, cfg) -> float:
    """Loss of one sample from its probability vector, written out per
    kind with the 1e-12 probability floor; no tape, no batching."""
    p_y = max(float(p[y]), 1e-12)
    nll = -np.log(p_y)
    if cfg.kind == "cross_entropy":
        return float(nll)
    if cfg.kind == "focal":
        return float((1.0 - p_y) ** cfg.focal_gamma * nll)
    eps = cfg.smoothing_epsilon
    return float((1.0 - eps) * nll
                 + (eps / p.shape[0]) * np.sum(-np.log(np.maximum(p, 1e-12))))


def stitch(images, layout) -> np.ndarray:
    """Per-image stitching oracle: copy m same-shape HxWxC images into one
    (R*H) x (C*W) composite, image k at grid row k // C, column k % C."""
    from natsel.errors import ShapeError

    if len(images) != layout.group_size:
        raise ShapeError(f"stitch got {len(images)} images for a {layout} "
                         f"layout (needs {layout.group_size})")
    shapes = {img.shape for img in images}
    if len(shapes) != 1:
        raise ShapeError(f"stitch needs same-shape images, got {sorted(shapes)}")
    (shape,) = shapes
    if len(shape) != 3:
        raise ShapeError(f"stitch expects HxWxC images, got shape {shape}")
    h, w, c = shape
    out = np.empty((layout.rows * h, layout.cols * w, c))
    for k, img in enumerate(images):
        r, q = divmod(k, layout.cols)
        out[r * h:(r + 1) * h, q * w:(q + 1) * w] = img
    return out


def group_members(result, group: int) -> np.ndarray:
    """Batch positions of one group of an NSResult, read from group_ids."""
    return np.flatnonzero(result.group_ids == group)


class GroupSpec:
    """One competition group for the per-group oracle: a grid layout plus
    member batch positions, validated like a real grouping."""

    def __init__(self, layout, members):
        from natsel.errors import ConfigError

        members = tuple(int(i) for i in members)
        if len(members) != layout.group_size:
            raise ConfigError(f"group of {len(members)} members does not "
                              f"fill a {layout} grid")
        if len(set(members)) != len(members):
            raise ConfigError("group members must be distinct")
        if any(i < 0 for i in members):
            raise ConfigError("group members must be non-negative")
        self.layout = layout
        self.members = members


def group_ns_scores(group, samples, labels, model):
    """Per-group scoring oracle: stitch and resize one image at a time,
    then the per-image forward and a per-vector softmax.

    Returns raw and normalized scores as [1, m] arrays.  Posteriors are
    kept inside [1e-12, 1 - 1e-12], as in the batched path.
    """
    from natsel.imageops import bilinear_resize

    h0, w0, _ = model.config.input_shape
    members = [samples[i] for i in group.members]
    composite = bilinear_resize(stitch(members, group.layout), (h0, w0))
    probs = softmax_vector(forward_one(model, composite))
    q = np.array([[probs[int(labels[i])] for i in group.members]])
    q = np.clip(q, 1e-12, 1.0 - 1e-12)
    return q, q / q.sum()


def reference_splits(settings, seed):
    """Combine-then-subset oracle for synthetic data: each class's train
    plus test noise drawn as one array, added to its template and
    clipped, the classes concatenated, then the two splits copied out."""
    from natsel.data import Dataset, _class_template
    from natsel.seeds import derive_seed

    shape, test_n = settings.image_shape, settings.test_per_class
    counts = [n + test_n for n in settings.train_counts()]
    chunks = []
    for k, n_k in enumerate(counts):
        template = _class_template(
            shape, np.random.default_rng(derive_seed(seed, "template", k)))
        noise_rng = np.random.default_rng(derive_seed(seed, "samples", k))
        noise = noise_rng.normal(0.0, 1.0, size=(n_k,) + shape)
        chunks.append(np.clip(template + settings.noise_std * noise,
                              0.0, 1.0))
    y = np.repeat(np.arange(settings.classes, dtype=np.int64), counts)
    full = Dataset(images=np.concatenate(chunks, axis=0), labels=y,
                   clean_labels=y.copy(), class_count=settings.classes)
    train_idx, test_idx = [], []
    start = 0
    for n_train in settings.train_counts():
        train_idx.extend(range(start, start + n_train))
        start += n_train
        test_idx.extend(range(start, start + test_n))
        start += test_n
    return full.subset(train_idx), full.subset(test_idx)


def train_erm(config, train_set, test_set, model):
    """Plain uniform-weight reference loop with no scoring code at all.

    Written independently of ``train`` so the rho == 0 equivalence can be
    checked against a loop that cannot run competition logic even by
    accident.  Weights are identically 1, so it matches ``train`` with
    sigma = 1, rho = 0 bit for bit.
    """
    import time

    from natsel.data import epoch_indices
    from natsel.errors import ConfigError
    from natsel.trainer import (
        MetricsRecord,
        _check_finite,
        _Step,
        _taped_step,
        _train_record,
        evaluate,
        sgd_momentum_step,
    )

    if len(train_set) == 0:
        raise ConfigError("cannot train on an empty dataset")
    velocity = [np.zeros_like(p) for p in model.parameters]
    records = []
    step = 0
    for epoch in range(config.epochs):
        epoch_start = time.perf_counter()
        lr = config.lr_at(epoch)
        order = epoch_indices(train_set.labels, train_set.class_count,
                              config.sampler, epoch, config.epochs,
                              config.seed)
        steps = []
        for lo in range(0, order.shape[0], config.batch_size):
            batch_idx = order[lo:lo + config.batch_size]
            images = train_set.images[batch_idx]
            labels = train_set.labels[batch_idx]
            tape, batch_loss, predictions = _taped_step(
                model, images, labels, np.ones(labels.shape[0]), config.loss)
            loss_value = batch_loss.item()
            _check_finite(loss_value, epoch, step, "batch loss")
            grads = backward(tape, batch_loss)
            sgd_momentum_step(model.parameters, grads, velocity, lr,
                              config.momentum)
            steps.append(_Step(epoch, step, batch_idx, labels, predictions,
                               loss_value))
            step += 1
        records.append(_train_record(steps, train_set.class_count,
                                     epoch_start))
        eval_start = time.perf_counter()
        result = evaluate(model, test_set, config.loss)
        records.append(MetricsRecord(
            epoch=epoch, split="test", mean_loss=result.mean_loss,
            accuracy=result.accuracy,
            per_class_accuracy=result.per_class_accuracy,
            per_class_ns=None, seconds=time.perf_counter() - eval_start,
            train_forward_passes=0, ns_forward_passes=0, ns_seconds=0.0,
        ))
    return model, records


def save_idx(path, array: np.ndarray) -> None:
    """Write labels (1-D ints) or images (3-D/4-D floats) as an IDX file,
    the format ``natsel.data.load_idx`` reads.

    Image values are quantized to bytes as round(v * 255); labels must
    already fit a byte.  Multi-channel images use the 4-D variant of the
    format (dimension-count byte 4 in the magic).
    """
    arr = np.asarray(array)
    with open(path, "wb") as fh:
        if arr.ndim == 1 and np.issubdtype(arr.dtype, np.integer):
            if arr.size and (arr.min() < 0 or arr.max() > 255):
                raise FormatError("labels must fit in one byte")
            fh.write(struct.pack(">ii", _IDX_LABEL_MAGIC, arr.size))
            fh.write(arr.astype(np.uint8).tobytes())
        elif arr.ndim in (3, 4) and np.issubdtype(arr.dtype, np.floating):
            magic = _IDX_IMAGE_MAGIC if arr.ndim == 3 else _IDX_IMAGE4_MAGIC
            fh.write(struct.pack(">i", magic))
            fh.write(struct.pack(f">{arr.ndim}i", *arr.shape))
            quantized = np.floor(arr * 255.0 + 0.5)
            if quantized.min() < 0 or quantized.max() > 255:
                raise FormatError("image values must lie in [0, 1]")
            fh.write(quantized.astype(np.uint8).tobytes())
        else:
            raise FormatError(
                f"cannot encode dtype {arr.dtype} with {arr.ndim} dimensions"
            )
