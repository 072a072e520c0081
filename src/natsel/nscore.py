"""Group-wise competition scores from stitched-composite inference.

A mini-batch is partitioned into contiguous groups of m samples.  Each
group is stitched into one composite image, resized back to the model's
native input resolution, and pushed through the classifier without a
tape.  The posterior probability of each member's true class is its raw
score q_i, read from ``natsel.model.softmax_rows`` of the composite
logits, the library's one posterior; normalizing the raw scores within
the group gives the competition score s_i = q_i / sum_j q_j.

Scoring is strictly detached: no tape records, no parameter writes, no
optimizer state.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ShapeError
from .imageops import GridLayout, _stitch_resize
from .model import Classifier, softmax_rows

__all__ = [
    "NSResult",
    "batch_ns_scores",
]

# Probability floor: posteriors entering score extraction are kept at
# least this far from 0 and 1, so every group's raw scores sum to at least
# twice the floor.  Exact softmax cannot reach either boundary, but float
# rounding can when one group member dominates by ~1e17.
_DEGENERATE_FLOOR = 1e-12

_CEILING = 1.0 - _DEGENERATE_FLOOR

LEFTOVER_GROUP_ID = -1


class NSResult(NamedTuple):
    """Per-sample raw scores, competition scores, and group membership.

    Group g holds the batch positions [g*m, (g+1)*m); positions past the
    last full group are leftovers with group id -1.  One is built per
    scored batch, so it is a named tuple, the cheapest immutable record.
    """

    raw: np.ndarray        # q_i, in (0, 1); leftovers carry the neutral 1/m
    score: np.ndarray      # s_i, in (0, 1), summing to 1 within each group
    group_ids: np.ndarray  # group index per sample; -1 marks leftovers
    group_count: int       # full groups, one composite forward each


def batch_ns_scores(images: np.ndarray, labels: np.ndarray, model: Classifier,
                    layout: GridLayout) -> NSResult:
    """Score a whole batch; one composite forward pass per full group.

    ``images`` is a [B, H, W, C] stack in batch order and ``labels`` a
    [B] integer array, assumed already shuffled, so contiguous runs of m
    are an unbiased grouping.  When m does not divide B the trailing
    remainder competes with nobody.  All groups are stitched and resized
    as one array and pushed through a single untaped forward; each
    member's q is its label's column of ``softmax_rows`` at its group's
    row, so non-finite composite logits raise its NumericError.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4:
        raise ShapeError(f"expected [B,H,W,C] images, got shape {images.shape}")
    batch = images.shape[0]
    if labels.shape != (batch,):
        raise ShapeError(f"{labels.shape} labels for {batch} images")
    m = layout.group_size
    if m < 2:
        raise ConfigError(f"group size must be at least 2, got {m}")
    if batch < 1:
        raise ConfigError("batch must be non-empty")
    g = batch // m
    n = g * m
    ids = _group_ids(batch, m)
    if g:
        h0, w0, _ = model.config.input_shape
        members = images[:n].reshape((g, m) + images.shape[1:])
        p = softmax_rows(model.logits(_stitch_resize(members, layout,
                                                     (h0, w0))))
        member_labels = np.asarray(labels[:n], dtype=np.int64)
        # As unsigned integers negative labels wrap past any class count,
        # so one maximum checks both ends of the range.
        if np.maximum.reduce(member_labels.view(np.uint64)) >= p.shape[1]:
            raise ConfigError("label out of range for the model's class count")
        # A member's group id is its composite's row of the posterior.
        raw = p[ids[:n], member_labels]
        np.maximum(raw, _DEGENERATE_FLOOR, out=raw)
        np.minimum(raw, _CEILING, out=raw)
        q = raw.reshape(g, m)
        score = (q / np.add.reduce(q, axis=1, keepdims=True)).ravel()
    else:
        raw = score = np.empty(0)
    if n < batch:
        neutral = np.full(batch - n, 1.0 / m)
        raw = np.concatenate((raw, neutral))
        score = np.concatenate((score, neutral))
    return NSResult(raw=raw, score=score, group_ids=ids, group_count=g)


@lru_cache(maxsize=64)
def _group_ids(batch: int, m: int) -> np.ndarray:
    """Read-only group id per batch position: contiguous runs of m, with
    the trailing remainder marked as leftovers."""
    ids = np.arange(batch) // m
    ids[batch // m * m:] = LEFTOVER_GROUP_ID
    ids.setflags(write=False)
    return ids
