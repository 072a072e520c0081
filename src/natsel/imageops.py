"""Spatial stitching of sample groups and bilinear rescaling.

All functions here are pure and operate outside any gradient tape: the
composite-image path is inference-only by design.

Coordinate convention for resizing: output pixel (i, j) samples the source
at half-pixel centers, ``((i + 0.5) * H / H' - 0.5, (j + 0.5) * W / W' - 0.5)``,
clamped to the valid range before the bilinear blend (edge clamping).
That blend is linear and separable, so a resize is two matrix products,
``Ry @ x @ Rx.T``, with the maps cached per input and target shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ShapeError

__all__ = [
    "GridLayout",
    "bilinear_resize",
]


@dataclass(frozen=True)
class GridLayout:
    """An R x C arrangement of group members; group size m = rows * cols."""

    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"grid layout {self.rows}x{self.cols} is empty")

    @property
    def group_size(self) -> int:
        return self.rows * self.cols

    @classmethod
    def parse(cls, text: str) -> "GridLayout":
        """Parse strings like ``2x2`` or ``4X2``."""
        parts = text.lower().split("x")
        if len(parts) != 2:
            raise ConfigError(f"cannot parse grid layout {text!r}")
        try:
            return cls(int(parts[0]), int(parts[1]))
        except ValueError:
            raise ConfigError(f"cannot parse grid layout {text!r}") from None

    def __str__(self) -> str:
        return f"{self.rows}x{self.cols}"


def _assemble_grid(members: np.ndarray, layout: GridLayout) -> np.ndarray:
    """[N, m, H, W, C] member stack -> [N, R*H, C*W, C] composites."""
    n, m, h, w, c = members.shape
    grid = members.reshape(n, layout.rows, layout.cols, h, w, c)
    grid = grid.transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(grid.reshape(n, layout.rows * h, layout.cols * w, c))


def _stitch_resize(members: np.ndarray, layout: GridLayout,
                   target: tuple[int, int]) -> np.ndarray:
    """[G, m, H, W, C] member stacks -> [G, H', W', C] resized composites.

    Stitching and resizing are both linear, so for small images they fold
    into one cached map applied to each group's flat member stack: one
    matrix product per batch instead of a grid copy and two products.
    Larger images take the grid-then-separable route, which costs far
    fewer operations there.
    """
    g, m, h, w, c = members.shape
    out_h, out_w = target
    fused = _composite_map(layout, h, w, c, out_h, out_w)
    if fused is None:
        return _resize_batch(_assemble_grid(members, layout), target)
    return members.reshape(g, -1).dot(fused).reshape(g, out_h, out_w, c)


# Largest folded stitch+resize map, in entries (512 KiB of float64).
_FUSED_MAP_LIMIT = 1 << 16


@lru_cache(maxsize=16)
def _composite_map(layout: GridLayout, h: int, w: int, c: int, out_h: int,
                   out_w: int) -> np.ndarray | None:
    """[m*H*W*C, H'*W'*C] map from a flat member stack to the flat resized
    composite, or None when it would exceed ``_FUSED_MAP_LIMIT``.

    Entry ((r, q, y, x, k), (i, j, k)) is Ry[i, r*H + y] * Rx[j, q*W + x]
    for the member in grid cell (r, q): the product of the separable maps,
    rounded once, so results differ from the two-pass route by rounding.
    """
    m = layout.group_size
    if (m * h * w * c) * (out_h * out_w * c) > _FUSED_MAP_LIMIT:
        return None
    ry, rx = _resize_maps(layout.rows * h, layout.cols * w, out_h, out_w)
    fused = np.einsum("iry,jqx,ab->rqyxaijb",
                      ry.reshape(out_h, layout.rows, h),
                      rx.reshape(out_w, layout.cols, w), np.eye(c))
    fused = fused.reshape(m * h * w * c, out_h * out_w * c)
    fused.setflags(write=False)
    return fused


def bilinear_resize(img, target: tuple[int, int]) -> np.ndarray:
    """Resize an HxWxC image, converted to float64, to target (H', W')
    with bilinear interpolation."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3:
        raise ShapeError(f"bilinear_resize expects HxWxC, got shape {img.shape}")
    out_h, out_w = int(target[0]), int(target[1])
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"bilinear_resize target {target} has a zero dimension")
    return _resize_batch(img[np.newaxis], (out_h, out_w))[0]


def _resize_batch(images: np.ndarray, target: tuple[int, int]) -> np.ndarray:
    """Bilinear resize of an [N, H, W, C] stack to [N, H', W', C].

    An axis whose size does not change has the identity as its map (see
    :func:`_interpolation_map`), so its product is skipped.
    """
    n, h, w, c = images.shape
    out_h, out_w = target
    ry, rx = _resize_maps(h, w, out_h, out_w)
    out = images
    if out_h != h:
        out = np.matmul(ry, out.reshape(n, h, w * c))
    if out_w != w:
        out = np.matmul(rx, out.reshape(n * out_h, w, c))
    return out.reshape(n, out_h, out_w, c)


@lru_cache(maxsize=64)
def _resize_maps(h: int, w: int, out_h: int, out_w: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Row and column interpolation matrices, [H', H] and [W', W]."""
    return _interpolation_map(h, out_h), _interpolation_map(w, out_w)


def _interpolation_map(size: int, out_size: int) -> np.ndarray:
    """[out_size, size] two-tap blend at half-pixel centers, edge-clamped.

    For out_size == size every center lands on a pixel, so the map is the
    identity and a same-size resize is exact.
    """
    centers = np.clip((np.arange(out_size) + 0.5) * (size / out_size) - 0.5,
                      0.0, size - 1.0)
    lo = np.floor(centers).astype(np.int64)
    hi = np.minimum(lo + 1, size - 1)
    frac = centers - lo
    rows = np.arange(out_size)
    m = np.zeros((out_size, size))
    np.add.at(m, (rows, lo), 1.0 - frac)
    np.add.at(m, (rows, hi), frac)
    m.setflags(write=False)
    return m
