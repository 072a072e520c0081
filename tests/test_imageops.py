"""Grid layouts, stitching, and bilinear resize."""

import numpy as np
import pytest

from natsel.cli import LAYOUT_AXIS
from natsel.errors import ConfigError, ShapeError
from natsel.imageops import (
    GridLayout,
    _assemble_grid,
    _composite_map,
    _resize_batch,
    _stitch_resize,
    bilinear_resize,
)

from conftest import INPUT_FORMS, reference_resize, stitch


def image(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, np.newaxis]
    return arr


class TestGridLayout:
    def test_parse_and_str(self):
        layout = GridLayout.parse("2x4")
        assert (layout.rows, layout.cols, layout.group_size) == (2, 4, 8)
        assert str(layout) == "2x4"
        assert GridLayout.parse("4X2") == GridLayout(4, 2)

    def test_parse_rejects_garbage(self):
        for text in ("2", "2x", "ax2", "2x2x2", ""):
            with pytest.raises(ConfigError):
                GridLayout.parse(text)

    def test_empty_layout_rejected(self):
        with pytest.raises(ConfigError):
            GridLayout(0, 2)
        with pytest.raises(ConfigError):
            GridLayout(1, -1)

    def test_standard_layouts_round_trip(self):
        for text in LAYOUT_AXIS:
            layout = GridLayout.parse(text)
            assert GridLayout.parse(str(layout)) == layout
            assert layout.group_size >= 2


class TestStitch:
    def test_two_row_vectors_side_by_side(self):
        out = stitch([image([[1.0, 2.0]]), image([[3.0, 4.0]])], GridLayout(1, 2))
        assert out.shape == (1, 4, 1)
        assert out[:, :, 0].tolist() == [[1.0, 2.0, 3.0, 4.0]]

    def test_constant_blocks_fill_grid(self):
        ones = [image(np.ones((2, 2))) for _ in range(4)]
        out = stitch(ones, GridLayout(2, 2))
        assert out.shape == (4, 4, 1)
        assert np.all(out == 1.0)

    def test_row_major_placement(self):
        blocks = [image(np.full((2, 2), v)) for v in (1.0, 2.0, 3.0, 4.0)]
        out = stitch(blocks, GridLayout(2, 2))[:, :, 0]
        assert np.all(out[:2, :2] == 1.0)  # member 0 -> top-left
        assert np.all(out[:2, 2:] == 2.0)  # member 1 -> top-right
        assert np.all(out[2:, :2] == 3.0)
        assert np.all(out[2:, 2:] == 4.0)

    def test_cells_slice_back_bitwise(self):
        rng = np.random.default_rng(14)
        members = [rng.random((3, 5, 2)) for _ in range(6)]
        layout = GridLayout(2, 3)
        composite = stitch(members, layout)
        for k, member in enumerate(members):
            r, c = divmod(k, layout.cols)
            cell = composite[r * 3:(r + 1) * 3, c * 5:(c + 1) * 5, :]
            assert np.array_equal(cell, member)

    def test_count_mismatch(self):
        with pytest.raises(ShapeError):
            stitch([image([[1.0]] )], GridLayout(1, 2))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            stitch([image(np.ones((2, 2))), image(np.ones((2, 3)))],
                   GridLayout(1, 2))

    def test_requires_three_dims(self):
        flat = np.ones((2, 2))
        with pytest.raises(ShapeError):
            stitch([flat, flat], GridLayout(1, 2))


class TestBilinearResize:
    def test_identity_is_bitwise(self):
        rng = np.random.default_rng(21)
        img = rng.random((5, 7, 3))
        out = bilinear_resize(img, (5, 7))
        assert np.array_equal(out, img)

    def test_constant_dyadic_upsample_exact(self):
        out = bilinear_resize(image(np.ones((2, 2))), (4, 4))
        assert np.all(out == 1.0)

    def test_constant_general_sizes(self):
        out = bilinear_resize(np.full((3, 5, 2), 0.7), (7, 4))
        assert np.max(np.abs(out - 0.7)) <= 1e-12

    def test_average_of_four(self):
        out = bilinear_resize(image([[0.0, 1.0], [2.0, 3.0]]), (1, 1))
        assert out.tolist() == [[[1.5]]]

    def test_range_preserved(self):
        rng = np.random.default_rng(33)
        img = rng.random((4, 6, 1)) * 8 - 3
        out = bilinear_resize(img, (9, 5))
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12

    def test_matches_per_pixel_oracle_exhaustively(self):
        rng = np.random.default_rng(55)
        for h in range(1, 6):
            for w in range(1, 6):
                img = rng.random((h, w, 2))
                for out_h in range(1, 6):
                    for out_w in range(1, 6):
                        got = bilinear_resize(img, (out_h, out_w))
                        want = reference_resize(img, out_h, out_w)
                        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("form", INPUT_FORMS)
    def test_input_is_converted(self, form):
        img = np.arange(24.0).reshape(3, 4, 2)
        got = bilinear_resize(INPUT_FORMS[form](img), (5, 3))
        assert got.dtype == np.float64
        assert np.array_equal(got, bilinear_resize(img, (5, 3)))

    def test_invalid_target(self):
        img = image(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            bilinear_resize(img, (0, 3))
        with pytest.raises(ShapeError):
            bilinear_resize(np.ones((2, 2)), (2, 2))


class TestBatchHelpersMatchPublicOps:
    """The vectorized [N, ...] paths must agree with per-image loops."""

    def test_assemble_grid(self):
        rng = np.random.default_rng(71)
        layout = GridLayout(2, 2)
        members = rng.random((3, 4, 2, 3, 2))
        batched = _assemble_grid(members, layout)
        for n in range(3):
            single = stitch([members[n, k] for k in range(4)], layout)
            assert np.array_equal(batched[n], single)

    def test_resize_batch(self):
        rng = np.random.default_rng(72)
        images = rng.random((4, 3, 5, 2))
        batched = _resize_batch(images, (6, 4))
        for n in range(4):
            single = bilinear_resize(images[n], (6, 4))
            assert np.array_equal(batched[n], single)

    @pytest.mark.parametrize("layout", [GridLayout(1, 2), GridLayout(2, 1)],
                             ids=["1x2", "2x1"])
    def test_identity_axis_matches_two_products(self, layout):
        # Resizing a 1x2 (2x1) composite to the member size keeps its
        # height (width): skipping that identity product changes no bit.
        from natsel.imageops import _resize_maps
        rng = np.random.default_rng(75)
        h, w, c = 32, 32, 3
        big_h, big_w = layout.rows * h, layout.cols * w
        composites = rng.random((4, big_h, big_w, c)) - 0.5
        ry, rx = _resize_maps(big_h, big_w, h, w)
        rows = np.matmul(ry, composites.reshape(4, big_h, big_w * c))
        ref = np.matmul(rx, rows.reshape(4 * h, big_w, c)).reshape(4, h, w, c)
        assert _resize_batch(composites, (h, w)).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape,layout,target,fused", [
        ((8, 8, 1), GridLayout(2, 2), (8, 8), True),
        ((3, 5, 2), GridLayout(1, 2), (4, 6), True),
        ((8, 8, 1), GridLayout(4, 4), (8, 8), True),
        ((32, 32, 3), GridLayout(1, 2), (32, 32), False),
    ])
    def test_stitch_resize(self, shape, layout, target, fused):
        # The folded map (small images) and the grid-then-separable route
        # both match stitching and resizing one group at a time.
        rng = np.random.default_rng(74)
        m = layout.group_size
        members = rng.random((3, m) + shape)
        assert (_composite_map(layout, *shape, *target) is not None) == fused
        batched = _stitch_resize(members, layout, target)
        for n in range(3):
            composite = stitch([members[n, k] for k in range(m)],
                               layout)
            single = bilinear_resize(composite, target)
            assert np.max(np.abs(batched[n] - single)) <= 1e-12

    def test_resize_maps_are_cached(self):
        from natsel.imageops import _resize_maps
        ry, rx = _resize_maps(4, 6, 3, 5)
        assert _resize_maps(4, 6, 3, 5)[0] is ry
        assert ry.shape == (3, 4) and rx.shape == (5, 6)
        assert np.all(ry.sum(axis=1) == 1.0)
        assert np.array_equal(_resize_maps(5, 7, 5, 7)[0], np.eye(5))

