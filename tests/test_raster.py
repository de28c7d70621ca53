import re

import numpy as np
import pytest

from emgleam.errors import ValidationError
from emgleam.glyphs import CHART_LETTERS, DIGIT_GLYPHS, LETTER_GLYPHS
from emgleam.pgmio import read_pgm, write_pgm
from emgleam.raster import (
    CHART_SCALES,
    LabeledRegion,
    ScreenRaster,
    blank_screen,
    chart_letter_width,
    paste,
    render_digit_grid,
    render_eyechart,
    render_security_message,
    render_symbols,
)

from helpers import region_pixels


def labels_for(n, seed=0):
    rng = np.random.default_rng(seed)
    return [str(d) for d in rng.integers(0, 10, n)]


class TestDigitGrid:
    def test_40x40_gives_1600_disjoint_labeled_cells(self):
        raster = render_digit_grid(40, 40, labels_for(1600), 750, 1334)
        assert len(raster.annotations) == 1600
        covered = np.zeros((1334, 750), dtype=int)
        for r in raster.annotations:
            covered[r.y : r.y + r.h, r.x : r.x + r.w] += 1
        assert covered.max() == 1  # pairwise disjoint

    def test_single_cell_contains_the_zero_glyph(self):
        raster = render_digit_grid(1, 1, ["0"], 48, 64)
        region = raster.annotations[0]
        assert region.label == "0"
        expected = render_symbols("0", region.w, region.h)
        assert np.array_equal(region_pixels(raster, region), expected)

    def test_2x3_tiling_area_and_label_readback(self):
        digits = ["1", "2", "3", "4", "5", "6"]
        raster = render_digit_grid(2, 3, digits, 90, 70)
        cell_area = (90 // 3) * (70 // 2)
        assert sum(r.w * r.h for r in raster.annotations) == 6 * cell_area
        # re-reading each region through the shared renderer recovers its label
        for region in raster.annotations:
            matches = [
                d for d in "0123456789"
                if np.array_equal(region_pixels(raster, region), render_symbols(d, region.w, region.h))
            ]
            assert matches == [region.label]

    def test_tiling_completeness(self):
        raster = render_digit_grid(4, 5, labels_for(20), 103, 97)
        cw, ch = 103 // 5, 97 // 4
        xs = sorted({r.x for r in raster.annotations})
        ys = sorted({r.y for r in raster.annotations})
        assert xs == [i * cw for i in range(5)]
        assert ys == [i * ch for i in range(4)]
        # margin pixels on the right/bottom stay background
        assert np.all(raster.luminance[:, 5 * cw :] == 1.0)
        assert np.all(raster.luminance[4 * ch :, :] == 1.0)

    def test_equals_a_render_of_every_cell(self):
        # each distinct digit is rendered once and reused; all ten occur
        digits = [str(d) for d in np.random.default_rng(3).permutation(list(range(10)) * 2)]
        raster = render_digit_grid(4, 5, digits, 103, 97, contrast=0.7)
        cw, ch = 103 // 5, 97 // 4
        lum = np.ones((97, 103), dtype=np.float32)
        regions = []
        for i, d in enumerate(digits):
            x, y = (i % 5) * cw, (i // 5) * ch
            lum[y : y + ch, x : x + cw] = render_symbols(d, cw, ch, 0.7)
            regions.append(LabeledRegion(x, y, cw, ch, d))
        assert np.array_equal(raster.luminance, lum)
        assert raster.annotations == regions

    def test_determinism(self):
        a = render_digit_grid(3, 3, labels_for(9, 5), 60, 60)
        b = render_digit_grid(3, 3, labels_for(9, 5), 60, 60)
        assert np.array_equal(a.luminance, b.luminance)
        assert a.annotations == b.annotations

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="needs 6"):
            render_digit_grid(2, 3, ["1", "2"], 60, 60)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValidationError, match="unknown symbol"):
            render_digit_grid(1, 1, ["q"], 60, 60)


class TestSecurityMessage:
    def test_region_maps_to_126x31_emage_crop_at_default_geometry(self):
        # iPhone-6s geometry: horizontal resample ratio 7/6, vertical 1:1
        raster = render_security_message("123456", 750, 1334)
        region = raster.annotations[0]
        assert region.label == "123456"
        assert (region.w * 7) % 6 == 0
        assert (region.w * 7 // 6, region.h) == (126, 31)

    def test_code_row_at_one_third_height(self):
        raster = render_security_message("123456", 750, 1334)
        assert raster.annotations[0].y == 1334 // 3

    def test_repeated_digit_gives_six_identical_subrasters(self):
        raster = render_security_message("000000", 750, 1334)
        region = raster.annotations[0]
        pix = region_pixels(raster, region)
        w = region.w // 6
        parts = [pix[:, i * w : (i + 1) * w] for i in range(6)]
        for part in parts[1:]:
            assert np.array_equal(parts[0], part)

    def test_200_random_codes_share_geometry_and_differ_only_in_glyphs(self):
        rng = np.random.default_rng(3)
        rects = set()
        base = render_security_message("000000", 750, 1334)
        region = base.annotations[0]
        outside = np.ones((1334, 750), dtype=bool)
        outside[region.y : region.y + region.h, region.x : region.x + region.w] = False
        for _ in range(200):
            code = "".join(str(d) for d in rng.integers(0, 10, 6))
            raster = render_security_message(code, 750, 1334)
            r = raster.annotations[0]
            rects.add((r.x, r.y, r.w, r.h))
            assert np.array_equal(raster.luminance[outside], base.luminance[outside])
        assert len(rects) == 1

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError, match="exactly 6"):
            render_security_message("123", 750, 1334)
        with pytest.raises(ValidationError, match="0-9"):
            render_security_message("12345a", 750, 1334)


class TestEyechart:
    def test_scale20_width_is_screen_over_1_2(self):
        raster = render_eyechart("C", 20, 750, 1334)
        region = raster.annotations[0]
        assert region.w == (750 * 5) // 6  # floor(screen / 1.2) = 625
        assert region.h == region.w

    def test_scale1_is_one_twentieth_of_scale20(self):
        w20 = render_eyechart("C", 20, 750, 1334).annotations[0].w
        w1 = render_eyechart("C", 1, 750, 1334).annotations[0].w
        assert w1 == w20 // 20

    def test_all_letters_and_scales_distinct_and_monotone(self):
        seen = set()
        for letter in CHART_LETTERS:
            prev_ink = -1
            for scale in CHART_SCALES:
                raster = render_eyechart(letter, scale, 240, 320)
                key = raster.luminance.tobytes()
                assert key not in seen
                seen.add(key)
                ink = int(np.count_nonzero(raster.luminance < 1.0))
                assert ink >= prev_ink
                prev_ink = ink
        assert len(seen) == 110

    def test_unknown_letter_and_scale_rejected(self):
        with pytest.raises(ValidationError, match="unknown chart letter"):
            render_eyechart("A", 20, 750, 1334)
        with pytest.raises(ValidationError, match="unknown chart scale"):
            render_eyechart("C", 6, 750, 1334)

    def test_chart_letter_width_rounds_down(self):
        assert chart_letter_width(128, 20) == 106
        assert chart_letter_width(128, 1) == 5


class TestLabelFidelity:
    def test_rerendering_region_label_reproduces_pixels(self):
        raster = render_digit_grid(2, 2, ["7", "3", "0", "9"], 80, 100)
        for region in raster.annotations:
            patch = render_symbols(region.label, region.w, region.h)
            assert np.array_equal(region_pixels(raster, region), patch)
        msg = render_security_message("405162", 750, 1334)
        region = msg.annotations[0]
        assert np.array_equal(region_pixels(msg, region), render_symbols(region.label, region.w, region.h))


class TestRasterType:
    def test_luminance_bounds_enforced(self):
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            ScreenRaster(2, 2, np.array([[0.0, 2.0], [0.0, 0.0]], dtype=np.float32))

    def test_region_out_of_bounds_rejected(self):
        with pytest.raises(ValidationError, match="escapes"):
            ScreenRaster(4, 4, np.zeros((4, 4), dtype=np.float32),
                         [LabeledRegion(2, 2, 4, 4, "0")])

    def test_total_annotated_area_bounded_by_raster(self):
        regions = [LabeledRegion(0, 0, 4, 4, "0"), LabeledRegion(0, 0, 4, 4, "1")]
        with pytest.raises(ValidationError, match="exceeds raster area"):
            ScreenRaster(4, 4, np.zeros((4, 4), dtype=np.float32), regions)

    def test_paste_shifts_annotations(self):
        base = blank_screen(100, 100)
        grid = render_digit_grid(1, 1, ["5"], 20, 30)
        out = paste(base, grid, 7, 11)
        region = out.annotations[0]
        assert (region.x, region.y) == (7, 11)
        assert np.array_equal(region_pixels(out, region), grid.luminance)


class TestPgmSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        raster = render_digit_grid(2, 3, labels_for(6, 2), 64, 48)
        p = tmp_path / "r.pgm"
        raster.save(p)
        again = ScreenRaster.load(p)
        assert np.array_equal(
            np.rint(raster.luminance * 255), np.rint(again.luminance * 255)
        )
        assert again.annotations == raster.annotations
        # writing the re-read raster yields identical bytes
        p2 = tmp_path / "r2.pgm"
        again.save(p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        p = tmp_path / "x.pgm"
        write_pgm(p, np.zeros((2, 3)))
        data = p.read_bytes()
        assert data.startswith(b"P5\n3 2\n255\n")
        assert len(data) == len(b"P5\n3 2\n255\n") + 6

    def test_quantization_is_round(self, tmp_path):
        p = tmp_path / "q.pgm"
        write_pgm(p, np.array([[0.0, 0.4999, 0.5001, 1.0]]))
        img = read_pgm(p)
        assert list(np.rint(img * 255).astype(int)[0]) == [0, 127, 128, 255]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_write_rejects_non_finite_values(self, tmp_path, bad):
        p = tmp_path / "x.pgm"
        with pytest.raises(ValidationError, match="NaN or inf"):
            write_pgm(p, np.array([[0.5, bad]]))
        assert not p.exists()

    @pytest.mark.parametrize("shape", [(10, 0), (0, 10), (0, 0)])
    def test_write_rejects_what_read_refuses(self, tmp_path, shape):
        p = tmp_path / "x.pgm"
        with pytest.raises(ValidationError, match=re.escape(f"must be 2-D and non-empty, got shape {shape}")):
            write_pgm(p, np.zeros(shape))
        assert not p.exists()

    def test_rejects_non_pgm(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValidationError, match="not a binary PGM"):
            read_pgm(p)

    @pytest.mark.parametrize("header, message", [
        (b"P5\nab 3\n255\n", r"PGM header fields \[b'ab', b'3', b'255'\] are not unsigned integers"),
        (b"P5\n2 3\n2.5e2\n", "PGM header fields .* are not unsigned integers"),
        (b"P5\n-2 -3\n255\n", "PGM header fields .* are not unsigned integers"),
        (b"P5\n+2 1_0\n255\n", "PGM header fields .* are not unsigned integers"),  # int() would take these
        (b"P5\n0 3\n255\n", "PGM size 0x3 must be positive"),
    ])
    def test_rejects_bad_header_fields(self, tmp_path, header, message):
        p = tmp_path / "bad.pgm"
        p.write_bytes(header + b"\x00" * 6)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(p))}: {message}"):
            read_pgm(p)


def test_glyph_sets_cover_their_alphabets():
    assert set(DIGIT_GLYPHS) == set("0123456789")
    assert set(LETTER_GLYPHS) == set("CDEFLNOPTZ")
    for bm in DIGIT_GLYPHS.values():
        assert bm.shape[0] == 7 and bm.any()
    for bm in LETTER_GLYPHS.values():
        assert bm.shape == (10, 10) and bm.any()
