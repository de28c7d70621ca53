"""Ground-truth screen content rendering.

Produces luminance rasters (values in [0, 1], white background, dark
glyphs) with labeled regions: digit grids for profiling-data collection,
mock push messages carrying a six-digit security code, and acuity-chart
letters at the eleven chart scales.

All geometry rounds toward zero.  Grid cells are floor(screen / cells)
with the unused margin left at the right/bottom edge, so renders are
bit-deterministic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .glyphs import CHART_LETTERS, DIGIT_GLYPHS, LETTER_GLYPHS, scale_bitmap
from .pgmio import read_pgm, write_pgm
from .util import dump_json, read_record

#: Acuity-chart scales.  The largest letter leaves 10% of its own width as
#: margin on each side; the smallest is 1/20 of the largest.
CHART_SCALES = (1, 1.2, 1.5, 2, 2.5, 3, 4, 5, 7, 10, 20)

# Fraction of a grid cell the glyph box may fill.
_CELL_FILL = 0.7


@dataclass(frozen=True)
class LabeledRegion:
    """Pixel rectangle carrying the ground-truth symbol(s) drawn inside it."""

    x: int
    y: int
    w: int
    h: int
    label: str

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValidationError(f"region {self.label!r} has empty rect {self.w}x{self.h}")


@dataclass
class ScreenRaster:
    """Rendered visible-screen luminance with label geometry.

    ``luminance`` is row-major (height, width), float32 in [0, 1].
    """

    width_px: int
    height_px: int
    luminance: np.ndarray
    annotations: list[LabeledRegion] = field(default_factory=list)

    def __post_init__(self):
        lum = np.asarray(self.luminance, dtype=np.float32)
        if lum.shape != (self.height_px, self.width_px):
            raise ValidationError(
                f"luminance shape {lum.shape} != ({self.height_px}, {self.width_px})"
            )
        if lum.size and (float(lum.min()) < 0.0 or float(lum.max()) > 1.0):
            raise ValidationError("luminance values must lie in [0, 1]")
        self.luminance = lum
        area = 0
        for r in self.annotations:
            if r.x < 0 or r.y < 0 or r.x + r.w > self.width_px or r.y + r.h > self.height_px:
                raise ValidationError(f"region {r.label!r} escapes the {self.width_px}x{self.height_px} raster")
            area += r.w * r.h
        if area > self.width_px * self.height_px:
            raise ValidationError("annotated area exceeds raster area")

    def save(self, path) -> None:
        """Write PGM plus the JSON annotation sidecar (<path>.json)."""
        write_pgm(path, self.luminance)
        dump_json(str(path) + ".json", [asdict(r) for r in self.annotations])

    @classmethod
    def load(cls, path) -> "ScreenRaster":
        lum = read_pgm(path)
        h, w = lum.shape
        try:
            with read_record(str(path) + ".json") as regions:
                return cls(w, h, lum, [LabeledRegion(**d) for d in regions])
        except FileNotFoundError:  # a bare PGM: no annotations
            return cls(w, h, lum)


def _glyph_for(symbol: str) -> np.ndarray:
    if symbol in DIGIT_GLYPHS:
        return DIGIT_GLYPHS[symbol]
    if symbol in LETTER_GLYPHS:
        return LETTER_GLYPHS[symbol]
    raise ValidationError(f"unknown symbol {symbol!r}")


def _fit_box(cell_w: int, cell_h: int, glyph: np.ndarray) -> tuple[int, int]:
    """Largest glyph box at native aspect filling at most _CELL_FILL of the cell."""
    aspect = Fraction(glyph.shape[1], glyph.shape[0])  # w / h
    gh = max(1, int(cell_h * _CELL_FILL))
    gw = max(1, int(gh * aspect))
    max_w = max(1, int(cell_w * _CELL_FILL))
    if gw > max_w:
        gw = max_w
        gh = max(1, int(gw / aspect))
    return gw, gh


def render_symbols(label: str, w: int, h: int, contrast: float = 1.0) -> np.ndarray:
    """Render a symbol string into a (h, w) patch, background white.

    Single symbols are centered per the cell-fill rule; multi-symbol labels
    split the width into equal cells (remainder to the last cell).  This is
    the one glyph-placement routine used by every renderer, which is what
    makes the label-fidelity invariant hold: re-rendering a region's label
    into its rect reproduces the stored pixels exactly.
    """
    if not label:
        raise ValidationError("empty label")
    patch = np.ones((h, w), dtype=np.float32)
    n = len(label)
    cell_w = w // n
    if cell_w <= 0:
        raise ValidationError(f"rect width {w} too small for {n} symbols")
    for i, sym in enumerate(label):
        cw = cell_w if i < n - 1 else w - cell_w * (n - 1)
        glyph = _glyph_for(sym)
        gw, gh = _fit_box(cw, h, glyph)
        ink = scale_bitmap(glyph, gw, gh)
        x0 = i * cell_w + (cw - gw) // 2
        y0 = (h - gh) // 2
        sub = patch[y0 : y0 + gh, x0 : x0 + gw]
        sub[ink] = np.float32(1.0 - contrast)
    return patch


def render_digit_grid(
    rows: int,
    cols: int,
    digits,
    screen_w: int,
    screen_h: int,
    contrast: float = 1.0,
) -> ScreenRaster:
    """Tile the screen into rows x cols cells, one digit glyph per cell.

    Cell size is floor(screen / cells); the union of cell rects is the grid
    bounding rect and cells are pairwise disjoint.  All cells share one
    size, so each distinct symbol is rendered once.
    """
    digits = list(digits)
    if rows <= 0 or cols <= 0:
        raise ValidationError(f"grid {rows}x{cols} must be positive")
    if rows * cols != len(digits):
        raise ValidationError(f"grid {rows}x{cols} needs {rows * cols} digits, got {len(digits)}")
    cell_w = screen_w // cols
    cell_h = screen_h // rows
    if cell_w < 1 or cell_h < 1:
        raise ValidationError(f"screen {screen_w}x{screen_h} too small for a {rows}x{cols} grid")

    lum = np.ones((screen_h, screen_w), dtype=np.float32)
    regions = []
    patches = {}
    for r in range(rows):
        for c in range(cols):
            sym = digits[r * cols + c]
            if sym not in patches:
                patches[sym] = render_symbols(sym, cell_w, cell_h, contrast)
            lum[r * cell_h : (r + 1) * cell_h, c * cell_w : (c + 1) * cell_w] = patches[sym]
            regions.append(LabeledRegion(c * cell_w, r * cell_h, cell_w, cell_h, sym))
    return ScreenRaster(screen_w, screen_h, lum, regions)


def render_security_message(
    code: str,
    screen_w: int,
    screen_h: int,
    digit_w: int | None = None,
    digit_h: int | None = None,
    x_align: int = 6,
    contrast: float = 1.0,
) -> ScreenRaster:
    """Mock push-message screen: plain background, one code row.

    The code row sits at 1/3 screen height.  The default font size places
    each digit in a screen cell of (screen_w // 40) x (31/18 of that) px,
    which under the default receiver geometry reconstructs the code region
    as a 126 x 31 emage crop.  ``x_align`` rounds the row start down to a
    multiple (the receiver's horizontal resample denominator) so that the
    region maps onto whole emage columns.
    """
    if len(code) != 6:
        raise ValidationError(f"security code must have exactly 6 digits, got {len(code)}")
    for ch in code:
        if ch not in DIGIT_GLYPHS:
            raise ValidationError(f"security code digit {ch!r} is not in 0-9")

    if digit_w is None:
        digit_w = screen_w // 40
    if digit_h is None:
        digit_h = (digit_w * 31) // 18
    row_w = 6 * digit_w
    if row_w > screen_w or digit_h > screen_h:
        raise ValidationError("code row does not fit on the screen")
    x0 = (screen_w - row_w) // 2
    x0 -= x0 % max(1, x_align)
    y0 = screen_h // 3
    if y0 + digit_h > screen_h:
        y0 = screen_h - digit_h

    lum = np.ones((screen_h, screen_w), dtype=np.float32)
    lum[y0 : y0 + digit_h, x0 : x0 + row_w] = render_symbols(code, row_w, digit_h, contrast)
    region = LabeledRegion(x0, y0, row_w, digit_h, code)
    return ScreenRaster(screen_w, screen_h, lum, [region])


def chart_letter_width(screen_w: int, scale) -> int:
    """Letter width in pixels at a chart scale.

    At scale 20 the letter is as large as fits with 10% of the letter width
    left as margin on each side (w + 2*(0.1*w) = screen width); smaller
    scales shrink linearly, rounding toward zero.
    """
    w20 = (screen_w * 5) // 6  # screen_w / 1.2, exact integer arithmetic
    frac = Fraction(str(scale)) / 20
    return int(w20 * frac)


def render_eyechart(
    letter: str,
    scale,
    screen_w: int,
    screen_h: int,
    contrast: float = 1.0,
) -> ScreenRaster:
    """One centered acuity-chart letter at the given chart scale."""
    if letter not in LETTER_GLYPHS:
        raise ValidationError(f"unknown chart letter {letter!r}; expected one of {CHART_LETTERS}")
    if not any(float(scale) == float(s) for s in CHART_SCALES):
        raise ValidationError(f"unknown chart scale {scale!r}; expected one of {CHART_SCALES}")

    w = chart_letter_width(screen_w, scale)
    if w < 1:
        raise ValidationError(f"scale {scale} yields an empty letter on a {screen_w}px-wide screen")
    if w > screen_w or w > screen_h:
        raise ValidationError(f"letter {letter} at scale {scale} does not fit {screen_w}x{screen_h}")
    ink = scale_bitmap(LETTER_GLYPHS[letter], w, w)
    x0 = (screen_w - w) // 2
    y0 = (screen_h - w) // 2
    lum = np.ones((screen_h, screen_w), dtype=np.float32)
    sub = lum[y0 : y0 + w, x0 : x0 + w]
    sub[ink] = np.float32(1.0 - contrast)
    return ScreenRaster(screen_w, screen_h, lum, [LabeledRegion(x0, y0, w, w, letter)])


def blank_screen(screen_w: int, screen_h: int, luminance: float = 1.0) -> ScreenRaster:
    lum = np.full((screen_h, screen_w), np.float32(luminance))
    return ScreenRaster(screen_w, screen_h, lum, [])


def paste(base: ScreenRaster, overlay: ScreenRaster, x: int, y: int) -> ScreenRaster:
    """Place ``overlay`` onto ``base`` at (x, y); annotations shift along."""
    if x < 0 or y < 0 or x + overlay.width_px > base.width_px or y + overlay.height_px > base.height_px:
        raise ValidationError("overlay escapes the base raster")
    lum = base.luminance.copy()
    lum[y : y + overlay.height_px, x : x + overlay.width_px] = overlay.luminance
    regions = list(base.annotations) + [
        LabeledRegion(r.x + x, r.y + y, r.w, r.h, r.label) for r in overlay.annotations
    ]
    return ScreenRaster(base.width_px, base.height_px, lum, regions)
