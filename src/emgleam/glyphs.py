"""Embedded monochrome bitmap glyphs.

Two alphabets are bundled so rendering needs no font engine and stays
bit-exact:

* digits 0-9 on the classic 5x7 dot-matrix grid, and
* the ten acuity-chart letters C D E F L N O P T Z on a 10x10 grid that
  approximates the 5x5-unit stroke construction used by optotype fonts
  (stroke width = 1/5 of the letter height, square aspect).

Glyphs scale to arbitrary boxes by nearest-neighbour index mapping with
floor arithmetic, so a given (glyph, box) pair always produces the same
pixels.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_DIGIT_ROWS = {
    "0": ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    "1": ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    "2": ("01110", "10001", "00001", "00110", "01000", "10000", "11111"),
    "3": ("11110", "00001", "00001", "01110", "00001", "00001", "11110"),
    "4": ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    "5": ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    "6": ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    "7": ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    "8": ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    "9": ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
}

_LETTER_ROWS = {
    "C": (
        "..XXXXXX..",
        ".XXXXXXXX.",
        "XX......XX",
        "XX......XX",
        "XX........",
        "XX........",
        "XX......XX",
        "XX......XX",
        ".XXXXXXXX.",
        "..XXXXXX..",
    ),
    "D": (
        "XXXXXXXX..",
        "XXXXXXXXX.",
        "XX......XX",
        "XX......XX",
        "XX......XX",
        "XX......XX",
        "XX......XX",
        "XX......XX",
        "XXXXXXXXX.",
        "XXXXXXXX..",
    ),
    "E": (
        "XXXXXXXXXX",
        "XXXXXXXXXX",
        "XX........",
        "XX........",
        "XXXXXXXXXX",
        "XXXXXXXXXX",
        "XX........",
        "XX........",
        "XXXXXXXXXX",
        "XXXXXXXXXX",
    ),
    "F": (
        "XXXXXXXXXX",
        "XXXXXXXXXX",
        "XX........",
        "XX........",
        "XXXXXXXX..",
        "XXXXXXXX..",
        "XX........",
        "XX........",
        "XX........",
        "XX........",
    ),
    "L": (
        "XX........",
        "XX........",
        "XX........",
        "XX........",
        "XX........",
        "XX........",
        "XX........",
        "XX........",
        "XXXXXXXXXX",
        "XXXXXXXXXX",
    ),
    "N": (
        "XX......XX",
        "XXX.....XX",
        "XXXX....XX",
        "XX.XX...XX",
        "XX..XX..XX",
        "XX...XX.XX",
        "XX....XXXX",
        "XX.....XXX",
        "XX......XX",
        "XX......XX",
    ),
    "O": (
        "..XXXXXX..",
        ".XXXXXXXX.",
        "XX......XX",
        "XX......XX",
        "XX......XX",
        "XX......XX",
        "XX......XX",
        "XX......XX",
        ".XXXXXXXX.",
        "..XXXXXX..",
    ),
    "P": (
        "XXXXXXXXX.",
        "XXXXXXXXXX",
        "XX......XX",
        "XX......XX",
        "XXXXXXXXXX",
        "XXXXXXXXX.",
        "XX........",
        "XX........",
        "XX........",
        "XX........",
    ),
    "T": (
        "XXXXXXXXXX",
        "XXXXXXXXXX",
        "....XX....",
        "....XX....",
        "....XX....",
        "....XX....",
        "....XX....",
        "....XX....",
        "....XX....",
        "....XX....",
    ),
    "Z": (
        "XXXXXXXXXX",
        "XXXXXXXXXX",
        "......XX..",
        ".....XX...",
        "....XX....",
        "...XX.....",
        "..XX......",
        ".XX.......",
        "XXXXXXXXXX",
        "XXXXXXXXXX",
    ),
}

CHART_LETTERS = "CDEFLNOPTZ"


def _rows_to_bitmap(rows) -> np.ndarray:
    return np.array([[c in "1X" for c in row] for row in rows], dtype=bool)


DIGIT_GLYPHS = {d: _rows_to_bitmap(r) for d, r in _DIGIT_ROWS.items()}
LETTER_GLYPHS = {c: _rows_to_bitmap(r) for c, r in _LETTER_ROWS.items()}


def scale_bitmap(bitmap: np.ndarray, width: int, height: int) -> np.ndarray:
    """Nearest-neighbour scale to an exact (height, width) box.

    Index mapping uses floor arithmetic (out -> in via out_i * in / out), so
    the result is deterministic and re-scaling the same glyph into the same
    box is always bit-identical.
    """
    if width <= 0 or height <= 0:
        raise ValidationError(f"target box {width}x{height} must be positive")
    src_h, src_w = bitmap.shape
    iy = (np.arange(height) * src_h) // height
    ix = (np.arange(width) * src_w) // width
    return bitmap[np.ix_(iy, ix)]
