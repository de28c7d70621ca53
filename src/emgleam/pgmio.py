"""Binary PGM (P5) reader/writer, 8-bit, bit-exact round trips.

Luminance in [0, 1] is quantized with round(v * 255).  The writer emits a
fixed header layout so identical inputs always produce identical bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ValidationError


def write_pgm(path, image01: np.ndarray) -> None:
    """Write a 2-D array of values in [0, 1] as an 8-bit binary PGM."""
    img = np.asarray(image01)
    if img.ndim != 2 or not img.size:  # read_pgm refuses a zero width or height
        raise ValidationError(f"PGM image must be 2-D and non-empty, got shape {img.shape}")
    if not np.isfinite(img).all():
        raise ValidationError("PGM image holds NaN or inf values")
    data = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = data.shape
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM into a float32 array in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()

    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        if pos >= len(data):
            raise ValidationError(f"{path}: truncated PGM header")
        ch = data[pos : pos + 1]
        if ch == b"#":  # comment to end of line
            eol = data.find(b"\n", pos)
            pos = len(data) if eol < 0 else eol + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            fields.append(data[pos:end])
            pos = end
    pos += 1  # single whitespace after maxval

    magic, w_s, h_s, maxval_s = fields
    if magic != b"P5":
        raise ValidationError(f"{path}: not a binary PGM (magic {magic!r})")
    if not all(f.isdigit() for f in fields[1:]):
        raise ValidationError(f"{path}: PGM header fields {fields[1:]} are not unsigned integers")
    w, h, maxval = int(w_s), int(h_s), int(maxval_s)
    if w < 1 or h < 1:
        raise ValidationError(f"{path}: PGM size {w}x{h} must be positive")
    if maxval != 255:
        raise ValidationError(f"{path}: unsupported maxval {maxval}")
    raster = data[pos : pos + w * h]
    if len(raster) != w * h:
        raise ValidationError(f"{path}: expected {w * h} pixel bytes, got {len(raster)}")
    img = np.frombuffer(raster, dtype=np.uint8).reshape(h, w)
    return img.astype(np.float32) / 255.0
