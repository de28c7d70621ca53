"""Shared test utilities: a small fast display panel and metric helpers."""

from __future__ import annotations

import numpy as np

from emgleam.dataset import HardwareDim
from emgleam.emanator import DisplayTiming, LeakageModel, _periodic_highpass, video_waveform
from emgleam.raster import render_digit_grid

# Small panel whose pixel clock (~865 kHz) fits entirely inside the default
# capture band, so captures are effectively lossless and fast.
LAB_W, LAB_H = 96, 128
LAB_TIMING = DisplayTiming.for_visible(LAB_W, LAB_H)  # x_t=106, y_t=136
LAB_LEAK = LeakageModel()
LAB_FS = 2.5e6
LAB_BW = 1.25e6


def ncc(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of two pixel grids."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a @ a) * (b @ b))
    return float(a @ b / denom) if denom > 0 else 0.0


def region_pixels(raster, region) -> np.ndarray:
    """The raster's luminance inside one labeled region."""
    return raster.luminance[region.y : region.y + region.h, region.x : region.x + region.w]


def phone_hardware(profile, snr_db, frames=1) -> HardwareDim:
    """A phone profile captured at its own receiver rates, as sessions do."""
    return HardwareDim(profile, profile.sample_rate_hz, profile.bandwidth_hz, snr_db, frames=frames)


def random_grid_raster(seed: int, rows: int = 3, cols: int = 4):
    rng = np.random.default_rng(seed)
    digits = [str(d) for d in rng.integers(0, 10, rows * cols)]
    return render_digit_grid(rows, cols, digits, LAB_W, LAB_H)


def edge_reference(raster, timing: DisplayTiming, grid_w: int, grid_h: int) -> np.ndarray:
    """Ideal reconstruction target: |first-differenced waveform| on the emage grid.

    The independent reference of the round-trip fidelity checks: it never
    touches the capture/reconstruction path.
    """
    wave = video_waveform(raster, timing)
    mag = np.abs(_periodic_highpass(wave))
    n_p = len(mag)
    pos = np.arange(grid_w * grid_h, dtype=np.float64) * (n_p / (grid_w * grid_h))
    base = np.floor(pos).astype(np.int64)
    frac = pos - base
    nxt = (base + 1) % n_p
    ref = mag[base] * (1.0 - frac) + mag[nxt] * frac
    ref = ref.reshape(grid_h, grid_w)
    lo, hi = float(ref.min()), float(ref.max())
    if hi > lo:
        ref = (ref - lo) / (hi - lo)
    else:
        ref = np.full_like(ref, 0.5)
    return ref.astype(np.float32)
