"""Emage reconstruction from IQ recordings.

The receiver mirrors the usual SDR screen-reader loop: AM envelope
detection, refresh-rate estimation by normalized autocorrelation around a
hint, fractional resampling of each frame onto a width x height pixel
grid, frame averaging, and min-max normalization.  Interactive alignment
sliders are replaced by a deterministic rule: the frame start is the row
rotation that puts the vertical-blanking dark band just above row 0.  Each
row is scored by how strongly it carries the line-start and line-end edges
that every visible line shares; the band is the window of as many rows as
the recording's timing has blanking lines (scaled to the grid height)
whose scores sum lowest.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.fft import irfft, rfft

from ._spectrum import RESOLUTION_HZ, peak_over_median_db, welch_psd
from .emanator import IqRecording
from .errors import NoSyncError, ValidationError
from .pgmio import read_pgm, write_pgm
from .util import dump_json, read_record

# Fraction of a normalized autocorrelation peak required to call sync.
_SYNC_THRESHOLD = 0.1
# Frame alignment: fraction of a line, at its end, credited to the next
# line (where band-limiting smears the next line-start edge), and the
# robust z-score marking a column as an edge column; noise alone stays
# below about 3.5 over a thousand columns.
_EDGE_BLEED = 0.02
_EDGE_Z = 5.0
# Grid points interpolated at a time, every frame of a chunk before the
# next chunk, so the per-point temporaries stay in cache.
_RECON_CHUNK = 16_384
# Samples demodulated at a time through one reused complex128 buffer.
_DEMOD_BLOCK = 16_384
# Columns per block of the column medians of frame alignment; a block's
# partitioned copy stays small.
_MEDIAN_BLOCK = 64
# Head samples per overlap-save block of the sync cross-correlation; a
# block's transforms stay in cache.
_SYNC_BLOCK = 8_192


@dataclass(frozen=True)
class ReconParams:
    """Reconstruction grid and frame rate.

    height_px should equal the source timing's total line count for an
    unsheared image (each reconstructed row then spans exactly one line).
    """

    width_px: int
    height_px: int
    f_r_hz: float

    def __post_init__(self):
        if self.width_px <= 0 or self.height_px <= 0:
            raise ValidationError("reconstruction grid must be positive")
        if not self.f_r_hz > 0:
            raise ValidationError("frame rate must be positive")


@dataclass
class Emage:
    """Reconstructed grayscale frame; pixels are row-major floats in [0, 1]."""

    width_px: int
    height_px: int
    pixels: np.ndarray
    frames_averaged: int
    source_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float32)
        if px.shape != (self.height_px, self.width_px):
            raise ValidationError(f"pixel grid {px.shape} != ({self.height_px}, {self.width_px})")
        if px.size and not (0.0 <= float(px.min()) and float(px.max()) <= 1.0):  # NaN fails both
            raise ValidationError("emage values must lie in [0, 1]")
        if self.frames_averaged < 1:
            raise ValidationError("frames_averaged must be >= 1")
        self.pixels = px

    def crop(self, x: int, y: int, w: int, h: int) -> "Emage":
        if x < 0 or y < 0 or x + w > self.width_px or y + h > self.height_px:
            raise ValidationError(f"crop ({x},{y},{w},{h}) escapes {self.width_px}x{self.height_px}")
        return Emage(w, h, self.pixels[y : y + h, x : x + w], self.frames_averaged)

    def save(self, path) -> None:
        write_pgm(path, self.pixels)
        dump_json(str(path) + ".json", {"frames_averaged": self.frames_averaged, **self.source_meta})

    @classmethod
    def load(cls, path) -> "Emage":
        px = read_pgm(path)
        h, w = px.shape
        try:
            with read_record(str(path) + ".json") as meta:
                return cls(w, h, px, int(meta.pop("frames_averaged", 1)), meta)
        except FileNotFoundError:  # a bare PGM: one frame, no metadata
            return cls(w, h, px, 1)


def am_demod(recording: IqRecording) -> np.ndarray:
    """Envelope of the complex baseband: sqrt(I^2 + Q^2), taken in complex128.

    _DEMOD_BLOCK samples at a time are converted into one reused buffer,
    so no whole-length complex128 copy is made; the bits are those of
    np.abs on the converted recording.
    """
    samples = recording.samples
    if len(samples) == 0:
        raise ValidationError("empty recording")
    out = np.empty(len(samples))
    buf = np.empty(min(_DEMOD_BLOCK, len(samples)), dtype=np.complex128)
    for start in range(0, len(samples), _DEMOD_BLOCK):
        stop = min(start + _DEMOD_BLOCK, len(samples))
        block = buf[: stop - start]
        block[...] = samples[start:stop]
        np.abs(block, out=out[start:stop])
    return out


def _fast_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n: a length whose real FFT runs only
    radix-2, -3 and -5 passes.  Each 3^b * 5^c below the best length so
    far is raised to n by the least power of two."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def estimate_frame_rate(
    magnitude: np.ndarray,
    sample_rate_hz: float,
    f_r_hint: float,
    search_ppm: float = 1000.0,
) -> float:
    """Refresh rate from the autocorrelation peak near the hinted frame lag.

    Searches integer lags within +/- search_ppm of sample_rate / hint and
    refines the winner by parabolic interpolation of the normalized
    autocorrelation.  The dot products for all those lags are one
    cross-correlation of the envelope's head against its tail, each
    shorter than the envelope by the smallest lag searched, computed by
    overlap-save in blocks of _SYNC_BLOCK head samples; the energies need
    running sums over the search window only.  Raises NoSyncError when no
    lag correlates above the noise floor.
    """
    mag = np.asarray(magnitude, dtype=np.float64)
    lag0 = sample_rate_hz / f_r_hint
    # the length capture(frames=2) writes, rounded as it rounds
    need = round(2 * sample_rate_hz / f_r_hint)
    if len(mag) < need:
        raise ValidationError(f"need >= 2 frames at {f_r_hint} Hz ({need} samples), got {len(mag)}")
    span = max(1, int(np.ceil(lag0 * search_ppm * 1e-6)))
    lo = max(1, int(np.floor(lag0)) - span)
    hi = min(len(mag) - 2, int(np.ceil(lag0)) + span)
    if hi - lo < 2:
        raise ValidationError("search window too narrow for peak refinement")

    mean = float(mag.mean())
    if not math.isfinite(mean):  # a NaN or inf sample reaches the mean
        raise ValidationError("envelope holds non-finite samples")
    if not np.ptp(mag) > 0:  # a flat envelope has no frame periodicity at all
        raise NoSyncError(f"no frame periodicity near {f_r_hint} Hz (flat envelope)")
    # corr(lag) = a.b / sqrt(a.a * b.b) with a = x[:n - lag], b = x[lag:]:
    # every a.b is a shift of the head x[:n - lo] against the tail x[lo:] by
    # s = lag - lo <= w.  Head block [i, i + B) meets tail samples
    # [i, i + B + w), so one correlation of the two at a length of at least
    # B + w, where no shift wraps, gives the block's share of every a.b; the
    # blocks' cross-spectra add up to that of the whole, inverted once
    x = mag - mean
    n = len(x)
    w, m = hi - lo, n - lo
    nfft = _fast_len(min(_SYNC_BLOCK, m) + w)
    spec = np.zeros(nfft // 2 + 1, dtype=np.complex128)
    for i in range(0, m, _SYNC_BLOCK):
        cross = rfft(x[lo + i : lo + i + _SYNC_BLOCK + w], nfft)
        cross *= rfft(x[i : min(i + _SYNC_BLOCK, m)], nfft).conj()
        spec += cross
    dot = irfft(spec, nfft)[: w + 1]
    lags = np.arange(lo, hi + 1)
    # a.a sums x^2 below n - lag and b.b from lag on: a dot product over the
    # samples every lag shares plus a running sum over the window
    head = x[: n - hi] @ x[: n - hi] + np.concatenate([[0.0], np.cumsum(x[n - hi : m] ** 2)])[::-1]
    tail = x[hi:] @ x[hi:] + np.concatenate([np.cumsum(x[lo:hi][::-1] ** 2)[::-1], [0.0]])
    denom = np.sqrt(head * tail)
    corr = np.zeros(len(lags))
    np.divide(dot, denom, out=corr, where=denom > 0)

    best = int(np.argmax(corr))
    if corr[best] < _SYNC_THRESHOLD:
        raise NoSyncError(
            f"no frame periodicity near {f_r_hint} Hz (peak correlation {corr[best]:.3f})"
        )
    # parabolic refinement on the three points around the peak
    lag_best = float(lags[best])
    if 0 < best < len(lags) - 1:
        c_m, c_0, c_p = corr[best - 1], corr[best], corr[best + 1]
        denom = c_m - 2 * c_0 + c_p
        if denom < 0:
            lag_best += 0.5 * (c_m - c_p) / denom
    return sample_rate_hz / lag_best


def _column_medians(avg: np.ndarray) -> np.ndarray:
    """np.partition(avg, h // 2, axis=0)[h // 2], the upper median of each
    column, partitioning _MEDIAN_BLOCK columns at a time instead of a copy
    of the whole array."""
    h, w = avg.shape
    out = np.empty(w, dtype=avg.dtype)
    for c in range(0, w, _MEDIAN_BLOCK):
        out[c : c + _MEDIAN_BLOCK] = np.partition(avg[:, c : c + _MEDIAN_BLOCK], h // 2, axis=0)[h // 2]
    return out


def _row_energy(avg: np.ndarray) -> np.ndarray:
    """Per-row strength of the edges that every visible line shares.

    Every visible line opens and closes with a blanking/content edge at the
    same columns, whatever the screen shows; blanking lines carry only
    noise.  The column profile (median over rows) finds those edge columns:
    those rising more than _EDGE_Z robust sigmas above the profile's median
    weight each row by their excess, so a row's energy pools all of its
    edge samples instead of a few line-start columns.  Band-limiting smears
    each line-start edge back over the previous line's last columns, so the
    last _EDGE_BLEED of each line counts for the next row: the smear then
    adds to its own row instead of lighting up the last blanking row.  A
    profile without such columns (a sheared emage, whose edges drift across
    columns) falls back to the plain row mean.
    """
    w = avg.shape[1]
    profile = _column_medians(avg)
    excess = profile - np.median(profile)
    spread = 1.4826 * float(np.median(np.abs(excess)))
    weights = np.where(excess > _EDGE_Z * spread, excess, 0.0)
    if not weights.any():
        weights = np.ones(w)
    weights /= weights.sum()
    tail = w - max(1, round(_EDGE_BLEED * w))
    return avg[:, :tail] @ weights[:tail] + np.roll(avg[:, tail:] @ weights[tail:], 1)


def _frame_start_row(avg: np.ndarray, blank_rows: int) -> int:
    """Row rotation placing content right after the dark blanking band.

    The vertical blanking lines carry no emission, so the band is the
    circular window of blank_rows rows whose summed _row_energy is lowest;
    the frame starts at the row right after it.  A timing without vertical
    blanking (blank_rows < 1) has no band and no rotation.
    """
    if blank_rows < 1:
        return 0
    h = avg.shape[0]
    e = _row_energy(avg)
    total = np.concatenate([[0.0], np.concatenate([e, e]).cumsum()])
    starts = np.arange(h)
    return int(np.argmin(total[starts + h] - total[starts + h - blank_rows]))


def reconstruct(recording: IqRecording, params: ReconParams) -> Emage:
    """Resample each frame's envelope onto the pixel grid and average.

    Sample position of grid cell g in frame i is i*L + g*spp with
    L = fs / f_r and spp = fs / (W*H*f_r); linear interpolation between
    envelope samples, frames averaged in index order, min-max normalized
    (an all-equal result maps to 0.5).  The grid is interpolated in chunks
    of _RECON_CHUNK cells, all frames of a chunk at once; every cell still
    sums its frames in index order.

    Three full-size arrays are held: the float64 envelope, the float64
    accumulator, which is averaged, aligned on and normalised in place,
    and the float32 pixels, which take the frame-start row rotation as
    they are written.  A NaN or inf sample is a ValidationError.
    """
    sidecar_fr = recording.timing.f_r
    if abs(params.f_r_hz - sidecar_fr) > 0.05 * sidecar_fr:
        raise ValidationError(
            f"params f_r {params.f_r_hz} deviates more than 5% from recorded {sidecar_fr}"
        )
    mag = am_demod(recording)
    fs = recording.sample_rate_hz
    frame_len = fs / params.f_r_hz
    # grid positions stay strictly inside each frame, so a frame missing its
    # last sample to round(frames * fs / f_r) truncation still counts
    n_frames = int((len(mag) + 1) // frame_len)
    if n_frames < 1:
        raise ValidationError(
            f"recording holds {len(mag)} samples, less than one {frame_len:.0f}-sample frame"
        )

    w, h = params.width_px, params.height_px
    spp = fs / (w * h * params.f_r_hz)
    acc = np.zeros(w * h, dtype=np.float64)
    for start in range(0, w * h, _RECON_CHUNK):
        grid_pos = np.arange(start, min(start + _RECON_CHUNK, w * h), dtype=np.float64) * spp
        chunk = acc[start : start + len(grid_pos)]
        for i in range(n_frames):
            pos = grid_pos + i * frame_len
            base = np.minimum(np.floor(pos).astype(np.int64), len(mag) - 2)
            frac = pos - base
            chunk += mag[base] * (1.0 - frac) + mag[base + 1] * frac
    acc /= n_frames
    avg = acc.reshape(h, w)
    lo, hi = float(avg.min()), float(avg.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError("recording holds non-finite samples")

    t = recording.timing
    start_row = _frame_start_row(avg, round((t.y_t - t.visible_h) * h / t.y_t))
    if hi > lo:
        avg -= lo
        avg /= hi - lo
    else:
        avg.fill(0.5)
    pixels = np.empty((h, w), dtype=np.float32)  # row r is avg's row (r + start_row) mod h
    pixels[: h - start_row] = avg[start_row:]
    pixels[h - start_row :] = avg[:start_row]

    return Emage(
        width_px=w,
        height_px=h,
        pixels=pixels,
        frames_averaged=n_frames,
        source_meta={"params": asdict(params), "source": recording.sidecar()},
    )


def measure_snr(recording: IqRecording) -> float:
    """Peak-over-median periodogram SNR in dB, over the whole captured band
    at the noise calibration's resolution (``_spectrum.RESOLUTION_HZ``):
    the estimator that sets a capture's requested SNR."""
    if len(recording.samples) == 0:
        raise ValidationError("empty recording")
    if not np.isfinite(recording.samples).all():  # checked before the Welch multiplies inf by 0
        raise ValidationError("non-finite spectrum: the recording holds non-finite samples")
    return peak_over_median_db(welch_psd(recording.samples, recording.sample_rate_hz, RESOLUTION_HZ)[1])
