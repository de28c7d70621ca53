"""Display-cable emission simulation.

A raster plus display timing defines a pixel-clock video waveform (visible
luminance plus zero-luminance blanking).  The cable radiates at signal
transitions, modeled as the circular first difference of the pixel
stream, amplitude modulated onto a carrier at an harmonic of the pixel
clock.  ``capture`` then produces what a software-defined radio tuned to
that carrier would record: the modulation spectrum band-limited to the
capture bandwidth, sampled at the ADC rate, attenuated with near-field
distance as amplitude ~ r^-2.5 (power density ~ r^-5), plus complex
white noise calibrated to the target SNR at r = 1.

``capture`` is two public steps.  ``clean_baseband`` does everything that
does not depend on the noise: the synthesis and the noise calibration.
``add_noise`` draws the noise from the recording's own seed and adds it.
A caller that records one screen under many noise seeds builds the clean
baseband once and calls ``add_noise`` on a copy per seed
(``dataset.simulate_seeds``).

The video frame repeats exactly, so a ``LeakSignal`` holds one frame and
``capture`` samples it in the frequency domain: the frame's harmonics sit
at multiples of the refresh rate f_r and the capture band selects them.
Only the harmonics inside the band are computed, by an output-pruned DFT
of the frame (``_band_dft``): a 12.5 MHz band at 60 Hz keeps about 104k of
an iphone6s frame's 586k.  With fs/f_r = P/Q in lowest terms, P ADC
samples span exactly Q frames, so one P-point inverse FFT with harmonic q
at bin q*Q mod P gives the exact band-limited samples, tiled to the
capture length.  fs/f_r is such a fraction for every built-in rate
(1250000/3 at 25 MS/s and 60 Hz); any other rate is snapped to the nearest
fraction with P <= ~2^22 (59.94 Hz at 25 MS/s becomes 59.94000005994 Hz),
and the recording's timing carries the rate actually synthesised.

The receiver is tuned to the carrier, so the band is symmetric about it
and harmonic -q is the conjugate of q: the baseband is real.  One real
inverse FFT of the half spectrum synthesises it, the clean baseband is
float64, its noise calibration runs a real Welch and ``add_noise`` adds
it to I.  An inverse pruned to the nonzero input bins gains nothing: with
P = 1,250,000 = 2^4 * 5^8 and Q = 3 the kept bins align with no FFT stage.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.fft import irfft, rfft

from ._spectrum import calibrate_noise_sigma
from .errors import ValidationError
from .raster import ScreenRaster
from .util import dump_json, read_record

_MAX_PERIOD = 1 << 22  # bound on the synthesised period in ADC samples when fs/f_r is snapped
_NOISE_BLOCK = 1 << 14  # noise samples drawn and added at a time; the block stays in cache
_DFT_BLOCK = 1 << 14  # spectrum values per block of the band-only DFT; the block stays in cache
# Largest prime factors of the frame length for which the band-only DFT
# beats a full rfft (whose radix-p pass costs about p operations a sample),
# provided the band needs at most p/4 output rows
_PRUNE_P = (100, 1024)


@dataclass(frozen=True)
class DisplayTiming:
    """Total scan format: pixels per line and lines per frame include blanking."""

    x_t: int
    y_t: int
    f_r: float
    visible_w: int
    visible_h: int

    def __post_init__(self):
        if self.x_t < self.visible_w or self.y_t < self.visible_h:
            raise ValidationError(
                f"total {self.x_t}x{self.y_t} smaller than visible {self.visible_w}x{self.visible_h}"
            )
        if self.visible_w <= 0 or self.visible_h <= 0:
            raise ValidationError("visible dimensions must be positive")
        if not (self.f_r > 0 and math.isfinite(self.f_r)):
            raise ValidationError(f"refresh rate {self.f_r} must be positive and finite")
        if not math.isfinite(self.pixel_clock_hz):
            raise ValidationError("pixel clock overflows")

    @property
    def pixel_clock_hz(self) -> float:
        return self.x_t * self.y_t * self.f_r

    @classmethod
    def for_visible(cls, visible_w: int, visible_h: int, f_r: float = 60.0) -> "DisplayTiming":
        """Default blanking overhead: 10% per line, 6% extra lines."""
        return cls(
            x_t=math.ceil(1.1 * visible_w),
            y_t=math.ceil(1.06 * visible_h),
            f_r=f_r,
            visible_w=visible_w,
            visible_h=visible_h,
        )


@dataclass(frozen=True)
class LeakageModel:
    """Which pixel-clock harmonic carries the leak; the leak itself is the
    circular first difference of the pixel stream."""

    harmonic: int = 5

    def __post_init__(self):
        if self.harmonic < 1:
            raise ValidationError("harmonic must be a positive integer")

    def carrier_hz(self, timing: DisplayTiming) -> float:
        return self.harmonic * timing.pixel_clock_hz


@dataclass
class ChannelModel:
    """Probe distance, target in-band SNR at r = 1 and the noise seed; at
    distance r the leak, and so the SNR, is 50 log10(r) dB lower."""

    distance_r: float = 1.0
    target_snr_db: float | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.distance_r < math.inf:
            raise ValidationError(f"distance_r {self.distance_r} must be finite and positive")
        if self.target_snr_db is not None and not math.isfinite(self.target_snr_db):
            raise ValidationError(f"target_snr_db {self.target_snr_db} must be finite or None")

    @property
    def amplitude_scale(self) -> float:
        # received power density ~ r^-5  =>  amplitude ~ r^-2.5
        return float(self.distance_r ** -2.5)


@dataclass
class LeakSignal:
    """One period of the differenced pixel stream, radiated for ``frames`` frames."""

    samples: np.ndarray  # float64, x_t * y_t at the pixel clock
    timing: DisplayTiming
    carrier_hz: float
    frames: int


@dataclass
class IqRecording:
    """Complex baseband capture with its acquisition metadata."""

    sample_rate_hz: float
    center_freq_hz: float  # the carrier the capture is tuned to
    samples: np.ndarray  # complex64
    timing: DisplayTiming
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.sample_rate_hz < math.inf:
            raise ValidationError(f"sample rate {self.sample_rate_hz} must be finite and positive")

    def sidecar(self) -> dict:
        return {
            "sample_rate_hz": self.sample_rate_hz,
            "center_freq_hz": self.center_freq_hz,
            "timing": asdict(self.timing),
            "seed": self.seed,
        }

    def save(self, path) -> None:
        """Raw little-endian complex64 (interleaved float32 I/Q) plus JSON sidecar."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.asarray(self.samples, "<c8").tofile(path)
        dump_json(str(path) + ".json", self.sidecar())

    @classmethod
    def load(cls, path) -> "IqRecording":
        # the "frames_contained" key of older sidecars is ignored
        with read_record(str(path) + ".json") as meta:
            if Path(path).stat().st_size % 8:
                raise ValidationError(f"{path}: odd float count, not interleaved I/Q")
            return cls(
                sample_rate_hz=float(meta["sample_rate_hz"]),
                center_freq_hz=float(meta["center_freq_hz"]),
                samples=np.fromfile(path, "<c8"),
                timing=DisplayTiming(**meta["timing"]),
                seed=int(meta.get("seed", 0)),
            )


def video_waveform(raster: ScreenRaster, timing: DisplayTiming) -> np.ndarray:
    """One frame of pixel-clock samples, y_t lines of x_t: luminance in the
    visible region, 0 in blanking."""
    if (raster.width_px, raster.height_px) != (timing.visible_w, timing.visible_h):
        raise ValidationError(
            f"raster {raster.width_px}x{raster.height_px} does not match visible "
            f"{timing.visible_w}x{timing.visible_h}"
        )
    frame = np.zeros((timing.y_t, timing.x_t), dtype=np.float64)
    frame[: timing.visible_h, : timing.visible_w] = raster.luminance
    return frame.reshape(-1)


def _periodic_highpass(frame: np.ndarray) -> np.ndarray:
    """y[n] = x[n] - x[n-1], the circular first difference.

    The frame repeats, so x[-1] is x[N-1].  The difference is written into
    one new array.
    """
    diff = np.empty_like(frame)
    np.subtract(frame[1:], frame[:-1], out=diff[1:])
    diff[0] = frame[0] - frame[-1]
    return diff


def emanate(
    raster: ScreenRaster,
    timing: DisplayTiming,
    leak: LeakageModel,
    frames: int = 1,
) -> LeakSignal:
    """Edge-emphasised emission of the video waveform at the pixel clock."""
    if frames < 1:
        raise ValidationError("frames must be >= 1")
    wave = video_waveform(raster, timing)
    return LeakSignal(
        samples=_periodic_highpass(wave),
        timing=timing,
        carrier_hz=leak.carrier_hz(timing),
        frames=frames,
    )


def _period(sample_rate_hz: float, f_r: float) -> Fraction:
    """fs/f_r as P/Q, snapped so that P stays near or below _MAX_PERIOD."""
    return (Fraction(sample_rate_hz) / Fraction(f_r)).limit_denominator(
        max(1, _MAX_PERIOD // math.ceil(sample_rate_hz / f_r))
    )


def _largest_prime_factor(n: int) -> int:
    largest, f = 1, 2
    while f * f <= n:
        while n % f == 0:
            largest, n = f, n // f
        f += 1
    return max(largest, n)


def _band_dft(frame: np.ndarray, k_max: int) -> np.ndarray:
    """rfft(frame)[:k_max + 1] for 0 <= k_max <= len(frame) // 2, computing
    only those bins (an output-pruned DFT).

    With N = m*p, p the largest prime factor of N, sample r*p + c sits in
    phase c of row r, and bin d + m*a is
    sum_c W_N^(c*d) * Y[d, c] * W_p^(c*a), where Y is the m-point DFT of
    each phase (W_n = exp(-2j*pi/n)).  One real FFT down the rows gives Y,
    Hermitian symmetry its other half, and a (rows x p) @ (p x A) product
    the kept bins, for only the A = k_max // m + 1 values of a the band
    needs.  The residues d go through in blocks of b that stay in cache;
    the twiddle of d = i*b + j is the product of two small tables,
    W_N^(c*i*b) and W_N^(c*j).
    """
    n = len(frame)
    p = _largest_prime_factor(n)
    m = n // p
    n_rows = min(m, k_max + 1)  # the residues d that some kept bin needs
    half = rfft(frame.reshape(m, p), axis=0)  # Y[d] for d <= m // 2
    b = max(1, _DFT_BLOCK // p)
    c = np.arange(p, dtype=np.int64)
    twiddle_block = np.exp(-2j * np.pi / n * (np.outer(np.arange(0, n_rows, b), c) % n))
    twiddle_row = np.exp(-2j * np.pi / n * np.outer(np.arange(min(b, n_rows)), c))
    a = np.arange(k_max // m + 1, dtype=np.int64)
    dft_p = np.exp(-2j * np.pi / p * (np.outer(c, a) % p))
    out = np.empty((n_rows, len(a)), dtype=np.complex128)
    for i, d0 in enumerate(range(0, n_rows, b)):
        d = np.arange(d0, min(d0 + b, n_rows))
        mirror = d > m // 2
        rows = half[np.where(mirror, m - d, d)]
        np.conjugate(rows, out=rows, where=mirror[:, None])
        rows *= twiddle_block[i]
        rows *= twiddle_row[: len(d)]
        out[d0 : d0 + len(d)] = rows @ dft_p
    return out.T.reshape(-1)[: k_max + 1]


def _frame_spectrum(frame: np.ndarray, k_max: int) -> np.ndarray:
    """rfft(frame)[:k_max + 1]: by ``_band_dft`` when the frame length has
    a large prime factor (every built-in phone), else by rfft."""
    prime = _largest_prime_factor(len(frame))
    if _PRUNE_P[0] <= prime <= _PRUNE_P[1] and 4 * (k_max // (len(frame) // prime) + 1) <= prime:
        return _band_dft(frame, k_max)
    return rfft(frame)[: k_max + 1]


def _component_baseband(
    frame: np.ndarray,
    f_r: float,
    sample_rate_hz: float,
    half_band_hz: float,
    n_out: int,
) -> np.ndarray:
    """Band-limited real baseband of one periodic frame at the ADC rate,
    tuned to its carrier.

    The frame's spectrum lives on multiples of the refresh rate.  With
    fs/f_r snapped to P/Q (``_period``; exact for any small-denominator
    ratio), ADC sample k sees harmonic q at phase 2*pi*q*Q*k/P, so the kept
    harmonics, those inside the capture band, go to bins q*Q mod P of one
    P-point inverse FFT.  Its output is exactly Q frames of band-limited
    samples; they are tiled to n_out in an array of exactly n_out samples,
    with the spectrum released first.  The band is symmetric, so harmonic
    -q is kept with q, as its conjugate: the bins are Hermitian and one
    P-point irfft of the half spectrum gives the float64 baseband.  No kept
    harmonic passes fs/2, so q sits at bin q*Q <= P/2 and -q at its mirror;
    only when the band spans the full sample rate do the two meet, on bin
    P/2, as 2*Re.  Only harmonics up to the band edge are transformed
    (``_frame_spectrum``); a phone band keeps about a sixth of the frame's
    bins.
    """
    period = _period(sample_rate_hz, f_r)
    p, q_frames = period.numerator, period.denominator
    f_r = float(Fraction(sample_rate_hz) / period)  # the rate synthesised
    # no harmonic past k_max reaches the band; the shared Nyquist bin is dropped
    k_max = min(math.ceil(half_band_hz / f_r) + 1, (len(frame) - 1) // 2)
    spec = _frame_spectrum(frame, k_max)
    q = np.arange(k_max + 1)
    pos = q[q * f_r <= half_band_hz]
    j = pos * q_frames
    half = np.zeros(p // 2 + 1, dtype=np.complex128)
    half[j] = spec[pos] / len(frame)
    if 2 * j[-1] == p:
        half[-1] = 2.0 * half[-1].real
    out = irfft(half, p, norm="forward")
    if n_out == p:
        return out
    del spec, half
    tiled = np.empty(n_out)  # np.resize(out, n_out), in an array of n_out samples
    for start in range(0, n_out, p):
        tiled[start : start + p] = out[: n_out - start]
    return tiled


def clean_baseband(
    leak: LeakSignal,
    channel: ChannelModel,
    sample_rate_hz: float = 25e6,
    bandwidth_hz: float = 12.5e6,
) -> tuple[IqRecording, float | None]:
    """The deterministic part of ``capture``.

    Returns the noise-free recording tuned to the leak's carrier (the
    distance-scaled leak as the float64 real baseband, its seed
    channel.rng_seed) and the noise sigma calibrated against the leak at
    r = 1 for channel.target_snr_db (None without a target), so distance
    lowers the SNR.  The recording's timing carries the refresh rate
    actually synthesised, fs*Q/P (see ``_component_baseband``): the leak's
    own rate whenever fs/f_r is exact.
    """
    if not (0 < sample_rate_hz < math.inf and 0 < bandwidth_hz < math.inf):
        raise ValidationError(
            f"sample rate {sample_rate_hz} and bandwidth {bandwidth_hz} must be finite and positive"
        )
    half_band = min(bandwidth_hz, sample_rate_hz) / 2.0
    period = _period(sample_rate_hz, leak.timing.f_r)
    samples = _component_baseband(
        leak.samples, leak.timing.f_r, sample_rate_hz, half_band,
        round(leak.frames * period),
    )
    sigma = (None if channel.target_snr_db is None
             else calibrate_noise_sigma(samples, sample_rate_hz, channel.target_snr_db))
    samples *= channel.amplitude_scale
    clean = IqRecording(
        sample_rate_hz=sample_rate_hz,
        center_freq_hz=leak.carrier_hz,
        samples=samples,
        timing=replace(leak.timing, f_r=float(Fraction(sample_rate_hz) / period)),
        seed=channel.rng_seed,
    )
    return clean, sigma


def add_noise(clean: IqRecording, sigma: float | None) -> IqRecording:
    """``clean``, a real baseband from ``clean_baseband``, plus complex white
    noise of total std sigma drawn from np.random.default_rng(clean.seed),
    as complex64; sigma None adds nothing.  A complex recording (a loaded
    capture, say) is a ValidationError.

    Sample k gets the normals 2k and 2k+1 of that generator as its I and Q
    noise.  They are drawn _NOISE_BLOCK samples at a time into one reused
    buffer, which yields the same stream as one draw of the whole length,
    and each block is scaled, added to the clean samples on I and rounded
    to complex64 in place.
    """
    if np.iscomplexobj(clean.samples):
        raise ValidationError("add_noise takes the real baseband of clean_baseband, not complex samples")
    if sigma is None:
        return replace(clean, samples=clean.samples.astype(np.complex64))
    real = np.asarray(clean.samples, dtype=np.float64)
    out = np.empty(len(real), dtype=np.complex64)
    out_iq = out.view(np.float32).reshape(-1, 2)
    rng = np.random.default_rng(clean.seed)
    buf = np.empty((min(_NOISE_BLOCK, len(real)), 2))
    scale = sigma / np.sqrt(2.0)
    for start in range(0, len(real), _NOISE_BLOCK):
        stop = min(start + _NOISE_BLOCK, len(real))
        gauss = buf[: stop - start]
        rng.standard_normal(out=gauss)
        gauss *= scale
        gauss[:, 0] += real[start:stop]
        out_iq[start:stop] = gauss
    return replace(clean, samples=out)


def capture(
    leak: LeakSignal,
    channel: ChannelModel,
    sample_rate_hz: float = 25e6,
    bandwidth_hz: float = 12.5e6,
) -> IqRecording:
    """Simulated SDR acquisition of a leak signal: ``clean_baseband`` then
    ``add_noise``, deterministic given channel.rng_seed (the noise seed)."""
    return add_noise(*clean_baseband(leak, channel, sample_rate_hz, bandwidth_hz))
