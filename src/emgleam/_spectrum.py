"""Shared Welch-periodogram helpers for SNR measurement and noise calibration.

The receiver's SNR meter and the channel's noise calibration share one
estimator, with no override of its band or resolution, so a measured SNR
reads on the same scale as the requested one.  SNR here is always: peak
periodogram bin over the median bin of the whole captured band, at
RESOLUTION_HZ, in dB.

The estimator is Welch's averaged periodogram (periodic Hann window, half
overlap, no detrending, two-sided, density scaling), computed directly with
one batched FFT per block of segments.  Blocks are sized to stay in cache,
not to bound memory: a block's periodograms land in one reused buffer
whose first row carries the running sum, so the segments are added one
after another in index order whatever the blocking.  Noise calibration
needs no search: flat noise of mean bin power n raises every bin by n on
average and the median bin by its median, beta*n, so the predicted SNR is
linear in n and solved in closed form.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.fft import fft, fftfreq, fftshift, rfft
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError

_WELCH_BLOCK = 128  # segments per FFT call; a block's spectra stay in cache
# Periodogram resolution of noise calibration and of the SNR meter
RESOLUTION_HZ = 25e3
# ln Gamma(k + 1) - (k ln k - k + ln(2 pi k) / 2) = sum_i c_i / k^(2i+1),
# Stirling's series; its next term is below 1e-21 for k > 100
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680)


def welch_psd(x: np.ndarray, fs: float, resolution_hz: float):
    """Two-sided averaged periodogram at the given spectral resolution.

    Segments of round(fs / resolution_hz) samples (at least 8, at most
    len(x)) start every half segment; a trailing partial segment is dropped.
    Returns (freqs, psd, n_segments) with frequencies sorted ascending
    (fftshifted), covering [-fs/2, fs/2).  A real input's spectrum is
    symmetric: its segments are transformed by rfft and bins above
    nperseg // 2 mirror those below.
    """
    x = np.asarray(x)
    nperseg = min(max(8, int(round(fs / resolution_hz))), len(x))
    segments = sliding_window_view(x, nperseg)[:: nperseg - nperseg // 2]
    window = np.hanning(nperseg + 1)[:-1]
    real = not np.iscomplexobj(x)
    transform, width = (rfft, nperseg // 2 + 1) if real else (fft, nperseg)
    # row 0 is the running sum, rows 1.. the block's periodograms
    buf = np.zeros((min(_WELCH_BLOCK, len(segments)) + 1, width))
    imag2 = np.empty_like(buf[1:])
    windowed = np.empty((len(imag2), nperseg), dtype=np.result_type(x, window))
    spec = np.empty((len(imag2), width), dtype=np.complex128)
    for start in range(0, len(segments), _WELCH_BLOCK):
        block = segments[start : start + _WELCH_BLOCK]
        k = len(block)
        transform(np.multiply(block, window, out=windowed[:k]), axis=1, out=spec[:k])
        np.square(spec[:k].real, out=buf[1 : k + 1])
        buf[1 : k + 1] += np.square(spec[:k].imag, out=imag2[:k])
        buf[0] = np.add.reduce(buf[: k + 1], axis=0)
    total = buf[0]
    if real:
        total = np.concatenate([total, total[nperseg - width : 0 : -1]])
    psd = total / (len(segments) * fs * np.sum(window**2))
    return fftshift(fftfreq(nperseg, 1.0 / fs)), fftshift(psd), len(segments)


def median_bias(n_segments: int) -> float:
    """Median / mean of a K-segment averaged periodogram noise bin.

    Each averaged bin of complex white noise is distributed like
    chi-square with 2K degrees of freedom scaled to unit mean, i.e.
    Gamma(K, 1/K); the median of that distribution sits slightly below 1.

    The median x of Gamma(K, 1) solves P(K, x) = 1/2, found by Newton's
    method from x = K - 1/3 + 8/(405 K).  P is the series
    x^K e^-x / K! * (1 + sum_n prod_{j <= n} x / (K + j)), whose terms fall
    off like exp(-n^2 / 2K).  Its prefactor is written with eps = x/K - 1
    as exp(K (log1p(eps) - eps)) * K^K e^-K / K!, so the K log K terms
    cancel before rounding; above K = 100, K^K e^-K / K! comes from
    Stirling's series.
    """
    k = max(1, int(n_segments))
    if k <= 100:
        scale = k**k / math.factorial(k) * math.exp(-k)
    else:
        stirling = sum(c / k ** (2 * i + 1) for i, c in enumerate(_STIRLING))
        scale = math.exp(-stirling) / math.sqrt(2.0 * math.pi * k)
    denominators = k + np.arange(1.0, int(10 * math.sqrt(k)) + 40)
    x = k - 1.0 / 3.0 + 8.0 / (405.0 * k)
    for _ in range(8):
        eps = (x - k) / k
        lead = math.exp(k * (math.log1p(eps) - eps)) * scale  # x^K e^-x / K!
        p = lead * (1.0 + float(np.sum(np.cumprod(x / denominators))))
        step = (p - 0.5) * x / (lead * k)  # dP/dx = x^(K-1) e^-x / (K-1)!
        x -= step
        if abs(step) <= 2e-16 * x:
            break
    return x / k


def peak_over_median_db(psd: np.ndarray) -> float:
    peak = float(np.max(psd))
    if not math.isfinite(peak):  # a NaN or inf sample spreads over its segments' bins
        raise ValidationError("non-finite spectrum: the recording holds non-finite samples")
    floor = float(np.median(psd))
    if floor <= 0.0:
        return 0.0 if peak <= 0.0 else float("inf")
    return 10.0 * np.log10(peak / floor)


def calibrate_noise_sigma(clean: np.ndarray, fs: float, target_snr_db: float) -> float:
    """Total complex-noise standard deviation achieving the target SNR.

    Treats the noise as a flat floor of mean bin power n = sigma^2 / fs at
    its expected median beta*n (``median_bias``), so the predicted SNR is
    (peak + n) / (median + beta*n); setting it to r = 10^(target/10) gives
    n = (peak - r*median) / (r*beta - 1).  No noise power reaches a target
    at or below -10*log10(beta) and none is needed above the clean SNR, so
    sigma saturates at 1e9 and 1e-9 times sqrt(peak * fs).  A zero signal
    has no defined SNR; sigma falls back to 1.
    """
    _, psd, k = welch_psd(clean, fs, RESOLUTION_HZ)
    p_pk = float(np.max(psd)) if psd.size else 0.0
    if p_pk <= 0.0:
        return 1.0
    beta = median_bias(k)
    # beyond +-300 dB sigma saturates either way; the clip keeps r finite
    r = 10.0 ** (min(max(target_snr_db, -300.0), 300.0) / 10.0)
    n_mean = (p_pk - r * float(np.median(psd))) / (r * beta - 1.0) if r * beta > 1.0 else np.inf
    ref = np.sqrt(p_pk * fs)
    return float(np.clip(np.sqrt(max(n_mean, 0.0) * fs), ref * 1e-9, ref * 1e9))
