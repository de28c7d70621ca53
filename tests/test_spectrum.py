import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as sp_signal
from scipy.fft import fft, fftshift

import emgleam
from emgleam._spectrum import _WELCH_BLOCK, calibrate_noise_sigma, median_bias, welch_psd
from emgleam.emanator import ChannelModel, capture, emanate

from helpers import LAB_BW, LAB_FS, LAB_LEAK, LAB_TIMING, random_grid_raster


@pytest.mark.parametrize("n, fs, resolution_hz", [
    (416667, 25e6, 25e3),  # one iphone6s frame
    (83334, 5e6, 25e3),  # one testbed panel frame
    (50, 1e3, 100),
    (5, 1e3, 10),  # segment longer than the input: one segment of len(x)
])
@pytest.mark.parametrize("complex_input", [True, False], ids=["complex", "real"])
def test_welch_matches_scipy(n, fs, resolution_hz, complex_input):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * (1.0 + np.sin(np.arange(n) / 7.0))
    if complex_input:
        x = x + 1j * rng.standard_normal(n)
    freqs, psd, n_segments = welch_psd(x, fs, resolution_hz)

    nperseg = min(max(8, int(round(fs / resolution_hz))), n)
    kw = dict(fs=fs, window="hann", nperseg=nperseg, noverlap=nperseg // 2, detrend=False,
              return_onesided=False, scaling="density")
    ref_f, ref_psd = sp_signal.welch(x, **kw)
    _, segment_times, _ = sp_signal.spectrogram(x, **kw)
    order = np.argsort(ref_f)
    assert np.array_equal(freqs, ref_f[order])
    assert np.max(np.abs(psd - ref_psd[order]) / ref_psd[order]) <= 1e-13
    assert n_segments == len(segment_times)


def test_blocked_welch_equals_one_block():
    # more than three blocks of segments, the last one partial
    n_segments = 3 * _WELCH_BLOCK + 37
    nperseg, fs = 40, 1e3
    rng = np.random.default_rng(4)
    n = (nperseg // 2) * (n_segments - 1) + nperseg
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    _, psd, k = welch_psd(x, fs, fs / nperseg)
    assert k == n_segments

    window = np.hanning(nperseg + 1)[:-1]
    spec = fft(sliding_window_view(x, nperseg)[:: nperseg // 2] * window, axis=1)
    power = np.sum(spec.real**2 + spec.imag**2, axis=0)
    assert np.array_equal(psd, fftshift(power / (n_segments * fs * np.sum(window**2))))


@pytest.mark.parametrize("nperseg", [40, 41])
def test_real_input_equals_its_complex_cast(nperseg):
    # more than one block of segments; the odd length has no Nyquist bin
    n = (nperseg // 2) * (_WELCH_BLOCK + 20) + nperseg
    x = np.random.default_rng(nperseg).standard_normal(n) * (1.0 + np.sin(np.arange(n) / 5.0))
    freqs, psd, k = welch_psd(x, 1e3, 1e3 / nperseg)
    cast_freqs, cast_psd, cast_k = welch_psd(x.astype(np.complex128), 1e3, 1e3 / nperseg)
    assert (k, len(psd)) == (cast_k, nperseg)
    assert np.array_equal(freqs, cast_freqs)
    assert np.max(np.abs(psd - cast_psd) / cast_psd) <= 1e-13


def test_complex64_input_equals_its_complex128_cast():
    # each block is promoted on the way in, so no caller needs a whole-length cast
    n = 20 * (_WELCH_BLOCK + 20) + 40
    rng = np.random.default_rng(7)
    x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(np.complex64)
    freqs, psd, k = welch_psd(x, 1e3, 1e3 / 40)
    cast_freqs, cast_psd, cast_k = welch_psd(x.astype(np.complex128), 1e3, 1e3 / 40)
    assert k == cast_k
    assert np.array_equal(freqs, cast_freqs)
    assert np.array_equal(psd, cast_psd)


def lab_clean():
    leak = emanate(random_grid_raster(1), LAB_TIMING, LAB_LEAK, frames=2)
    rec = capture(leak, ChannelModel(), LAB_FS, bandwidth_hz=LAB_BW)
    return np.asarray(rec.samples, dtype=np.complex128)


@pytest.mark.parametrize("target", [10.0, 25.0, 33.4])
def test_calibrated_sigma_solves_the_snr_equation(target):
    clean = lab_clean()
    sigma = calibrate_noise_sigma(clean, LAB_FS, target)
    _, psd, k = welch_psd(clean, LAB_FS, 25e3)
    n = sigma * sigma / LAB_FS
    predicted = 10.0 * np.log10((psd.max() + n) / (np.median(psd) + median_bias(k) * n))
    assert predicted == pytest.approx(target, abs=1e-9)


def test_calibration_saturates_at_its_limits():
    clean = lab_clean()
    _, psd, k = welch_psd(clean, LAB_FS, 25e3)
    ref = np.sqrt(psd.max() * LAB_FS)
    clean_db = 10.0 * np.log10(psd.max() / np.median(psd))
    floor_db = -10.0 * np.log10(median_bias(k))
    for target in (clean_db + 0.01, clean_db + 50.0, 5000.0):
        assert calibrate_noise_sigma(clean, LAB_FS, target) == pytest.approx(ref * 1e-9, rel=1e-12)
    for target in (floor_db, floor_db - 1.0, -5000.0):
        assert calibrate_noise_sigma(clean, LAB_FS, target) == pytest.approx(ref * 1e9, rel=1e-12)


def test_import_needs_no_scipy_signal_or_stats():
    # importing the package, one panel simulate and one SNR measurement
    code = """
import sys, emgleam
panel = emgleam.make_panel_profile(128, 192)
screen = emgleam.render_eyechart("E", 10, 128, 192)
emgleam.simulate(screen, emgleam.HardwareDim(panel, 5e6, 2.5e6, 20.0), 0)
leak = emgleam.emanate(screen, panel.timing(), panel.leakage())
emgleam.measure_snr(emgleam.capture(leak, emgleam.ChannelModel(target_snr_db=20.0), 5e6,
                                    bandwidth_hz=2.5e6))
print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))
"""
    src = str(Path(emgleam.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
