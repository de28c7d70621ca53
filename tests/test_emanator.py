import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from scipy.fft import ifft, rfft

from emgleam.emanator import (
    _NOISE_BLOCK,
    ChannelModel,
    DisplayTiming,
    IqRecording,
    LeakageModel,
    _band_dft,
    _component_baseband,
    _frame_spectrum,
    _period,
    _periodic_highpass,
    add_noise,
    capture,
    clean_baseband,
    emanate,
    video_waveform,
)
from emgleam.errors import ValidationError
from emgleam.profiles import PROFILES, get_profile
from emgleam.raster import ScreenRaster, blank_screen
from emgleam.receiver import measure_snr
from emgleam.testbed import make_panel_profile

from helpers import LAB_BW, LAB_FS, LAB_LEAK, LAB_TIMING, LAB_H, LAB_W, random_grid_raster


def column_raster(x0=30, width=4, lum=1.0):
    pix = np.zeros((LAB_H, LAB_W), dtype=np.float32)
    pix[:, x0 : x0 + width] = lum
    return ScreenRaster(LAB_W, LAB_H, pix, [])


class TestVideoWaveform:
    def test_frame_length_and_pixel_clock(self):
        timing = DisplayTiming(100, 50, 60.0, 90, 45)
        wave = video_waveform(blank_screen(90, 45), timing)
        assert len(wave) == 5000
        assert timing.pixel_clock_hz == 100 * 50 * 60 == 300e3

    def test_all_black_raster_is_all_zero(self):
        wave = video_waveform(blank_screen(LAB_W, LAB_H, 0.0), LAB_TIMING)
        assert not wave.any()

    def test_iphone_line_blanking_positions(self):
        profile = get_profile("iphone6s")
        timing = profile.timing()
        wave = video_waveform(blank_screen(750, 1334), timing)
        frame = wave.reshape(timing.y_t, timing.x_t)
        assert np.all(frame[:, 750:] == 0.0)  # horizontal blanking of every line
        assert np.all(frame[1334:, :] == 0.0)  # vertical blanking lines
        assert np.all(frame[:1334, :750] == 1.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="does not match visible"):
            video_waveform(blank_screen(10, 10), LAB_TIMING)

    def test_timing_invariants(self):
        with pytest.raises(ValidationError):
            DisplayTiming(80, 136, 60.0, 96, 128)  # x_t < visible_w
        with pytest.raises(ValidationError):
            DisplayTiming(106, 136, -1.0, 96, 128)


class TestEmanate:
    def test_constant_raster_edges_only_at_blanking(self):
        leak = emanate(blank_screen(LAB_W, LAB_H), LAB_TIMING, LeakageModel())
        frame = leak.samples.reshape(LAB_TIMING.y_t, LAB_TIMING.x_t)
        # within a visible line, everything between the start/end edges is flat
        assert np.all(frame[:LAB_H, 1:LAB_W] == 0.0)
        assert np.all(frame[:LAB_H, 0] == 1.0)
        assert np.all(frame[:LAB_H, LAB_W] == -1.0)

    def test_single_column_two_taps_per_line(self):
        leak = emanate(column_raster(30, 4), LAB_TIMING, LeakageModel())
        frame = leak.samples.reshape(LAB_TIMING.y_t, LAB_TIMING.x_t)
        assert int(np.count_nonzero(frame)) == 2 * LAB_H
        nz_cols = np.nonzero(frame[0])[0]
        assert list(nz_cols) == [30, 34]

    def test_carrier_tag(self):
        leak = emanate(random_grid_raster(0), LAB_TIMING, LeakageModel(harmonic=5))
        assert leak.carrier_hz == 5 * LAB_TIMING.pixel_clock_hz

    @pytest.mark.parametrize("timing", [DisplayTiming(1, 1, 60.0, 1, 1), LAB_TIMING,
                                        get_profile("iphone6s").timing()], ids=["1", "lab", "iphone6s"])
    def test_first_difference_equals_the_rolled_copy(self, timing):
        lum = np.random.default_rng(5).random((timing.visible_h, timing.visible_w)).astype(np.float32)
        frame = video_waveform(ScreenRaster(timing.visible_w, timing.visible_h, lum, []), timing)
        assert np.array_equal(_periodic_highpass(frame), frame - np.roll(frame, 1))

    @pytest.mark.parametrize("frames", [0, -1])
    def test_bad_frame_count_is_validation_error(self, frames):
        with pytest.raises(ValidationError, match="frames must be >= 1"):
            emanate(random_grid_raster(0), LAB_TIMING, LAB_LEAK, frames=frames)


class TestCapture:
    def test_length_contract(self):
        leak = emanate(random_grid_raster(0), LAB_TIMING, LAB_LEAK, frames=2)
        rec = capture(leak, ChannelModel(), sample_rate_hz=LAB_FS, bandwidth_hz=LAB_BW)
        assert len(rec.samples) == round(2 * LAB_FS / LAB_TIMING.f_r)
        assert rec.samples.dtype == np.complex64

    def test_distance_attenuation_exact(self):
        leak = emanate(random_grid_raster(4), LAB_TIMING, LAB_LEAK)
        near = capture(leak, ChannelModel(distance_r=1.0), LAB_FS, bandwidth_hz=LAB_BW)
        far = capture(leak, ChannelModel(distance_r=2.0), LAB_FS, bandwidth_hz=LAB_BW)
        scale = 2.0 ** -2.5
        mask = np.abs(near.samples) > 1e-6
        ratio = far.samples[mask] / near.samples[mask]
        assert np.max(np.abs(ratio - scale)) < 1e-6

    def test_noise_is_calibrated_at_unit_distance(self):
        # the leak falls as r^-2.5 bit for bit; the noise stays where target_snr_db puts it at r = 1
        leak = emanate(random_grid_raster(0), LAB_TIMING, LAB_LEAK, frames=2)
        near, sigma_near = clean_baseband(leak, ChannelModel(target_snr_db=30.0), LAB_FS, bandwidth_hz=LAB_BW)
        far_channel = ChannelModel(distance_r=2.0, target_snr_db=30.0)
        far, sigma_far = clean_baseband(leak, far_channel, LAB_FS, bandwidth_hz=LAB_BW)
        assert sigma_far == sigma_near
        assert np.array_equal(far.samples, near.samples * 2.0 ** -2.5)
        far_snr = measure_snr(capture(leak, far_channel, LAB_FS, bandwidth_hz=LAB_BW))
        assert far_snr == pytest.approx(30.0 - 50 * np.log10(2.0), abs=0.5)  # 14.97 dB

    def test_linearity_in_leak(self):
        leak = emanate(random_grid_raster(5), LAB_TIMING, LAB_LEAK)
        one = capture(leak, ChannelModel(), LAB_FS, bandwidth_hz=LAB_BW)
        two = capture(replace(leak, samples=2.0 * leak.samples), ChannelModel(), LAB_FS,
                      bandwidth_hz=LAB_BW)
        assert np.allclose(two.samples, 2.0 * one.samples, atol=1e-6)

    def test_determinism_bytes(self, tmp_path):
        leak = emanate(random_grid_raster(9), LAB_TIMING, LAB_LEAK)
        a = capture(leak, ChannelModel(target_snr_db=20.0, rng_seed=42), LAB_FS, bandwidth_hz=LAB_BW)
        b = capture(leak, ChannelModel(target_snr_db=20.0, rng_seed=42), LAB_FS, bandwidth_hz=LAB_BW)
        assert np.array_equal(a.samples, b.samples)
        pa, pb = tmp_path / "a.iq", tmp_path / "b.iq"
        a.save(pa)
        b.save(pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert (tmp_path / "a.iq.json").read_text() == (tmp_path / "b.iq.json").read_text()

    def test_different_seeds_differ(self):
        leak = emanate(random_grid_raster(9), LAB_TIMING, LAB_LEAK)
        a = capture(leak, ChannelModel(target_snr_db=20.0, rng_seed=1), LAB_FS, bandwidth_hz=LAB_BW)
        b = capture(leak, ChannelModel(target_snr_db=20.0, rng_seed=2), LAB_FS, bandwidth_hz=LAB_BW)
        assert not np.array_equal(a.samples, b.samples)

    def test_frame_periodicity_of_noiseless_capture(self):
        leak = emanate(random_grid_raster(10), LAB_TIMING, LAB_LEAK, frames=3)
        rec = capture(leak, ChannelModel(), LAB_FS, bandwidth_hz=LAB_BW)
        mag = np.abs(rec.samples.astype(np.complex128))
        x = mag - mag.mean()
        period = LAB_FS / LAB_TIMING.f_r
        lags = np.arange(int(0.5 * period), int(1.5 * period) + 1)
        corr = np.array([
            float(x[: len(x) - lag] @ x[lag:])
            / (np.linalg.norm(x[: len(x) - lag]) * np.linalg.norm(x[lag:]))
            for lag in lags
        ])
        best = lags[int(np.argmax(corr))]
        assert abs(best - round(period)) <= 1

    def test_iq_file_round_trip(self, tmp_path):
        leak = emanate(random_grid_raster(11), LAB_TIMING, LAB_LEAK)
        rec = capture(leak, ChannelModel(target_snr_db=30.0, rng_seed=3), LAB_FS, bandwidth_hz=LAB_BW)
        path = tmp_path / "cap.iq"
        rec.save(path)
        again = IqRecording.load(path)
        assert np.array_equal(again.samples, rec.samples)
        assert again.timing == rec.timing
        assert again.sample_rate_hz == rec.sample_rate_hz
        assert again.seed == rec.seed
        # raw file is interleaved little-endian float32 I/Q
        raw = np.fromfile(path, dtype="<f4")
        assert np.array_equal(raw[0::2], rec.samples.real.astype("<f4"))
        assert np.array_equal(raw[1::2], rec.samples.imag.astype("<f4"))

    def test_loaded_samples_are_the_file_bits(self, tmp_path):
        # signed zeros and non-finite values come back exactly as written
        values = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1.5], dtype=np.float32)
        rec = IqRecording(LAB_FS, 0.0, values.view(np.complex64), LAB_TIMING)
        rec.save(tmp_path / "z.iq")
        again = IqRecording.load(tmp_path / "z.iq")
        assert again.samples.dtype == np.complex64
        assert np.array_equal(again.samples.view(np.uint32), values.view(np.uint32))

    def test_legacy_sidecar_with_frame_count_loads(self, tmp_path):
        path = tmp_path / "cap.iq"
        rec = IqRecording(LAB_FS, 0.0, np.arange(16, dtype=np.complex64), LAB_TIMING, seed=3)
        rec.save(path)
        sidecar = tmp_path / "cap.iq.json"
        assert "frames_contained" not in json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**rec.sidecar(), "frames_contained": 1}))
        again = IqRecording.load(path)
        assert np.array_equal(again.samples, rec.samples)
        assert again.sidecar() == rec.sidecar()

    @pytest.mark.parametrize("rate", [0.0, -25e6, float("nan"), float("inf")])
    def test_sample_rate_must_be_finite_and_positive(self, rate):
        rec = IqRecording(LAB_FS, 0.0, np.ones(16, np.complex64), LAB_TIMING)
        with pytest.raises(ValidationError, match=f"sample rate {rate} must be finite and positive"):
            IqRecording(rate, 0.0, rec.samples, LAB_TIMING)
        with pytest.raises(ValidationError, match=f"sample rate {rate} must be finite and positive"):
            replace(rec, sample_rate_hz=rate)

    @pytest.mark.parametrize("extra", [b"\0" * 4, b"\0" * 2])
    def test_partial_sample_is_validation_error(self, tmp_path, extra):
        path = tmp_path / "cap.iq"
        IqRecording(LAB_FS, 0.0, np.ones(16, np.complex64), LAB_TIMING).save(path)
        with open(path, "ab") as fh:
            fh.write(extra)
        with pytest.raises(ValidationError, match="odd float count"):
            IqRecording.load(path)

    def test_sidecar_timing_error_passes_through(self, tmp_path):
        path = tmp_path / "cap.iq"
        IqRecording(LAB_FS, 0.0, np.ones(16, np.complex64), LAB_TIMING).save(path)
        sidecar = tmp_path / "cap.iq.json"
        meta = json.loads(sidecar.read_text())
        meta["timing"]["x_t"] = meta["timing"]["visible_w"] - 1
        sidecar.write_text(json.dumps(meta))
        # the timing's own message, not a "malformed record" wrapper
        with pytest.raises(ValidationError, match=r"^total \d+x\d+ smaller than visible"):
            IqRecording.load(path)


TINY_FS = 25e3  # fs/f_r = 1250/3: 1250 samples span exactly 3 frames


class TestCleanNoiseSplit:
    """capture is exactly clean_baseband followed by add_noise."""

    def test_capture_is_the_composition(self):
        leak = emanate(random_grid_raster(11), LAB_TIMING, LAB_LEAK)
        channel = ChannelModel(target_snr_db=15.0, rng_seed=8)
        whole = capture(leak, channel, LAB_FS, bandwidth_hz=LAB_BW)
        split = add_noise(*clean_baseband(leak, channel, LAB_FS, bandwidth_hz=LAB_BW))
        assert split.samples.dtype == np.complex64
        assert whole.samples.tobytes() == split.samples.tobytes()
        assert whole.sidecar() == split.sidecar()

    def test_one_clean_baseband_serves_many_seeds(self):
        leak = emanate(random_grid_raster(13), LAB_TIMING, LAB_LEAK, frames=2)
        channel = ChannelModel(target_snr_db=20.0)
        clean, sigma = clean_baseband(leak, channel, LAB_FS, bandwidth_hz=LAB_BW)
        for seed in (0, 1, 7, 12345):
            shared = add_noise(replace(clean, seed=seed), sigma)
            alone = capture(leak, replace(channel, rng_seed=seed), LAB_FS, bandwidth_hz=LAB_BW)
            assert shared.samples.tobytes() == alone.samples.tobytes()
            assert shared.sidecar() == alone.sidecar()

    def test_without_target_snr_no_noise_is_drawn(self):
        leak = emanate(random_grid_raster(15), LAB_TIMING, LAB_LEAK)
        clean, sigma = clean_baseband(leak, ChannelModel(rng_seed=3), LAB_FS, bandwidth_hz=LAB_BW)
        assert sigma is None
        noiseless = add_noise(clean, sigma)
        assert noiseless.samples.dtype == np.complex64
        assert np.array_equal(noiseless.samples, clean.samples.astype(np.complex64))

    def test_zero_leak_falls_back_to_unit_sigma(self):
        # an all-black screen radiates nothing: no SNR is defined, so sigma is 1
        leak = emanate(blank_screen(LAB_W, LAB_H, 0.0), LAB_TIMING, LAB_LEAK)
        assert not leak.samples.any()
        clean, sigma = clean_baseband(leak, ChannelModel(target_snr_db=20.0), LAB_FS, bandwidth_hz=LAB_BW)
        assert sigma == 1.0
        assert not clean.samples.any()

    def test_blockwise_noise_equals_one_draw(self):
        # a length that is not a multiple of the draw block
        n = 3 * _NOISE_BLOCK + 123
        samples = np.random.default_rng(1).standard_normal(n)
        clean = IqRecording(25e6, 0.0, samples, LAB_TIMING, seed=42)
        sigma = 0.37
        gauss = np.random.default_rng(42).standard_normal((n, 2))
        want = (samples + (gauss[:, 0] + 1j * gauss[:, 1]) * (sigma / np.sqrt(2.0))).astype(np.complex64)
        got = add_noise(clean, sigma).samples
        assert got.dtype == np.complex64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sigma", [None, 0.37])
    def test_complex_clean_is_validation_error(self, sigma):
        # a capture is tuned to its carrier: its clean baseband is real
        clean = IqRecording(25e6, 0.0, np.ones(16, dtype=np.complex64), LAB_TIMING)
        with pytest.raises(ValidationError, match="real baseband"):
            add_noise(clean, sigma)


def tiny_frame(seed, f_r=60.0):
    timing = DisplayTiming(20, 12, f_r, 16, 10)
    rng = np.random.default_rng(seed)
    raster = ScreenRaster(16, 10, rng.random((10, 16)).astype(np.float32), [])
    return emanate(raster, timing, LeakageModel())


def harmonic_sum(frame, f_r, sample_rate_hz, half_band_hz, k):
    """Baseband at ADC samples k as a direct sum of the frame's kept
    harmonics at t_k = k / fs, the shared Nyquist harmonic left out."""
    n = len(frame)
    coef = np.fft.fft(frame) / n
    h = np.round(np.fft.fftfreq(n, 1.0 / n))
    keep = (np.abs(h * f_r) <= half_band_hz) & (np.abs(h) < n / 2)
    t = np.asarray(k, dtype=np.float64) / sample_rate_hz
    return np.exp(2j * np.pi * np.outer(t, h[keep] * f_r)) @ coef[keep]


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestExactSynthesis:
    def test_offset_carrier(self):
        # a 10 kHz band around the carrier at 25 kS/s: 83 harmonics each side
        frame = tiny_frame(0).samples
        args = (frame, 60.0, TINY_FS, 5000.0, 2000)
        assert rel_err(_component_baseband(*args), harmonic_sum(*args[:4], np.arange(2000))) <= 1e-9

    def test_band_spanning_the_sample_rate(self):
        # fs = 200 f_r and half band fs/2: harmonics +100 and -100 both lie
        # on the band edge and alias onto one ADC bin
        frame = tiny_frame(1).samples
        args = (frame, 60.0, 12e3, 6e3, 500)
        assert rel_err(_component_baseband(*args), harmonic_sum(*args[:4], np.arange(500))) <= 1e-9

    def test_non_round_rate_is_snapped_and_recorded(self):
        leak = tiny_frame(2, f_r=59.94)
        rec = capture(leak, ChannelModel(), sample_rate_hz=25e6, bandwidth_hz=12.5e6)
        f_r = rec.timing.f_r
        assert f_r != 59.94
        assert f_r == pytest.approx(59.94000005994, rel=1e-12)
        assert rec.timing == DisplayTiming(20, 12, f_r, 16, 10)
        n_out = len(rec.samples)
        k = np.unique(np.linspace(0, n_out - 1, 400).astype(np.int64))
        want = harmonic_sum(leak.samples, f_r, 25e6, 6.25e6, k)
        got = _component_baseband(leak.samples, 59.94, 25e6, 6.25e6, n_out)
        assert rel_err(got[k], want) <= 1e-9
        assert rel_err(rec.samples[k], want) <= 1e-6  # complex64

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_round_rate_recording_keeps_the_leak_timing(self, name):
        profile = get_profile(name)
        timing = profile.timing()
        leak = emanate(blank_screen(timing.visible_w, timing.visible_h), timing, profile.leakage())
        rec = capture(leak, ChannelModel(), profile.sample_rate_hz, bandwidth_hz=profile.bandwidth_hz)
        assert rec.timing == leak.timing


FRAME_LENGTHS = {name: p.x_t * p.y_t
                 for name, p in [*PROFILES.items(), ("panel128x192", make_panel_profile(128, 192))]}


class TestBandDft:
    @pytest.mark.parametrize("name", sorted(FRAME_LENGTHS))
    def test_matches_the_full_rfft(self, name):
        n = FRAME_LENGTHS[name]
        frame = np.random.default_rng(n).standard_normal(n)
        full = rfft(frame)
        # a phone's 12.5 MHz band at 60 Hz, a tiny band, and the full band
        for k_max in sorted({min(104168, (n - 1) // 2), 3, (n - 1) // 2, n // 2}):
            got = _band_dft(frame, k_max)
            assert got.shape == (k_max + 1,)
            assert rel_err(got, full[: k_max + 1]) <= 1e-13, k_max

    def test_phone_synthesis_through_the_band_dft(self):
        # an iphone6s frame (largest prime factor 283) takes the pruned path
        profile = get_profile("iphone6s")
        timing = profile.timing()
        rng = np.random.default_rng(5)
        lum = rng.random((timing.visible_h, timing.visible_w)).astype(np.float32)
        frame = emanate(ScreenRaster(timing.visible_w, timing.visible_h, lum, []), timing,
                        profile.leakage()).samples
        args = (frame, 60.0, 25e6, 6.25e6, 416667)
        k = np.array([0, 1, 77_777, 208_333, 416_666])
        assert rel_err(_component_baseband(*args)[k], harmonic_sum(*args[:4], k)) <= 1e-9


def complex_baseband(frame, f_r, sample_rate_hz, half_band_hz, n_out):
    """The same band by a complex inverse FFT: every kept harmonic and its
    conjugate placed by np.add.at into one P-point complex transform."""
    period = _period(sample_rate_hz, f_r)
    p, q_frames = period.numerator, period.denominator
    f_r = float(Fraction(sample_rate_hz) / period)
    k_max = min(math.ceil(half_band_hz / f_r) + 1, (len(frame) - 1) // 2)
    q = np.arange(k_max + 1)
    pos = q[q * f_r <= half_band_hz]
    coef = _frame_spectrum(frame, k_max)[pos] / len(frame)
    bins = np.zeros(p, dtype=np.complex128)
    np.add.at(bins, np.concatenate([pos, -pos[1:]]) * q_frames % p,
              np.concatenate([coef, np.conj(coef[1:])]))
    return np.resize(ifft(bins, norm="forward"), n_out)


PANELS = {"lab96x128": (LAB_TIMING, LAB_FS, LAB_BW),
          "panel128x192": (make_panel_profile(128, 192).timing(), 5e6, 2.5e6),
          **{name: (p.timing(), p.sample_rate_hz, p.bandwidth_hz) for name, p in PROFILES.items()}}


class TestRealBaseband:
    """Tuned to the carrier, the baseband is real and synthesised by irfft."""

    @pytest.mark.parametrize("name", sorted(PANELS))
    def test_matches_the_complex_synthesis(self, name):
        timing, fs, bw = PANELS[name]
        lum = np.random.default_rng(len(name)).random((timing.visible_h, timing.visible_w))
        raster = ScreenRaster(timing.visible_w, timing.visible_h, lum.astype(np.float32), [])
        frame = emanate(raster, timing, LeakageModel()).samples
        period = _period(fs, timing.f_r)
        # the receiver's band and the full sample rate; two frames, and the
        # one period whose length needs no tiling
        for half_band, n_out in [(bw / 2, round(2 * period)), (fs / 2, period.numerator)]:
            got = _component_baseband(frame, timing.f_r, fs, half_band, n_out)
            assert got.dtype == np.float64 and got.shape == (n_out,)
            assert rel_err(got, complex_baseband(frame, timing.f_r, fs, half_band, n_out)) <= 1e-15

    @pytest.mark.parametrize("name, frames", [
        ("lab96x128", 1), ("lab96x128", 4), ("lab96x128", 7), ("iphone6s", 1),
    ])
    def test_tiles_into_exactly_n_out_samples(self, name, frames):
        # P = 3 frames here: one frame is a third of a period, four frames
        # a period and a part, seven two periods and a part
        timing, fs, bw = PANELS[name]
        frame = emanate(random_grid_raster(2) if name.startswith("lab")
                        else blank_screen(timing.visible_w, timing.visible_h), timing, LeakageModel()).samples
        period = _period(fs, timing.f_r)
        n_out = round(frames * period)
        got = _component_baseband(frame, timing.f_r, fs, bw / 2, n_out)
        assert got.base is None and got.shape == (n_out,)
        full = _component_baseband(frame, timing.f_r, fs, bw / 2, period.numerator)
        assert np.array_equal(got, np.resize(full, n_out))

    def test_band_spanning_the_sample_rate_meets_at_nyquist(self):
        # fs = 200 f_r: harmonics +100 and -100 both land on bin P/2 = 100
        frame = tiny_frame(1).samples
        got = _component_baseband(frame, 60.0, 12e3, 6e3, 500)
        assert got.dtype == np.float64
        assert rel_err(got, complex_baseband(frame, 60.0, 12e3, 6e3, 500)) <= 1e-15


class TestSnrCalibrationRange:
    def test_targets_across_the_working_range(self):
        leak = emanate(random_grid_raster(1), LAB_TIMING, LAB_LEAK, frames=2)
        for target in (0.0, 5.0, 15.0, 30.0, 40.0):
            rec = capture(leak, ChannelModel(target_snr_db=target, rng_seed=int(target)),
                          LAB_FS, bandwidth_hz=LAB_BW)
            assert measure_snr(rec) == pytest.approx(target, abs=0.5), target


class TestChannelModel:
    def test_amplitude_scale_law(self):
        assert ChannelModel(distance_r=2.0).amplitude_scale == pytest.approx(2 ** -2.5, abs=1e-12)
        with pytest.raises(ValidationError):
            ChannelModel(distance_r=0.0)

    @pytest.mark.parametrize("snr", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_snr_rejected(self, snr):
        with pytest.raises(ValidationError, match="finite"):
            ChannelModel(target_snr_db=snr)

    def test_leakage_model_validation(self):
        with pytest.raises(ValidationError):
            LeakageModel(harmonic=0)
