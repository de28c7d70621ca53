import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from emgleam import receiver
from emgleam._spectrum import RESOLUTION_HZ, peak_over_median_db, welch_psd
from emgleam.dataset import simulate
from emgleam.emanator import ChannelModel, DisplayTiming, IqRecording, capture, emanate
from emgleam.errors import NoSyncError, ValidationError
from emgleam.receiver import (
    Emage,
    ReconParams,
    am_demod,
    estimate_frame_rate,
    measure_snr,
    reconstruct,
)
from emgleam.profiles import get_profile
from emgleam.raster import ScreenRaster, blank_screen, paste, render_digit_grid
from emgleam.util import derive_seed

from helpers import (
    LAB_BW, LAB_FS, LAB_LEAK, LAB_TIMING, LAB_H, LAB_W, edge_reference, ncc, phone_hardware,
    random_grid_raster,
)


def lab_capture(raster, frames=1, snr_db=None, seed=0, fs=LAB_FS):
    leak = emanate(raster, LAB_TIMING, LAB_LEAK, frames=frames)
    return capture(leak, ChannelModel(target_snr_db=snr_db, rng_seed=seed),
                   sample_rate_hz=fs, bandwidth_hz=LAB_BW if fs == LAB_FS else 12.5e6)


def per_lag_frame_rate(mag, fs, f_r_hint, search_ppm=1000.0):
    """Reference estimate: one normalized dot product per lag."""
    lag0 = fs / f_r_hint
    span = max(1, int(np.ceil(lag0 * search_ppm * 1e-6)))
    lo = max(1, int(np.floor(lag0)) - span)
    hi = min(len(mag) - 2, int(np.ceil(lag0)) + span)
    x = mag - mag.mean()
    corr = []
    for lag in range(lo, hi + 1):
        a, b = x[: len(x) - lag], x[lag:]
        corr.append(a @ b / np.sqrt((a @ a) * (b @ b)))
    best = int(np.argmax(corr))
    c_m, c_0, c_p = corr[best - 1 : best + 2]
    curvature = c_m - 2 * c_0 + c_p
    lag = lo + best + (0.5 * (c_m - c_p) / curvature if curvature < 0 else 0.0)
    return fs / lag


@pytest.fixture(scope="module")
def galaxy_capture():
    """One galaxy_a3 frame of a blank screen at its own rates and 25 dB."""
    ga = get_profile("galaxy_a3")
    leak = emanate(blank_screen(ga.visible_w, ga.visible_h), ga.timing(), ga.leakage())
    return capture(leak, ChannelModel(target_snr_db=25.0, rng_seed=6), ga.sample_rate_hz,
                   bandwidth_hz=ga.bandwidth_hz)


def lab_params(**kw):
    return ReconParams(LAB_TIMING.x_t, LAB_TIMING.f_r, **kw)


def fake_recording(samples, fs=LAB_FS):
    return IqRecording(fs, 0.0, np.asarray(samples, dtype=np.complex64), LAB_TIMING, 0)


class TestAmDemod:
    def test_pythagorean(self):
        rec = fake_recording(np.full(64, 3.0 + 4.0j))
        assert np.allclose(am_demod(rec), 5.0, atol=1e-6)

    def test_pure_tone_envelope_flat(self):
        n = np.arange(4096)
        tone = 0.7 * np.exp(2j * np.pi * 0.123 * n)
        mag = am_demod(fake_recording(tone))
        assert np.max(np.abs(mag - 0.7)) < 1e-6

    def test_zero_in_zero_out(self):
        mag = am_demod(fake_recording(np.zeros(16)))
        assert not mag.any()

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            am_demod(fake_recording(np.zeros(0)))

    def test_blocks_give_the_whole_length_bits(self):
        n = receiver._DEMOD_BLOCK + 1
        rng = np.random.default_rng(3)
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(np.complex64)
        assert np.array_equal(am_demod(fake_recording(x)), np.abs(x.astype(np.complex128)))


class TestEstimateFrameRate:
    def test_noiseless_precision(self):
        rec = lab_capture(random_grid_raster(0), frames=3)
        est = estimate_frame_rate(am_demod(rec), LAB_FS, 60.0, 1000.0)
        assert abs(est - 60.0) / 60.0 < 1e-6

    def test_30db_within_6mHz(self):
        rec = lab_capture(random_grid_raster(1), frames=3, snr_db=30.0, seed=5)
        est = estimate_frame_rate(am_demod(rec), LAB_FS, 60.0, 1000.0)
        assert abs(est - 60.0) <= 0.006

    def test_20db_trials(self):
        hits = 0
        for seed in range(10):
            rec = lab_capture(random_grid_raster(2), frames=3, snr_db=20.0, seed=seed)
            est = estimate_frame_rate(am_demod(rec), LAB_FS, 60.0, 1000.0)
            hits += abs(est - 60.0) / 60.0 <= 1e-4
        assert hits == 10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_lag_reference(self, seed):
        rec = lab_capture(random_grid_raster(10 + seed), frames=3, snr_db=20.0, seed=seed)
        mag = am_demod(rec)
        est = estimate_frame_rate(mag, LAB_FS, 60.0, 1000.0)
        ref = per_lag_frame_rate(mag, LAB_FS, 60.0, 1000.0)
        assert abs(est - ref) / ref <= 1e-12

    def test_phone_capture_matches_per_lag_reference(self):
        # 3 iphone6s frames: the correlated head and tail are 833k samples
        # long, against the lab panel's 83k
        ip = get_profile("iphone6s")
        screen = render_digit_grid(40, 40, [str(d % 10) for d in range(1600)], ip.visible_w, ip.visible_h)
        leak = emanate(screen, ip.timing(), ip.leakage(), frames=3)
        rec = capture(leak, ChannelModel(target_snr_db=25.0, rng_seed=3), ip.sample_rate_hz,
                      bandwidth_hz=ip.bandwidth_hz)
        mag = am_demod(rec)
        est = estimate_frame_rate(mag, ip.sample_rate_hz, ip.f_r)
        ref = per_lag_frame_rate(mag, ip.sample_rate_hz, ip.f_r)
        assert abs(est - ref) / ref <= 1e-12

    @pytest.mark.parametrize("period, n, search_ppm", [
        (3000, 7500, 1000.0),  # head of 4,503 samples, shorter than one block
        (10_000, 2 * receiver._SYNC_BLOCK + 10_123, 1000.0),  # head ends in a partial block
        (3000, 9000, 100.0),  # span 1: lags 2999..3001, the narrowest window
    ], ids=["short-head", "partial-block", "narrowest"])
    def test_block_edges_match_per_lag_reference(self, period, n, search_ppm):
        rng = np.random.default_rng(period)
        pattern = rng.random(period)
        mag = np.abs(np.resize(pattern, n) + 0.3 * rng.standard_normal(n))
        fs = 60.0 * period
        est = estimate_frame_rate(mag, fs, 60.0, search_ppm)
        ref = per_lag_frame_rate(mag, fs, 60.0, search_ppm)
        assert abs(est - ref) / ref <= 1e-12
        assert abs(est - 60.0) / 60.0 < 1e-3

    @pytest.mark.parametrize("level", [0.5, 1 / 3])
    def test_flat_envelope_has_no_sync(self, level):
        # 1/3 does not survive mean subtraction exactly: a constant residue
        # would correlate perfectly at every lag
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoSyncError):
                estimate_frame_rate(np.full(3 * 41_667, level), LAB_FS, 60.0, 1000.0)

    def test_white_noise_has_no_sync(self):
        rng = np.random.default_rng(7)
        mag = np.abs(rng.standard_normal(200_000) + 1j * rng.standard_normal(200_000))
        with pytest.raises(NoSyncError):
            estimate_frame_rate(mag, LAB_FS, 60.0, 1000.0)

    def test_short_span_rejected(self):
        with pytest.raises(ValidationError, match="2 frames"):
            estimate_frame_rate(np.ones(1000), LAB_FS, 60.0, 1000.0)

    def test_two_frame_phone_capture_syncs(self):
        # capture(frames=2) writes round(2 fs / f_r) = 833,333 samples at
        # 25 MS/s and 60 Hz, a third of a sample short of two whole frames
        ip = get_profile("iphone6s")
        screen = render_digit_grid(40, 40, [str(d % 10) for d in range(1600)], ip.visible_w, ip.visible_h)
        leak = emanate(screen, ip.timing(), ip.leakage(), frames=2)
        rec = capture(leak, ChannelModel(target_snr_db=25.0, rng_seed=4), ip.sample_rate_hz,
                      bandwidth_hz=ip.bandwidth_hz)
        mag = am_demod(rec)
        assert len(mag) == 833_333
        est = estimate_frame_rate(mag, ip.sample_rate_hz, ip.f_r)
        assert abs(est - ip.f_r) / ip.f_r < 1e-6
        with pytest.raises(ValidationError, match=re.escape("(833333 samples), got 833332")):
            estimate_frame_rate(mag[:-1], ip.sample_rate_hz, ip.f_r)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_envelope_is_validation_error(self, bad):
        mag = am_demod(lab_capture(random_grid_raster(3), frames=3, snr_db=30.0, seed=1))
        mag[1234] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="non-finite"):
                estimate_frame_rate(mag, LAB_FS, 60.0, 1000.0)

    def test_fft_length_equals_scipy_next_fast_len(self):
        from scipy.fft import next_fast_len

        sample = np.random.default_rng(0).integers(1 << 17, 1 << 24, 2000)
        for n in [*range(1, (1 << 17) + 1), *map(int, sample), 1 << 24]:
            assert receiver._fast_len(n) == next_fast_len(n, real=True), n


class TestReconstruct:
    def test_single_column_edges_at_expected_positions(self):
        pix = np.zeros((LAB_H, LAB_W), dtype=np.float32)
        pix[:, 40:45] = 1.0
        rec = lab_capture(ScreenRaster(LAB_W, LAB_H, pix, []))
        emage = reconstruct(rec, lab_params())
        cols = emage.pixels[: LAB_H - 2].mean(axis=0)
        top2 = sorted(np.argsort(cols)[-2:])
        assert abs(top2[0] - 40) <= 1 and abs(top2[1] - 45) <= 1

    def test_round_trip_ncc(self):
        raster = random_grid_raster(3)
        rec = lab_capture(raster, fs=25e6)
        emage = reconstruct(rec, lab_params())
        ref = edge_reference(raster, LAB_TIMING, LAB_TIMING.x_t, LAB_TIMING.y_t)
        assert ncc(emage.pixels, ref) >= 0.99

    def test_normalization_range(self):
        rec = lab_capture(random_grid_raster(4), snr_db=20.0, seed=1)
        emage = reconstruct(rec, lab_params())
        assert float(emage.pixels.min()) == 0.0
        assert float(emage.pixels.max()) == 1.0

    def test_constant_recording_maps_to_half(self):
        rec = fake_recording(np.full(int(LAB_FS / 60) + 1, 2.0 + 0j))
        emage = reconstruct(rec, lab_params())
        assert np.all(emage.pixels == 0.5)

    def test_frame_rate_error_shears_predictably(self):
        pix = np.zeros((LAB_H, LAB_W), dtype=np.float32)
        pix[:, 50:54] = 1.0
        rec = lab_capture(ScreenRaster(LAB_W, LAB_H, pix, []))
        eps = 1e-3
        emage = reconstruct(rec, ReconParams(LAB_TIMING.x_t, LAB_TIMING.f_r * (1 + eps)))
        # content drifts by width_px * eps columns per reconstructed row;
        # track the shift of each row profile against an early row
        ref_row = emage.pixels[4]
        rows = np.arange(4, LAB_H - 4, 4)
        shifts = []
        for r in rows:
            c = np.correlate(emage.pixels[r], ref_row, "full")
            shifts.append(int(np.argmax(c)) - (len(ref_row) - 1))
        drift = np.polyfit(rows, shifts, 1)[0]
        expected = LAB_TIMING.x_t * eps / (1 + eps)
        assert drift == pytest.approx(expected, abs=0.02)

    def test_chunked_grid_equals_one_chunk(self, monkeypatch):
        # the iphone6s grid is 83 chunks and 7,018 cells
        ip = get_profile("iphone6s")
        n = round(3 * ip.sample_rate_hz / ip.f_r)
        rng = np.random.default_rng(9)
        samples = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(np.complex64)
        rec = IqRecording(ip.sample_rate_hz, 0.0, samples, ip.timing(), 0)
        params = ip.recon_params()
        cells = params.width_px * rec.timing.y_t
        assert cells > receiver._RECON_CHUNK and cells % receiver._RECON_CHUNK
        chunked = reconstruct(rec, params)
        monkeypatch.setattr(receiver, "_RECON_CHUNK", cells)
        whole = reconstruct(rec, params)
        assert chunked.frames_averaged == whole.frames_averaged == 3
        assert np.array_equal(chunked.pixels, whole.pixels)

    @pytest.mark.parametrize("case", ["row0", "rotated", "flat"])
    def test_equals_the_rolled_and_normalised_copy(self, monkeypatch, case):
        """The in-place tail of reconstruct gives the bits of np.roll, a
        normalised copy and astype on the averaged grid."""
        if case == "flat":
            rec = fake_recording(np.full(int(LAB_FS / 60) + 1, 2.0 + 0j))
        else:
            rec = lab_capture(random_grid_raster(4), frames=3, snr_db=20.0, seed=1)
            if case == "rotated":  # start the recording 40% into a frame
                rec = fake_recording(rec.samples[round(0.4 * LAB_FS / 60) :])
        seen = []

        def spy(avg, blank_rows):
            seen.append((avg.copy(), real(avg, blank_rows)))
            return seen[-1][1]

        real = receiver._frame_start_row
        monkeypatch.setattr(receiver, "_frame_start_row", spy)
        pixels = reconstruct(rec, lab_params()).pixels
        ((avg, start_row),) = seen
        if case != "flat":  # a flat grid's darkest band is any band
            assert (start_row > 0) == (case == "rotated")
        avg = np.roll(avg, -start_row, axis=0)
        lo, hi = float(avg.min()), float(avg.max())
        norm = (avg - lo) / (hi - lo) if hi > lo else np.full_like(avg, 0.5)
        assert pixels.dtype == np.float32
        assert np.array_equal(pixels, norm.astype(np.float32))

    @pytest.mark.parametrize("h, w", [(137, 1), (137, 63), (136, 65), (1409, 966)])
    def test_blocked_column_medians_equal_one_partition(self, h, w):
        assert w % receiver._MEDIAN_BLOCK
        avg = np.random.default_rng(w).random((h, w))
        assert np.array_equal(receiver._column_medians(avg), np.partition(avg, h // 2, axis=0)[h // 2])

    def test_holds_envelope_accumulator_and_pixels_only(self):
        ip = get_profile("iphone6s")
        leak = emanate(blank_screen(ip.visible_w, ip.visible_h), ip.timing(), ip.leakage(), frames=3)
        rec = capture(leak, ChannelModel(target_snr_db=25.0, rng_seed=2), ip.sample_rate_hz,
                      bandwidth_hz=ip.bandwidth_hz)
        params = ip.recon_params()
        cells = params.width_px * rec.timing.y_t
        # the float64 envelope and accumulator and the float32 pixels, plus
        # a slack for ten float64 interpolation temporaries of one chunk and
        # two column blocks of the alignment's medians (2.7 MB); one more
        # full-size copy, 5.5 MB even in float32, exceeds it
        slack = 10 * 8 * receiver._RECON_CHUNK + 2 * 8 * rec.timing.y_t * receiver._MEDIAN_BLOCK
        bound = 8 * len(rec.samples) + 8 * cells + 4 * cells + slack
        assert slack < 4 * cells
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            emage = reconstruct(rec, params)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert emage.frames_averaged == 3
        assert peak <= bound, f"{peak / 1e6:.1f} MB traced above the input, bound {bound / 1e6:.1f} MB"

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_sample_is_validation_error(self, galaxy_capture, bad):
        samples = galaxy_capture.samples.copy()
        samples[100_000] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            reconstruct(replace(galaxy_capture, samples=samples), get_profile("galaxy_a3").recon_params())

    @pytest.mark.parametrize("width", [LAB_TIMING.x_t, 50])
    def test_lab_grid_height_is_the_line_count(self, width):
        rec = lab_capture(random_grid_raster(4), snr_db=20.0, seed=1)
        emage = reconstruct(rec, ReconParams(width, LAB_TIMING.f_r))
        assert (emage.width_px, emage.height_px) == (width, rec.timing.y_t) == (width, LAB_TIMING.y_t)

    @pytest.mark.parametrize("halve", [False, True])
    def test_phone_grid_height_is_the_line_count(self, galaxy_capture, halve):
        ga = get_profile("galaxy_a3")
        params = ga.recon_params(width_px=ga.recon_w // 2) if halve else ga.recon_params()
        emage = reconstruct(galaxy_capture, params)
        assert emage.height_px == galaxy_capture.timing.y_t == ga.recon_h
        assert emage.width_px == params.width_px

    def test_nan_pixel_is_rejected(self):
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            Emage([[np.nan, 0.5], [0.2, 0.1]], 1)

    @pytest.mark.parametrize("shape", [(6,), (2, 3, 4)])
    def test_emage_pixels_must_be_2d(self, shape):
        with pytest.raises(ValidationError, match="must be 2-D"):
            Emage(np.zeros(shape), 1)

    def test_emage_size_is_its_pixel_shape(self):
        emage = Emage(np.zeros((3, 5)), 1)
        assert (emage.width_px, emage.height_px) == (5, 3)
        crop = emage.crop(1, 1, 4, 2)
        assert (crop.width_px, crop.height_px) == crop.pixels.shape[::-1] == (4, 2)

    @pytest.mark.parametrize("w, h", [(0, 10), (10, 0), (-5, 10), (10, -5), (0, 0)])
    def test_empty_crop_is_validation_error(self, w, h):
        emage = Emage(np.zeros((40, 40)), 1)
        with pytest.raises(ValidationError, match="is empty"):
            emage.crop(0, 0, w, h)

    def test_too_short_rejected(self):
        rec = fake_recording(np.ones(1000))
        with pytest.raises(ValidationError, match="less than one"):
            reconstruct(rec, lab_params())

    def test_frame_rate_must_match_sidecar(self):
        rec = lab_capture(random_grid_raster(5))
        with pytest.raises(ValidationError, match="deviates"):
            reconstruct(rec, ReconParams(LAB_TIMING.x_t, 70.0))

    def test_averaging_counts_frames(self):
        rec = lab_capture(random_grid_raster(6), frames=4)
        emage = reconstruct(rec, lab_params())
        assert emage.frames_averaged == 4

    def test_emage_io_round_trip(self, tmp_path):
        rec = lab_capture(random_grid_raster(7), snr_db=25.0, seed=2)
        emage = reconstruct(rec, lab_params())
        p = tmp_path / "e.pgm"
        emage.save(p)
        again = Emage.load(p)
        assert again.frames_averaged == emage.frames_averaged
        assert again.source_meta["params"] == emage.source_meta["params"]
        assert np.array_equal(
            np.rint(emage.pixels * 255), np.rint(again.pixels * 255)
        )

    def test_emage_sidecar_errors_name_the_file(self, tmp_path):
        p = tmp_path / "e.pgm"
        Emage(np.zeros((3, 4)), 1).save(p)
        sidecar = tmp_path / "e.pgm.json"
        sidecar.write_text('{"frames_averaged": "two"}')
        with pytest.raises(ValidationError, match=f"^{re.escape(str(sidecar))}: malformed record"):
            Emage.load(p)
        sidecar.unlink()  # a bare PGM is one frame with no metadata
        assert Emage.load(p).frames_averaged == 1


def phone_grid_emage(profile, seed, snr_db):
    """First screen of run_session(profile, rows=40, cols=40, seed=seed).

    Rebuilt from the same seeds: a class-balanced 40x40 digit plan pasted
    at the top-left of a white screen, captured with the session's noise
    seed for screen 0.
    """
    plan = np.repeat(np.arange(10), 160)
    np.random.default_rng(derive_seed(seed, "digit-plan")).shuffle(plan)
    cell_w, cell_h = profile.grid_cell(40, 40)
    grid = render_digit_grid(40, 40, [str(d) for d in plan], 40 * cell_w, 40 * cell_h)
    screen = paste(blank_screen(profile.visible_w, profile.visible_h), grid, 0, 0)
    return simulate(screen, phone_hardware(profile, snr_db), derive_seed(seed, "screen", 0)).pixels


class TestFrameAlignmentOnPhones:
    # Every capture starts at visible row 0, so a correctly aligned noisy
    # emage matches the noiseless reconstruction of its screen unshifted.
    # The iphone6s seeds include the digit rig's grid sessions s5 and s7,
    # and honor6x gives the weakest per-row alignment evidence at 25 dB.
    @pytest.mark.parametrize("name,seed", [
        pytest.param("iphone6s", derive_seed(1000, "grid", 5), id="iphone6s-rig-s5"),
        pytest.param("iphone6s", derive_seed(1000, "grid", 7), id="iphone6s-rig-s7"),
        pytest.param("iphone6s", 5, id="iphone6s-seed5"),
        pytest.param("iphone6s", 21, id="iphone6s-seed21"),
        pytest.param("honor6x", 4, id="honor6x-seed4"),
        pytest.param("honor6x", 11, id="honor6x-seed11"),
    ])
    def test_25db_grid_screen_starts_at_row_0(self, name, seed):
        self.assert_starts_at_row_0(name, seed, 25.0)

    # Screens whose per-row edge evidence sits only 3-4 blanking sigmas
    # above the blanking level, where a band of guessed length ends 1-5
    # rows off
    @pytest.mark.parametrize("name,seed,snr_db", [
        pytest.param("honor6x", 104, 20.0, id="honor6x-seed104-20dB"),
        pytest.param("honor6x", 110, 20.0, id="honor6x-seed110-20dB"),
        pytest.param("iphone6s", 209, 17.0, id="iphone6s-seed209-17dB"),
        pytest.param("iphone6s", 211, 17.0, id="iphone6s-seed211-17dB"),
    ])
    def test_low_snr_grid_screen_starts_at_row_0(self, name, seed, snr_db):
        self.assert_starts_at_row_0(name, seed, snr_db)

    @staticmethod
    def assert_starts_at_row_0(name, seed, snr_db):
        profile = get_profile(name)
        noisy = phone_grid_emage(profile, seed, snr_db)
        clean = phone_grid_emage(profile, seed, None)
        shifts = range(-16, 17)
        scores = [ncc(np.roll(noisy, s, axis=0), clean) for s in shifts]
        assert shifts[int(np.argmax(scores))] == 0

    def test_timing_without_vertical_blanking_is_not_rotated(self):
        # a dark band mid-frame is the darkest window of any length, so
        # only the timing's zero blanking lines keep it where it is
        timing = DisplayTiming(LAB_TIMING.x_t, LAB_H, LAB_TIMING.f_r, LAB_W, LAB_H)
        pix = np.ones((LAB_H, LAB_W), dtype=np.float32)
        pix[50:70] = 0.0
        leak = emanate(ScreenRaster(LAB_W, LAB_H, pix, []), timing, LAB_LEAK)
        rec = capture(leak, ChannelModel(), LAB_FS, bandwidth_hz=LAB_BW)
        avg = reconstruct(rec, ReconParams(timing.x_t, timing.f_r)).pixels
        assert receiver._frame_start_row(avg, 20) == 70
        assert receiver._frame_start_row(avg, 0) == 0


class TestMeasureSnr:
    def test_injected_tone_20db_above_floor(self):
        rng = np.random.default_rng(11)
        n = 500_000
        fs = LAB_FS
        sigma = 0.1
        nperseg = round(fs / 25e3)
        # hann-window peak bin of a bin-centered tone vs white-noise density:
        # peak = A^2 (sum w)^2 / (fs sum w^2); floor = sigma^2 / fs
        w = np.hanning(nperseg)
        target = 10 ** (20 / 10)
        amp = np.sqrt(target * sigma**2 * (w @ w) / (w.sum() ** 2))
        k = 40  # bin-centered frequency
        tone = amp * np.exp(2j * np.pi * (k / nperseg) * np.arange(n))
        noise = sigma / np.sqrt(2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        rec = fake_recording(tone + noise, fs)
        assert measure_snr(rec) == pytest.approx(20.0, abs=0.5)

    def test_noise_only_near_zero(self):
        rng = np.random.default_rng(12)
        n = 500_000
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        rec = fake_recording(noise)
        assert 0.0 <= measure_snr(rec) <= 3.0

    def test_capture_target_round_trip(self):
        rec = lab_capture(random_grid_raster(9), snr_db=25.0, seed=4)
        assert measure_snr(rec) == pytest.approx(25.0, abs=0.5)

    @pytest.mark.parametrize("fs", [25e6, 100e6], ids=["25MS", "100MS"])
    def test_meter_is_the_calibration_estimator(self, fs):
        # the whole band at RESOLUTION_HZ, bit for bit, so a reading compares with its request
        ga = get_profile("galaxy_a3")
        leak = emanate(blank_screen(ga.visible_w, ga.visible_h), ga.timing(), ga.leakage())
        rec = capture(leak, ChannelModel(target_snr_db=25.0, rng_seed=6), fs, bandwidth_hz=ga.bandwidth_hz)
        psd = welch_psd(rec.samples, fs, RESOLUTION_HZ)[1]
        assert measure_snr(rec) == peak_over_median_db(psd)
        assert measure_snr(rec) == pytest.approx(25.0, abs=0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_sample_is_validation_error(self, galaxy_capture, bad):
        samples = galaxy_capture.samples.copy()
        samples[100_000] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            measure_snr(replace(galaxy_capture, samples=samples))

    def test_recon_params_validation(self):
        with pytest.raises(ValidationError):
            ReconParams(0, 60.0)
