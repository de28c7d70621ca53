"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import hashlib
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from emgleam.attack import CodeResult, read_code, score, sliding_map
from emgleam.classifier import CnnSpec, TrainConfig, grad_check, init_model, save_model, train
from emgleam.dataset import load_items, run_session, simulate
from emgleam.emanator import (
    ChannelModel,
    IqRecording,
    add_noise,
    capture,
    clean_baseband,
    emanate,
)
from emgleam.raster import LabeledRegion, ScreenRaster, blank_screen, render_symbols
from emgleam.receiver import ReconParams, am_demod, estimate_frame_rate, measure_snr, reconstruct
from emgleam.profiles import get_profile
from emgleam.testbed import (
    AppearanceDim,
    AttackerModelSpec,
    HardwareDim,
    MessageDim,
    ProfilingDim,
    ResourcesDim,
    make_panel_profile,
    run_testbed,
)
from emgleam.util import derive_seed

from helpers import (
    LAB_BW,
    LAB_FS,
    LAB_LEAK,
    LAB_TIMING,
    edge_reference,
    ncc,
    phone_hardware,
    random_grid_raster,
)


def announce(num, text):
    print(f"\nACCEPTANCE {num}: {text}")


def test_criterion_01_round_trip_fidelity():
    """Noiseless capture + true params -> NCC >= 0.99 for 20 seeded rasters."""
    started = time.time()
    values = []
    for seed in range(20):
        raster = random_grid_raster(seed)
        leak = emanate(raster, LAB_TIMING, LAB_LEAK, frames=1)
        recording = capture(leak, ChannelModel(rng_seed=seed), sample_rate_hz=25e6)
        emage = reconstruct(recording, ReconParams(LAB_TIMING.x_t, LAB_TIMING.y_t, LAB_TIMING.f_r))
        reference = edge_reference(raster, LAB_TIMING, LAB_LEAK, LAB_TIMING.x_t, LAB_TIMING.y_t)
        values.append(ncc(emage.pixels, reference))
    elapsed = time.time() - started
    worst = min(values)
    assert worst >= 0.99
    assert elapsed < 60.0
    announce(1, f"round-trip NCC worst {worst:.4f} over 20 rasters in {elapsed:.1f} s "
                f"at 25 Msps -- PASS")


def test_criterion_02_sync_estimation():
    """Frame-rate error <= 1e-4 relative at 20 dB SNR, 50/50 trials."""
    raster = random_grid_raster(123)
    leak = emanate(raster, LAB_TIMING, LAB_LEAK, frames=3)
    # one clean baseband, fresh noise per seed: the same recordings as capture's
    clean, sigma = clean_baseband(leak, ChannelModel(target_snr_db=20.0),
                                     sample_rate_hz=LAB_FS, bandwidth_hz=LAB_BW)
    first = capture(leak, ChannelModel(target_snr_db=20.0, rng_seed=0),
                    sample_rate_hz=LAB_FS, bandwidth_hz=LAB_BW)
    assert add_noise(clean, sigma).samples.tobytes() == first.samples.tobytes()
    hits = 0
    for seed in range(50):
        recording = add_noise(replace(clean, seed=seed), sigma)
        estimate = estimate_frame_rate(am_demod(recording), LAB_FS, 60.0, 1000.0)
        hits += abs(estimate - 60.0) / 60.0 <= 1e-4
    assert hits == 50
    announce(2, f"frame-rate within 1e-4 relative in {hits}/50 trials at 20 dB -- PASS")


def test_criterion_03_snr_calibration():
    """Requested vs measured SNR within 0.5 dB at {10, 25, 33.4, 36.6} dB."""
    cases = [
        ("iphone6s", 10.0), ("iphone6s", 25.0), ("iphone6s", 33.4), ("honor6x", 36.6),
    ]
    lines = []
    for name, target in cases:
        profile = get_profile(name)
        raster = blank_screen(profile.visible_w, profile.visible_h)
        leak = emanate(raster, profile.timing(), profile.leakage(), frames=1)
        recording = capture(
            leak, ChannelModel(target_snr_db=target, rng_seed=int(target * 10)),
            sample_rate_hz=profile.sample_rate_hz, bandwidth_hz=profile.bandwidth_hz,
        )
        measured = measure_snr(recording)
        assert measured == pytest.approx(target, abs=0.5), f"{name} at {target} dB"
        lines.append(f"{name}@{target}->{measured:.2f}")
    announce(3, "SNR calibration within 0.5 dB: " + ", ".join(lines) + " -- PASS")


def test_criterion_04_attenuation_law():
    """Amplitude ratio at r=2 vs r=1 equals 2^-2.5 to 1e-6."""
    leak = emanate(random_grid_raster(7), LAB_TIMING, LAB_LEAK)
    near = capture(leak, ChannelModel(distance_r=1.0), LAB_FS, bandwidth_hz=LAB_BW)
    far = capture(leak, ChannelModel(distance_r=2.0), LAB_FS, bandwidth_hz=LAB_BW)
    mask = np.abs(near.samples) > 1e-6
    worst = float(np.max(np.abs(far.samples[mask] / near.samples[mask] - 2.0 ** -2.5)))
    assert worst < 1e-6
    announce(4, f"r^-2.5 amplitude law max deviation {worst:.2e} -- PASS")


def test_criterion_05_averaging_law():
    """Background noise std scales as N^-1/2 within 20% for N in {2, 4, 8}."""
    raster = random_grid_raster(8)
    leak = emanate(raster, LAB_TIMING, LAB_LEAK, frames=8)
    rec8 = capture(leak, ChannelModel(target_snr_db=25.0, rng_seed=3),
                   LAB_FS, bandwidth_hz=LAB_BW)
    frame_len = LAB_FS / LAB_TIMING.f_r

    def background_std(n):
        rec = IqRecording(LAB_FS, rec8.center_freq_hz,
                          rec8.samples[: int(round(n * frame_len))], rec8.timing, rec8.seed)
        emage = reconstruct(rec, ReconParams(LAB_TIMING.x_t, LAB_TIMING.y_t, LAB_TIMING.f_r))
        energy = emage.pixels.mean(axis=1)
        sums = np.convolve(energy, np.ones(4), mode="valid")
        j = int(np.argmin(sums))  # blanking rows carry noise only
        return float(emage.pixels[j : j + 4].std())

    base = background_std(1)
    ratios = {}
    for n in (2, 4, 8):
        ratios[n] = background_std(n) / base
        assert ratios[n] == pytest.approx(n ** -0.5, rel=0.2)
    pretty = ", ".join(f"N={n}: {ratios[n]:.3f} vs {n ** -0.5:.3f}" for n in ratios)
    announce(5, f"averaging law within 20% ({pretty}) -- PASS")


def test_criterion_06_gradient_check():
    """Max relative error < 1e-4 against central differences on 3 small specs."""
    specs = [
        (CnnSpec((20, 16), 4, conv_channels=(2, 3), fc_sizes=(8, 6)), 0),
        (CnnSpec((24, 18), 5, conv_channels=(3, 4), fc_sizes=(10, 8)), 7),
        (CnnSpec((22, 22), 3, conv_channels=(2, 2), fc_sizes=(6, 5)), 3),
    ]
    worst = 0.0
    for spec, seed in specs:
        report = grad_check(spec, tolerance=1e-4, seed=seed)
        assert report.passed
        worst = max(worst, report.max_rel_error)
    announce(6, f"gradient check on 3 specs, max relative error {worst:.2e} -- PASS")


def test_criterion_07_end_to_end_digit_attack(digit_rig):
    """Per-digit accuracy >= 85% on held-out code sessions; training <= 1 h."""
    model = digit_rig.results["training4"].model
    results = []
    for session in digit_rig.code_sessions:
        for item in session.items:
            from emgleam.receiver import Emage

            emage = Emage.load(session.item_path(item))
            predicted, _ = read_code(emage, (0, 0, emage.width_px, emage.height_px), model)
            results.append(CodeResult(item.label, predicted))
    report = score(results)
    train_time = digit_rig.train_seconds["training4"]
    assert report.per_digit_accuracy >= 0.85
    assert train_time <= 3600.0
    announce(7, f"end-to-end per-digit accuracy {report.per_digit_accuracy:.3f} on "
                f"{len(results)} codes (7-session training in {train_time:.0f} s) -- PASS")
    test_criterion_07_end_to_end_digit_attack.report = report


def test_criterion_08_partial_code_metrics(digit_rig):
    """Monotone exact <= >=5 <= >=4; Monte-Carlo scorer agreement within 0.5 pts."""
    report = getattr(test_criterion_07_end_to_end_digit_attack, "report", None)
    if report is not None:
        assert report.exact_accuracy <= report.at_least_5_accuracy <= report.at_least_4_accuracy

    p = 0.898
    rng = np.random.default_rng(2024)
    n = 100_000
    items = []
    for _ in range(n):
        flags = rng.random(6) < p
        items.append(CodeResult("000000", "".join("0" if ok else "1" for ok in flags)))
    mc = score(items)
    assert mc.exact_accuracy <= mc.at_least_5_accuracy <= mc.at_least_4_accuracy
    q = 1 - p
    closed = (p ** 6, p ** 6 + 6 * p ** 5 * q, p ** 6 + 6 * p ** 5 * q + 15 * p ** 4 * q ** 2)
    measured = (mc.exact_accuracy, mc.at_least_5_accuracy, mc.at_least_4_accuracy)
    for got, want in zip(measured, closed):
        assert abs(got - want) <= 0.005
    announce(8, f"partial-code metrics monotone; Monte-Carlo vs closed form "
                f"{[f'{g:.4f}/{w:.4f}' for g, w in zip(measured, closed)]} -- PASS")


def test_criterion_09_training_set_growth(digit_rig):
    """Inter-session accuracy nondecreasing from Training 1 to 4 within 2 pts."""
    test_ids = digit_rig.training_sets[0].plan.test_sessions
    paths = [
        f"sessions/{sid}/{item.path}"
        for sid in test_ids
        for item in next(s for s in digit_rig.grid_sessions if s.id == sid).items
    ]
    x_test, y_test, _ = load_items(digit_rig.root, paths)
    accuracies = []
    for name in ("training1", "training2", "training3", "training4"):
        labels, _ = digit_rig.results[name].model.predict_batch(x_test)
        accuracies.append(int((labels == y_test).sum()) / len(x_test))
    for k in range(3):
        assert accuracies[k + 1] >= accuracies[k] - 0.02, accuracies
    margins = [accuracies[k + 1] - (accuracies[k] - 0.02) for k in range(3)]
    pretty = " -> ".join(f"{a:.3f}" for a in accuracies)
    steps = ", ".join(f"{100 * m:+.1f}" for m in margins)
    announce(9, f"training-set growth {pretty} (nondecreasing within 2 pts; step margins "
                f"{steps} pts, smallest {100 * min(margins):.1f} pts) -- PASS")


PANEL = make_panel_profile(128, 192)


def _panel_spec(snr, coupling=1.0, scales=(2, 10), train_items=(6, 6), test_items=(10,),
                epochs=20):
    return AttackerModelSpec(
        message=MessageDim(),
        appearance=AppearanceDim(scales=scales),
        hardware=HardwareDim(profile=PANEL, sample_rate_hz=5e6, bandwidth_hz=2.5e6,
                             target_snr_db=snr, coupling_gain=coupling),
        profiling=ProfilingDim(train_items=train_items, test_items=test_items),
        resources=ResourcesDim(epochs=epochs, batch_size=64),
    )


def test_criterion_10_testbed_chance_floor_and_monotonicity():
    """Zero-signal accuracy ~ 1/10 (binomial alpha=0.01); accuracy nondecreasing
    in channel SNR at fixed scale within 3 pts."""
    from scipy.stats import binomtest

    zero = run_testbed(_panel_spec(snr=25.0, coupling=0.0, epochs=10), seed=31)
    n_items = int(zero.confusion.sum())
    n_hits = int(np.trace(zero.confusion))
    p_value = binomtest(n_hits, n_items, 0.1).pvalue
    assert p_value >= 0.01, f"accuracy {n_hits}/{n_items} rejects chance (p={p_value:.4f})"

    per_scale = {}
    for snr in (0.0, 10.0, 20.0, 30.0):
        report = run_testbed(_panel_spec(snr=snr), seed=21)
        for scale, acc in report.per_scale_accuracy.items():
            per_scale.setdefault(scale, []).append(acc)
    for scale, curve in per_scale.items():
        for k in range(len(curve) - 1):
            assert curve[k + 1] >= curve[k] - 0.03, (scale, curve)
    pretty = "; ".join(
        f"scale {s:g}: " + " -> ".join(f"{a:.2f}" for a in curve)
        for s, curve in sorted(per_scale.items())
    )
    announce(10, f"chance floor {n_hits}/{n_items} (p={p_value:.3f}); SNR curves {pretty} -- PASS")


def test_criterion_11_sliding_window_localization(digit_rig):
    """Activation-map argmax falls inside the true code row in >= 95/100 placements."""
    profile = digit_rig.profile
    model = digit_rig.results["training4"].model
    hardware = phone_hardware(profile, 25.0)
    rng = np.random.default_rng(77)
    hits = 0
    trials = 100
    for t in range(trials):
        code = "".join(str(d) for d in rng.integers(0, 10, 6))
        x0 = int(rng.integers(0, profile.visible_w - 108))
        x0 -= x0 % profile.x_align
        y0 = int(rng.integers(0, profile.visible_h - 31))
        screen = blank_screen(profile.visible_w, profile.visible_h)
        lum = screen.luminance.copy()
        lum[y0 : y0 + 31, x0 : x0 + 108] = render_symbols(code, 108, 31)
        raster = ScreenRaster(profile.visible_w, profile.visible_h, lum,
                              [LabeledRegion(x0, y0, 108, 31, code)])
        emage = simulate(raster, hardware, derive_seed(5000, "place", t))
        amap = sliding_map(emage, model)
        _, wy, _, wh = amap.argmax_window()
        hits += (wy < y0 + 31) and (wy + wh > y0)
    assert hits >= 95
    announce(11, f"sliding-window localization {hits}/100 inside the code row -- PASS")


def test_criterion_12_stage_determinism(tmp_path):
    """Every pipeline stage reproduces byte-identical outputs for equal seeds."""

    def tree_hash(directory):
        h = hashlib.sha256()
        for f in sorted(Path(directory).rglob("*")):
            if f.is_file():
                h.update(str(f.relative_to(directory)).encode())
                h.update(f.read_bytes())
        return h.hexdigest()

    stages = []

    # render
    raster = random_grid_raster(3)
    a, b = tmp_path / "ra.pgm", tmp_path / "rb.pgm"
    raster.save(a)
    random_grid_raster(3).save(b)
    assert a.read_bytes() == b.read_bytes()
    stages.append("render")

    # emanate/capture
    leak = emanate(raster, LAB_TIMING, LAB_LEAK)
    ca, cb = tmp_path / "ca.iq", tmp_path / "cb.iq"
    capture(leak, ChannelModel(target_snr_db=20.0, rng_seed=5), LAB_FS, bandwidth_hz=LAB_BW).save(ca)
    capture(leak, ChannelModel(target_snr_db=20.0, rng_seed=5), LAB_FS, bandwidth_hz=LAB_BW).save(cb)
    assert ca.read_bytes() == cb.read_bytes()
    stages.append("capture")

    # reconstruct
    recording = IqRecording.load(ca)
    ea, eb = tmp_path / "ea.pgm", tmp_path / "eb.pgm"
    params = ReconParams(LAB_TIMING.x_t, LAB_TIMING.y_t, LAB_TIMING.f_r)
    reconstruct(recording, params).save(ea)
    reconstruct(recording, params).save(eb)
    assert ea.read_bytes() == eb.read_bytes()
    stages.append("reconstruct")

    # session (grid) on the fastest profile
    profile = get_profile("galaxy_a3")
    run_session(profile, tmp_path / "d1", session_id="s", rows=8, cols=8, screens=1,
                seed=4, target_snr_db=25.0)
    run_session(profile, tmp_path / "d2", session_id="s", rows=8, cols=8, screens=1,
                seed=4, target_snr_db=25.0)
    assert tree_hash(tmp_path / "d1") == tree_hash(tmp_path / "d2")
    stages.append("session")

    # train
    rng = np.random.default_rng(0)
    x = rng.random((80, 20, 16)).astype(np.float32)
    y = rng.integers(0, 4, 80)
    paths = []
    for tag in ("ma", "mb"):
        model = init_model(CnnSpec((20, 16), 4, conv_channels=(2, 3), fc_sizes=(8, 6)), seed=9)
        train(model, (x, y), (x, y), TrainConfig(epochs=3, batch_size=32, seed=11))
        p = tmp_path / f"{tag}.bin"
        save_model(model, p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    stages.append("train")

    # attack report
    items = [CodeResult("123456", "123450"), CodeResult("000000", "000000")]
    ra, rb = tmp_path / "rep_a.json", tmp_path / "rep_b.json"
    score(items).save(ra)
    score(items).save(rb)
    assert ra.read_bytes() == rb.read_bytes()
    stages.append("attack-report")

    # testbed
    spec = _panel_spec(snr=30.0, scales=(20,), train_items=(2,), test_items=(2,), epochs=2)
    ta, tb = tmp_path / "tb_a", tmp_path / "tb_b"
    for out in (ta, tb):
        out.mkdir()
        run_testbed(spec, seed=13).save(out)
    assert tree_hash(ta) == tree_hash(tb)
    stages.append("testbed")

    announce(12, "byte-identical outputs for equal seeds across stages: "
                 + ", ".join(stages) + " -- PASS")
