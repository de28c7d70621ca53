import json

import numpy as np
import pytest

from emgleam.attack import (
    ActivationMap,
    CodeResult,
    attack_session,
    read_code,
    score,
    sliding_map,
    split_code_region,
)
from emgleam.classifier import CnnSpec, init_model
from emgleam.dataset import load_items, simulate
from emgleam.errors import ValidationError
from emgleam.raster import blank_screen, render_security_message
from emgleam.receiver import Emage

from helpers import phone_hardware


def uniform_emage(w, h, value=0.5):
    return Emage(np.full((h, w), value, dtype=np.float32), 1, {})


def random_emage(w, h, seed=0):
    rng = np.random.default_rng(seed)
    return Emage(rng.random((h, w), dtype=np.float32), 1, {})


def per_window_scores(emage, model, window, strides):
    """Reference map: every window cut, split and classified on its own."""
    (win_w, win_h), (sx, sy) = window, strides
    rows = []
    for y in range(0, emage.height_px - win_h + 1, sy):
        row = []
        for x in range(0, emage.width_px - win_w + 1, sx):
            pieces = split_code_region(emage.pixels[y : y + win_h, x : x + win_w])
            probs = model.softmax(np.stack(pieces))
            ent = -np.sum(probs * np.log(np.clip(probs, 1e-12, 1.0)), axis=1)
            row.append(1.0 - ent.mean() / np.log(model.spec.n_classes))
        rows.append(row)
    return np.array(rows)


class TestSplitCodeRegion:
    def test_width_126_gives_six_21s(self):
        crops = split_code_region(np.zeros((31, 126), dtype=np.float32))
        assert [c.shape[1] for c in crops] == [21] * 6

    def test_remainder_goes_to_last_crop(self):
        crops = split_code_region(np.zeros((31, 128), dtype=np.float32))
        assert [c.shape[1] for c in crops] == [21, 21, 21, 21, 21, 23]

    def test_too_narrow_rejected(self):
        with pytest.raises(ValidationError):
            split_code_region(np.zeros((31, 5), dtype=np.float32))


class TestScore:
    def test_all_correct_gives_all_100(self):
        report = score([CodeResult("123456", "123456") for _ in range(9)])
        assert report.per_digit_accuracy == 1.0
        assert report.exact_accuracy == 1.0
        assert report.at_least_5_accuracy == 1.0
        assert report.at_least_4_accuracy == 1.0

    def test_five_correct_counts_partially(self):
        report = score([CodeResult("123456", "123450")])
        assert report.exact_accuracy == 0.0
        assert report.at_least_5_accuracy == 1.0
        assert report.at_least_4_accuracy == 1.0
        assert report.per_digit_accuracy == pytest.approx(5 / 6)

    def test_metric_monotonicity_on_random_reports(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            items = []
            for _ in range(40):
                true = "".join(str(d) for d in rng.integers(0, 10, 6))
                pred = "".join(
                    t if rng.random() < 0.7 else str(rng.integers(0, 10))
                    for t in true
                )
                items.append(CodeResult(true, pred))
            report = score(items)
            assert report.exact_accuracy <= report.at_least_5_accuracy <= report.at_least_4_accuracy

    def test_monte_carlo_matches_binomial_closed_form(self):
        # independent digit correctness at the per-digit rate the scorer is
        # anchored against; closed form: P(>=k of 6) over Binomial(6, p)
        p = 0.898
        rng = np.random.default_rng(42)
        n = 100_000
        items = []
        for _ in range(n):
            flags = rng.random(6) < p
            true = "000000"
            pred = "".join("0" if ok else "1" for ok in flags)
            items.append(CodeResult(true, pred))
        report = score(items)
        q = 1 - p
        exact = p**6
        ge5 = exact + 6 * p**5 * q
        ge4 = ge5 + 15 * p**4 * q**2
        assert report.exact_accuracy == pytest.approx(exact, abs=0.005)
        assert report.at_least_5_accuracy == pytest.approx(ge5, abs=0.005)
        assert report.at_least_4_accuracy == pytest.approx(ge4, abs=0.005)
        assert report.per_digit_accuracy == pytest.approx(p, abs=0.005)

    def test_per_class_accuracy(self):
        items = [CodeResult("000000", "000000"), CodeResult("111111", "222222")]
        report = score(items)
        assert report.per_class_accuracy["0"] == 1.0
        assert report.per_class_accuracy["1"] == 0.0
        assert np.isnan(report.per_class_accuracy["5"])

    def test_singleton_report_is_item_statistics(self):
        report = score([CodeResult("987654", "987000")])
        assert report.per_digit_accuracy == pytest.approx(0.5)
        assert report.exact_accuracy == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            score([])

    def test_report_serialization(self, tmp_path):
        report = score([CodeResult("123456", "123456"), CodeResult("111111", "111112")])
        jp, cp = tmp_path / "r.json", tmp_path / "r.csv"
        report.save(jp, csv_path=cp)
        data = json.loads(jp.read_text())
        for key in ("per_digit_accuracy", "exact_accuracy",
                    "at_least_5_accuracy", "at_least_4_accuracy"):
            assert key in data
        lines = cp.read_text().strip().splitlines()
        assert lines[0] == "index,true_code,predicted_code,n_correct,exact"
        assert len(lines) == 3


class TestSlidingMapGeometry:
    def test_map_dimensions_formula(self):
        model = init_model(CnnSpec((31, 21), 10), seed=0)
        emage = uniform_emage(300, 200)
        amap = sliding_map(emage, model)
        assert amap.scores.shape == ((200 - 31) // 31 + 1, (300 - 126) // 21 + 1)
        assert np.all(np.isfinite(amap.scores))

    def test_uniform_emage_has_flat_scores(self):
        model = init_model(CnnSpec((31, 21), 10), seed=0)
        amap = sliding_map(uniform_emage(300, 200), model)
        assert float(amap.scores.var()) < 1e-3

    def test_window_larger_than_emage_rejected(self):
        model = init_model(CnnSpec((31, 21), 10), seed=0)
        with pytest.raises(ValidationError, match="larger than emage"):
            sliding_map(uniform_emage(100, 20), model)

    def test_reports_the_digit_block_geometry(self):
        model = init_model(CnnSpec((31, 21), 10), seed=0)
        amap = sliding_map(random_emage(300, 200), model)
        assert amap.window == (6 * 21, 31)
        assert amap.strides == (21, 31)

    def test_matches_per_window_reference(self):
        model = init_model(CnnSpec((31, 21), 10), seed=0)
        emage = random_emage(300, 200, seed=1)
        amap = sliding_map(emage, model)
        ref = per_window_scores(emage, model, amap.window, amap.strides)
        assert amap.scores.shape == ref.shape
        assert float(np.abs(amap.scores - ref).max()) <= 1e-6
        assert int(np.argmax(amap.scores)) == int(np.argmax(ref))

    def test_each_cell_classified_once(self, monkeypatch):
        # default geometry: a window row of n_cols windows covers n_cols + 5
        # distinct digit cells
        model = init_model(CnnSpec((31, 21), 10), seed=0)
        asked = []
        softmax = model.softmax

        def counting_softmax(x):
            asked.append(len(x))
            return softmax(x)

        monkeypatch.setattr(model, "softmax", counting_softmax)
        amap = sliding_map(random_emage(300, 200), model)
        n_rows, n_cols = amap.scores.shape
        assert sum(asked) == n_rows * (n_cols + 5)

    def test_activation_map_serialization(self):
        amap = ActivationMap(np.array([[0.1, 0.9], [0.4, 0.2]]), (126, 31), (21, 31))
        assert amap.argmax_window() == (21, 0, 126, 31)


class TestReadCodeWithTrainedModel:
    def test_code_sessions_read_accurately(self, digit_rig):
        model = digit_rig.results["training4"].model
        for session in digit_rig.code_sessions:
            report = attack_session(session, model)
            # each item re-read alone: six digits, unit-sum probabilities, the same read
            for item, result in zip(session.items, report.items, strict=True):
                emage = Emage.load(session.item_path(item))
                predicted, probs = read_code(
                    emage, (0, 0, emage.width_px, emage.height_px), model
                )
                assert len(predicted) == 6
                assert all(p.sum() == pytest.approx(1.0, abs=1e-5) for p in probs)
                assert result == CodeResult(item.label, predicted)
            assert report.per_digit_accuracy >= 0.85
        with pytest.raises(ValidationError, match="s0 is 'grid', need a code session"):
            attack_session(digit_rig.grid_sessions[0], model)

    def test_repeated_digit_code_gives_six_identical_predictions(self, digit_rig):
        profile = digit_rig.profile
        screen = render_security_message("000000", profile.visible_w, profile.visible_h,
                                         digit_w=18, digit_h=31, x_align=profile.x_align)
        emage = simulate(screen, phone_hardware(profile, None), rng_seed=0)
        region = screen.annotations[0]
        ex = round(region.x * profile.x_scale)
        ew = round(region.w * profile.x_scale)
        model = digit_rig.results["training4"].model
        predicted, _ = read_code(emage, (ex, region.y, ew, region.h), model)
        assert len(set(predicted)) == 1

    def test_easiest_digit_recognized_on_clean_crop(self, digit_rig):
        # held-out grid session, noise at the rig SNR; "4" crops classify as 4
        session = digit_rig.grid_sessions[-1]
        paths = [f"sessions/{session.id}/{it.path}" for it in session.items if it.label == "4"][:30]
        x, y, _ = load_items(digit_rig.root, paths)
        model = digit_rig.results["training4"].model
        labels, _ = model.predict_batch(x)
        assert (labels == 4).mean() >= 0.9

    def test_region_out_of_bounds_rejected(self, digit_rig):
        model = digit_rig.results["training4"].model
        with pytest.raises(ValidationError):
            read_code(uniform_emage(200, 100), (100, 50, 126, 31), model)

    def test_crop_shape_other_than_the_model_input_rejected(self):
        model = init_model(CnnSpec((31, 21), 10))
        with pytest.raises(ValidationError, match="crop 23x31 does not match the model input 21x31"):
            read_code(uniform_emage(200, 100), (0, 0, 128, 31), model)
        with pytest.raises(ValidationError, match="crop 21x30 does not match"):
            read_code(uniform_emage(200, 100), (0, 0, 126, 30), model)

    def test_read_code_is_pure(self, digit_rig):
        model = digit_rig.results["training4"].model
        session = digit_rig.code_sessions[0]
        emage = Emage.load(session.item_path(session.items[0]))
        rect = (0, 0, emage.width_px, emage.height_px)
        first, _ = read_code(emage, rect, model)
        second, _ = read_code(emage, rect, model)
        assert first == second

    def test_sliding_argmax_shifts_with_the_code(self, digit_rig):
        # pasting the same code crop one stride to the right moves the
        # activation argmax by exactly one map cell; the canvas is cut from
        # a blank screen reconstructed like the code session's screens,
        # which is what surrounds a code in a real emage
        model = digit_rig.results["training4"].model
        session = digit_rig.code_sessions[0]
        crop = Emage.load(session.item_path(session.items[0])).pixels
        profile = digit_rig.profile
        hardware = phone_hardware(profile, session.params["target_snr_db"],
                                  frames=session.params["frames"])
        blank = simulate(blank_screen(profile.visible_w, profile.visible_h), hardware,
                         rng_seed=5).pixels
        argmaxes = []
        for shift in (0, 1):
            # well inside the visible area, clear of the line-start and
            # line-end edge columns
            canvas = blank[100 : 100 + 31 * 8, 100 : 100 + 21 * 20].copy()
            x0 = 21 * (4 + shift)
            y0 = 31 * 3
            canvas[y0 : y0 + 31, x0 : x0 + 126] = crop
            emage = Emage(np.clip(canvas, 0, 1), 1, {})
            amap = sliding_map(emage, model)
            argmaxes.append(np.unravel_index(int(np.argmax(amap.scores)), amap.scores.shape))
        (r0, c0), (r1, c1) = argmaxes
        assert r0 == r1 == 3
        assert c1 == c0 + 1 == 5
