from fractions import Fraction

import pytest

from emgleam.errors import ValidationError
from emgleam.profiles import PROFILES, get_profile


def test_registry_has_the_five_builtins():
    assert set(PROFILES) == {"iphone6s", "iphone6a", "iphone6b", "honor6x", "galaxy_a3"}


@pytest.mark.parametrize("name,snr", [
    ("iphone6s", 33.4),
    ("iphone6a", 25.0),
    ("iphone6b", 26.8),
    ("honor6x", 36.6),
    ("galaxy_a3", 25.9),
])
def test_default_snr_values(name, snr):
    assert get_profile(name).default_snr_db == snr


def test_iphone6s_screen_dimensions():
    p = get_profile("iphone6s")
    assert {p.visible_w, p.visible_h} == {750, 1334}


@pytest.mark.parametrize("name,crop", [
    ("iphone6s", (31, 21)),
    ("iphone6a", (31, 20)),
    ("iphone6b", (31, 20)),
    ("honor6x", (45, 21)),
    ("galaxy_a3", (24, 13)),
])
def test_classifier_crop_sizes(name, crop):
    cw, ch = get_profile(name).crop_cell(40, 40)
    assert (ch, cw) == crop


def test_default_grid_reproduces_pinned_crops():
    # the 40x40 profiling grid must land exactly on whole emage columns
    for name in ("iphone6s", "iphone6a", "iphone6b", "honor6x", "galaxy_a3"):
        p = get_profile(name)
        cw, _ = p.grid_cell(40, 40)
        assert (cw * p.x_scale).denominator == 1, name
        assert p.crop_cell(40, 40)[0] == cw * p.x_scale, name


def test_horizontal_scales_are_exact_small_rationals():
    expected = {
        "iphone6s": Fraction(7, 6),
        "iphone6a": Fraction(10, 9),
        "iphone6b": Fraction(10, 9),
        "honor6x": Fraction(7, 9),
        "galaxy_a3": Fraction(1, 1),
    }
    for name, ratio in expected.items():
        assert get_profile(name).x_scale == ratio


def test_capture_defaults():
    p = get_profile("iphone6s")
    assert p.sample_rate_hz == 25e6
    assert p.bandwidth_hz == 12.5e6
    assert p.f_r == 60.0


def test_carrier_sits_above_four_pixel_clocks():
    for p in PROFILES.values():
        timing = p.timing()
        carrier = p.leakage().carrier_hz(timing)
        assert carrier > 4 * timing.pixel_clock_hz
        assert carrier == p.harmonic * timing.pixel_clock_hz


def test_recon_height_equals_total_lines():
    # one reconstructed row per scan line, otherwise the emage shears
    for p in PROFILES.values():
        assert p.recon_h == p.y_t


def test_unknown_profile_lists_alternatives():
    with pytest.raises(ValidationError) as err:
        get_profile("nokia3310")
    for name in PROFILES:
        assert name in str(err.value)
