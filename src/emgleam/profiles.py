"""Built-in phone profiles: screen timing, leak placement and channel defaults.

Geometry notes.  The reconstruction grid height always equals the total
line count y_t (one reconstructed row per scan line; any other height
shears the image).  The grid width is chosen per profile so that the
horizontal resample ratio recon_w / x_t is an exact small rational and the
standard 40x40 profiling grid lands on whole reconstructed pixels:

* iphone6s:  cell 18x31 on screen -> 21x31 in the emage (ratio 7/6)
* iphone6a/b: cell 18x31 -> 20x31 (ratio 10/9)
* honor6x:   cell 27x45 -> 21x45 (ratio 7/9)
* galaxy_a3: cell 13x24 -> 13x24 (ratio 1)

Total-per-line pixel counts x_t are the usual ~10% horizontal blanking
overhead, rounded to keep those ratios exact.  Default SNRs come from the
per-device measurement table, which also gives each device's observed
leak center:

* iphone6s:  33.4 dB, 295 MHz
* iphone6a:  25.0 dB, 105 MHz
* iphone6b:  26.8 dB, 105 MHz
* honor6x:   36.6 dB, 465 MHz
* galaxy_a3: 25.9 dB, 295 MHz

The simulation places its carrier at harmonic * pixel clock instead (the
observed centers are not derivable from the published refresh rates).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import ValidationError


@dataclass(frozen=True)
class PhoneProfile:
    name: str
    visible_w: int
    visible_h: int
    x_t: int
    y_t: int
    f_r: float
    default_snr_db: float
    recon_w: int
    grid_content_w: int  # screen area tiled by the default 40x40 grid
    grid_content_h: int
    harmonic: int = 5
    sample_rate_hz: float = 25e6
    bandwidth_hz: float = 12.5e6

    @property
    def recon_h(self) -> int:
        return self.y_t

    @property
    def x_scale(self) -> Fraction:
        """Emage columns per screen pixel (horizontal resample ratio)."""
        return Fraction(self.recon_w, self.x_t)

    @property
    def x_align(self) -> int:
        """Screen-x granularity that maps onto whole emage columns."""
        return self.x_t // gcd(self.recon_w, self.x_t)

    def grid_cell(self, rows: int = 40, cols: int = 40) -> tuple[int, int]:
        """Screen cell (w, h) for a rows x cols profiling grid."""
        return self.grid_content_w // cols, self.grid_content_h // rows

    def crop_cell(self, rows: int = 40, cols: int = 40) -> tuple[int, int]:
        """Emage crop (w, h) for a rows x cols profiling grid."""
        cw, ch = self.grid_cell(rows, cols)
        return int(cw * self.x_scale), ch  # vertical mapping is 1:1

    def timing(self):
        from .emanator import DisplayTiming

        return DisplayTiming(self.x_t, self.y_t, self.f_r, self.visible_w, self.visible_h)

    def leakage(self, coupling_gain: float = 1.0, highpass_alpha: float = 0.0):
        from .emanator import LeakageModel

        return LeakageModel(self.harmonic, coupling_gain, highpass_alpha)

    def recon_params(self, **overrides):
        from .receiver import ReconParams

        kw = dict(width_px=self.recon_w, height_px=self.recon_h, f_r_hz=self.f_r)
        kw.update(overrides)
        return ReconParams(**kw)


PROFILES: dict[str, PhoneProfile] = {
    p.name: p
    for p in [
        PhoneProfile(
            name="iphone6s",
            visible_w=750, visible_h=1334, x_t=828, y_t=1415, f_r=60.0,
            default_snr_db=33.4, recon_w=966, grid_content_w=720, grid_content_h=1240,
        ),
        PhoneProfile(
            name="iphone6a",
            visible_w=750, visible_h=1334, x_t=828, y_t=1415, f_r=60.0,
            default_snr_db=25.0, recon_w=920, grid_content_w=720, grid_content_h=1240,
        ),
        PhoneProfile(
            name="iphone6b",
            visible_w=750, visible_h=1334, x_t=828, y_t=1415, f_r=60.0,
            default_snr_db=26.8, recon_w=920, grid_content_w=720, grid_content_h=1240,
        ),
        PhoneProfile(
            name="honor6x",
            visible_w=1080, visible_h=1920, x_t=1188, y_t=2036, f_r=60.0,
            default_snr_db=36.6, recon_w=924, grid_content_w=1080, grid_content_h=1800,
        ),
        PhoneProfile(
            name="galaxy_a3",
            visible_w=540, visible_h=960, x_t=594, y_t=1018, f_r=60.0,
            default_snr_db=25.9, recon_w=594, grid_content_w=520, grid_content_h=960,
        ),
    ]
}


def get_profile(name: str) -> PhoneProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise ValidationError(
            f"unknown profile {name!r}; available: {', '.join(sorted(PROFILES))}"
        ) from None
