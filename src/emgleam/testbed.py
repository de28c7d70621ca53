"""Acuity-chart testbed: parameterized attacker model, stimuli, evaluation.

An attacker model has five dimensions (message, message appearance, attack
hardware, device profiling, computational resources), all mandatory.  A
testbed run generates letter/scale stimuli for every profiling session,
renders each letter/scale cell once and passes it through
``dataset.simulate_seeds`` with the noise seeds of all its items, trains
the letter classifier over a growing session schedule, and reports
accuracy per scale plus a per-letter confusion matrix on the held-out
test sessions.

The attacker-model file is INI-style key=value text with one section per
dimension; see parse_spec_file.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classifier import CnnSpec, TrainConfig, init_model, train
from .dataset import SPLIT_FRACTIONS, HardwareDim, simulate_seeds
from .emanator import DisplayTiming
from .errors import StageError, ValidationError
from .pgmio import write_pgm
from .profiles import PhoneProfile, get_profile
from .raster import CHART_LETTERS, CHART_SCALES, render_eyechart
from .util import derive_seed, dump_json

#: classifier input for testbed letters (emages are block-averaged down)
INPUT_SIDE = 32
#: widened variant of the digit CNN used for the letter task
LETTER_CONV_CHANNELS = (12, 32)
LETTER_FC_SIZES = (240, 120)


@dataclass(frozen=True)
class MessageDim:
    letters: str = CHART_LETTERS

    def __post_init__(self):
        if not self.letters:
            raise ValidationError("message dimension: empty letter set")
        bad = [c for c in self.letters if c not in CHART_LETTERS]
        if bad:
            raise ValidationError(f"message dimension: letters {bad} outside {CHART_LETTERS}")
        dup = next((c for k, c in enumerate(self.letters) if c in self.letters[:k]), None)
        if dup is not None:
            raise ValidationError(f"message dimension: letter {dup} listed twice")


@dataclass(frozen=True)
class AppearanceDim:
    scales: tuple = CHART_SCALES
    contrast: float = 1.0

    def __post_init__(self):
        if not self.scales:
            raise ValidationError("appearance dimension: empty scale set")
        for s in self.scales:
            if not any(float(s) == float(ref) for ref in CHART_SCALES):
                raise ValidationError(f"appearance dimension: unknown scale {s}")
        values = [float(s) for s in self.scales]
        dup = next((v for k, v in enumerate(values) if v in values[:k]), None)
        if dup is not None:
            raise ValidationError(f"appearance dimension: scale {dup:g} listed twice")
        if not 0.0 < self.contrast <= 1.0:
            raise ValidationError("appearance dimension: contrast must be in (0, 1]")


@dataclass(frozen=True)
class ProfilingDim:
    train_items: tuple[int, ...]  # items per class per scale, one per session
    test_items: tuple[int, ...]
    growth: tuple[int, ...] = ()  # session counts per training stage; () = auto

    def __post_init__(self):
        if not self.train_items or not self.test_items:
            raise ValidationError("profiling dimension: need train and test sessions")
        if min(self.train_items) < 1 or min(self.test_items) < 1:
            raise ValidationError("profiling dimension: items per class per scale must be >= 1")
        for g in self.growth:
            if not 1 <= g <= len(self.train_items):
                raise ValidationError(f"profiling dimension: growth stage {g} out of range")

    def stages(self) -> tuple[int, ...]:
        if self.growth:
            return self.growth
        n = len(self.train_items)
        if n < 2:
            return (n,)
        auto = list(range(2, n + 1, 2))
        if auto[-1] != n:
            auto.append(n)
        return tuple(auto)


@dataclass(frozen=True)
class ResourcesDim:
    epochs: int = 40
    batch_size: int = 256
    learning_rate: float = 0.001

    def __post_init__(self):
        try:  # checked once, by the training configuration itself
            self.train_config(seed=0)
        except ValidationError as exc:
            raise ValidationError(f"resources dimension: {exc}") from None

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(self.learning_rate, self.epochs, self.batch_size, seed)


@dataclass(frozen=True)
class AttackerModelSpec:
    message: MessageDim
    appearance: AppearanceDim
    hardware: HardwareDim
    profiling: ProfilingDim
    resources: ResourcesDim


def make_panel_profile(visible_w: int, visible_h: int, f_r: float = 60.0) -> PhoneProfile:
    """A custom display panel for testbed hardware dimensions.

    Blanking follows DisplayTiming.for_visible; the reconstruction grid is
    the timing grid itself (unit pixel ratio).
    """
    timing = DisplayTiming.for_visible(visible_w, visible_h, f_r)
    return PhoneProfile(
        name="custom",
        visible_w=visible_w, visible_h=visible_h, x_t=timing.x_t, y_t=timing.y_t, f_r=f_r,
        default_snr_db=25.0, recon_w=timing.x_t,
        grid_content_w=(visible_w // 40) * 40, grid_content_h=(visible_h // 40) * 40,
    )


def _each(convert):
    """Parser of a comma-separated list of convert()ed values."""
    return lambda text: tuple(convert(s) for s in text.split(",") if s.strip())


def _value(section, key: str, convert, default: str | None = None):
    """convert(section[key]) (or of the default); a missing or malformed
    value is a ValidationError naming the section and the key."""
    text = section.get(key, default)
    if text is None:
        raise ValidationError(f"attacker model: [{section.name}] needs {key}")
    try:
        return convert(text)
    except ValueError:
        raise ValidationError(f"attacker model: [{section.name}] {key} = {text!r} is malformed") from None


def parse_spec_file(path) -> AttackerModelSpec:
    """Read the five-section attacker-model document.

    Every section must be present and non-empty; a run without a complete
    specification is rejected.
    """
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ValidationError(f"cannot read attacker model file {path}")
    required = ["message", "message_appearance", "attack_hardware",
                "device_profiling", "computational_resources"]
    for section in required:
        if section not in cp or not dict(cp[section]):
            raise ValidationError(f"attacker model is incomplete: section [{section}] missing or empty")

    msg = cp["message"]
    message = MessageDim(
        letters="".join(s.strip().upper() for s in msg.get("letters", CHART_LETTERS).split(",") if s.strip()),
    )
    if msg.get("priors", "uniform").strip() != "uniform":
        raise ValidationError("message dimension: only uniform priors are supported")

    app = cp["message_appearance"]
    appearance = AppearanceDim(scales=_value(app, "scales", _each(float), "") or CHART_SCALES,
                               contrast=_value(app, "contrast", float, "1.0"))
    if app.get("background", "white").strip() not in ("white", "plain"):
        raise ValidationError("appearance dimension: only a plain white background is supported")

    hw = cp["attack_hardware"]
    profile_name = hw.get("profile", "").strip()
    if not profile_name:
        raise ValidationError("attack_hardware: profile is required")
    if profile_name == "custom":
        profile = make_panel_profile(
            visible_w=_value(hw, "visible_w", int),
            visible_h=_value(hw, "visible_h", int),
            f_r=_value(hw, "f_r", float, "60"),
        )
    else:
        profile = get_profile(profile_name)
    snr_text = hw.get("target_snr_db", "").strip().lower()
    hardware = HardwareDim(
        profile=profile,
        sample_rate_hz=_value(hw, "sample_rate_hz", float, str(profile.sample_rate_hz)),
        bandwidth_hz=_value(hw, "bandwidth_hz", float, str(profile.bandwidth_hz)),
        target_snr_db=None if snr_text in ("", "none", "off") else _value(hw, "target_snr_db", float),
        distance_r=_value(hw, "distance_r", float, "1.0"),
        coupling_gain=_value(hw, "coupling_gain", float, "1.0"),
        frames=_value(hw, "frames", int, "1"),
    )

    prof = cp["device_profiling"]
    profiling = ProfilingDim(
        train_items=_value(prof, "train_items_per_class_per_scale", _each(int), ""),
        test_items=_value(prof, "test_items_per_class_per_scale", _each(int), ""),
        growth=_value(prof, "growth", _each(int), ""),
    )

    res = cp["computational_resources"]
    resources = ResourcesDim(
        epochs=_value(res, "epochs", int, "40"),
        batch_size=_value(res, "batch_size", int, "256"),
        learning_rate=_value(res, "learning_rate", float, "0.001"),
    )
    return AttackerModelSpec(message, appearance, hardware, profiling, resources)


@dataclass(frozen=True)
class Stimulus:
    letter: str
    scale: float
    repetition: int


def generate_stimuli(spec: AttackerModelSpec, repetitions: int = 1) -> list[Stimulus]:
    """Full letters x scales x repetitions cross product, fixed ordering."""
    if repetitions < 1:
        raise ValidationError("repetitions must be >= 1")
    return [
        Stimulus(letter, float(scale), rep)
        for letter in spec.message.letters
        for scale in spec.appearance.scales
        for rep in range(repetitions)
    ]


def _emage_to_input(pixels: np.ndarray, profile: PhoneProfile) -> np.ndarray:
    """Center square of the visible area, block-averaged to INPUT_SIDE."""
    vis_w = int(profile.visible_w * profile.x_scale)
    vis_h = profile.visible_h
    side = (min(vis_w, vis_h) // INPUT_SIDE) * INPUT_SIDE
    if side < INPUT_SIDE:
        raise ValidationError(f"visible emage area {vis_w}x{vis_h} too small for {INPUT_SIDE}px input")
    x0 = (vis_w - side) // 2
    y0 = (vis_h - side) // 2
    sq = pixels[y0 : y0 + side, x0 : x0 + side]
    k = side // INPUT_SIDE
    return sq.reshape(INPUT_SIDE, k, INPUT_SIDE, k).mean(axis=(1, 3)).astype(np.float32)


@dataclass
class TestbedReport:
    letters: str
    scales: tuple
    per_scale_accuracy: dict
    per_letter_accuracy: dict
    confusion: np.ndarray  # rows = true letter, cols = predicted
    stages: list[dict]
    overall_accuracy: float
    metadata: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "letters": list(self.letters),
            "scales": [float(s) for s in self.scales],
            "per_scale_accuracy": {f"{s:g}": v for s, v in self.per_scale_accuracy.items()},
            "per_letter_accuracy": self.per_letter_accuracy,
            "confusion": [[int(v) for v in row] for row in self.confusion],
            "stages": self.stages,
            "overall_accuracy": self.overall_accuracy,
            "metadata": self.metadata,
        }

    def save(self, directory) -> None:
        directory = Path(directory)
        dump_json(directory / "report.json", self.as_dict())
        with open(directory / "per_scale.csv", "w", encoding="utf-8") as fh:
            fh.write("scale,accuracy\n")
            for s in self.scales:
                fh.write(f"{s:g},{self.per_scale_accuracy[float(s)]:.6f}\n")
        total = self.confusion.max()
        heat = self.confusion / total if total > 0 else np.zeros_like(self.confusion, dtype=float)
        write_pgm(directory / "confusion.pgm", heat)


def _collect_sessions(
    spec: AttackerModelSpec,
    sessions: list[tuple[int, int]],
) -> list[tuple[np.ndarray, np.ndarray, list[Stimulus]]]:
    """Images, labels and stimuli of each (repetitions, seed) session.

    Stimuli are collected raster-outermost: each (letter, scale) cell c is
    rendered and synthesised once, and its item i = c * repetitions + r of
    every session draws its noise from derive_seed(seed, "item", i).
    """
    profile = spec.hardware.profile
    scales = spec.appearance.scales
    out = [
        (np.empty((len(stimuli), INPUT_SIDE, INPUT_SIDE), dtype=np.float32),
         np.empty(len(stimuli), dtype=np.int64), stimuli)
        for stimuli in (generate_stimuli(spec, reps) for reps, _ in sessions)
    ]
    for c in range(len(spec.message.letters) * len(scales)):
        letter, scale = spec.message.letters[c // len(scales)], float(scales[c % len(scales)])
        items = [(s, c * reps + r) for s, (reps, _) in enumerate(sessions) for r in range(reps)]
        try:
            raster = render_eyechart(letter, scale, profile.visible_w, profile.visible_h,
                                     contrast=spec.appearance.contrast)
            emages = simulate_seeds(raster, spec.hardware,
                                    [derive_seed(sessions[s][1], "item", i) for s, i in items])
            for (s, i), emage in zip(items, emages):
                out[s][0][i] = _emage_to_input(emage.pixels, profile)
                out[s][1][i] = c // len(scales)
        except ValidationError as exc:
            raise StageError("stimulus", f"{letter}@{scale}: {exc}") from exc
    return out


def run_testbed(spec: AttackerModelSpec, seed: int = 0) -> TestbedReport:
    """Execute the full testbed protocol for one attacker model.

    Profiling sessions are simulated per the hardware dimension, training
    sets grow over the session schedule (each split 80/10/10 into
    train/val/internal-test), and the final stage's model is scored on the
    held-out test sessions.
    """
    letters = spec.message.letters
    scales = tuple(float(s) for s in spec.appearance.scales)
    n_letters = len(letters)

    train_items, test_items = spec.profiling.train_items, spec.profiling.test_items
    collected = _collect_sessions(spec, [
        *((reps, derive_seed(seed, "train-session", j)) for j, reps in enumerate(train_items)),
        *((reps, derive_seed(seed, "test-session", j)) for j, reps in enumerate(test_items)),
    ])
    train_sessions, test_sessions = collected[: len(train_items)], collected[len(train_items) :]
    x_test = np.concatenate([s[0] for s in test_sessions])
    y_test = np.concatenate([s[1] for s in test_sessions])
    test_stimuli = [st for s in test_sessions for st in s[2]]

    stages = []
    for stage_idx, n_sessions in enumerate(spec.profiling.stages()):
        x_pool = np.concatenate([train_sessions[j][0] for j in range(n_sessions)])
        y_pool = np.concatenate([train_sessions[j][1] for j in range(n_sessions)])
        rng = np.random.default_rng(derive_seed(seed, "stage-split", stage_idx))
        order = rng.permutation(len(x_pool))
        n_train = int(SPLIT_FRACTIONS[0] * len(order))
        n_val = max(1, int(SPLIT_FRACTIONS[1] * len(order)))
        tr = order[:n_train]
        va = order[n_train : n_train + n_val]
        model = init_model(
            CnnSpec((INPUT_SIDE, INPUT_SIDE), n_letters,
                    conv_channels=LETTER_CONV_CHANNELS, fc_sizes=LETTER_FC_SIZES),
            seed=derive_seed(seed, "init", stage_idx),
        )
        result = train(
            model,
            (x_pool[tr], y_pool[tr]),
            (x_pool[va], y_pool[va]),
            spec.resources.train_config(derive_seed(seed, "train", stage_idx)),
        )
        preds = result.model.predict_batch(x_test)[0]
        stages.append({
            "name": f"training{stage_idx + 1}",
            "n_sessions": int(n_sessions),
            "val_accuracy": result.best_val_accuracy,
            "test_accuracy": float((preds == y_test).mean()),
        })

    # the last stage's model is the one scored
    hits = preds == y_test
    test_scales = np.array([st.scale for st in test_stimuli])
    per_scale = {s: float(hits[test_scales == s].mean()) for s in scales}
    confusion = np.zeros((n_letters, n_letters), dtype=np.int64)
    np.add.at(confusion, (y_test, preds), 1)
    per_letter = {letter: float(row[li] / row.sum()) if row.sum() else float("nan")
                  for li, (letter, row) in enumerate(zip(letters, confusion))}

    return TestbedReport(
        letters=letters,
        scales=scales,
        per_scale_accuracy=per_scale,
        per_letter_accuracy=per_letter,
        confusion=confusion,
        stages=stages,
        overall_accuracy=float(hits.mean()),
        metadata={
            "seed": seed,
            "profile": spec.hardware.profile.name,
            "sample_rate_hz": spec.hardware.sample_rate_hz,
            "target_snr_db": spec.hardware.target_snr_db,
            "coupling_gain": spec.hardware.coupling_gain,
            "distance_r": spec.hardware.distance_r,
            "epochs": spec.resources.epochs,
        },
    )
