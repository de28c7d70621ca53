"""End-to-end security-code recovery and scoring.

Reads a six-digit code out of an emage region by splitting it into six
equal-width crops and classifying each, scores a code session's reads
(per-digit; exact, at-least-5, at-least-4 correct codes), and scans
full-screen emages with a sliding window whose per-position score is the
classifier's confidence (one minus normalized softmax entropy averaged
over the six digit blocks it covers).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .classifier import CnnModel
from .dataset import Session
from .errors import ValidationError
from .receiver import Emage
from .util import dump_json


def split_code_region(pixels: np.ndarray) -> list[np.ndarray]:
    """Six equal-width crops, remainder columns appended to the last one."""
    base = pixels.shape[1] // 6
    if base < 1:
        raise ValidationError(f"region width {pixels.shape[1]} cannot hold six digits")
    return [pixels[:, i * base : (i + 1) * base] for i in range(5)] + [pixels[:, 5 * base :]]


def read_code(
    emage: Emage,
    region: tuple[int, int, int, int],
    model: CnnModel,
) -> tuple[str, list[np.ndarray]]:
    """Predict the six digits in the given emage rect.

    Returns the predicted code and the per-digit probability vectors.
    Every crop must have the model's input shape.
    """
    x, y, w, h = region
    crops = split_code_region(emage.crop(x, y, w, h).pixels)
    in_hw = tuple(model.spec.input_hw)
    bad = next((c.shape for c in crops if c.shape != in_hw), None)
    if bad is not None:
        raise ValidationError(
            f"code-region crop {bad[1]}x{bad[0]} does not match the model input "
            f"{in_hw[1]}x{in_hw[0]} (WxH)"
        )
    batch = np.stack(crops)
    labels, probs = model.predict_batch(batch)
    return "".join(str(int(d)) for d in labels), [probs[i] for i in range(6)]


@dataclass(frozen=True)
class CodeResult:
    true_code: str
    predicted_code: str

    def __post_init__(self):
        if len(self.true_code) != len(self.predicted_code):
            raise ValidationError("code length mismatch")

    @property
    def digit_correct(self) -> list[bool]:
        return [a == b for a, b in zip(self.true_code, self.predicted_code)]

    @property
    def n_correct(self) -> int:
        return sum(self.digit_correct)


@dataclass
class AttackReport:
    items: list[CodeResult]
    per_digit_accuracy: float
    per_class_accuracy: dict[str, float]
    exact_accuracy: float
    at_least_5_accuracy: float
    at_least_4_accuracy: float

    def as_dict(self) -> dict:
        return {
            "n_items": len(self.items),
            "per_digit_accuracy": self.per_digit_accuracy,
            "per_class_accuracy": self.per_class_accuracy,
            "exact_accuracy": self.exact_accuracy,
            "at_least_5_accuracy": self.at_least_5_accuracy,
            "at_least_4_accuracy": self.at_least_4_accuracy,
        }

    def save(self, json_path, csv_path=None) -> None:
        dump_json(json_path, self.as_dict())
        if csv_path is not None:
            Path(csv_path).parent.mkdir(parents=True, exist_ok=True)
            with open(csv_path, "w", newline="") as fh:
                wr = csv.writer(fh)
                wr.writerow(["index", "true_code", "predicted_code", "n_correct", "exact"])
                for i, it in enumerate(self.items):
                    wr.writerow([i, it.true_code, it.predicted_code, it.n_correct,
                                 int(it.n_correct == len(it.true_code))])


def score(items: list[CodeResult]) -> AttackReport:
    """Aggregate per-digit and partial-code accuracies.

    exact <= at-least-5 <= at-least-4 by construction.
    """
    if not items:
        raise ValidationError("no items to score")
    class_hits: dict[str, list[bool]] = {str(d): [] for d in range(10)}
    for it in items:
        for true_d, ok in zip(it.true_code, it.digit_correct):
            class_hits[true_d].append(ok)
    n_correct = np.array([it.n_correct for it in items])
    return AttackReport(
        items=items,
        per_digit_accuracy=float(np.mean([ok for it in items for ok in it.digit_correct])),
        per_class_accuracy={
            d: (float(np.mean(hits)) if hits else float("nan")) for d, hits in class_hits.items()
        },
        exact_accuracy=float(np.mean([it.n_correct == len(it.true_code) for it in items])),
        at_least_5_accuracy=float(np.mean(n_correct >= 5)),
        at_least_4_accuracy=float(np.mean(n_correct >= 4)),
    )


def attack_session(session: Session, model: CnnModel) -> AttackReport:
    """Read each code of a code session off its whole emage, and score the reads."""
    if session.kind != "code":
        raise ValidationError(f"session {session.id} is {session.kind!r}, need a code session")
    results = []
    for item in session.items:
        emage = Emage.load(session.item_path(item))
        predicted, _ = read_code(emage, (0, 0, emage.width_px, emage.height_px), model)
        results.append(CodeResult(item.label, predicted))
    return score(results)


@dataclass
class ActivationMap:
    scores: np.ndarray  # (rows, cols) of window scores
    window: tuple[int, int]  # (w, h)
    strides: tuple[int, int]  # (x, y)

    def argmax_window(self) -> tuple[int, int, int, int]:
        """Rect (x, y, w, h) of the highest-scoring window position."""
        r, c = np.unravel_index(int(np.argmax(self.scores)), self.scores.shape)
        return (c * self.strides[0], r * self.strides[1], self.window[0], self.window[1])


def sliding_map(emage: Emage, model: CnnModel) -> ActivationMap:
    """Code-likeness score at every window position.

    The window is six digit widths by one digit height (the classifier
    input), stepped by one digit width horizontally and one digit height
    vertically, so every window is six adjacent blocks of the emage's
    digit-block tiling.  Each block is classified once; a window scores
    1 - mean(softmax entropy of its six blocks) / ln(n_classes), so
    confident digit-like content scores high.
    """
    in_h, in_w = model.spec.input_hw
    window, strides = (6 * in_w, in_h), (in_w, in_h)
    if window[0] > emage.width_px or window[1] > emage.height_px:
        raise ValidationError(
            f"window {window[0]}x{window[1]} larger than emage {emage.width_px}x{emage.height_px}"
        )
    n_rows, n_blocks = emage.height_px // in_h, emage.width_px // in_w
    blocks = emage.pixels[: n_rows * in_h, : n_blocks * in_w].reshape(n_rows, in_h, n_blocks, in_w)
    probs = model.softmax(blocks.swapaxes(1, 2).reshape(-1, in_h, in_w))
    entropy = -np.sum(probs * np.log(np.clip(probs, 1e-12, 1.0)), axis=1).astype(np.float64)
    entropy /= np.log(model.spec.n_classes)
    per_window = sliding_window_view(entropy.reshape(n_rows, n_blocks), 6, axis=1)
    return ActivationMap(scores=1.0 - per_window.mean(axis=2), window=window, strides=strides)
