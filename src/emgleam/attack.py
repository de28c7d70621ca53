"""End-to-end security-code recovery and scoring.

Reads a six-digit code out of an emage region by splitting it into six
equal-width crops and classifying each, aggregates per-digit and per-code
metrics (exact, at-least-5, at-least-4 correct), and scans full-screen
emages with a sliding window whose per-position score is the classifier's
confidence (one minus normalized softmax entropy averaged over the six
digit sub-crops).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifier import CnnModel
from .errors import ValidationError
from .pgmio import write_pgm
from .receiver import Emage
from .util import dump_json


def _fit_to_input(crop: np.ndarray, hw: tuple[int, int]) -> np.ndarray:
    """Center-crop/zero-pad a patch to the classifier input shape."""
    h, w = hw
    ch, cw = crop.shape
    if (ch, cw) == (h, w):
        return crop
    out = np.zeros((h, w), dtype=crop.dtype)
    sy = max(0, (ch - h) // 2)
    sx = max(0, (cw - w) // 2)
    dy = max(0, (h - ch) // 2)
    dx = max(0, (w - cw) // 2)
    hh = min(h, ch)
    ww = min(w, cw)
    out[dy : dy + hh, dx : dx + ww] = crop[sy : sy + hh, sx : sx + ww]
    return out


def _digit_columns(width: int) -> list[tuple[int, int]]:
    """(start, width) of six equal-width crops, remainder columns in the last."""
    base = width // 6
    if base < 1:
        raise ValidationError(f"region width {width} cannot hold six digits")
    return [(i * base, base) for i in range(5)] + [(5 * base, width - 5 * base)]


def split_code_region(pixels: np.ndarray) -> list[np.ndarray]:
    """Six equal-width crops, remainder columns appended to the last one."""
    return [pixels[:, x : x + w] for x, w in _digit_columns(pixels.shape[1])]


def read_code(
    emage: Emage,
    region: tuple[int, int, int, int],
    model: CnnModel,
) -> tuple[str, list[np.ndarray]]:
    """Predict the six digits in the given emage rect.

    Returns the predicted code and the per-digit probability vectors.
    """
    x, y, w, h = region
    sub = emage.crop(x, y, w, h)
    crops = split_code_region(sub.pixels)
    batch = np.stack([_fit_to_input(c, tuple(model.spec.input_hw)) for c in crops])
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
    digit_flags = []
    class_hits: dict[str, list[int]] = {str(d): [] for d in range(10)}
    n_exact = n_ge5 = n_ge4 = 0
    for it in items:
        flags = it.digit_correct
        digit_flags.extend(flags)
        for true_d, ok in zip(it.true_code, flags):
            class_hits[true_d].append(int(ok))
        if it.n_correct == len(it.true_code):
            n_exact += 1
        if it.n_correct >= 5:
            n_ge5 += 1
        if it.n_correct >= 4:
            n_ge4 += 1
    n = len(items)
    return AttackReport(
        items=items,
        per_digit_accuracy=float(np.mean(digit_flags)),
        per_class_accuracy={
            d: (float(np.mean(hits)) if hits else float("nan")) for d, hits in class_hits.items()
        },
        exact_accuracy=n_exact / n,
        at_least_5_accuracy=n_ge5 / n,
        at_least_4_accuracy=n_ge4 / n,
    )


@dataclass
class ActivationMap:
    scores: np.ndarray  # (rows, cols) of window scores
    window: tuple[int, int]  # (w, h)
    strides: tuple[int, int]  # (x, y)

    def argmax_window(self) -> tuple[int, int, int, int]:
        """Rect (x, y, w, h) of the highest-scoring window position."""
        r, c = np.unravel_index(int(np.argmax(self.scores)), self.scores.shape)
        return (c * self.strides[0], r * self.strides[1], self.window[0], self.window[1])

    def save(self, json_path, pgm_path=None) -> None:
        dump_json(json_path, {
            "scores": [[float(v) for v in row] for row in self.scores],
            "window": {"w": self.window[0], "h": self.window[1]},
            "strides": {"x": self.strides[0], "y": self.strides[1]},
        })
        if pgm_path is not None:
            lo, hi = float(self.scores.min()), float(self.scores.max())
            heat = (self.scores - lo) / (hi - lo) if hi > lo else np.full_like(self.scores, 0.5)
            write_pgm(pgm_path, heat)


def sliding_map(
    emage: Emage,
    model: CnnModel,
    window: tuple[int, int] | None = None,
    strides: tuple[int, int] | None = None,
) -> ActivationMap:
    """Code-likeness score at every window position.

    The window defaults to six digit widths by one digit height (the
    classifier input), strides to one digit width horizontally and one
    digit height vertically.  Score = 1 - mean(softmax entropy of the six
    sub-crops) / ln(n_classes); confident digit-like content scores high.

    Windows of one row share sub-crops: with the default geometry sub-crop
    i of window column c is sub-crop 0 of column c + i.  Each distinct
    (row, start column, width) cell is therefore classified once and the
    six entropies of every window are gathered from those.
    """
    in_h, in_w = model.spec.input_hw
    if window is None:
        window = (6 * in_w, in_h)
    if strides is None:
        strides = (in_w, in_h)
    win_w, win_h = window
    sx, sy = strides
    if win_w > emage.width_px or win_h > emage.height_px:
        raise ValidationError(
            f"window {win_w}x{win_h} larger than emage {emage.width_px}x{emage.height_px}"
        )
    n_cols = (emage.width_px - win_w) // sx + 1
    n_rows = (emage.height_px - win_h) // sy + 1

    pieces = [(c * sx + x, w) for c in range(n_cols) for x, w in _digit_columns(win_w)]
    cells, which = np.unique(np.array(pieces), axis=0, return_inverse=True)
    batch = np.stack([
        _fit_to_input(emage.pixels[r * sy : r * sy + win_h, x : x + w], (in_h, in_w))
        for r in range(n_rows)
        for x, w in cells
    ])
    entropy = np.empty(len(batch))
    for i in range(0, len(batch), 1024):  # bound the conv workspace
        probs = model.softmax(batch[i : i + 1024])
        ent = -np.sum(probs * np.log(np.clip(probs, 1e-12, 1.0)), axis=1)
        entropy[i : i + 1024] = ent
    entropy /= np.log(model.spec.n_classes)
    per_window = entropy.reshape(n_rows, len(cells))[:, which.reshape(n_cols, 6)]
    scores = 1.0 - per_window.mean(axis=2)
    return ActivationMap(scores=scores, window=window, strides=strides)
