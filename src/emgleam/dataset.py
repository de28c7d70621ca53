"""Labeled emage dataset construction.

A session replays the profiling loop end to end in simulation: render a
screen, radiate it, capture, reconstruct, crop, save labeled items.  Grid
sessions tile the screen with digits (the multi-crop scheme: one captured
screen yields rows x cols labeled crops); code sessions render mock push
messages and save the six-digit code region.  Every simulated screen goes
through ``simulate_seeds``: sessions call it through ``simulate``, one seed
per screen; the testbed, whose chart repeats each letter/scale raster under
many noise seeds, passes all of a raster's seeds at once, so the screen is
emanated and synthesised once.

Dataset layout on disk:

    <root>/sessions/<id>/manifest.json
    <root>/sessions/<id>/items/item_000000.pgm
    <root>/splits/<name>.json

Manifests and items are byte-identical across runs with equal seeds.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .emanator import ChannelModel, add_noise, clean_baseband, emanate
from .errors import ValidationError
from .pgmio import read_pgm, write_pgm
from .profiles import PhoneProfile
from .raster import ScreenRaster, blank_screen, paste, render_digit_grid, render_security_message
from .receiver import Emage, reconstruct
from .util import derive_seed, dump_json, read_record

# A session whose crops have lower mean dynamic range than this is flagged
# as a failed acquisition; training sets always exclude flagged sessions.
QUALITY_MIN_DYNAMIC_RANGE = 0.2
#: train / val / internal-test shares of a training set's items
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)


@dataclass(frozen=True)
class HardwareDim:
    """Attack hardware: the target display, the receiver and the channel."""

    profile: PhoneProfile
    sample_rate_hz: float
    bandwidth_hz: float
    target_snr_db: float | None
    distance_r: float = 1.0
    frames: int = 1

    def __post_init__(self):
        if not (0 < self.sample_rate_hz < math.inf and 0 < self.bandwidth_hz < math.inf):
            raise ValidationError("hardware dimension: rates must be finite and positive")
        if self.frames < 1:
            raise ValidationError("hardware dimension: frames must be >= 1")
        try:  # the channel checks its own values
            self._channel()
        except ValidationError as exc:
            raise ValidationError(f"hardware dimension: {exc}") from None

    def _channel(self) -> ChannelModel:
        return ChannelModel(distance_r=self.distance_r, target_snr_db=self.target_snr_db)


def simulate_seeds(
    raster: ScreenRaster, hardware: HardwareDim, seeds: Sequence[int]
) -> Iterator[Emage]:
    """One screen through emanate -> capture -> reconstruct, once per noise seed.

    The screen radiates for hardware.frames frames and its clean baseband
    is synthesised once; the k-th emage draws its channel noise from
    seeds[k] and lands on the profile's own reconstruction grid at its
    nominal refresh rate.  Emages come one at a time, so only the clean
    baseband and one noisy recording are held, and the last emage is
    reconstructed with the clean baseband already released (a one-seed
    call holds no more than one capture did).
    """
    profile = hardware.profile
    clean, sigma = clean_baseband(
        emanate(raster, profile.timing(), profile.leakage(), frames=hardware.frames),
        hardware._channel(),
        sample_rate_hz=hardware.sample_rate_hz,
        bandwidth_hz=hardware.bandwidth_hz,
    )
    params = profile.recon_params()
    for k, seed in enumerate(seeds, 1):
        recording = add_noise(replace(clean, seed=seed), sigma)
        if k == len(seeds):
            del clean
        yield reconstruct(recording, params)


def simulate(raster: ScreenRaster, hardware: HardwareDim, rng_seed: int) -> Emage:
    """``simulate_seeds`` for the one seed rng_seed."""
    (emage,) = simulate_seeds(raster, hardware, (rng_seed,))
    return emage


@dataclass(frozen=True)
class SessionItem:
    path: str  # relative to the session directory
    label: str
    crop: tuple[int, int, int, int]  # (x, y, w, h) in full-emage coordinates
    screen: int

    def as_dict(self) -> dict:
        x, y, w, h = self.crop
        return {"path": self.path, "label": self.label,
                "crop": {"x": x, "y": y, "w": w, "h": h}, "screen": self.screen}


@dataclass
class Session:
    id: str
    profile: str
    kind: str  # "grid" | "code"
    seed: int
    directory: Path
    items: list[SessionItem]
    quality: dict
    params: dict = field(default_factory=dict)

    @property
    def flagged(self) -> bool:
        return bool(self.quality.get("flagged", False))

    def item_path(self, item: SessionItem) -> Path:
        return self.directory / item.path

    def manifest(self) -> dict:
        return {
            "id": self.id,
            "profile": self.profile,
            "kind": self.kind,
            "seed": self.seed,
            "params": self.params,
            "quality": self.quality,
            "items": [it.as_dict() for it in self.items],
        }

    def save_manifest(self) -> None:
        dump_json(self.directory / "manifest.json", self.manifest())


def _label(item: dict, manifest: Path) -> str:
    """A manifest item's label: a digit, or a code's digits, in ASCII."""
    label = item["label"]
    if not (isinstance(label, str) and label.isascii() and label.isdigit()):
        raise ValidationError(f"{manifest}: label {label!r} is not ASCII digits")
    return label


def load_session(directory) -> Session:
    directory = Path(directory)
    with read_record(directory / "manifest.json") as m:
        items = [
            SessionItem(
                path=d["path"],
                label=_label(d, directory / "manifest.json"),
                crop=(d["crop"]["x"], d["crop"]["y"], d["crop"]["w"], d["crop"]["h"]),
                screen=int(d["screen"]),
            )
            for d in m["items"]
        ]
        return Session(
            id=m["id"], profile=m["profile"], kind=m["kind"], seed=int(m["seed"]),
            directory=directory, items=items, quality=m["quality"], params=m.get("params", {}),
        )


def grid_crop(emage: Emage, rows: int, cols: int, cell_w: int, cell_h: int) -> list[Emage]:
    """Row-major rows x cols crops of cell_w x cell_h from the emage origin."""
    if rows < 1 or cols < 1:
        raise ValidationError(f"crop grid {rows}x{cols}: rows and cols must be >= 1")
    if rows * cell_h > emage.height_px or cols * cell_w > emage.width_px:
        raise ValidationError(
            f"{rows}x{cols} cells of {cell_w}x{cell_h} overflow emage "
            f"{emage.width_px}x{emage.height_px}"
        )
    return [
        emage.crop(c * cell_w, r * cell_h, cell_w, cell_h)
        for r in range(rows)
        for c in range(cols)
    ]


def _balanced_digits(total: int, rng: np.random.Generator) -> list[str]:
    """Shuffled digit plan with per-class counts equal within one."""
    base = total // 10
    counts = np.full(10, base)
    extra = rng.choice(10, size=total - 10 * base, replace=False)
    counts[extra] += 1
    plan = np.repeat(np.arange(10), counts)
    rng.shuffle(plan)
    return [str(d) for d in plan]


def _profile_hardware(profile: PhoneProfile, frames: int, target_snr_db: float | None,
                      distance_r: float) -> HardwareDim:
    """The profiling rig: the profile's own receiver rates."""
    return HardwareDim(
        profile=profile,
        sample_rate_hz=profile.sample_rate_hz,
        bandwidth_hz=profile.bandwidth_hz,
        target_snr_db=profile.default_snr_db if target_snr_db is None else target_snr_db,
        distance_r=distance_r,
        frames=frames,
    )


def _save_session(root, session_id: str, profile: PhoneProfile, kind: str, seed: int,
                  params: dict, labeled) -> Session:
    """Save each (crop, label, rect, screen) of ``labeled`` as the next item,
    then the manifest with the session's quality verdict."""
    directory = Path(root) / "sessions" / session_id
    items: list[SessionItem] = []
    ranges: list[float] = []
    for crop, label, rect, screen in labeled:
        rel = f"items/item_{len(items):06d}.pgm"
        write_pgm(directory / rel, crop.pixels)
        items.append(SessionItem(path=rel, label=label, crop=rect, screen=screen))
        ranges.append(float(crop.pixels.max() - crop.pixels.min()))
    mean_range = float(np.mean(ranges))
    session = Session(
        id=session_id, profile=profile.name, kind=kind, seed=seed, directory=directory, items=items,
        quality={"mean_dynamic_range": mean_range,
                 "flagged": bool(mean_range < QUALITY_MIN_DYNAMIC_RANGE)},
        params=params,
    )
    session.save_manifest()
    return session


def _map_indexed(fn, count: int, workers: int) -> list:
    """fn(i) for i in range(count), optionally on a thread pool.

    Results come back in index order and each call is independently
    seeded, so the output is byte-identical for any worker count.
    """
    if workers <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def run_session(
    profile: PhoneProfile,
    root,
    session_id: str | None = None,
    rows: int = 40,
    cols: int = 40,
    screens: int = 20,
    seed: int = 0,
    frames: int = 1,
    target_snr_db: float | None = None,
    distance_r: float = 1.0,
    workers: int = 1,
) -> Session:
    """Simulated multi-crop grid acquisition session.

    Each screen renders a fresh seeded digit arrangement (class-balanced
    across the whole session), goes through ``simulate`` at the profile
    defaults, and is cropped into rows x cols labeled items.
    """
    if min(rows, cols, screens) < 1:
        raise ValidationError(
            f"grid session needs rows, cols and screens >= 1, got {rows}, {cols}, {screens}"
        )
    hardware = _profile_hardware(profile, frames, target_snr_db, distance_r)
    cell_w, cell_h = profile.grid_cell(rows, cols)
    if cell_w < 1 or cell_h < 1:
        raise ValidationError(f"grid {rows}x{cols} too fine for profile {profile.name}")
    crop_w, crop_h = profile.crop_cell(rows, cols)

    rng = np.random.default_rng(derive_seed(seed, "digit-plan"))
    plan = _balanced_digits(rows * cols * screens, rng)

    def one_screen(s: int):
        digits = plan[s * rows * cols : (s + 1) * rows * cols]
        grid = render_digit_grid(rows, cols, digits, cols * cell_w, rows * cell_h)
        screen = paste(blank_screen(profile.visible_w, profile.visible_h), grid, 0, 0)
        del grid  # pasted: the screen holds its pixels
        return simulate(screen, hardware, derive_seed(seed, "screen", s)), digits

    labeled = (
        (crop, digits[idx], (idx % cols * crop_w, idx // cols * crop_h, crop_w, crop_h), s)
        for s, (emage, digits) in enumerate(_map_indexed(one_screen, screens, workers))
        for idx, crop in enumerate(grid_crop(emage, rows, cols, crop_w, crop_h))
    )
    return _save_session(
        root, session_id or f"grid-{seed:d}", profile, "grid", seed,
        {"rows": rows, "cols": cols, "screens": screens, "frames": hardware.frames,
         "target_snr_db": hardware.target_snr_db, "distance_r": distance_r},
        labeled,
    )


def run_code_session(
    profile: PhoneProfile,
    root,
    session_id: str | None = None,
    n_codes: int = 200,
    seed: int = 0,
    frames: int = 2,
    target_snr_db: float | None = None,
    distance_r: float = 1.0,
    workers: int = 1,
) -> Session:
    """Simulated security-code test session.

    Each code renders as a mock push message, the frame is captured twice
    and averaged at reconstruction, and the code region is saved as one
    labeled item (six digits wide, e.g. 126 x 31 on the default profile).
    """
    if n_codes < 1:
        raise ValidationError(f"code session needs n_codes >= 1, got {n_codes}")
    hardware = _profile_hardware(profile, frames, target_snr_db, distance_r)
    digit_w, digit_h = profile.grid_cell()

    rng = np.random.default_rng(derive_seed(seed, "codes"))
    codes = ["".join(str(d) for d in rng.integers(0, 10, 6)) for _ in range(n_codes)]

    def one_code(i: int):
        screen = render_security_message(
            codes[i], profile.visible_w, profile.visible_h,
            digit_w=digit_w, digit_h=digit_h, x_align=profile.x_align,
        )
        emage = simulate(screen, hardware, derive_seed(seed, "code", i))
        region = screen.annotations[0]
        rect = (round(region.x * profile.x_scale), region.y, round(region.w * profile.x_scale), region.h)
        return emage.crop(*rect), codes[i], rect, i

    return _save_session(
        root, session_id or f"code-{seed:d}", profile, "code", seed,
        {"n_codes": n_codes, "frames": hardware.frames,
         "target_snr_db": hardware.target_snr_db, "distance_r": distance_r},
        _map_indexed(one_code, n_codes, workers),
    )


@dataclass(frozen=True)
class SplitPlan:
    """How train/val/test material is partitioned.

    The test sessions are held out whole; the items of the train sessions
    split into train/val/internal-test by SPLIT_FRACTIONS.
    """

    train_sessions: tuple[str, ...] = ()
    test_sessions: tuple[str, ...] = ()

    def __post_init__(self):
        if set(self.train_sessions) & set(self.test_sessions):
            raise ValidationError("train and test session lists overlap")


@dataclass
class TrainingSet:
    name: str
    plan: SplitPlan
    train: list[str]  # item paths relative to the dataset root
    val: list[str]
    test_internal: list[str]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "train_sessions": list(self.plan.train_sessions),
            "test_sessions": list(self.plan.test_sessions),
            "train": self.train,
            "val": self.val,
            "test_internal": self.test_internal,
        }

    def save(self, path) -> None:
        dump_json(path, self.as_dict())


def load_training_set(path) -> TrainingSet:
    # older split files' "fractions" and "mode" keys (always the defaults) are ignored
    with read_record(path) as d:
        plan = SplitPlan(
            train_sessions=tuple(d["train_sessions"]),
            test_sessions=tuple(d["test_sessions"]),
        )
        return TrainingSet(d["name"], plan, d["train"], d["val"], d["test_internal"])


def build_training_sets(
    sessions: list[Session],
    schedule: tuple[int, ...] = (1, 3, 5, 7),
    n_test: int = 2,
    seed: int = 0,
) -> list[TrainingSet]:
    """Growing training sets over a fixed held-out test pair.

    Sessions sort by id; the last n_test become the cross-session test set
    for every training set, and Training k takes the first schedule[k]
    sessions of the remainder (so the sets are nested).  Within each
    training set the items split by the 80/10/10 SPLIT_FRACTIONS.  Flagged
    sessions are left out.  Every schedule entry takes at least one
    session, and n_test is at least 0.
    """
    if not schedule or min(schedule) < 1:
        raise ValidationError(f"schedule {schedule} must take at least one session per training set")
    if n_test < 0:
        raise ValidationError(f"{n_test} test sessions: the count cannot be negative")
    usable = sorted([s for s in sessions if not s.flagged], key=lambda s: s.id)
    need = max(schedule) + n_test
    if len(usable) < need:
        raise ValidationError(
            f"schedule {schedule} with {n_test} test sessions needs {need} usable sessions, "
            f"got {len(usable)}"
        )
    test_sessions = usable[len(usable) - n_test :] if n_test else []
    pool = usable[: len(usable) - n_test] if n_test else usable

    out = []
    for i, k in enumerate(schedule):
        chosen = pool[:k]
        paths = [f"sessions/{s.id}/{it.path}" for s in chosen for it in s.items]
        rng = np.random.default_rng(derive_seed(seed, "split", k))
        order = rng.permutation(len(paths))
        n_train = int(len(paths) * SPLIT_FRACTIONS[0])
        n_val = int(len(paths) * SPLIT_FRACTIONS[1])
        if n_train < 1 or n_val < 1:
            raise ValidationError(
                f"training{i + 1}: {len(paths)} items split by {SPLIT_FRACTIONS} leave "
                f"{n_train} train / {n_val} val; both need at least one"
            )
        plan = SplitPlan(
            train_sessions=tuple(s.id for s in chosen),
            test_sessions=tuple(s.id for s in test_sessions),
        )
        out.append(TrainingSet(
            name=f"training{i + 1}",
            plan=plan,
            train=[paths[j] for j in order[:n_train]],
            val=[paths[j] for j in order[n_train : n_train + n_val]],
            test_internal=[paths[j] for j in order[n_train + n_val :]],
        ))
    return out


def load_items(root, paths: list[str]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Load item PGMs into (images, labels, raw_labels).

    A label is the manifest label string read as an integer: the digit of a
    grid item, the whole code of a code item.
    """
    if not paths:
        raise ValidationError("no item paths to load")
    root = Path(root)
    images = []
    raw = []
    # session id -> (manifest path, item path -> label), read once per call
    tables: dict[str, tuple[Path, dict[str, str]]] = {}
    for rel in paths:
        parts = Path(rel).parts  # sessions/<id>/items/<file>
        if len(parts) < 4 or parts[0] != "sessions":
            raise ValidationError(f"item path {rel!r} is not dataset-relative")
        images.append(read_pgm(root / rel))
        if parts[1] not in tables:
            manifest = root / parts[0] / parts[1] / "manifest.json"
            with read_record(manifest) as m:
                tables[parts[1]] = manifest, {d["path"]: _label(d, manifest) for d in m["items"]}
        manifest, table = tables[parts[1]]
        label = table.get("/".join(parts[2:]))
        if label is None:
            raise ValidationError(f"{root / rel}: not an item listed in {manifest}")
        raw.append(label)
    return np.stack(images), np.asarray([int(lab) for lab in raw], dtype=np.int64), raw
