"""The four benchmark workloads.

Each workload builds fixed inputs from the seed (``setup``), runs one pass of
the attack loop over them (``run``, the timed part) and checks the outputs
(``check``, untimed).  Every call into emgleam goes through a module
attribute (``dataset.run_session``, ``receiver.reconstruct``, ...) so that a
traced run sees it.  Item counts are fixed here and recorded in
BENCHMARK.json.  One pass takes 8-18 s on a 2-core Xeon, longer than the 6 s
run length, so an untraced run there makes one pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from emgleam import attack, classifier, dataset, emanator, pgmio, profiles, raster, receiver, testbed
from emgleam.errors import EmgleamError
from emgleam.util import derive_seed

SNR_DB = 25.0
DIGIT_SPEC = classifier.CnnSpec((31, 21), 10)


@dataclass
class Op:
    """One operation of a pass: its result, or the EmgleamError it raised."""

    name: str
    result: object = None
    error: str | None = None


@dataclass
class Outcome:
    """What the checks found in one pass."""

    attempted: int
    quality: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    failed_ops: set[str] = field(default_factory=set)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, op: str, message: str) -> None:
        self.failed_ops.add(op)
        self.problems.append(f"{op}: {message}")


def _attempt(name: str, fn, *args, **kwargs) -> Op:
    try:
        return Op(name, fn(*args, **kwargs))
    except EmgleamError as exc:
        return Op(name, error=f"{type(exc).__name__}: {exc}")


def _in_unit_range(a: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(a)) and a.min() >= 0.0 and a.max() <= 1.0)


def _manifest_labels(root: Path, paths: list[str]) -> list[str]:
    """Labels of dataset-relative item paths, read from the manifests on disk."""
    tables: dict[str, dict[str, str]] = {}
    labels = []
    for rel in paths:
        _, sid, *rest = Path(rel).parts
        if sid not in tables:
            with open(root / "sessions" / sid / "manifest.json", encoding="utf-8") as fh:
                tables[sid] = {d["path"]: d["label"] for d in json.load(fh)["items"]}
        labels.append(tables[sid]["/".join(rest)])
    return labels


def _check_loaded(out: Outcome, op: str, what: str, root: Path, paths, loaded, hw) -> None:
    images, _, raw = loaded
    if raw != _manifest_labels(root, paths):
        out.fail(op, f"{what}: load_items labels differ from the manifests on disk")
    if images.shape != (len(paths), *hw) or not _in_unit_range(images):
        out.fail(op, f"{what}: crops have shape {images.shape} or values outside [0, 1]")


class Workload:
    """A workload: ``setup`` builds the fixed inputs, ``run`` is the timed
    pass, ``check`` verifies its outputs and ``items`` counts its work in
    ``unit``.  ``primary`` names the output-quality figure reported as the
    end-to-end ``quality`` metric."""

    def probe(self, state) -> dict[str, float]:
        """Quality figures measured once per run, outside the timed pass."""
        return {}


class Acquire(Workload):
    """Profiling data collection: grid and code sessions written to disk."""

    name = "acquire"
    unit = "screens"
    primary = "crop_range"
    GRID_SCREENS = {"iphone6s": 2, "honor6x": 1}  # 40x40 grid screens, 1 frame each
    CODE_MESSAGES = 4  # iphone6s security messages, 2 frames each

    def counts(self) -> dict:
        return {"grid_screens": self.GRID_SCREENS, "code_messages": self.CODE_MESSAGES,
                "crops_per_grid_screen": 1600, "snr_db": SNR_DB}

    def setup(self, root: Path, seed: int) -> dict:
        return {"seed": seed, "profiles": {n: profiles.get_profile(n) for n in self.GRID_SCREENS}}

    def items(self, state) -> int:
        return sum(self.GRID_SCREENS.values()) + self.CODE_MESSAGES

    def run(self, state, work: Path) -> list[Op]:
        seed = state["seed"]
        ops = [
            _attempt(f"grid-{name}", dataset.run_session, state["profiles"][name], work,
                     session_id=f"grid-{name}", rows=40, cols=40, screens=screens,
                     seed=derive_seed(seed, "grid", name), frames=1, target_snr_db=SNR_DB)
            for name, screens in self.GRID_SCREENS.items()
        ]
        ops.append(_attempt("codes", dataset.run_code_session, state["profiles"]["iphone6s"], work,
                            session_id="codes", n_codes=self.CODE_MESSAGES,
                            seed=derive_seed(seed, "codes"), frames=2, target_snr_db=SNR_DB))
        return ops

    def check(self, state, ops: list[Op]) -> Outcome:
        out = Outcome(attempted=len(ops))
        ranges = []
        for op in ops:
            if op.error:
                out.fail(op.name, op.error)
                continue
            session = op.result
            disk = dataset.load_session(session.directory)
            if disk.manifest() != session.manifest() or disk.flagged:
                out.fail(op.name, "manifest on disk differs from the session or is flagged")
                continue
            expected = 1600 * session.params["screens"] if disk.kind == "grid" else self.CODE_MESSAGES
            bad = [it.path for it in disk.items
                   if (px := pgmio.read_pgm(disk.item_path(it))).shape != (it.crop[3], it.crop[2])
                   or not _in_unit_range(px)]
            if len(disk.items) != expected or bad:
                out.fail(op.name, f"{len(disk.items)} items (expected {expected}), {len(bad)} bad crops")
                continue
            ranges.append(disk.quality["mean_dynamic_range"])
        out.quality["crop_range"] = float(np.mean(ranges)) if ranges else 0.0
        return out

    def probe(self, state) -> dict[str, float]:
        """Max |measured - requested| SNR over one blank-screen capture per
        profile, measured the C03 way, outside the timed pass."""
        worst = 0.0
        for name, profile in state["profiles"].items():
            screen = raster.blank_screen(profile.visible_w, profile.visible_h)
            leak = emanator.emanate(screen, profile.timing(), profile.leakage(), frames=1)
            rec = emanator.capture(
                leak, emanator.ChannelModel(target_snr_db=SNR_DB, rng_seed=derive_seed(state["seed"], "snr", name)),
                sample_rate_hz=profile.sample_rate_hz, bandwidth_hz=profile.bandwidth_hz)
            worst = max(worst, abs(receiver.measure_snr(rec) - SNR_DB))
        return {"snr_err_db": worst}


class Train(Workload):
    """Classifier training on simulated grid sessions, scored on a held-out one."""

    name = "train"
    unit = "crop-epochs"
    primary = "digit_accuracy"
    SESSIONS = 2  # iphone6s 40x40 grid sessions of one screen: one to train, one held out
    EPOCHS = 20
    BATCH = 256

    def counts(self) -> dict:
        return {"grid_sessions": self.SESSIONS, "screens_per_session": 1, "epochs": self.EPOCHS,
                "batch_size": self.BATCH, "snr_db": SNR_DB}

    def setup(self, root: Path, seed: int) -> dict:
        ip = profiles.get_profile("iphone6s")
        sessions = [
            dataset.run_session(ip, root, session_id=f"s{i}", rows=40, cols=40, screens=1,
                                seed=derive_seed(seed, "train-grid", i), target_snr_db=SNR_DB)
            for i in range(self.SESSIONS)
        ]
        return {"seed": seed, "root": root, "sessions": sessions}

    def items(self, state) -> int:
        # training1 takes 80% of the one training session's 1600 crops
        return int(1600 * 0.8) * self.EPOCHS

    def run(self, state, work: Path) -> list[Op]:
        return [_attempt("train", self._train_and_score, state)]

    def _train_and_score(self, state) -> dict:
        seed, root = state["seed"], state["root"]
        ts = dataset.build_training_sets(state["sessions"], schedule=(1,), n_test=1,
                                         seed=derive_seed(seed, "split"))[0]
        test = [f"sessions/{s.id}/{it.path}" for s in state["sessions"]
                if s.id in ts.plan.test_sessions for it in s.items]
        loaded = {"train": dataset.load_items(root, ts.train), "val": dataset.load_items(root, ts.val)}
        model = classifier.init_model(DIGIT_SPEC, seed=derive_seed(seed, "init"))
        x, y, _ = loaded["train"]
        xv, yv, _ = loaded["val"]
        result = classifier.train(model, (x, y), (xv, yv), classifier.TrainConfig(
            epochs=self.EPOCHS, batch_size=self.BATCH, seed=derive_seed(seed, "sgd")))
        loaded["test"] = dataset.load_items(root, test)
        _, accuracy = classifier.evaluate(result.model, loaded["test"][0], loaded["test"][1])
        return {"paths": {"train": ts.train, "val": ts.val, "test": test}, "loaded": loaded,
                "history": result.history, "accuracy": accuracy}

    def check(self, state, ops: list[Op]) -> Outcome:
        out = Outcome(attempted=len(ops))
        (op,) = ops
        if op.error:
            out.fail(op.name, op.error)
            out.quality["digit_accuracy"] = 0.0
            return out
        r = op.result
        for part, paths in r["paths"].items():
            _check_loaded(out, op.name, part, state["root"], paths, r["loaded"][part], DIGIT_SPEC.input_hw)
        if len(r["history"]) != self.EPOCHS or not 0.0 <= r["accuracy"] <= 1.0:
            out.fail(op.name, f"{len(r['history'])} epochs of history, accuracy {r['accuracy']}")
        out.quality["digit_accuracy"] = float(r["accuracy"])
        return out


class Locate(Workload):
    """C11 localization: estimate sync, reconstruct, scan with the sliding map."""

    name = "locate"
    unit = "emages"
    primary = "hit_ratio"
    EMAGES = 2
    FRAMES = 3
    MODEL_EPOCHS = 10  # set-up model: training1 of one iphone6s grid session
    CODE_W, CODE_H = 108, 31  # six digits on screen, as in C11

    def counts(self) -> dict:
        return {"emages": self.EMAGES, "frames": self.FRAMES, "model_sessions": 1,
                "model_epochs": self.MODEL_EPOCHS, "snr_db": SNR_DB}

    def setup(self, root: Path, seed: int) -> dict:
        ip = profiles.get_profile("iphone6s")
        session = dataset.run_session(ip, root, session_id="s0", rows=40, cols=40, screens=1,
                                      seed=derive_seed(seed, "locate-grid"), target_snr_db=SNR_DB)
        ts = dataset.build_training_sets([session], schedule=(1,), n_test=0,
                                         seed=derive_seed(seed, "locate-split"))[0]
        x, y, _ = dataset.load_items(root, ts.train)
        xv, yv, _ = dataset.load_items(root, ts.val)
        model = classifier.train(
            classifier.init_model(DIGIT_SPEC, seed=derive_seed(seed, "locate-init")),
            (x, y), (xv, yv),
            classifier.TrainConfig(epochs=self.MODEL_EPOCHS, seed=derive_seed(seed, "locate-sgd")),
        ).model
        rng = np.random.default_rng(derive_seed(seed, "placements"))
        placements = []
        for _ in range(self.EMAGES):
            code = "".join(str(d) for d in rng.integers(0, 10, 6))
            x0 = int(rng.integers(0, ip.visible_w - self.CODE_W))
            placements.append((code, x0 - x0 % ip.x_align, int(rng.integers(0, ip.visible_h - self.CODE_H))))
        return {"seed": seed, "profile": ip, "model": model, "placements": placements}

    def items(self, state) -> int:
        return self.EMAGES

    def run(self, state, work: Path) -> list[Op]:
        return [_attempt(f"emage{i}", self._locate, state, i) for i in range(self.EMAGES)]

    def _locate(self, state, i: int) -> dict:
        ip = state["profile"]
        code, x0, y0 = state["placements"][i]
        lum = raster.blank_screen(ip.visible_w, ip.visible_h).luminance.copy()
        lum[y0 : y0 + self.CODE_H, x0 : x0 + self.CODE_W] = raster.render_symbols(code, self.CODE_W, self.CODE_H)
        screen = raster.ScreenRaster(ip.visible_w, ip.visible_h, lum,
                                     [raster.LabeledRegion(x0, y0, self.CODE_W, self.CODE_H, code)])
        leak = emanator.emanate(screen, ip.timing(), ip.leakage(), frames=self.FRAMES)
        rec = emanator.capture(
            leak, emanator.ChannelModel(target_snr_db=SNR_DB, rng_seed=derive_seed(state["seed"], "emage", i)),
            sample_rate_hz=ip.sample_rate_hz, bandwidth_hz=ip.bandwidth_hz)
        f_r = receiver.estimate_frame_rate(receiver.am_demod(rec), ip.sample_rate_hz, ip.f_r)
        emage = receiver.reconstruct(rec, ip.recon_params(f_r_hz=f_r))
        return {"f_r": f_r, "emage": emage, "map": attack.sliding_map(emage, state["model"])}

    def check(self, state, ops: list[Op]) -> Outcome:
        out = Outcome(attempted=len(ops))
        ip = state["profile"]
        in_h, in_w = DIGIT_SPEC.input_hw
        map_shape = ((ip.recon_h - in_h) // in_h + 1, (ip.recon_w - 6 * in_w) // in_w + 1)
        hits, sync_err = 0, 0.0
        for op, (_, _, y0) in zip(ops, state["placements"]):
            if op.error:
                out.fail(op.name, op.error)
                continue
            r = op.result
            px = r["emage"].pixels
            if px.shape != (ip.recon_h, ip.recon_w) or not _in_unit_range(px):
                out.fail(op.name, f"emage shape {px.shape} or values outside [0, 1]")
                continue
            scores = r["map"].scores
            if scores.shape != map_shape or not np.all(np.isfinite(scores)):
                out.fail(op.name, f"activation map shape {scores.shape}, expected {map_shape}")
                continue
            _, wy, _, wh = r["map"].argmax_window()
            hits += (wy < y0 + self.CODE_H) and (wy + wh > y0)
            sync_err = max(sync_err, abs(r["f_r"] - ip.f_r) / ip.f_r * 1e6)
        out.quality["hit_ratio"] = hits / len(ops)
        out.quality["sync_err_ppm"] = sync_err
        return out


class Chart(Workload):
    """Acuity-chart testbed on the small lab panel (the C10 setting, fewer items)."""

    name = "chart"
    unit = "stimuli"
    primary = "letter_accuracy"
    TRAIN_ITEMS = (2, 2)  # items per letter per scale, one entry per profiling session
    TEST_ITEMS = (3,)
    SCALES = (2, 10)
    EPOCHS = 60

    def counts(self) -> dict:
        return {"panel": [128, 192], "sample_rate_hz": 5e6, "bandwidth_hz": 2.5e6, "snr_db": 20.0,
                "scales": list(self.SCALES), "train_items": list(self.TRAIN_ITEMS),
                "test_items": list(self.TEST_ITEMS), "epochs": self.EPOCHS, "batch_size": 64}

    def setup(self, root: Path, seed: int) -> dict:
        spec = testbed.AttackerModelSpec(
            message=testbed.MessageDim(),
            appearance=testbed.AppearanceDim(scales=self.SCALES),
            hardware=testbed.HardwareDim(profile=testbed.make_panel_profile(128, 192), sample_rate_hz=5e6,
                                         bandwidth_hz=2.5e6, target_snr_db=20.0),
            profiling=testbed.ProfilingDim(train_items=self.TRAIN_ITEMS, test_items=self.TEST_ITEMS),
            resources=testbed.ResourcesDim(epochs=self.EPOCHS, batch_size=64),
        )
        return {"seed": seed, "spec": spec}

    def _stimuli(self, spec, items) -> int:
        return len(spec.message.letters) * len(self.SCALES) * sum(items)

    def items(self, state) -> int:
        return self._stimuli(state["spec"], self.TRAIN_ITEMS + self.TEST_ITEMS)

    def run(self, state, work: Path) -> list[Op]:
        return [_attempt("testbed", testbed.run_testbed, state["spec"], seed=derive_seed(state["seed"], "chart"))]

    def check(self, state, ops: list[Op]) -> Outcome:
        out = Outcome(attempted=len(ops))
        (op,) = ops
        out.quality["letter_accuracy"] = 0.0
        if op.error:
            out.fail(op.name, op.error)
            return out
        report = op.result
        n_letters = len(state["spec"].message.letters)
        n_test = self._stimuli(state["spec"], self.TEST_ITEMS)
        conf = report.confusion
        if conf.shape != (n_letters, n_letters) or int(conf.sum()) != n_test:
            out.fail(op.name, f"confusion {conf.shape} sums to {int(conf.sum())}, expected {n_test}")
        elif not math.isclose(report.overall_accuracy, np.trace(conf) / n_test):
            out.fail(op.name, "overall accuracy disagrees with the confusion matrix")
        out.quality["letter_accuracy"] = float(report.overall_accuracy)
        return out


WORKLOADS = {w.name: w for w in (Acquire(), Train(), Locate(), Chart())}
