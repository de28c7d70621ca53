import hashlib
import inspect
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from emgleam import dataset
from emgleam.dataset import (
    HardwareDim,
    Session,
    SessionItem,
    SplitPlan,
    build_training_sets,
    grid_crop,
    load_items,
    load_session,
    load_training_set,
    run_code_session,
    run_session,
)
from emgleam.errors import ValidationError
from emgleam.pgmio import write_pgm
from emgleam.profiles import get_profile
from emgleam.raster import render_digit_grid
from emgleam.receiver import Emage
from emgleam.util import dump_json


def tree_hash(directory) -> str:
    h = hashlib.sha256()
    for f in sorted(Path(directory).rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(directory)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def synthetic_emage(w=84, h=62, seed=0):
    rng = np.random.default_rng(seed)
    return Emage(rng.random((h, w)).astype(np.float32), 1, {})


def fake_session(sid: str, flagged=False, n_items=10) -> Session:
    # ten items by default: an 80/10/10 split then leaves train and val non-empty
    items = [SessionItem(f"items/item_{j:06d}.pgm", str(j % 10), (0, 0, 21, 31), 0)
             for j in range(n_items)]
    return Session(
        id=sid, profile="iphone6s", kind="grid", seed=0, directory=Path("/nonexistent"),
        items=items, quality={"mean_dynamic_range": 0.5, "flagged": flagged},
    )


class TestGridCrop:
    def test_40x40_gives_1600_crops(self):
        emage = synthetic_emage(40 * 21, 40 * 31)
        crops = grid_crop(emage, 40, 40, 21, 31)
        assert len(crops) == 1600
        assert all(c.pixels.shape == (31, 21) for c in crops)

    def test_identity_crop(self):
        emage = synthetic_emage(21, 31)
        (only,) = grid_crop(emage, 1, 1, 21, 31)
        assert np.array_equal(only.pixels, emage.pixels)

    def test_reassembly_is_bit_exact(self):
        emage = synthetic_emage(7 * 5, 6 * 4, seed=3)
        crops = grid_crop(emage, 6, 7, 5, 4)
        rebuilt = np.block([[crops[r * 7 + c].pixels for c in range(7)] for r in range(6)])
        assert np.array_equal(rebuilt, emage.pixels[: 6 * 4, : 7 * 5])

    def test_overflow_rejected(self):
        with pytest.raises(ValidationError, match="overflow"):
            grid_crop(synthetic_emage(50, 50), 3, 3, 20, 20)


@pytest.fixture(scope="module")
def small_grid_session(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    profile = get_profile("iphone6s")
    session = run_session(profile, root, session_id="g0", rows=40, cols=40,
                          screens=1, seed=42, target_snr_db=25.0)
    return root, session


class TestGridSession:
    def test_item_count_is_rows_cols_screens(self, small_grid_session):
        _, session = small_grid_session
        assert len(session.items) == 40 * 40 * 1
        # the spec's default corpus: 40x40 cells over 20 screens per session
        sig = inspect.signature(run_session)
        defaults = {k: v.default for k, v in sig.parameters.items()}
        assert defaults["rows"] * defaults["cols"] * defaults["screens"] == 32000

    def test_crop_geometry_matches_profile(self, small_grid_session):
        _, session = small_grid_session
        widths = {it.crop[2] for it in session.items}
        heights = {it.crop[3] for it in session.items}
        assert widths == {21} and heights == {31}

    def test_items_exist_and_match_geometry(self, small_grid_session):
        root, session = small_grid_session
        for item in session.items[:20]:
            emage = Emage.load(session.item_path(item))
            assert (emage.width_px, emage.height_px) == (item.crop[2], item.crop[3])

    def test_label_balance_within_one(self, small_grid_session):
        _, session = small_grid_session
        counts = Counter(it.label for it in session.items)
        assert set(counts) == set("0123456789")
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_items_have_no_sidecars(self, small_grid_session):
        _, session = small_grid_session
        assert len(list(session.directory.rglob("*.pgm"))) == len(session.items)
        assert not list(session.directory.rglob("*.pgm.json"))

    def test_manifest_round_trip(self, small_grid_session):
        root, session = small_grid_session
        loaded = load_session(session.directory)
        assert loaded.manifest() == session.manifest()
        # byte-level: re-serializing the parsed manifest is identical
        raw = (session.directory / "manifest.json").read_text()
        reserialized = json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n"
        assert raw == reserialized

    def test_single_cell_session(self, tmp_path):
        profile = get_profile("iphone6s")
        session = run_session(profile, tmp_path, session_id="one", rows=1, cols=1,
                              screens=1, seed=0, target_snr_db=None)
        assert len(session.items) == 1
        assert session.items[0].crop == (0, 0, 840, 1240)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValidationError, match="unknown profile"):
            get_profile("pixel9")


class TestDeterminism:
    def test_equal_seeds_byte_identical(self, tmp_path):
        profile = get_profile("iphone6s")
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_session(profile, a, session_id="s", rows=8, cols=8, screens=1,
                    seed=7, target_snr_db=25.0)
        run_session(profile, b, session_id="s", rows=8, cols=8, screens=1,
                    seed=7, target_snr_db=25.0)
        assert tree_hash(a) == tree_hash(b)

    def test_workers_do_not_change_bytes(self, tmp_path):
        profile = get_profile("iphone6s")
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_session(profile, a, session_id="s", rows=8, cols=8, screens=2,
                    seed=9, target_snr_db=25.0, workers=1)
        run_session(profile, b, session_id="s", rows=8, cols=8, screens=2,
                    seed=9, target_snr_db=25.0, workers=3)
        assert tree_hash(a) == tree_hash(b)


@pytest.mark.parametrize("frames", [0, -1])
@pytest.mark.parametrize("kind", ["grid", "code"])
def test_bad_frame_count_is_validation_error(tmp_path, kind, frames):
    profile = get_profile("galaxy_a3")
    with pytest.raises(ValidationError, match="frames"):
        if kind == "grid":
            run_session(profile, tmp_path, rows=4, cols=4, screens=1, frames=frames)
        else:
            run_code_session(profile, tmp_path, n_codes=1, frames=frames)
    assert not (tmp_path / "sessions").exists()


@pytest.mark.parametrize("size", [dict(rows=0), dict(cols=0), dict(screens=0), dict(rows=-1)])
def test_zero_sized_grid_session_is_validation_error(tmp_path, size):
    shape = {"rows": 4, "cols": 4, "screens": 1, **size}
    with pytest.raises(ValidationError, match="rows, cols and screens >= 1"):
        run_session(get_profile("galaxy_a3"), tmp_path, **shape)
    assert not (tmp_path / "sessions").exists()


@pytest.mark.parametrize("n_codes", [0, -1])
def test_zero_sized_code_session_is_validation_error(tmp_path, n_codes):
    with pytest.raises(ValidationError, match="n_codes >= 1"):
        run_code_session(get_profile("galaxy_a3"), tmp_path, n_codes=n_codes)
    assert not (tmp_path / "sessions").exists()


@pytest.mark.parametrize("snr", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_snr_is_validation_error(snr):
    profile = get_profile("galaxy_a3")
    with pytest.raises(ValidationError, match="must be finite"):
        HardwareDim(profile, profile.sample_rate_hz, profile.bandwidth_hz, snr)


class TestCodeSession:
    def test_default_parameters_match_protocol(self):
        sig = inspect.signature(run_code_session)
        defaults = {k: v.default for k, v in sig.parameters.items()}
        assert defaults["n_codes"] == 200  # 200 messages per test session
        assert defaults["frames"] == 2  # each frame repeated twice

    def test_code_session_items(self, tmp_path):
        profile = get_profile("iphone6s")
        session = run_code_session(profile, tmp_path, session_id="c", n_codes=2,
                                   seed=3, target_snr_db=25.0)
        assert len(session.items) == 2
        for item in session.items:
            assert len(item.label) == 6 and item.label.isdigit()
            assert (item.crop[2], item.crop[3]) == (126, 31)
        assert session.params["frames"] == 2
        assert not list(session.directory.rglob("*.pgm.json"))


class TestQualityGate:
    def test_contrast_zero_session_is_flagged(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset, "render_digit_grid",
                            lambda *args: render_digit_grid(*args, contrast=0.0))
        profile = get_profile("iphone6s")
        session = run_session(profile, tmp_path, session_id="blank", rows=8, cols=8,
                              screens=1, seed=1, target_snr_db=None)
        assert session.quality["mean_dynamic_range"] < 0.2
        assert session.flagged

    def test_flagged_sessions_excluded_from_splits(self):
        sessions = [fake_session(f"s{i}") for i in range(4)] + [fake_session("s4", flagged=True)]
        sets = build_training_sets(sessions, schedule=(1, 2), n_test=2)
        for ts in sets:
            assert "s4" not in ts.plan.train_sessions
            assert "s4" not in ts.plan.test_sessions


class TestTrainingSets:
    def make_sessions(self, tmp_path, n=9):
        # lightweight synthetic sessions: hand-written manifests and items
        sessions = []
        for i in range(n):
            sid = f"s{i}"
            d = tmp_path / "sessions" / sid
            items = []
            rng = np.random.default_rng(i)
            for j in range(20):
                rel = f"items/item_{j:06d}.pgm"
                write_pgm(d / rel, rng.random((31, 21)))
                items.append({"path": rel, "label": str(j % 10),
                              "crop": {"x": 0, "y": 0, "w": 21, "h": 31}, "screen": 0})
            dump_json(d / "manifest.json", {
                "id": sid, "profile": "iphone6s", "kind": "grid", "seed": i,
                "params": {}, "quality": {"mean_dynamic_range": 0.9, "flagged": False},
                "items": items,
            })
            sessions.append(load_session(d))
        return sessions

    def test_default_schedule_nested_with_fixed_test_pair(self, tmp_path):
        sessions = self.make_sessions(tmp_path)
        sets = build_training_sets(sessions, schedule=(1, 3, 5, 7), n_test=2, seed=0)
        assert [ts.name for ts in sets] == ["training1", "training2", "training3", "training4"]
        test_pairs = {ts.plan.test_sessions for ts in sets}
        assert test_pairs == {("s7", "s8")}
        for a, b in zip(sets, sets[1:]):
            assert set(a.plan.train_sessions) < set(b.plan.train_sessions)

    def test_fraction_sizes(self, tmp_path):
        sessions = self.make_sessions(tmp_path)
        (ts,) = build_training_sets(sessions, schedule=(7,), n_test=2, seed=0)
        n = 7 * 20
        assert len(ts.train) == int(0.8 * n)
        assert len(ts.val) == int(0.1 * n)
        assert len(ts.train) + len(ts.val) + len(ts.test_internal) == n

    def test_no_leakage_between_splits(self, tmp_path):
        sessions = self.make_sessions(tmp_path)
        for ts in build_training_sets(sessions, schedule=(1, 3, 5, 7), n_test=2, seed=1):
            buckets = [set(ts.train), set(ts.val), set(ts.test_internal)]
            assert not (buckets[0] & buckets[1])
            assert not (buckets[0] & buckets[2])
            assert not (buckets[1] & buckets[2])
            test_session_items = {f"sessions/{sid}/" for sid in ts.plan.test_sessions}
            for path in ts.train + ts.val + ts.test_internal:
                assert not any(path.startswith(p) for p in test_session_items)

    def test_minimal_schedule(self, tmp_path):
        sessions = self.make_sessions(tmp_path, 3)
        sets = build_training_sets(sessions, schedule=(1,), n_test=2)
        assert len(sets) == 1
        assert sets[0].plan.train_sessions == ("s0",)

    def test_empty_validation_part_rejected(self):
        # 4 items split 80/10/10 leave 3 train / 0 val / 1 internal-test
        sessions = [fake_session(f"s{i}", n_items=4) for i in range(3)]
        with pytest.raises(ValidationError, match="training1: 4 items .* 3 train / 0 val"):
            build_training_sets(sessions, schedule=(1,), n_test=1)

    @pytest.mark.parametrize("schedule, n_test, message", [
        ((-1,), 2, "at least one session"),
        ((0,), 2, "at least one session"),
        ((1, 0), 2, "at least one session"),
        ((), 2, "at least one session"),
        ((1,), -1, "cannot be negative"),
    ])
    def test_schedule_below_one_or_negative_test_count_rejected(self, schedule, n_test, message):
        # (-1,) once trained on all pool sessions but the last; n_test = -1 held out none
        sessions = [fake_session(f"s{i}") for i in range(4)]
        with pytest.raises(ValidationError, match=message):
            build_training_sets(sessions, schedule=schedule, n_test=n_test)

    @pytest.mark.parametrize("label", ["x", "12a456", "", "\u0663", 7])
    def test_label_that_is_not_ascii_digits_names_the_manifest(self, tmp_path, label):
        sessions = self.make_sessions(tmp_path, 1)
        manifest = sessions[0].directory / "manifest.json"
        record = json.loads(manifest.read_text())
        record["items"][3]["label"] = label
        manifest.write_text(json.dumps(record))
        with pytest.raises(ValidationError, match=f"^{re.escape(str(manifest))}: label .* is not ASCII digits"):
            load_session(sessions[0].directory)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(manifest))}: label .* is not ASCII digits"):
            load_items(tmp_path, ["sessions/s0/items/item_000000.pgm"])

    def test_load_items_needs_paths(self, tmp_path):
        with pytest.raises(ValidationError, match="no item paths"):
            load_items(tmp_path, [])

    def test_insufficient_sessions_rejected(self, tmp_path):
        sessions = self.make_sessions(tmp_path, 5)
        with pytest.raises(ValidationError, match="needs 9"):
            build_training_sets(sessions, schedule=(1, 3, 5, 7), n_test=2)

    def test_split_file_round_trip(self, tmp_path):
        sessions = self.make_sessions(tmp_path)
        (ts,) = build_training_sets(sessions, schedule=(3,), n_test=2, seed=5)
        path = tmp_path / "splits" / "training1.json"
        ts.save(path)
        again = load_training_set(path)
        assert again.as_dict() == ts.as_dict()
        assert "mode" not in json.loads(path.read_text())

    def test_split_file_with_mode_key_loads(self, tmp_path):
        # split files written by earlier versions carry "mode": "session"
        sessions = self.make_sessions(tmp_path)
        (ts,) = build_training_sets(sessions, schedule=(3,), n_test=2, seed=5)
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"mode": "session", **ts.as_dict()}))
        assert load_training_set(path).as_dict() == ts.as_dict()

    def test_load_items_reads_labels(self, tmp_path):
        sessions = self.make_sessions(tmp_path, 3)
        paths = [f"sessions/s0/{it.path}" for it in sessions[0].items[:5]]
        x, y, raw = load_items(tmp_path, paths)
        assert x.shape == (5, 31, 21)
        assert list(y) == [0, 1, 2, 3, 4]
        assert raw == ["0", "1", "2", "3", "4"]

    def test_load_items_follows_a_rewritten_session(self, tmp_path):
        # a session re-run into the same root and id with another seed
        # rewrites items and manifest; labels must come from the new one
        profile = get_profile("galaxy_a3")
        first = run_session(profile, tmp_path, session_id="s", rows=4, cols=4, screens=1, seed=1)
        paths = [f"sessions/s/{it.path}" for it in first.items]
        load_items(tmp_path, paths)
        second = run_session(profile, tmp_path, session_id="s", rows=4, cols=4, screens=1, seed=2)
        assert [it.label for it in second.items] != [it.label for it in first.items]
        _, _, raw = load_items(tmp_path, paths)
        assert raw == [it.label for it in load_session(tmp_path / "sessions" / "s").items]


class TestSplitPlan:
    def test_split_file_fractions_are_ignored(self, tmp_path):
        record = {"name": "training1", "fractions": [0.5, 0.25, 0.25], "mode": "session",
                  "train_sessions": ["a"], "test_sessions": ["b"],
                  "train": ["sessions/a/items/item_000000.pgm"], "val": [], "test_internal": []}
        (tmp_path / "old.json").write_text(json.dumps(record))
        load_training_set(tmp_path / "old.json").save(tmp_path / "new.json")
        del record["mode"], record["fractions"]  # read from older files, never written
        assert json.loads((tmp_path / "new.json").read_text()) == record

    def test_session_lists_must_be_disjoint(self):
        with pytest.raises(ValidationError, match="overlap"):
            SplitPlan(train_sessions=("a",), test_sessions=("a",))
