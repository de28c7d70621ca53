import numpy as np
import pytest

from emgleam import testbed
from emgleam.dataset import simulate
from emgleam.errors import ValidationError
from emgleam.raster import render_eyechart
from emgleam.testbed import (
    INPUT_SIDE,
    AppearanceDim,
    AttackerModelSpec,
    HardwareDim,
    MessageDim,
    ProfilingDim,
    ResourcesDim,
    generate_stimuli,
    make_panel_profile,
    parse_spec_file,
    run_testbed,
)
from emgleam.util import derive_seed

PANEL = make_panel_profile(128, 192)

SPEC_TEXT = """\
[message]
letters = C,D,E,F,L,N,O,P,T,Z
priors = uniform

[message_appearance]
scales = 1,1.2,1.5,2,2.5,3,4,5,7,10,20
contrast = 1.0
background = white

[attack_hardware]
profile = custom
visible_w = 128
visible_h = 192
sample_rate_hz = 5e6
bandwidth_hz = 2.5e6
target_snr_db = 25
distance_r = 1.0
frames = 1

[device_profiling]
train_items_per_class_per_scale = 2,2
test_items_per_class_per_scale = 2

[computational_resources]
epochs = 5
batch_size = 128
learning_rate = 0.001
"""


def tiny_spec(letters="CT", scales=(10.0,), snr=25.0,
              train_items=(3,), test_items=(3,), epochs=4, batch_size=32):
    return AttackerModelSpec(
        message=MessageDim(letters=letters),
        appearance=AppearanceDim(scales=scales),
        hardware=HardwareDim(profile=PANEL, sample_rate_hz=5e6, bandwidth_hz=2.5e6,
                             target_snr_db=snr),
        profiling=ProfilingDim(train_items=train_items, test_items=test_items),
        resources=ResourcesDim(epochs=epochs, batch_size=batch_size),
    )


class TestSpecValidation:
    def test_default_stimulus_count_is_110(self):
        spec = tiny_spec(letters="CDEFLNOPTZ",
                         scales=(1, 1.2, 1.5, 2, 2.5, 3, 4, 5, 7, 10, 20))
        assert len(generate_stimuli(spec)) == 110

    def test_50_per_class_per_scale_gives_5500(self):
        spec = tiny_spec(letters="CDEFLNOPTZ",
                         scales=(1, 1.2, 1.5, 2, 2.5, 3, 4, 5, 7, 10, 20))
        assert len(generate_stimuli(spec, repetitions=50)) == 5500

    def test_single_stimulus(self):
        spec = tiny_spec(letters="C", scales=(20.0,))
        stimuli = generate_stimuli(spec, repetitions=1)
        assert len(stimuli) == 1
        assert (stimuli[0].letter, stimuli[0].scale) == ("C", 20.0)

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            MessageDim(letters="AB")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValidationError, match="unknown scale"):
            AppearanceDim(scales=(6.0,))

    def test_duplicate_letter_rejected(self):
        # a repeated letter would be a class that never gets a label
        with pytest.raises(ValidationError, match="letter E listed twice"):
            MessageDim(letters="CEE")

    def test_duplicate_scale_rejected(self):
        with pytest.raises(ValidationError, match="scale 2 listed twice"):
            AppearanceDim(scales=(2, 10, 2.0))

    def test_profiling_needs_sessions(self):
        with pytest.raises(ValidationError, match="sessions"):
            ProfilingDim(train_items=(), test_items=(1,))

    @pytest.mark.parametrize("kwargs, message", [
        ({"epochs": 0}, "epochs and batch_size must be >= 1"),
        ({"batch_size": 0}, "epochs and batch_size must be >= 1"),
        ({"learning_rate": -1.0}, "learning rate -1.0 must be finite and non-negative"),
        ({"learning_rate": float("nan")}, "learning rate nan must be finite and non-negative"),
        ({"learning_rate": float("inf")}, "learning rate inf must be finite and non-negative"),
    ])
    def test_resources_are_checked_as_a_train_config(self, kwargs, message):
        # at spec construction, before any stimulus is simulated
        with pytest.raises(ValidationError, match=f"resources dimension: {message}"):
            ResourcesDim(**kwargs)

    def test_growth_defaults_follow_pairs(self):
        assert ProfilingDim(train_items=(1,) * 10, test_items=(1,)).stages() == (2, 4, 6, 8, 10)
        assert ProfilingDim(train_items=(1,) * 5, test_items=(1,)).stages() == (2, 4, 5)
        assert ProfilingDim(train_items=(1,), test_items=(1,)).stages() == (1,)


class TestSpecFile:
    def test_parse_full_file(self, tmp_path):
        path = tmp_path / "model.ini"
        path.write_text(SPEC_TEXT)
        spec = parse_spec_file(path)
        assert spec.message.letters == "CDEFLNOPTZ"
        assert len(spec.appearance.scales) == 11
        assert spec.hardware.sample_rate_hz == 5e6
        assert spec.hardware.target_snr_db == 25.0
        assert spec.profiling.train_items == (2, 2)
        assert spec.resources.epochs == 5

    @pytest.mark.parametrize("kept, resources", [
        ("epochs = 3", ResourcesDim(epochs=3)),
        ("learning_rate = 0.01", ResourcesDim(learning_rate=0.01)),
    ], ids=["epochs", "learning_rate"])
    def test_left_out_keys_take_the_dimension_defaults(self, tmp_path, kept, resources):
        # each section keeps one key, as a section may not be empty
        path = tmp_path / "sparse.ini"
        path.write_text(
            "[message]\npriors = uniform\n\n"
            "[message_appearance]\nbackground = white\n\n"
            "[attack_hardware]\nprofile = custom\nvisible_w = 128\nvisible_h = 192\n\n"
            "[device_profiling]\ntrain_items_per_class_per_scale = 2\ntest_items_per_class_per_scale = 2\n\n"
            f"[computational_resources]\n{kept}\n"
        )
        spec = parse_spec_file(path)
        assert spec.message == MessageDim()
        assert spec.appearance == AppearanceDim()
        assert spec.hardware == HardwareDim(PANEL, sample_rate_hz=PANEL.sample_rate_hz,
                                            bandwidth_hz=PANEL.bandwidth_hz, target_snr_db=None)
        assert spec.resources == resources

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(SPEC_TEXT.replace("[computational_resources]", "[something_else]"))
        with pytest.raises(ValidationError, match="incomplete"):
            parse_spec_file(path)

    def test_builtin_profile_reference(self, tmp_path):
        text = SPEC_TEXT.replace(
            "profile = custom\nvisible_w = 128\nvisible_h = 192\n", "profile = iphone6s\n"
        )
        path = tmp_path / "builtin.ini"
        path.write_text(text)
        spec = parse_spec_file(path)
        assert spec.hardware.profile.name == "iphone6s"

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            parse_spec_file(tmp_path / "absent.ini")

    @pytest.mark.parametrize("line, replacement, message", [
        ("priors = uniform", "priors = zipf", "message dimension: only uniform priors are supported"),
        ("background = white", "background = black",
         "appearance dimension: only a plain white background is supported"),
    ])
    def test_unsupported_priors_or_background_rejected(self, tmp_path, line, replacement, message):
        path = tmp_path / "unsupported.ini"
        path.write_text(SPEC_TEXT.replace(line, replacement))
        with pytest.raises(ValidationError) as info:
            parse_spec_file(path)
        assert str(info.value) == message


class TestRunTestbed:
    def test_report_covers_every_cell_and_is_deterministic(self):
        spec = tiny_spec(letters="CTZ", scales=(5.0, 20.0), train_items=(2,), test_items=(2,), epochs=3)
        a = run_testbed(spec, seed=11)
        b = run_testbed(spec, seed=11)
        assert a.as_dict() == b.as_dict()
        assert set(a.per_scale_accuracy) == {5.0, 20.0}
        assert set(a.per_letter_accuracy) == set("CTZ")
        assert a.confusion.shape == (3, 3)
        # rows sum to the per-class test item count: scales * reps
        assert list(a.confusion.sum(axis=1)) == [4, 4, 4]
        assert len(a.stages) == 1

    def test_different_seeds_differ(self):
        spec = tiny_spec(letters="CT", scales=(20.0,), epochs=2)
        a = run_testbed(spec, seed=1)
        b = run_testbed(spec, seed=2)
        assert a.metadata["seed"] != b.metadata["seed"]

    def test_clean_large_scale_is_learnable(self):
        # noiseless repetitions are identical, so enough of them are needed
        # for every (letter, scale) cell to survive the 80/10/10 split
        spec = tiny_spec(letters="CTZOE", scales=(10.0, 20.0), snr=None,
                         train_items=(5,), test_items=(3,), epochs=40)
        report = run_testbed(spec, seed=5)
        assert report.per_scale_accuracy[10.0] >= 0.95
        assert report.per_scale_accuracy[20.0] >= 0.95

    def test_report_serialization(self, tmp_path):
        spec = tiny_spec(letters="CT", scales=(20.0,), epochs=2)
        report = run_testbed(spec, seed=3)
        report.save(tmp_path)
        assert (tmp_path / "report.json").exists()
        csv_lines = (tmp_path / "per_scale.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "scale,accuracy"
        assert len(csv_lines) == 2
        assert (tmp_path / "confusion.pgm").exists()


class TestSharedSynthesis:
    """The testbed synthesises each letter/scale raster once for all its
    items; its stimuli must equal one ``simulate`` per item."""

    @pytest.mark.parametrize("snr", [20.0, None, 0.0])
    def test_collected_stimuli_match_a_simulate_loop(self, monkeypatch, snr):
        # no noise level reaches a 0 dB target, so the noise sigma saturates at its cap
        spec = tiny_spec(letters="CTZ", scales=(5.0, 20.0), snr=snr,
                         train_items=(2, 1), test_items=(3,), epochs=1)
        collected = []

        def recording(spec, sessions):
            out = collect(spec, sessions)
            collected.extend(out)
            return out

        collect = testbed._collect_sessions
        monkeypatch.setattr(testbed, "_collect_sessions", recording)
        run_testbed(spec, seed=6)

        sessions = [(2, derive_seed(6, "train-session", 0)), (1, derive_seed(6, "train-session", 1)),
                    (3, derive_seed(6, "test-session", 0))]
        assert len(collected) == len(sessions)
        for (reps, session_seed), (images, labels, stimuli) in zip(sessions, collected):
            want = np.empty((len(stimuli), INPUT_SIDE, INPUT_SIDE), dtype=np.float32)
            for i, st in enumerate(stimuli):
                raster = render_eyechart(st.letter, st.scale, PANEL.visible_w, PANEL.visible_h)
                emage = simulate(raster, spec.hardware, derive_seed(session_seed, "item", i))
                want[i] = testbed._emage_to_input(emage.pixels, PANEL)
            assert len(stimuli) == 3 * 2 * reps
            assert np.array_equal(images, want)
            assert np.array_equal(labels, ["CTZ".index(st.letter) for st in stimuli])
            assert labels.dtype == np.int64
