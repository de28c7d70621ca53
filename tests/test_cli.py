import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from emgleam.classifier import CnnSpec, init_model, save_model
from emgleam.cli import build_parser, main
from emgleam.emanator import DisplayTiming, IqRecording


def run(args):
    return main([str(a) for a in args])


class TestBasics:
    def test_usage_error_exits_1(self, capsys):
        assert run(["render", "--no-such-flag"]) == 1
        assert run(["no-such-command"]) == 1

    @pytest.mark.parametrize("argv", [
        ["emanate", "m.pgm", "--profile", "galaxy_a3", "--coupling", 1, "-o", "m.iq"],
        ["reconstruct", "m.iq", "--seed", 1, "-o", "e.pgm"],
        ["snr", "m.iq", "--seed", 1],
        ["crop", "e.pgm", "--rows", 1, "--cols", 1, "--cell", "1x1", "--seed", 1, "-o", "c"],
        ["attack", "--model", "m.bin", "--session", "s", "--seed", 1, "-o", "r.json"],
        ["emanate", "m.pgm", "--profile", "galaxy_a3", "--alpha", 0.5, "-o", "m.iq"],
        ["snr", "m.iq", "--band", 1e6],
        ["snr", "m.iq", "--resolution", 5e3],
    ], ids=["emanate-coupling", "reconstruct-seed", "snr-seed", "crop-seed", "attack-seed",
            "emanate-alpha", "snr-band", "snr-resolution"])
    def test_flags_that_change_no_output_are_usage_errors(self, capsys, argv):
        # a coupling gain cancels against the SNR-calibrated noise; these four draw no random
        # numbers; the emission is the first difference, and the meter reads the calibration's
        # estimator over the whole band
        assert run(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["emanate", "m.pgm", "--profile", "galaxy_a3", "--center", 1e9, "-o", "m.iq"],
        ["snr", "m.iq", "--center", 0],
    ], ids=["emanate", "snr"])
    def test_center_is_usage_error(self, capsys, argv):
        # a capture is tuned to the leak's carrier, and the meter centres on the capture
        assert run(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_walkthrough_parses(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## CLI walkthrough\n\n```sh\n(.*?)```", text, re.S).group(1)
        lines = [line.strip() for line in block.replace("\\\n", " ").splitlines()]
        commands = [shlex.split(line.replace("$i", "0"), comments=True)
                    for line in lines if line.startswith("emgleam ")]
        assert {argv[1] for argv in commands} == {"render", "emanate", "reconstruct", "snr", "session",
                                                  "split", "train", "attack", "testbed", "gradcheck"}
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])

    def test_threads_only_on_session(self, tmp_path, capsys):
        # session is the one stage that simulates screens in parallel
        assert run(["render", "--message", "123456", "--threads", "2", "-o", tmp_path / "m.pgm"]) == 1
        assert not (tmp_path / "m.pgm").exists()
        assert build_parser().parse_args(["session", "--profile", "galaxy_a3", "--threads", "2"]).threads == 2

    def test_help_exits_0(self):
        assert run(["--help"]) == 0

    def test_validation_error_exits_2(self, tmp_path):
        assert run(["render", "--message", "123", "-o", tmp_path / "x.pgm"]) == 2

    def test_non_numeric_emanate_snr_is_validation_error(self, tmp_path, capsys):
        assert run(["render", "--message", "123456", "-o", tmp_path / "m.pgm"]) == 0
        assert run(["emanate", tmp_path / "m.pgm", "--profile", "galaxy_a3", "--snr", "abc",
                    "-o", tmp_path / "m.iq"]) == 2
        assert "error: --snr expects a number" in capsys.readouterr().err
        assert not (tmp_path / "m.iq").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--frames", 0], "frames must be >= 1"),
        (["--frames", -1], "frames must be >= 1"),
        (["--frames", 0, "--snr", 20], "frames must be >= 1"),
        (["--snr", "nan"], "must be finite"),
        (["--snr", "inf"], "must be finite"),
        (["--snr=-inf"], "must be finite"),
        (["--sample-rate", "nan"], "must be finite and positive"),
        (["--sample-rate", "inf"], "must be finite and positive"),
        (["--bandwidth", "nan"], "must be finite and positive"),
        (["--distance", 0], "distance_r 0.0 must be finite and positive"),
        (["--distance", "inf"], "distance_r inf must be finite and positive"),
        # 0 is a value, not "use the profile's rate"
        (["--sample-rate", 0], "must be finite and positive"),
        (["--bandwidth", 0], "must be finite and positive"),
    ])
    def test_bad_emanate_frames_or_snr_is_validation_error(self, tmp_path, capsys, flags, message):
        assert run(["render", "--message", "123456", "--screen", "540x960",
                    "-o", tmp_path / "m.pgm"]) == 0
        assert run(["emanate", tmp_path / "m.pgm", "--profile", "galaxy_a3", *flags,
                    "-o", tmp_path / "m.iq"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.iq").exists()

    def test_unknown_profile_lists_alternatives(self, tmp_path, capsys):
        rc = run(["render", "--message", "123456", "-o", tmp_path / "m.pgm"])
        assert rc == 0
        rc = run(["emanate", tmp_path / "m.pgm", "--profile", "nokia3310",
                  "-o", tmp_path / "m.iq"])
        assert rc == 2
        err = capsys.readouterr().err
        for name in ("iphone6s", "iphone6a", "iphone6b", "honor6x", "galaxy_a3"):
            assert name in err


class TestRender:
    def test_eyechart_smoke(self, tmp_path):
        out = tmp_path / "c20.pgm"
        assert run(["render", "--eyechart", "C", "--scale", "20", "-o", out]) == 0
        assert out.exists()
        sidecar = json.loads((tmp_path / "c20.pgm.json").read_text())
        assert sidecar[0]["label"] == "C"
        echo = json.loads((tmp_path / "c20.pgm.config.json").read_text())
        assert echo["command"] == "render"
        assert echo["scale"] == 20.0

    def test_digit_grid_with_explicit_digits(self, tmp_path):
        out = tmp_path / "g.pgm"
        assert run(["render", "--digit-grid", "2x2", "--digits", "1234",
                    "--screen", "64x64", "-o", out]) == 0
        sidecar = json.loads((tmp_path / "g.pgm.json").read_text())
        assert [r["label"] for r in sidecar] == ["1", "2", "3", "4"]

    @pytest.mark.parametrize("mode", [
        ["--message", "123456"],
        ["--eyechart", "C", "--scale", "20"],
        ["--digit-grid", "2x2", "--digits", "1234"],
    ], ids=["message", "eyechart", "explicit-digits"])
    def test_seed_outside_random_digits_is_validation_error(self, tmp_path, capsys, mode):
        out = tmp_path / "x.pgm"
        assert run(["render", *mode, "--seed", 1, "-o", out]) == 2
        assert "--digits random" in capsys.readouterr().err
        assert not out.exists()
        assert run(["render", *mode, "-o", out]) == 0
        assert "seed" not in json.loads((tmp_path / "x.pgm.config.json").read_text())

    def test_seed_draws_the_random_digits(self, tmp_path):
        outs = [tmp_path / f"{seed}.pgm" for seed in (1, 2)]
        for seed, out in zip((1, 2), outs):
            assert run(["render", "--digit-grid", "3x3", "--seed", seed,
                        "--screen", "96x96", "-o", out]) == 0
            assert json.loads(Path(str(out) + ".config.json").read_text())["seed"] == seed
        assert outs[0].read_bytes() != outs[1].read_bytes()
        assert run(["render", "--digit-grid", "3x3", "--screen", "96x96", "-o", tmp_path / "0.pgm"]) == 0
        assert json.loads((tmp_path / "0.pgm.config.json").read_text())["seed"] == 0

    def test_idempotent_bytes(self, tmp_path):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        for out in (a, b):
            assert run(["render", "--digit-grid", "3x3", "--seed", 5,
                        "--screen", "96x96", "-o", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_exactly_one_mode_required(self, tmp_path):
        assert run(["render", "-o", tmp_path / "x.pgm"]) == 2
        assert run(["render", "--message", "123456", "--eyechart", "C",
                    "--scale", "2", "-o", tmp_path / "x.pgm"]) == 2


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """render -> emanate -> reconstruct on the smallest real profile."""
    d = tmp_path_factory.mktemp("cli-pipe")
    raster = d / "m.pgm"
    iq = d / "m.iq"
    emage = d / "m_emage.pgm"
    assert run(["render", "--message", "405162", "--screen", "540x960", "-o", raster]) == 0
    assert run(["emanate", raster, "--profile", "galaxy_a3", "--snr", "25.9",
                "--seed", 3, "-o", iq]) == 0
    assert run(["reconstruct", iq, "--profile", "galaxy_a3", "-o", emage]) == 0
    return d


class TestPipeline:
    def test_reconstruct_wrote_emage_and_sidecar(self, pipeline):
        meta = json.loads((pipeline / "m_emage.pgm.json").read_text())
        assert meta["frames_averaged"] == 1
        assert meta["params"]["width_px"] == 594
        assert meta["source"]["timing"]["x_t"] == 594

    def test_snr_matches_request(self, pipeline, capsys):
        assert run(["snr", pipeline / "m.iq"]) == 0
        out = capsys.readouterr().out
        value = float(out.split("SNR:")[1].split("dB")[0])
        assert value == pytest.approx(25.9, abs=0.5)
        assert (pipeline / "m.iq.snr.json").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["reconstruct", "snr"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_sample_exits_2(self, pipeline, tmp_path, capsys, command, bad):
        path = tmp_path / "m.iq"
        data = np.fromfile(pipeline / "m.iq", "<f4")
        data[200_001] = bad  # the Q of one sample
        data.tofile(path)
        (tmp_path / "m.iq.json").write_bytes((pipeline / "m.iq.json").read_bytes())
        # the reader returns the file's bits, NaN or inf included
        assert IqRecording.load(path).samples.tobytes() == path.read_bytes()
        out = tmp_path / ("e.pgm" if command == "reconstruct" else "m.snr.json")
        extra = ["--profile", "galaxy_a3"] if command == "reconstruct" else []
        assert run([command, path, *extra, "-o", out]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_emanate_determinism(self, pipeline):
        d = pipeline
        again = d / "again.iq"
        assert run(["emanate", d / "m.pgm", "--profile", "galaxy_a3", "--snr", "25.9",
                    "--seed", 3, "-o", again]) == 0
        assert (d / "m.iq").read_bytes() == again.read_bytes()

    def test_crop_command(self, pipeline):
        outdir = pipeline / "crops"
        assert run(["crop", pipeline / "m_emage.pgm", "--rows", 4, "--cols", 4,
                    "--cell", "21x31", "-o", outdir]) == 0
        index = json.loads((outdir / "index.json").read_text())
        assert len(index) == 16
        assert (outdir / index[0]).exists()
        assert sorted(p.name for p in outdir.iterdir()) == sorted(index + ["index.json",
                                                                      "index.json.config.json"])

    @pytest.mark.parametrize("flags, message", [
        (["--width", 0], "reconstruction grid must be positive"),
        (["--height", 0], "reconstruction grid must be positive"),
        (["--frame-rate", 0], "frame rate must be positive"),
        (["--profile", "galaxy_a3", "--width", 0], "reconstruction grid must be positive"),
    ])
    def test_zero_reconstruct_grid_or_rate_is_validation_error(self, pipeline, tmp_path, capsys,
                                                               flags, message):
        # 0 is a value, not "use the recording's or the profile's own"
        assert run(["reconstruct", pipeline / "m.iq", *flags, "-o", tmp_path / "e.pgm"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "e.pgm").exists()


class TestGradcheckCommand:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "gc.json"
        assert run(["gradcheck", "-o", out]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["max_rel_error"] < 1e-4
        assert "PASS" in capsys.readouterr().out


class TestDatasetCommands:
    def test_session_split_train_attack(self, tmp_path, capsys):
        root = tmp_path / "data"
        # two 40x40 grid sessions + one code session: a 40x40 grid cell is
        # one code digit (21x31 on iphone6s)
        for i in range(2):
            assert run(["session", "--profile", "iphone6s", "--kind", "grid",
                        "--rows", 40, "--cols", 40, "--screens", 1,
                        "--id", f"g{i}", "--seed", i, "--snr", "30",
                        "-o", root]) == 0
        assert run(["session", "--profile", "iphone6s", "--kind", "code",
                    "--codes", 2, "--id", "codes0", "--seed", 9, "--snr", "30",
                    "-o", root]) == 0

        # splits consider grid sessions only; the code session is ignored
        assert run(["split", "--dataset", root, "--schedule", "1",
                    "--test-sessions", "1", "--seed", 1]) == 0
        split_file = root / "splits" / "training1.json"
        split = json.loads(split_file.read_text())
        assert split["train_sessions"] == ["g0"]
        assert split["test_sessions"] == ["g1"]

        model_path = tmp_path / "model.bin"
        assert run(["train", "--dataset", root, "--split", split_file,
                    "--epochs", 4, "--seed", 2, "-o", model_path]) == 0
        assert model_path.exists()
        assert (tmp_path / "model.bin.history.json").exists()

        # fresh code session for the attack
        assert run(["session", "--profile", "iphone6s", "--kind", "code",
                    "--codes", 2, "--id", "codes1", "--seed", 10, "--snr", "30",
                    "-o", root]) == 0
        report_path = tmp_path / "report.json"
        assert run(["attack", "--model", model_path,
                    "--session", root / "sessions" / "codes1",
                    "--csv", tmp_path / "report.csv", "-o", report_path]) == 0
        report = json.loads(report_path.read_text())
        for key in ("exact_accuracy", "at_least_5_accuracy", "at_least_4_accuracy"):
            assert key in report
        assert (tmp_path / "report.csv").exists()

    # a 40x40 grid cell is one code digit: its (h, w), kernel and per-digit bound
    # per profile, then the accuracy on these seeds and on two other seed sets
    END_TO_END = {
        "galaxy_a3": ([24, 13], 3, 0.9),  # 1.000; 0.958-1.000
        "honor6x": ([45, 21], 5, 0.8),  # 1.000; 0.833, 0.917
        "iphone6a": ([31, 20], 5, 0.85),  # 0.958; 0.917, 1.000
        "iphone6b": ([31, 20], 5, 0.85),  # 0.958; 0.917, 1.000
    }

    @pytest.mark.parametrize("profile", END_TO_END)
    def test_profile_session_split_train_attack(self, tmp_path, capsys, profile):
        input_hw, kernel, bound = self.END_TO_END[profile]
        root = tmp_path / "data"
        for i in range(2):
            assert run(["session", "--profile", profile, "--kind", "grid",
                        "--rows", 40, "--cols", 40, "--screens", 1,
                        "--id", f"g{i}", "--seed", i, "--snr", "30", "-o", root]) == 0
        assert run(["session", "--profile", profile, "--kind", "code",
                    "--codes", 4, "--id", "codes0", "--seed", 9, "--snr", "30", "-o", root]) == 0
        assert run(["split", "--dataset", root, "--schedule", "1",
                    "--test-sessions", "1", "--seed", 1]) == 0
        model_path = tmp_path / "model.bin"
        assert run(["train", "--dataset", root, "--split", root / "splits" / "training1.json",
                    "--epochs", 10, "--seed", 2, "-o", model_path]) == 0
        spec = json.loads((tmp_path / "model.bin.config.json").read_text())["spec"]
        assert (spec["input_hw"], spec["kernel"]) == (input_hw, kernel)
        report_path = tmp_path / "report.json"
        assert run(["attack", "--model", model_path, "--session", root / "sessions" / "codes0",
                    "-o", report_path]) == 0
        accuracy = json.loads(report_path.read_text())["per_digit_accuracy"]
        print(f"{profile} per-digit accuracy {accuracy:.3f} over 24 digits (bound {bound})")
        assert accuracy >= bound

    def test_attack_with_a_model_of_another_crop_shape_exits_2(self, tmp_path, capsys):
        # a 10x10 grid cell is 52x96 on galaxy_a3, a code digit 13x24
        root = tmp_path / "data"
        for i in range(2):
            assert run(["session", "--profile", "galaxy_a3", "--kind", "grid",
                        "--rows", 10, "--cols", 10, "--screens", 1,
                        "--id", f"g{i}", "--seed", i, "--snr", "30", "-o", root]) == 0
        assert run(["session", "--profile", "galaxy_a3", "--kind", "code",
                    "--codes", 2, "--id", "codes0", "--seed", 9, "--snr", "30", "-o", root]) == 0
        assert run(["split", "--dataset", root, "--schedule", "1",
                    "--test-sessions", "1", "--seed", 1]) == 0
        model_path = tmp_path / "model.bin"
        assert run(["train", "--dataset", root, "--split", root / "splits" / "training1.json",
                    "--epochs", 1, "--seed", 2, "-o", model_path]) == 0
        capsys.readouterr()
        assert run(["attack", "--model", model_path, "--session", root / "sessions" / "codes0",
                    "-o", tmp_path / "report.json"]) == 2
        assert "crop 13x24 does not match the model input 52x96" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_data_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EMGLEAM_DATA_DIR", str(tmp_path / "envroot"))
        assert run(["session", "--profile", "galaxy_a3", "--kind", "grid",
                    "--rows", 4, "--cols", 4, "--screens", 1,
                    "--id", "e0", "--seed", 0, "--snr", "default"]) == 0
        assert (tmp_path / "envroot" / "sessions" / "e0" / "manifest.json").exists()

    def test_zero_frames_is_validation_error(self, tmp_path, capsys):
        assert run(["session", "--profile", "galaxy_a3", "--rows", 4, "--cols", 4,
                    "--screens", 1, "--frames", 0, "-o", tmp_path]) == 2
        assert "frames must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("word", ["none", "off"])
    def test_noiseless_session_is_validation_error(self, tmp_path, capsys, word):
        assert run(["session", "--profile", "galaxy_a3", "--rows", 4, "--cols", 4,
                    "--screens", 1, "--snr", word, "-o", tmp_path]) == 2
        assert "no noiseless capture" in capsys.readouterr().err
        assert not (tmp_path / "sessions").exists()

    def test_non_numeric_session_snr_is_validation_error(self, tmp_path, capsys):
        assert run(["session", "--profile", "galaxy_a3", "--snr", "abc", "-o", tmp_path]) == 2
        assert "error: --snr expects a number" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--rows", 0], ["--cols", 0], ["--screens", 0],
                                       ["--kind", "code", "--codes", 0]])
    def test_zero_sized_session_is_validation_error(self, tmp_path, capsys, flags):
        assert run(["session", "--profile", "galaxy_a3", *flags, "-o", tmp_path]) == 2
        assert ">= 1" in capsys.readouterr().err
        assert not (tmp_path / "sessions").exists()

    def test_empty_validation_split_is_validation_error(self, tmp_path, capsys):
        root = tmp_path / "data"
        for i in range(3):
            assert run(["session", "--profile", "galaxy_a3", "--rows", 2, "--cols", 2,
                        "--screens", 1, "--id", f"g{i}", "--seed", i, "-o", root]) == 0
        assert run(["split", "--dataset", root, "--schedule", 1, "--test-sessions", 1]) == 2
        assert "training1" in capsys.readouterr().err
        assert not (root / "splits").exists()
        # a split file with no val items (hand-written or from an older
        # version) stops train at load_items instead of a numpy error
        items = [f"sessions/g0/items/item_{j:06d}.pgm" for j in range(4)]
        split_file = tmp_path / "empty_val.json"
        split_file.write_text(json.dumps({
            "name": "training1", "fractions": [0.8, 0.1, 0.1], "train_sessions": ["g0"],
            "test_sessions": ["g2"], "train": items[:3], "val": [], "test_internal": items[3:],
        }))
        assert run(["train", "--dataset", root, "--split", split_file, "--epochs", 1,
                    "-o", tmp_path / "m.bin"]) == 2
        assert "no item paths" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()

    def test_missing_data_dir_is_validation_error(self, monkeypatch):
        monkeypatch.delenv("EMGLEAM_DATA_DIR", raising=False)
        assert run(["split", "--schedule", "1", "--test-sessions", "1"]) == 2


class TestMalformedInputs:
    """Bad flags and malformed files exit 2 with an ``error:`` line."""

    @pytest.mark.parametrize("flags, message", [
        (["--conv", "2"], "need two conv channel counts and two dense sizes, got [2] and [8, 6]"),
        (["--fc", "8"], "need two conv channel counts and two dense sizes, got [2, 3] and [8]"),
        (["--conv", "2,3,4"], "need two conv channel counts"),
        (["--conv", "a,b"], "--conv expects comma-separated integers, got 'a,b'"),
        (["--fc", "8,x"], "--fc expects comma-separated integers"),
    ])
    def test_bad_gradcheck_layer_lists(self, capsys, flags, message):
        assert run(["gradcheck", *flags]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, classes", [
        (["--rows", 4, "--cols", 4, "--screens", 1], 5),  # digit labels 0-9
        (["--kind", "code", "--codes", 10], 10),  # six-digit code labels
    ])
    def test_labels_outside_the_classes(self, tmp_path, capsys, flags, classes):
        root = tmp_path / "data"
        kind = "code" if "code" in flags else "grid"
        assert run(["session", "--profile", "galaxy_a3", *flags, "--id", "s0", "-o", root]) == 0
        assert run(["split", "--dataset", root, "--kind", kind, "--schedule", 1,
                    "--test-sessions", 0]) == 0
        capsys.readouterr()
        assert run(["train", "--dataset", root, "--split", root / "splits" / "training1.json",
                    "--classes", classes, "--epochs", 1, "-o", tmp_path / "m.bin"]) == 2
        assert f"outside the model's {classes} classes" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("content, message", [
        (b"# emgleam\n\nNot a split.\n", "not a JSON file"),
        (b"\xff\xfe\x00\x01", "not a JSON file"),
        (b"{}", "missing key 'train_sessions'"),
        (b'{"name": "training1", "fractions": [0.8, 0.1, 0.1]}', "missing key 'train_sessions'"),
        (b"[]", "malformed record"),
    ])
    def test_malformed_split_file(self, tmp_path, capsys, content, message):
        path = tmp_path / "split.json"
        path.write_bytes(content)
        assert run(["train", "--dataset", tmp_path, "--split", path, "-o", tmp_path / "m.bin"]) == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reconstruct", "snr"])
    @pytest.mark.parametrize("key, value, message", [
        ("center_freq_hz", None, "missing key 'center_freq_hz'"),
        ("sample_rate_hz", "fast", "malformed record"),
        ("timing", [1, 2], "malformed record"),
    ])
    def test_malformed_recording_sidecar(self, tmp_path, capsys, command, key, value, message):
        path = tmp_path / "r.iq"
        IqRecording(1e3, 0.0, np.ones(64, np.complex64), DisplayTiming.for_visible(8, 8)).save(path)
        sidecar = tmp_path / "r.iq.json"
        meta = json.loads(sidecar.read_text())
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        sidecar.write_text(json.dumps(meta))
        outputs = ["-o", tmp_path / "e.pgm"] if command == "reconstruct" else []
        assert run([command, path, *outputs]) == 2
        assert f"error: {sidecar}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "e.pgm").exists()

    @pytest.mark.parametrize("command", ["reconstruct", "snr"])
    @pytest.mark.parametrize("rate", [0.0, -25e6, float("nan"), float("inf")], ids=["0", "neg", "nan", "inf"])
    def test_bad_sample_rate_in_sidecar(self, tmp_path, capsys, command, rate):
        # not a ZeroDivisionError, a frame of negative length or a "non-finite samples" reading
        path = tmp_path / "r.iq"
        IqRecording(1e3, 0.0, np.ones(64, np.complex64), DisplayTiming.for_visible(8, 8)).save(path)
        sidecar = tmp_path / "r.iq.json"
        meta = json.loads(sidecar.read_text())
        meta["sample_rate_hz"] = rate
        sidecar.write_text(json.dumps(meta))
        out = tmp_path / ("e.pgm" if command == "reconstruct" else "r.snr.json")
        assert run([command, path, "-o", out]) == 2
        assert f"sample rate {rate} must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(lambda tmp, none: ["reconstruct", none, "-o", tmp / "e.pgm"], id="reconstruct-recording"),
        pytest.param(lambda tmp, none: ["emanate", none, "--profile", "galaxy_a3", "-o", tmp / "m.iq"],
                     id="emanate-raster"),
        pytest.param(lambda tmp, none: ["attack", "--model", none, "--session", tmp, "-o", tmp / "r.json"],
                     id="attack-model"),
        pytest.param(lambda tmp, none: ["attack", "--model", tmp / "m.bin", "--session", none,
                                        "-o", tmp / "r.json"], id="attack-session"),
        pytest.param(lambda tmp, none: ["train", "--dataset", tmp, "--split", none, "-o", tmp / "t.bin"],
                     id="train-split"),
    ])
    def test_missing_input_file(self, tmp_path, capsys, argv):
        save_model(init_model(CnnSpec((24, 13), 10), seed=0), tmp_path / "m.bin")
        missing = tmp_path / "none"
        assert run(argv(tmp_path, missing)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    def test_damaged_model_file(self, tmp_path, capsys):
        model = tmp_path / "m.bin"
        model.write_bytes(b"EMGL\x01\x00")  # magic plus two bytes of the version
        assert run(["attack", "--model", model, "--session", tmp_path, "-o", tmp_path / "r.json"]) == 2
        assert f"error: {model}: truncated header" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_raster_region_without_height(self, tmp_path, capsys):
        raster = tmp_path / "m.pgm"
        assert run(["render", "--message", "123456", "--screen", "540x960", "-o", raster]) == 0
        sidecar = tmp_path / "m.pgm.json"
        regions = json.loads(sidecar.read_text())
        del regions[0]["h"]
        sidecar.write_text(json.dumps(regions))
        capsys.readouterr()
        assert run(["emanate", raster, "--profile", "galaxy_a3", "-o", tmp_path / "m.iq"]) == 2
        assert f"error: {sidecar}: malformed record" in capsys.readouterr().err
        assert not (tmp_path / "m.iq").exists()

    def test_non_numeric_split_schedule(self, tmp_path, capsys):
        root = tmp_path / "data"
        assert run(["session", "--profile", "galaxy_a3", "--rows", 2, "--cols", 2, "--screens", 1,
                    "--id", "g0", "-o", root]) == 0
        assert run(["split", "--dataset", root, "--schedule", "1,x", "--test-sessions", 0]) == 2
        assert "error: --schedule expects comma-separated integers, got '1,x'" in capsys.readouterr().err
        assert not (root / "splits").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--schedule", -1, "--test-sessions", 0], "must take at least one session"),
        (["--schedule", 1, "--test-sessions", -1], "cannot be negative"),
    ], ids=["schedule", "test-sessions"])
    def test_negative_split_counts(self, tmp_path, capsys, flags, message):
        root = tmp_path / "data"
        for i in range(2):
            assert run(["session", "--profile", "galaxy_a3", "--rows", 4, "--cols", 4, "--screens", 1,
                        "--id", f"g{i}", "--seed", i, "-o", root]) == 0
        assert run(["split", "--dataset", root, *flags]) == 2
        assert message in capsys.readouterr().err
        assert not (root / "splits").exists()

    def test_grid_label_that_is_not_a_digit(self, tmp_path, capsys):
        root = tmp_path / "data"
        assert run(["session", "--profile", "galaxy_a3", "--rows", 4, "--cols", 4, "--screens", 1,
                    "--id", "g0", "-o", root]) == 0
        assert run(["split", "--dataset", root, "--schedule", 1, "--test-sessions", 0]) == 0
        manifest = root / "sessions" / "g0" / "manifest.json"
        record = json.loads(manifest.read_text())
        record["items"][0]["label"] = "x"
        manifest.write_text(json.dumps(record))
        capsys.readouterr()
        assert run(["train", "--dataset", root, "--split", root / "splits" / "training1.json",
                    "--epochs", 1, "-o", tmp_path / "m.bin"]) == 2
        assert f"error: {manifest}: label 'x' is not ASCII digits" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()

    def test_code_label_that_is_not_digits(self, tmp_path, capsys):
        root = tmp_path / "data"
        assert run(["session", "--profile", "galaxy_a3", "--kind", "code", "--codes", 1,
                    "--id", "c0", "-o", root]) == 0
        manifest = root / "sessions" / "c0" / "manifest.json"
        record = json.loads(manifest.read_text())
        record["items"][0]["label"] = "12a456"
        manifest.write_text(json.dumps(record))
        save_model(init_model(CnnSpec((24, 13), 10), seed=0), tmp_path / "m.bin")
        capsys.readouterr()
        assert run(["attack", "--model", tmp_path / "m.bin", "--session", manifest.parent,
                    "-o", tmp_path / "r.json"]) == 2
        assert f"error: {manifest}: label '12a456' is not ASCII digits" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_manifest_without_items(self, tmp_path, capsys):
        root = tmp_path / "data"
        assert run(["session", "--profile", "galaxy_a3", "--rows", 2, "--cols", 2, "--screens", 1,
                    "--id", "g0", "-o", root]) == 0
        manifest = root / "sessions" / "g0" / "manifest.json"
        record = json.loads(manifest.read_text())
        del record["items"]
        manifest.write_text(json.dumps(record))
        assert run(["split", "--dataset", root, "--schedule", 1, "--test-sessions", 0]) == 2
        assert f"error: {manifest}: missing key 'items'" in capsys.readouterr().err

    def test_split_names_an_unlisted_item(self, tmp_path, capsys):
        root = tmp_path / "data"
        assert run(["session", "--profile", "galaxy_a3", "--rows", 4, "--cols", 4, "--screens", 1,
                    "--id", "g0", "-o", root]) == 0
        assert run(["split", "--dataset", root, "--schedule", 1, "--test-sessions", 0]) == 0
        # a PGM left behind in items/ that the session's manifest does not list
        items = root / "sessions" / "g0" / "items"
        (items / "item_999999.pgm").write_bytes((items / "item_000000.pgm").read_bytes())
        split_file = root / "splits" / "training1.json"
        split = json.loads(split_file.read_text())
        split["train"].append("sessions/g0/items/item_999999.pgm")
        split_file.write_text(json.dumps(split))
        capsys.readouterr()
        assert run(["train", "--dataset", root, "--split", split_file, "--epochs", 1,
                    "-o", tmp_path / "m.bin"]) == 2
        assert (f"error: {items / 'item_999999.pgm'}: not an item listed in "
                f"{root / 'sessions' / 'g0' / 'manifest.json'}") in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()


TESTBED_SPEC = """\
[message]
letters = C,T

[message_appearance]
scales = 20

[attack_hardware]
profile = custom
visible_w = 128
visible_h = 192
sample_rate_hz = 5e6
bandwidth_hz = 2.5e6
target_snr_db = 30

[device_profiling]
train_items_per_class_per_scale = 3
test_items_per_class_per_scale = 2

[computational_resources]
epochs = 10
batch_size = 16
"""


class TestTestbedCommand:
    def test_testbed_run(self, tmp_path):
        spec = tmp_path / "model.ini"
        spec.write_text(TESTBED_SPEC)
        outdir = tmp_path / "report"
        assert run(["testbed", "--spec", spec, "--seed", 4, "-o", outdir]) == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["letters"] == ["C", "T"]
        assert "20" in report["per_scale_accuracy"]
        assert (outdir / "confusion.pgm").exists()

    def test_non_finite_snr_spec_rejected(self, tmp_path, capsys):
        spec = tmp_path / "nan.ini"
        spec.write_text(TESTBED_SPEC.replace("target_snr_db = 30", "target_snr_db = nan"))
        assert run(["testbed", "--spec", spec, "-o", tmp_path / "r"]) == 2
        assert "target_snr_db nan must be finite" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("target_snr_db = 30", "target_snr_db = 30\ndistance_r = 0", "distance_r 0.0 must be finite and positive"),
        ("target_snr_db = 30", "target_snr_db = 30\ndistance_r = nan", "distance_r nan must be finite and positive"),
        ("sample_rate_hz = 5e6", "sample_rate_hz = nan", "rates must be finite and positive"),
        ("bandwidth_hz = 2.5e6", "bandwidth_hz = nan", "rates must be finite and positive"),
        ("batch_size = 16", "batch_size = 0", "resources dimension: epochs and batch_size must be >= 1"),
    ])
    def test_out_of_range_spec_value_rejected(self, tmp_path, capsys, old, new, message):
        spec = tmp_path / "bad.ini"
        spec.write_text(TESTBED_SPEC.replace(old, new))
        assert run(["testbed", "--spec", spec, "-o", tmp_path / "r"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_duplicate_letter_spec_rejected(self, tmp_path, capsys):
        spec = tmp_path / "dup.ini"
        spec.write_text(TESTBED_SPEC.replace("letters = C,T", "letters = E,E"))
        assert run(["testbed", "--spec", spec, "-o", tmp_path / "r"]) == 2
        assert "error: message dimension: letter E listed twice" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("scales = 20\n", "scales = 20\ncontrast = abc\n",
         "[message_appearance] contrast = 'abc' is malformed"),
        # a % is a character, not the start of a configparser interpolation
        ("scales = 20\n", "scales = 20\ncontrast = 1%\n", "[message_appearance] contrast = '1%' is malformed"),
        ("visible_w = 128\n", "", "[attack_hardware] needs visible_w"),
        ("visible_h = 192", "visible_h = tall", "[attack_hardware] visible_h = 'tall' is malformed"),
        ("test_items_per_class_per_scale = 2", "test_items_per_class_per_scale = 2,x",
         "[device_profiling] test_items_per_class_per_scale = '2,x' is malformed"),
        ("epochs = 10", "epochs = ten", "[computational_resources] epochs = 'ten' is malformed"),
    ])
    def test_malformed_spec_value_names_section_and_key(self, tmp_path, capsys, old, new, message):
        spec = tmp_path / "bad.ini"
        spec.write_text(TESTBED_SPEC.replace(old, new))
        assert run(["testbed", "--spec", spec, "-o", tmp_path / "r"]) == 2
        assert f"error: attacker model: {message}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("target_snr_db = 30", "target_snr = 30", "[attack_hardware] has unknown key 'target_snr'"),
        ("epochs = 10", "epoch = 10", "[computational_resources] has unknown key 'epoch'"),
        ("target_snr_db = 30", "target_snr_db = 30\ncoupling_gain = 1",
         "[attack_hardware] has unknown key 'coupling_gain'"),
        ("test_items_per_class_per_scale = 2", "test_items_per_class_per_scale = 2\ngrowth = 1",
         "[device_profiling] has unknown key 'growth'"),
        ("[computational_resources]", "[notes]\nauthor = me\n\n[computational_resources]",
         "[notes] has unknown key 'author'"),
    ], ids=["target_snr", "epoch", "coupling_gain", "growth", "unknown-section"])
    def test_unknown_spec_key_names_section_and_key(self, tmp_path, capsys, old, new, message):
        # a misspelled or deleted key must not run the experiment with a default in its place
        spec = tmp_path / "bad.ini"
        spec.write_text(TESTBED_SPEC.replace(old, new))
        assert run(["testbed", "--spec", spec, "-o", tmp_path / "r"]) == 2
        assert f"error: attacker model: {message}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("data", [
        TESTBED_SPEC.replace("epochs = 10", "epochs = 10\nepochs = 20").encode(),
        ("letters = C\n" + TESTBED_SPEC).encode(),
        TESTBED_SPEC.replace("epochs = 10", "epochs = 10\njust words").encode(),
        TESTBED_SPEC.replace("letters = C,T", "letters = C,\xff").encode("latin-1"),
    ], ids=["duplicate-key", "no-section-header", "line-without-equals", "not-utf-8"])
    def test_malformed_spec_file_names_the_file(self, tmp_path, capsys, data):
        spec = tmp_path / "bad.ini"
        spec.write_bytes(data)
        assert run(["testbed", "--spec", spec, "-o", tmp_path / "r"]) == 2
        assert f"error: attacker model file {spec} is malformed" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_incomplete_spec_rejected(self, tmp_path):
        spec = tmp_path / "incomplete.ini"
        spec.write_text("[message]\nletters = C\n")
        assert run(["testbed", "--spec", spec, "-o", tmp_path / "r"]) == 2
