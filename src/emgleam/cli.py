"""Command-line entry point.

One command with subcommands covering the whole pipeline:

    render | emanate | reconstruct | snr | session | crop | split |
    train | gradcheck | attack | testbed

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 pipeline
stage failure.  Every run writes a resolved-config echo file
(<output>.config.json) capturing all effective parameters, and all
randomness fans out from --seed via a stage-name hash (util.derive_seed).
The environment variable EMGLEAM_DATA_DIR supplies the default dataset
root.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import EmgleamError, ValidationError
from .util import derive_seed, dump_json

_USAGE_EXIT = 1
_VALIDATION_EXIT = 2
_PIPELINE_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_USAGE_EXIT)


def _echo_config(output, command: str, args: argparse.Namespace, extra: dict | None = None) -> None:
    resolved = {k: (str(v) if isinstance(v, Path) else v) for k, v in vars(args).items() if k != "func"}
    resolved["command"] = command
    resolved["version"] = __version__
    if extra:
        resolved.update(extra)
    dump_json(str(output) + ".config.json", resolved)


def _data_dir(value: str | None) -> Path:
    if value:
        return Path(value)
    env = os.environ.get("EMGLEAM_DATA_DIR")
    if env:
        return Path(env)
    raise ValidationError("no dataset root: pass --dataset or set EMGLEAM_DATA_DIR")


def _parse_wh(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise ValidationError(f"expected WxH, got {text!r}") from None


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ValidationError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _parse_snr(text: str, words: tuple[str, ...]) -> float | None:
    """--snr in dB, or None for one of the command's keywords."""
    if text.lower() in words:
        return None
    try:
        return float(text)
    except ValueError:
        raise ValidationError(
            f"--snr expects a number in dB or {' / '.join(words)}, got {text!r}"
        ) from None


def _given(value, default):
    """A flag's value, or default when the flag was left out; a given 0
    stays 0 and meets the same checks as any other value."""
    return default if value is None else value


# ----------------------------------------------------------------- render

def _cmd_render(args) -> int:
    from .raster import render_digit_grid, render_eyechart, render_security_message

    w, h = _parse_wh(args.screen)
    modes = [bool(args.digit_grid), args.message is not None, args.eyechart is not None]
    if sum(modes) != 1:
        raise ValidationError("pick exactly one of --digit-grid, --message, --eyechart")
    if args.digit_grid:
        rows, cols = _parse_wh(args.digit_grid)  # ROWSxCOLS
        if args.digits == "random":
            rng = np.random.default_rng(derive_seed(args.seed, "render-digits"))
            digits = [str(d) for d in rng.integers(0, 10, rows * cols)]
        else:
            digits = list(args.digits)
        raster = render_digit_grid(rows, cols, digits, w, h, contrast=args.contrast)
    elif args.message is not None:
        raster = render_security_message(args.message, w, h, contrast=args.contrast)
    else:
        if args.scale is None:
            raise ValidationError("--eyechart needs --scale")
        raster = render_eyechart(args.eyechart, args.scale, w, h, contrast=args.contrast)
    raster.save(args.output)
    _echo_config(args.output, "render", args)
    print(f"wrote {args.output} ({raster.width_px}x{raster.height_px}, "
          f"{len(raster.annotations)} regions)")
    return 0


# ---------------------------------------------------------------- emanate

def _cmd_emanate(args) -> int:
    from .emanator import ChannelModel, capture, emanate
    from .profiles import get_profile
    from .raster import ScreenRaster

    profile = get_profile(args.profile)
    raster = ScreenRaster.load(args.raster)
    timing = profile.timing()
    leak_model = profile.leakage(coupling_gain=args.coupling, highpass_alpha=args.alpha)
    snr = _parse_snr(args.snr, ("none", "off"))
    channel = ChannelModel(
        distance_r=args.distance,
        target_snr_db=snr,
        rng_seed=derive_seed(args.seed, "capture"),
    )
    recording = capture(
        emanate(raster, timing, leak_model, frames=args.frames),
        channel,
        sample_rate_hz=_given(args.sample_rate, profile.sample_rate_hz),
        center_freq_hz=args.center,
        bandwidth_hz=_given(args.bandwidth, profile.bandwidth_hz),
    )
    recording.save(args.output)
    _echo_config(args.output, "emanate", args, {"carrier_hz": leak_model.carrier_hz(timing)})
    print(f"wrote {args.output} ({len(recording.samples)} samples at "
          f"{recording.sample_rate_hz:g} S/s)")
    return 0


# ------------------------------------------------------------ reconstruct

def _cmd_reconstruct(args) -> int:
    from .emanator import IqRecording
    from .profiles import get_profile
    from .receiver import ReconParams, reconstruct

    recording = IqRecording.load(args.recording)
    if args.profile:
        profile = get_profile(args.profile)
        width = _given(args.width, profile.recon_w)
        height = _given(args.height, profile.recon_h)
    else:
        width = _given(args.width, recording.timing.x_t)
        height = _given(args.height, recording.timing.y_t)
    f_r = _given(args.frame_rate, recording.timing.f_r)
    params = ReconParams(width, height, f_r)
    emage = reconstruct(recording, params)
    emage.save(args.output)
    _echo_config(args.output, "reconstruct", args, {"params": params.as_dict()})
    print(f"wrote {args.output} ({emage.width_px}x{emage.height_px}, "
          f"{emage.frames_averaged} frames averaged)")
    return 0


# ------------------------------------------------------------------- snr

def _cmd_snr(args) -> int:
    from .emanator import IqRecording
    from .receiver import measure_snr

    recording = IqRecording.load(args.recording)
    value = measure_snr(
        recording,
        signal_center_hz=args.center,
        band_hz=args.band,
        resolution_hz=args.resolution,
    )
    output = args.output or (str(args.recording) + ".snr.json")
    dump_json(output, {"snr_db": value})
    _echo_config(output, "snr", args)
    print(f"SNR: {value:.2f} dB")
    return 0


# --------------------------------------------------------------- session

def _cmd_session(args) -> int:
    from .dataset import run_code_session, run_session
    from .profiles import get_profile

    root = _data_dir(args.output)
    profile = get_profile(args.profile)
    if args.snr.lower() in ("none", "off"):
        raise ValidationError("sessions have no noiseless capture: give --snr in dB or 'default'")
    snr = _parse_snr(args.snr, ("default",))  # None: the profile's SNR
    if args.kind == "grid":
        session = run_session(
            profile, root, session_id=args.id,
            rows=args.rows, cols=args.cols, screens=args.screens,
            seed=derive_seed(args.seed, "session", args.id or ""),
            frames=_given(args.frames, 1), target_snr_db=snr, distance_r=args.distance,
            workers=args.threads,
        )
    else:
        session = run_code_session(
            profile, root, session_id=args.id, n_codes=args.codes,
            seed=derive_seed(args.seed, "session", args.id or ""),
            frames=_given(args.frames, 2), target_snr_db=snr, distance_r=args.distance,
            workers=args.threads,
        )
    _echo_config(session.directory / "manifest.json", "session", args)
    flag = " [FLAGGED]" if session.flagged else ""
    print(f"session {session.id}: {len(session.items)} items{flag} "
          f"(mean dynamic range {session.quality['mean_dynamic_range']:.3f})")
    return 0


# ------------------------------------------------------------------ crop

def _cmd_crop(args) -> int:
    from .dataset import grid_crop
    from .pgmio import write_pgm
    from .receiver import Emage

    emage = Emage.load(args.emage)
    cw, ch = _parse_wh(args.cell)
    crops = grid_crop(emage, args.rows, args.cols, cw, ch)
    outdir = Path(args.output)
    index = []
    for i, crop in enumerate(crops):
        rel = f"crop_{i:06d}.pgm"
        write_pgm(outdir / rel, crop.pixels)
        index.append(rel)
    dump_json(outdir / "index.json", index)
    _echo_config(outdir / "index.json", "crop", args)
    print(f"wrote {len(crops)} crops to {outdir}")
    return 0


# ----------------------------------------------------------------- split

def _cmd_split(args) -> int:
    from .dataset import build_training_sets, load_session

    root = _data_dir(args.dataset)
    sessions_dir = root / "sessions"
    if not sessions_dir.is_dir():
        raise ValidationError(f"no sessions under {root}")
    sessions = [load_session(d) for d in sorted(sessions_dir.iterdir()) if d.is_dir()]
    sessions = [s for s in sessions if s.kind == args.kind]
    if not sessions:
        raise ValidationError(f"no {args.kind!r} sessions under {root}")
    sets = build_training_sets(
        sessions, schedule=_parse_ints(args.schedule, "--schedule"), n_test=args.test_sessions,
        seed=derive_seed(args.seed, "split"),
    )
    outdir = Path(args.output) if args.output else root / "splits"
    for ts in sets:
        ts.save(outdir / f"{ts.name}.json")
    _echo_config(outdir / "splits", "split", args)
    for ts in sets:
        print(f"{ts.name}: {len(ts.train)} train / {len(ts.val)} val / "
              f"{len(ts.test_internal)} internal-test, test sessions {list(ts.plan.test_sessions)}")
    return 0


# ----------------------------------------------------------------- train

def _cmd_train(args) -> int:
    from .classifier import CnnSpec, TrainConfig, init_model, save_model, train
    from .dataset import load_items, load_training_set

    root = _data_dir(args.dataset)
    ts = load_training_set(args.split)
    x_train, y_train, _ = load_items(root, ts.train)
    x_val, y_val, _ = load_items(root, ts.val)
    try:
        spec = CnnSpec(input_hw=x_train.shape[1:], n_classes=args.classes)
    except ValidationError:  # crops too small for two 5x5 convolutions (galaxy_a3's 24x13)
        spec = CnnSpec(input_hw=x_train.shape[1:], n_classes=args.classes, kernel=3)
    model = init_model(spec, seed=derive_seed(args.seed, "init"))
    result = train(
        model, (x_train, y_train), (x_val, y_val),
        TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                    batch_size=args.batch_size, seed=derive_seed(args.seed, "train")),
    )
    save_model(result.model, args.output)
    result.save_history(str(args.output) + ".history.json")
    _echo_config(args.output, "train", args, {"spec": spec.as_dict()})
    print(f"best val accuracy {result.best_val_accuracy:.4f} at epoch {result.best_epoch}; "
          f"wrote {args.output}")
    return 0


# ------------------------------------------------------------- gradcheck

def _cmd_gradcheck(args) -> int:
    from .classifier import CnnSpec, grad_check

    h, w = _parse_wh(args.input)
    spec = CnnSpec((h, w), args.classes, conv_channels=_parse_ints(args.conv, "--conv"),
                   fc_sizes=_parse_ints(args.fc, "--fc"))
    report = grad_check(spec, tolerance=args.tolerance, seed=args.seed)
    if args.output:
        dump_json(args.output, {
            "max_rel_error": report.max_rel_error,
            "n_checked": report.n_checked,
            "tolerance": report.tolerance,
            "passed": report.passed,
        })
        _echo_config(args.output, "gradcheck", args)
    print(f"max relative error {report.max_rel_error:.3e} over {report.n_checked} "
          f"coordinates ({'PASS' if report.passed else 'FAIL'})")
    return 0 if report.passed else _PIPELINE_EXIT


# ---------------------------------------------------------------- attack

def _cmd_attack(args) -> int:
    from .attack import CodeResult, read_code, score
    from .classifier import load_model
    from .dataset import load_session
    from .receiver import Emage

    model = load_model(args.model)
    session = load_session(args.session)
    if session.kind != "code":
        raise ValidationError(f"session {session.id} is {session.kind!r}, need a code session")
    results = []
    for item in session.items:
        emage = Emage.load(session.item_path(item))
        predicted, _ = read_code(emage, (0, 0, emage.width_px, emage.height_px), model)
        results.append(CodeResult(item.label, predicted))
    report = score(results)
    report.save(args.output, csv_path=args.csv)
    _echo_config(args.output, "attack", args)
    print(f"per-digit {report.per_digit_accuracy:.3f}  exact {report.exact_accuracy:.3f}  "
          f">=5 {report.at_least_5_accuracy:.3f}  >=4 {report.at_least_4_accuracy:.3f}")
    return 0


# --------------------------------------------------------------- testbed

def _cmd_testbed(args) -> int:
    from .testbed import parse_spec_file, run_testbed

    spec = parse_spec_file(args.spec)
    report = run_testbed(spec, seed=derive_seed(args.seed, "testbed"))
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    report.save(outdir)
    _echo_config(outdir / "report", "testbed", args)
    print(f"overall accuracy {report.overall_accuracy:.3f}; report in {outdir}")
    return 0


def build_parser() -> _Parser:
    from .profiles import PROFILES

    parser = _Parser(
        prog="emgleam",
        description="Simulated display-cable emanation capture, emage reconstruction "
                    "and screen-content recovery.",
        epilog="built-in profiles: " + ", ".join(sorted(PROFILES)),
    )
    parser.add_argument("--version", action="version", version=f"emgleam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")

    p = sub.add_parser("render", help="render ground-truth screen content")
    p.add_argument("--digit-grid", metavar="ROWSxCOLS")
    p.add_argument("--digits", default="random", help="'random' or explicit digit string")
    p.add_argument("--message", metavar="CODE", help="six-digit security code")
    p.add_argument("--eyechart", metavar="LETTER")
    p.add_argument("--scale", type=float)
    p.add_argument("--screen", default="750x1334", metavar="WxH")
    p.add_argument("--contrast", type=float, default=1.0)
    p.add_argument("-o", "--output", required=True)
    common(p)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("emanate", help="simulate emission and SDR capture of a raster")
    p.add_argument("raster")
    p.add_argument("--profile", required=True)
    p.add_argument("--frames", type=int, default=1)
    p.add_argument("--snr", default="none", help="target SNR in dB, or 'none'")
    p.add_argument("--distance", type=float, default=1.0)
    p.add_argument("--coupling", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.0, help="high-pass pole")
    p.add_argument("--center", type=float, default=None, help="center frequency Hz")
    p.add_argument("--sample-rate", type=float, default=None)
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("-o", "--output", required=True)
    common(p)
    p.set_defaults(func=_cmd_emanate)

    p = sub.add_parser("reconstruct", help="reconstruct an emage from an IQ recording")
    p.add_argument("recording")
    p.add_argument("--profile")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--frame-rate", type=float)
    p.add_argument("-o", "--output", required=True)
    common(p)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("snr", help="measure peak-over-median SNR of a recording")
    p.add_argument("recording")
    p.add_argument("--center", type=float, default=None)
    p.add_argument("--band", type=float, default=None)
    p.add_argument("--resolution", type=float, default=25e3)
    p.add_argument("-o", "--output")
    common(p)
    p.set_defaults(func=_cmd_snr)

    p = sub.add_parser("session", help="simulate a full acquisition session")
    p.add_argument("--profile", required=True)
    p.add_argument("--kind", choices=["grid", "code"], default="grid")
    p.add_argument("--rows", type=int, default=40)
    p.add_argument("--cols", type=int, default=40)
    p.add_argument("--screens", type=int, default=20)
    p.add_argument("--codes", type=int, default=200)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--snr", default="default", help="target SNR dB, or 'default' (the profile's)")
    p.add_argument("--distance", type=float, default=1.0)
    p.add_argument("--id", help="session id (default derived from kind+seed)")
    p.add_argument("-o", "--output", help="dataset root (default $EMGLEAM_DATA_DIR)")
    p.add_argument("--threads", type=int, default=1,
                   help="screens simulated in parallel; any count writes the same bytes")
    common(p)
    p.set_defaults(func=_cmd_session)

    p = sub.add_parser("crop", help="grid-crop an emage into cells")
    p.add_argument("emage")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--cell", required=True, metavar="WxH")
    p.add_argument("-o", "--output", required=True, help="output directory")
    common(p)
    p.set_defaults(func=_cmd_crop)

    p = sub.add_parser("split", help="build growing training sets over sessions")
    p.add_argument("--dataset", help="dataset root (default $EMGLEAM_DATA_DIR)")
    p.add_argument("--schedule", default="1,3,5,7")
    p.add_argument("--test-sessions", type=int, default=2)
    p.add_argument("--kind", choices=["grid", "code"], default="grid",
                   help="session kind to split (default grid)")
    p.add_argument("-o", "--output", help="output directory (default <root>/splits)")
    common(p)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="train the digit classifier on a split")
    p.add_argument("--dataset", help="dataset root (default $EMGLEAM_DATA_DIR)")
    p.add_argument("--split", required=True)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("-o", "--output", required=True)
    common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("gradcheck", help="finite-difference check of the CNN gradients")
    p.add_argument("--input", default="20x16", metavar="HxW")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--conv", default="2,3")
    p.add_argument("--fc", default="8,6")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("-o", "--output")
    common(p)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("attack", help="run the security-code attack on a code session")
    p.add_argument("--model", required=True)
    p.add_argument("--session", required=True, help="code session directory")
    p.add_argument("--csv", help="also write a per-item CSV")
    p.add_argument("-o", "--output", required=True, help="report JSON path")
    common(p)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("testbed", help="run the acuity-chart testbed for an attacker model")
    p.add_argument("--spec", required=True, help="attacker model file (INI)")
    p.add_argument("-o", "--output", required=True, help="report directory")
    common(p)
    p.set_defaults(func=_cmd_testbed)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse --help exits 0; usage errors exit 1
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _VALIDATION_EXIT
    except (EmgleamError, OSError) as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return _PIPELINE_EXIT


if __name__ == "__main__":
    sys.exit(main())
