"""End-to-end benchmark of the emgleam attack loop, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload acquire --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): acquire, train, locate, chart.  The load is a
closed loop in one process: operations run one after another with the
program's defaults (``workers=1``), so no layer has a queue or a wait time.

``--trace 0`` sets up the fixed inputs three times (``setup_s`` is the import
time plus the median set-up), then repeats the pass over the same inputs
until ``--seconds`` of pass time have run, and reports the end-to-end
metrics.  ``--trace 1`` sets up once, runs one untraced pass and one traced
pass, and reports the per-layer metrics of the traced pass.  Either way the
outputs are checked, human-readable lines come first, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (provenance, quality figures
and, when traced, every span) goes to ``.bench_out/`` and scratch files to a
temporary directory under ``.bench_tmp/`` that is removed at the end.
"""

import os
import sys
import time

_T0 = time.perf_counter()
# BLAS threads are pinned for this process only, before numpy loads; the
# machine's own settings are left alone.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "emgleam" / "__init__.py").is_file():
    sys.exit(f"perfbench: no emgleam sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - _T0
SETUP_REPEATS = 3
QUALITY_UNITS = {"crop_range": "ratio", "snr_err_db": "dB", "digit_accuracy": "ratio",
                 "hit_ratio": "ratio", "sync_err_ppm": "ppm", "letter_accuracy": "ratio"}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args, workload) -> dict:
    return {
        "workload": workload.name,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "counts": workload.counts(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "pinned_threads": PINNED,
        "git_commit": _git_commit(),
    }


def _setup(workload, tmp: Path, seed: int, repeats: int):
    """Build the fixed inputs ``repeats`` times; keep the last, time each.

    Earlier builds stay on disk until the run ends (see PassLog)."""
    times, state = [], None
    for i in range(repeats):
        root = tmp / f"setup{i}"
        root.mkdir()
        t = time.perf_counter()
        state = workload.setup(root, seed)
        times.append(time.perf_counter() - t)
    return state, times


class PassLog:
    """Checks each pass and keeps the totals.

    Pass directories are removed with the whole run directory at the end:
    deleting thousands of crop files between passes slows the file writes of
    the next pass.
    """

    def __init__(self, workload, state):
        self.workload, self.state = workload, state
        self.seconds, self.items, self.attempted, self.failed = [], 0, 0, 0
        self.quality: dict | None = None
        self.problems: list[str] = []

    def run(self, work: Path, tracer=None) -> float:
        work.mkdir()
        gc.collect()  # set-up garbage and earlier passes' outputs go first
        t = time.perf_counter()
        if tracer is None:
            ops = self.workload.run(self.state, work)
        else:
            with tracer.installed(), tracer.span("pass"):
                ops = self.workload.run(self.state, work)
        elapsed = time.perf_counter() - t
        out = self.workload.check(self.state, ops)
        if self.quality is None:
            self.quality = out.quality
        elif out.quality != self.quality:
            for op in ops:  # the outputs are not a function of the seed alone
                out.fail(op.name, f"pass {len(self.seconds)}: quality {out.quality} differs from the first pass")
        self.seconds.append(elapsed)
        self.items += self.workload.items(self.state)
        self.attempted += out.attempted
        self.failed += out.failed
        self.problems += out.problems
        return elapsed


def measure(workload, args, tmp: Path) -> tuple[PassLog, dict, list[dict]]:
    """Run the workload; return the pass log, metrics and spans."""
    tracing.assert_untraced()
    state, setup_times = _setup(workload, tmp, args.seed, 1 if args.trace else SETUP_REPEATS)
    log = PassLog(workload, state)
    spans: list[dict] = []
    if args.trace:
        untraced = log.run(tmp / "pass0")
        tracer = tracing.Tracer(run_id=f"{workload.name}-seed{args.seed}")
        traced = log.run(tmp / "pass1", tracer)
        tracing.assert_untraced()
        metrics = tracer.layer_metrics()
        metrics["trace_overhead_ratio"] = traced / untraced
        units = tracing.metric_units()
        spans = tracer.span_records()
        return log, {k: (metrics[k], units[k]) for k in units}, spans

    while sum(log.seconds) < args.seconds:
        log.run(tmp / f"pass{len(log.seconds)}")
    tracing.assert_untraced()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log.quality.update(workload.probe(state))
    metrics = {
        "setup_s": (IMPORT_S + statistics.median(setup_times), "s"),
        "items_per_s": (log.items / sum(log.seconds), "items/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_ratio": (1.0 - log.failed / log.attempted, "ratio"),
        "quality": (log.quality[workload.primary], QUALITY_UNITS[workload.primary]),
    }
    return log, metrics, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    record = provenance(args, workload)
    record["loadavg_before"] = os.getloadavg()
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_tmp"))
    try:
        log, metrics, spans = measure(workload, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass  # another run is still using it
    record["loadavg_after"] = os.getloadavg()
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record.update({"passes": len(log.seconds), "pass_seconds": log.seconds,
                   "quality": log.quality, "problems": log.problems,
                   "metrics": reported, "spans": spans})
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"workload {workload.name} (items are {workload.unit}), seed {args.seed}, "
          f"{len(log.seconds)} pass(es) of {[round(s, 3) for s in log.seconds]} s; record {out_path}")
    print(f"machine: nproc {record['nproc']}, {record['cpu_model']}, Python {record['python']}, "
          f"numpy {record['numpy']}, scipy {record['scipy']}, {record['blas'].get('name')} "
          f"{record['blas'].get('version')} pinned to 1 thread; load average "
          f"{record['loadavg_before'][0]:.2f} -> {record['loadavg_after'][0]:.2f}")
    for problem in log.problems:
        print(f"  FAILED {problem}")
    if args.trace:
        own = [(k[: -len(".self_ms")], v) for k, (v, _) in metrics.items() if k.endswith(".self_ms")]
        top = sorted(own, key=lambda kv: -kv[1])[:3]
        print("  largest self time: " + ", ".join(f"{name} {ms:.1f} ms" for name, ms in top))
        for name, (value, unit) in metrics.items():
            print(f"  {name:48s} {value:14.4f} {unit}")
    else:
        fail_ratio = log.failed / log.attempted
        shown = {"setup_s": metrics["setup_s"],
                 "items_per_s": (metrics["items_per_s"][0], f"{workload.unit}/s"),
                 "peak_rss_mb": metrics["peak_rss_mb"], "fail_ratio": (fail_ratio, "ratio")}
        shown.update({k: (v, QUALITY_UNITS[k]) for k, v in log.quality.items()})
        for name, (value, unit) in shown.items():
            print(f"  {name:16s} {value:12.4f} {unit}")
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
