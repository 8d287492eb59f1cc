"""tsm benchmark: calibrated throughput of three CLI workloads, or their layers.

    python3 perfbench/run.py --workload fig4-sweep --seed 0 --seconds 20 --trace 0

Runs the workload's repetitions in fresh worker interpreters, one at a
time, each calling `tsm.cli.main(argv)` in-process with TSM_THREADS=1
(worker.py). It checks every output against the stored reference, prints
each metric with its unit and, as the last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics; `--trace 1` reports the per-layer ones from traced
repetitions. See perfbench/README.md for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 15
SETUP_INTERVAL_S = 0.005  # the import takes ~60 ms, so slice it finely
# An untraced run splits --seconds over this many workers. Each interpreter
# gets its own memory layout, which moved verify's calibrated speed by up
# to 16% between interpreters but not between repetitions in one of them;
# the median over four interpreters averages that out.
UNTRACED_WORKERS = 4
WORKER_TIMEOUT_S = 170
# A fresh interpreter imports numpy (which the calibration kernel needs and
# tsm cannot change), then times `import tsm.cli` with slices interleaved.
IMPORT_PROBE = """
import importlib, sys
sys.path.insert(0, {here!r})
import calib
timer = calib.CalibratedTimer({nominal!r}, interval_s={interval!r})
_, raw, calibrated = timer.measure(lambda: importlib.import_module("tsm.cli"))
print(repr(raw), repr(calibrated))
"""


def load_host() -> dict:
    return json.loads((HERE / "host.json").read_text(encoding="utf-8"))


def pin_environment() -> None:
    """No process pool (TSM_THREADS=1), tsm from this checkout's src by absolute path."""
    os.environ["TSM_THREADS"] = "1"
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    os.environ["PYTHONHASHSEED"] = "0"
    # Child interpreters write tsm's bytecode cache (under src/, gitignored)
    # and use it, as any use after the first does.
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.path.insert(0, str(SRC))


def run_workers(job: dict, workers: int) -> list[dict]:
    """Run `workers` worker interpreters one after another; their results."""
    job = dict(job, seconds=job["seconds"] / workers)
    results = []
    for _ in range(workers):
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, check=True)
        results.append(json.loads(done.stdout.splitlines()[-1]))
    return results


class Checker:
    """Checks every repetition's output against the stored reference."""

    def __init__(self, workload, tsm_seed: int, out: str):
        self.workload = workload
        self.tsm_seed = tsm_seed
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, reps: list[dict]) -> None:
        # Loaded only now, so that the reference does not count toward the
        # workers' peak RSS.
        reference = workloads.load_reference(self.workload.name, self.tsm_seed)
        self.attempted += len(reps)
        if not self.workload.writes_csv:
            for r in reps:
                self._count(workloads.check_verify(r["exit_code"], r["stdout"], r["drawn"],
                                                   reference))
            return
        shas = {r["sha256"] for r in reps if r["exit_code"] == 0}
        for sha in sorted(shas):
            same = "same as" if sha == reference["sha256"] else "differs from"
            print(f"# tsm seed {self.tsm_seed}: output sha256 {sha} ({same} reference)")
        # Every repetition must write the same bytes (traced ones too); the
        # last output is on disk, and its bytes are compared in full if they
        # differ from the reference's.
        errors = []
        if len(shas) == 1 and reference["sha256"] not in shas:
            errors = workloads.check_csv(self.out, reference)
        for r in reps:
            if r["exit_code"] != 0:
                self._count([f"exit code {r['exit_code']}"])
            elif len(shas) > 1:
                self._count([f"output sha256 {r['sha256']}: repetitions wrote different bytes"])
            else:
                self._count(errors)

    def _count(self, errors: list[str]) -> None:
        if errors:
            self.failed += 1
        for error in errors:
            error = f"tsm seed {self.tsm_seed}: {error}"
            if error not in self.errors:  # repetitions often fail alike
                self.errors.append(error)


def measure_setup(nominal_slice_s: float) -> list[float]:
    """Calibrated import time of tsm.cli in fresh interpreters."""
    probe = IMPORT_PROBE.format(here=str(HERE), nominal=nominal_slice_s,
                                interval=SETUP_INTERVAL_S)

    def spawn():
        done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        _raw, calibrated = map(float, done.stdout.split())
        return calibrated

    spawn()  # writes the bytecode cache, as any first use would
    return [spawn() for _ in range(SETUP_SPAWNS)]


def run_untraced(job: dict, checker: Checker) -> dict:
    setup = measure_setup(job["nominal_slice_s"])
    results = run_workers(job, UNTRACED_WORKERS)
    reps = [r for result in results for r in result["reps"]]
    rates = [checker.workload.items / r["calibrated_s"] for r in reps]
    checker.check(reps)
    for i, result in enumerate(results):
        print(f"# worker {i}: items/s per rep: " + " ".join(
            f"{checker.workload.items / r['calibrated_s']:.1f}" for r in result["reps"]))
    print("# setup_s per spawn: " + " ".join(f"{s:.4f}" for s in setup))
    return {
        "items_per_s": (statistics.median(rates), "items/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(result["peak_rss_mb"] for result in results), "MB"),
    }


def run_traced(job: dict, checker: Checker) -> dict:
    # One worker, so that the counts of every traced repetition must match.
    [result] = run_workers(job, 1)
    reps, traced = result["reps"], result["traced"]
    # check() fails a traced output whose bytes differ from the untraced one.
    checker.check(reps)
    for name in layers.COUNT_METRICS:
        values = {m[name] for m in traced}
        if len(values) > 1:
            checker.errors.append(f"{name} differs across traced repetitions: {sorted(values)}")
    untraced, with_tracer = reps[0::2], reps[1::2]
    overheads = [100.0 * (t["calibrated_s"] / u["calibrated_s"] - 1.0)
                 for u, t in zip(untraced, with_tracer)]
    out = {name: (statistics.median(m[name] for m in traced), unit)
           for name, unit in layers.LAYER_METRICS}
    out["calib_ms"] = (1e3 * result["slice_s"], "ms")
    out["raw_items_per_s"] = (statistics.median(
        checker.workload.items / u["raw_s"] for u in untraced), "items/s")
    out["trace_overhead_pct"] = (statistics.median(overheads), "%")
    print(f"# {len(traced)} traced/untraced pairs; overhead % per pair: "
          + " ".join(f"{o:.2f}" for o in overheads))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="selects the tsm input seed (0 selects 1729)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tsm" / "cli.py").is_file():
        print(f"error: no tsm sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    host = load_host()
    workload = workloads.WORKLOADS[args.workload]
    tsm_seed = workloads.input_seed(args.seed)
    print(f"# workload={workload.name} seed={args.seed} tsm_seed={tsm_seed} "
          f"items={workload.items} ({workload.item}) trace={args.trace}")
    print(f"# nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} nominal_slice_ms={host['nominal_slice_ms']}")
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=tmp_root))
    os.environ["TMPDIR"] = str(workdir)
    try:
        job = {"workload": workload.name, "tsm_seed": tsm_seed, "seconds": args.seconds,
               "trace": args.trace, "out": str(workdir / "out.csv"),
               "nominal_slice_s": host["nominal_slice_ms"] / 1e3}
        checker = Checker(workload, tsm_seed, job["out"])
        run = run_traced if args.trace else run_untraced
        metrics = run(job, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()

    for name, (value, unit) in metrics.items():
        print(f"{workload.name}/{name} = {value:.6g} {unit}")
    for error in checker.errors[:20]:
        print(f"# CHECK FAILED: {error}")
    print(f"# correctness: attempted={checker.attempted} failed={checker.failed}")
    print(json.dumps({
        "correct": checker.failed == 0 and not checker.errors,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
