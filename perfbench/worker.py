"""One benchmark worker: a fresh interpreter that runs one workload's timed
repetitions and prints their timings and outputs as one JSON line.

    python3 perfbench/worker.py '{"workload": "verify", "tsm_seed": 1729,
        "seconds": 5, "trace": 0, "out": "out.csv", "nominal_slice_s": 0.001}'

run.py starts the workers of a run one after another, never two at once,
and checks their outputs. Each worker imports tsm from PYTHONPATH, which
run.py sets, and calls `tsm.cli.main(argv)` in-process with TSM_THREADS=1.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calib import CalibratedTimer  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

MIN_TRACED_PAIRS = 2  # counts are compared across at least two traced reps
# The warm-up runs the workload's command at this size (providers or draws):
# every code path runs and every lazy import happens, in a fraction of a rep.
WARM_SIZE = 10


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run one tsm command; return its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def main() -> None:
    job = json.loads(sys.argv[1])
    import tsm.cli

    workload = workloads.WORKLOADS[job["workload"]]
    argv = workload.argv(job["tsm_seed"], job["out"])
    timer = CalibratedTimer(job["nominal_slice_s"])
    drawn: list[int] = []
    if not workload.writes_csv:
        # `verify` prints no draw count; read it off the return value.
        original = tsm.cli.draw_reported_equilibria

        def probe(*args, **kwargs):
            cases, count = original(*args, **kwargs)
            drawn.append(count)
            return cases, count

        layers.rebind(original, probe)

    def rep(tracer=None) -> dict:
        drawn.clear()
        with tracer or contextlib.nullcontext():
            (code, stdout), raw, cal = timer.measure(lambda: call_cli(tsm.cli, argv))
        result = {"raw_s": raw, "calibrated_s": cal, "exit_code": code}
        if workload.writes_csv:
            result["sha256"] = workloads.sha256_file(job["out"])
        else:
            result["stdout"] = stdout
            result["drawn"] = drawn[0] if len(drawn) == 1 else -1
        return result

    call_cli(tsm.cli, workload.argv(job["tsm_seed"], job["out"], size=WARM_SIZE))
    reps, traced = [], []
    start = time.perf_counter()
    if job["trace"]:
        # Untraced and traced repetitions alternate, for the overhead.
        while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() - start < job["seconds"]:
            reps.append(rep())
            tracer = layers.Tracer(timer.now)
            reps.append(rep(tracer))
            traced.append(tracer.metrics(scale=reps[-1]["calibrated_s"] / reps[-1]["raw_s"]))
    else:
        while not reps or time.perf_counter() - start < job["seconds"]:
            reps.append(rep())
    print(json.dumps({
        "reps": reps,
        "traced": traced,
        "slice_s": statistics.median(timer.slice_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))


if __name__ == "__main__":
    main()
