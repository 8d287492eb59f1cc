"""Alternating parent/change runs of the benchmark, summarised in one JSON file.

    python3 tools/bench_pairs.py PARENT CHANGE --workload fig4-sweep \
        --pairs 10 --seconds 20 --out BENCH.json

PARENT and CHANGE are two checkouts of the repository. Pair i runs
`perfbench/run.py --workload W --seed S+i --seconds T --trace 0` once in
each checkout, one run after the other (even pairs run the parent first,
odd pairs the change), and keeps the last line of each run's output, its
JSON result. For every end-to-end metric of BENCHMARK.json the summary
gives each side's median and quartiles, the pairs the change wins, the
median gap and the parent's interquartile range.

With `--fault-runs N` each checkout also runs `sweep --preset fig4`
(seed 1729) at n=300 and at n=3000 in N rounds. Each round starts one fresh
child interpreter per checkout, alternating which side runs first. After
two warm-ups the child times FIG4_TIMED_RUNS runs and records the first
one's wall time and minor page faults (`ru_minflt`) and the minimum wall
time of all of them (`min_ms`). A child's speed has two modes at the same
code, so per size the summary also counts each side's children in each
mode (`modes`). It also runs `verify --draws 200 --seed 1729` once in
each of N fresh child interpreters per checkout, alternating in the same
way, and records each run's wall time, minor page faults and the child's
peak resident set (`ru_maxrss`, in kB, import included).

With `--trace-runs N` each workload also runs `perfbench/run.py ... --trace 1`
N times per checkout at seeds S..S+N-1, alternating which side runs first,
and records per side the spread of each per-layer metric (such as
`equilibrium.oracle_equilibrium.s`) over those runs.

With `--import-runs N` the script runs
`python -X importtime -c "import numpy; import tsm.cli"` N times in each
checkout, alternating which side runs first, after one import per side that
writes the bytecode cache, and records each `tsm` module's self time and
tsm.cli's cumulative time (`total`), in microseconds.
These are uncalibrated wall-clock figures, unlike perfbench's `setup_s`.
The checkouts' `perfbench/` files should be identical; the script changes
no file in either checkout but for tsm's bytecode cache.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

FAULT_SIZES = (300, 3000)
FIG4_TIMED_RUNS = 3
FAULT_PROBE = """
import contextlib, io, json, os, resource, sys, tempfile, time
sys.path.insert(0, {src!r})
from tsm.cli import main
out = os.path.join(tempfile.mkdtemp(), "fig4.csv")
argv = ["sweep", "--preset", "fig4", "--n-providers", "{n}", "--seed", "1729", "--out", out]
ms, minflt = [], []
with contextlib.redirect_stdout(io.StringIO()):
    main(argv)
    main(argv)
    for _ in range({runs}):
        f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        main(argv)
        t1, f1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        ms.append(round(1e3 * (t1 - t0), 4))
        minflt.append(f1 - f0)
os.remove(out)
os.rmdir(os.path.dirname(out))
print(json.dumps({{"ms": ms[0], "min_ms": min(ms), "minflt": minflt[0]}}))
"""

VERIFY_PROBE = """
import contextlib, io, json, resource, sys, time
sys.path.insert(0, {src!r})
from tsm.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
    main(["verify", "--draws", "200", "--seed", "1729"])
    t1, usage = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({{"ms": round(1e3 * (t1 - t0), 4), "minflt": usage.ru_minflt - f0,
                  "maxrss_kb": usage.ru_maxrss}}))
"""


def probe_run(probe: str, checkout: Path, **fields) -> dict:
    """The JSON result line that `probe` prints in a fresh interpreter on the
    checkout's `src`."""
    done = subprocess.run([sys.executable, "-c", probe.format(src=str(checkout / "src"), **fields)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def verify_run(checkout: Path) -> dict:
    """One `verify --draws 200 --seed 1729` in a fresh interpreter: wall ms,
    minor faults of the run and the child's ru_maxrss in kB. verify exits 3
    at this seed, a standing result."""
    return probe_run(VERIFY_PROBE, checkout)


def fig4_run(checkout: Path, n: int) -> dict:
    """`sweep --preset fig4` at n providers in a fresh interpreter, after two
    warm-ups: wall ms and minor faults of the first timed run, and the
    minimum wall ms of FIG4_TIMED_RUNS runs."""
    return probe_run(FAULT_PROBE, checkout, n=n, runs=FIG4_TIMED_RUNS)


def modes(values: dict) -> dict:
    """Per side, how many of its values fall below and above the widest
    ratio gap between neighbours of all sides' values pooled. With two
    modes the gap parts them, so the counts say which mode each side's
    children drew; with one mode the gap is noise."""
    pooled = sorted(v for side_values in values.values() for v in side_values)
    split = max(zip(pooled, pooled[1:]), key=lambda pair: pair[1] / pair[0])
    cut = (split[0] * split[1]) ** 0.5
    return {"split_ms": round(cut, 4), **{
        side: {"below": sum(v < cut for v in side_values),
               "above": sum(v >= cut for v in side_values)}
        for side, side_values in values.items()}}


def alternating(rounds: int):
    """(round, side) for each run of `rounds` rounds of one run per side: the
    parent runs first on even rounds, the change on odd ones."""
    for i in range(rounds):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            yield i, side


IMPORT_PROBE = "import numpy; import tsm.cli"
# One line of `-X importtime`: "import time: <self us> | <cumulative us> | <indented name>".
IMPORT_LINE = re.compile(r"import time:\s*(\d+) \|\s*(\d+) \| *(tsm(?:\.\w+)?)$")


def import_times(checkout: Path) -> dict:
    """One fresh interpreter's `-X importtime` of tsm.cli after numpy, with the
    checkout's bytecode cache written and used: each tsm module's self time
    and tsm.cli's cumulative time (`total`), in microseconds."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
                          env=env, capture_output=True, text=True, check=True)
    times = {}
    for match in map(IMPORT_LINE.match, done.stderr.splitlines()):
        if match:
            times[match[3]] = int(match[1])
            if match[3] == "tsm.cli":
                times["total"] = int(match[2])
    return times


def is_work_tree(checkout: Path) -> bool:
    return subprocess.run(["git", "-C", str(checkout), "rev-parse", "--is-inside-work-tree"],
                          capture_output=True, text=True).stdout.strip() == "true"


def describe(checkout: Path) -> str:
    """The checkout's commit, marked `+dirty` when its tree has changes."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    return git("rev-parse", "--short", "HEAD") + ("+dirty" if git("status", "--porcelain") else "")


def host() -> dict:
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), cpu)
    return {"cpu_model": cpu, "nproc": os.cpu_count(), "machine": platform.machine(),
            "kernel": platform.release(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def bench_run(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run in `checkout`: its JSON result line."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True)
    if done.returncode or not done.stdout.strip():
        raise RuntimeError(f"perfbench failed in {checkout}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def side_spreads(runs: dict) -> dict:
    """Per side, the spread of each value over its runs' result dicts."""
    return {side: {k: spread([r[k] for r in side_runs]) for k in side_runs[0]}
            for side, side_runs in runs.items()}


def layer_spreads(runs: list[dict]) -> dict:
    """Per metric of traced runs' results: the spread of its values."""
    return {name: spread([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]}


def summarise(runs: dict, metrics: dict) -> dict:
    """Per metric: each side's spread, the change's wins and the median gap."""
    out = {}
    for name, better in metrics.items():
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1.0 if better == "higher" else -1.0
        p, c = spread(parent), spread(change)
        out[name] = {
            "better": better, "parent": p, "change": c,
            "change_better_pairs": f"{sum(sign * (b - a) > 0 for a, b in zip(parent, change))}"
                                   f"/{len(parent)}",
            "change_over_parent_median": round(c["median"] / p["median"], 4),
            "median_gap": sign * (c["median"] - p["median"]),
            "parent_iqr": p["q3"] - p["q1"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--fault-runs", type=int, default=0)
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--import-runs", type=int, default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in sides.items():
        if not is_work_tree(path):   # describe() records each side's commit
            print(f"error: {side} checkout {path} is not a git work tree"
                  " (use git clone, not git archive)", file=sys.stderr)
            return 1
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}"
                   " --trace 0",
        "method": f"{args.pairs} pairs per workload at --seed {args.first_seed}.."
                  f"{args.first_seed + args.pairs - 1}; even pairs run the parent first, odd"
                  " pairs the change; runs one at a time",
        "commits": {side: describe(path) for side, path in sides.items()},
        "host": host(), "workloads": {},
    }
    if args.fault_runs:
        report["in_process_fig4"] = {}
        for n in FAULT_SIZES:
            runs = {side: [] for side in sides}
            for _, side in alternating(args.fault_runs):
                runs[side].append(fig4_run(sides[side], n))
            report["in_process_fig4"][f"n={n}"] = dict(
                side_spreads(runs),
                modes=modes({side: [r["min_ms"] for r in side_runs]
                             for side, side_runs in runs.items()}))
        runs = {side: [] for side in sides}
        for _, side in alternating(args.fault_runs):
            runs[side].append(verify_run(sides[side]))
        report["verify_per_interpreter"] = side_spreads(runs)
    if args.import_runs:
        runs = {side: [] for side in sides}
        for side, path in sides.items():
            import_times(path)   # writes the bytecode cache, as perfbench's setup_s does
        for _, side in alternating(args.import_runs):
            runs[side].append(import_times(sides[side]))
        report["import_times_us"] = side_spreads(runs)
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for i, side in alternating(args.pairs):
            seed = args.first_seed + i
            result = bench_run(sides[side], workload, seed, args.seconds)
            runs[side].append(dict(result, seed=seed))
            print(f"{workload} seed {seed} {side}: correct={result['correct']} "
                  + " ".join(f"{m}={result['metrics'][m]['value']:.6g}" for m in metrics),
                  flush=True)
        report["workloads"][workload] = {"pairs": summarise(runs, metrics), "runs": runs}
        if args.trace_runs:
            traced = {"parent": [], "change": []}
            for i, side in alternating(args.trace_runs):
                result = bench_run(sides[side], workload, args.first_seed + i,
                                   args.seconds, trace=1)
                traced[side].append(result)
                print(f"{workload} seed {args.first_seed + i} {side} traced: "
                      f"correct={result['correct']}", flush=True)
            report["workloads"][workload]["traced"] = {
                side: layer_spreads(side_runs) for side, side_runs in traced.items()}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
