"""Regenerate the benchmark's stored data from the current tsm sources.

    python3 perfbench/refresh.py references   # perfbench/reference/*/*.json.xz
    python3 perfbench/refresh.py nominal      # perfbench/host.json

Run `references` only when a change to tsm is meant to change its outputs,
and say in CHANGES.md what changed. Run `nominal` only when the calibration
kernel changes: the nominal slice time fixes the unit every calibrated time
is expressed in, so changing it rescales all results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile

import calib
import run
import worker
import workloads


def make_references() -> None:
    run.pin_environment()
    import tsm.cli

    drawn = []
    original = tsm.cli.draw_reported_equilibria

    def probe(*args, **kwargs):
        result = original(*args, **kwargs)
        drawn.append(result[1])
        return result

    tsm.cli.draw_reported_equilibria = probe
    for name, workload in sorted(workloads.WORKLOADS.items()):
        for seed in workloads.INPUT_SEEDS:
            drawn.clear()
            with tempfile.TemporaryDirectory() as tmp:
                out = os.path.join(tmp, "out.csv")
                code, stdout = worker.call_cli(tsm.cli, workload.argv(seed, out))
                if workload.writes_csv:
                    if code != 0:
                        raise SystemExit(f"{name} seed {seed}: exit code {code}")
                    entry = workloads.csv_reference(out)
                else:
                    entry = workloads.verify_reference(code, stdout, drawn[0])
            workloads.save_reference(name, seed, entry)
            print(f"{name} seed {seed}: done", file=sys.stderr)


def write_nominal() -> None:
    import numpy

    host = {
        "nominal_slice_ms": round(1e3 * calib.median_slice_s(2000), 4),
        "kernel_rounds": calib.KERNEL_ROUNDS,
        "measured_on": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": numpy.__version__, "machine": platform.machine()},
    }
    (run.HERE / "host.json").write_text(json.dumps(host, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(host))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("references", "nominal"))
    args = parser.parse_args()
    if args.what == "references":
        make_references()
    else:
        write_nominal()


if __name__ == "__main__":
    main()
