"""Record the sha256 of every output that a change must keep byte for byte.

    PYTHONPATH=src python3 tools/output_sha256.py

Each entry runs `tsm.cli.main(argv)` in process, or one of the demos by
`runpy`, in a fresh directory, with any CSV written to `out.csv` there. Its
record is the exit code and the sha256 of the output file (null without
one) and of stdout. The script reruns every entry, prints the entries whose
record moved, and rewrites tests/data/output_sha256.json with the numpy
version and SIMD features it ran under, since floating-point results may
differ on another host. tests/test_output_sha256.py reruns the entries and
compares.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data" / "output_sha256.json"
SEEDS = (1729, 7, 11, 23)
# The game with one equilibrium that the tests call FEASIBLE_PARAMS, and one
# whose provider price response has no maximum (f2 fails).
FEASIBLE_FLAGS = ["--alpha", "0.4157495017341835", "--beta", "2.0116927898597186",
                  "--gamma", "0.2746010273260006", "--psi", "0.1",
                  "--phi", "0.4281244537440676", "--k1", "0.8706127934353941",
                  "--f_c", "0.4668312747528217"]
INFEASIBLE_FLAGS = ["--alpha", "0.5", "--beta", "1.0", "--gamma", "0.3", "--phi", "2.0",
                    "--k1", "0.5", "--f_c", "1.0"]


def entries() -> dict[str, list[str]]:
    """Entry name -> argv: `tsm` arguments, or ["demo", file name]."""
    from tsm.population import AXES

    out = ["--out", "out.csv"]
    huge_gamma = [*FEASIBLE_FLAGS, "--gamma", "1e300"]   # the later flag wins
    found = {"equilibrium feasible": ["equilibrium", *FEASIBLE_FLAGS, *out],
             "equilibrium infeasible": ["equilibrium", *INFEASIBLE_FLAGS, *out],
             "equilibrium gamma 1e300": ["equilibrium", *huge_gamma, *out]}
    for seed in SEEDS:
        run = ["--n-providers", "300", "--seed", str(seed), *out]
        found[f"sweep fig4 seed {seed}"] = ["sweep", "--preset", "fig4", *run]
        for mode in ("equilibrium", "declared-price"):
            found[f"scenario {mode} seed {seed}"] = ["scenario", "--mode", mode, *run]
        found[f"verify seed {seed}"] = ["verify", "--draws", "200", "--seed", str(seed)]
    for axis in AXES:
        for mode in ("equilibrium", "declared-price"):
            for n in (7, 300):
                for seed in SEEDS:
                    found[f"sweep {axis} {mode} n {n} seed {seed}"] = [
                        "sweep", "--axis", axis, "--mode", mode, "--n-providers", str(n),
                        "--seed", str(seed), *out]
    seed = SEEDS[0]
    found[f"sweep fig4 n 3000 seed {seed}"] = [
        "sweep", "--preset", "fig4", "--n-providers", "3000", "--seed", str(seed), *out]
    for mode in ("equilibrium", "declared-price"):
        found[f"scenario {mode} n 10000 seed {seed}"] = [
            "scenario", "--mode", mode, "--n-providers", "10000", "--seed", str(seed), *out]
    for demo in sorted((ROOT / "demos").glob("*.py")):
        found[f"demo {demo.name}"] = ["demo", demo.name]
    return found


def host() -> dict:
    """The numpy version and the SIMD features its kernels may dispatch on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:   # numpy 1
        from numpy.core._multiarray_umath import __cpu_features__
    return {"numpy": np.__version__, "simd": sorted(k for k, on in __cpu_features__.items() if on)}


def host_difference(recorded: dict, here: dict) -> str:
    """How this host differs from the recorded one, or "" if it does not."""
    parts = []
    if recorded["numpy"] != here["numpy"]:
        parts.append(f"numpy {recorded['numpy']} recorded, {here['numpy']} here")
    for label, names in (("missing", set(recorded["simd"]) - set(here["simd"])),
                         ("extra", set(here["simd"]) - set(recorded["simd"]))):
        if names:
            parts.append(f"SIMD features {label} here: {', '.join(sorted(names))}")
    return "; ".join(parts)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], directory: Path) -> dict:
    """Run one entry with `directory` (created) as the working directory: its
    exit code and the sha256 of its output file and of its stdout."""
    from tsm import cli

    directory.mkdir(parents=True)
    stdout, cwd = io.StringIO(), os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(stdout):
            if argv[0] == "demo":
                runpy.run_path(str(ROOT / "demos" / argv[1]), run_name="__main__")
                code = 0
            else:
                code = cli.main(argv)
    finally:
        os.chdir(cwd)
    output = directory / "out.csv"
    return {"exit": code, "output": _sha256(output.read_bytes()) if output.exists() else None,
            "stdout": _sha256(stdout.getvalue().encode("utf-8"))}


def moved(recorded: dict, got: dict) -> list[str]:
    """One line per entry whose exit code or hashes differ between the two
    records (name -> {"exit", "output", "stdout", ...}), or that only one has."""
    lines = []
    for name in dict.fromkeys([*recorded, *got]):
        if name not in recorded or name not in got:
            lines.append(f"{name}: {'added' if name in got else 'removed'}")
            continue
        fields = [k for k in ("exit", "output", "stdout") if recorded[name][k] != got[name][k]]
        if fields:
            lines.append(f"{name}: {', '.join(fields)} moved")
    return lines


def record() -> dict:
    """Every entry's record, keyed by name."""
    with tempfile.TemporaryDirectory() as tmp:
        return {name: {"argv": argv, **run(argv, Path(tmp, str(i)))}
                for i, (name, argv) in enumerate(entries().items())}


def main() -> int:
    recorded = json.loads(DATA.read_text(encoding="utf-8"))["entries"] if DATA.exists() else {}
    got = record()
    for line in moved(recorded, got):
        print(line)
    DATA.write_text(json.dumps({"host": host(), "entries": got}, indent=1) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
