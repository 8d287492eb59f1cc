"""The three workloads, their stored references and their output checks."""

from __future__ import annotations

import csv
import hashlib
import json
import lzma
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# The benchmark's `--seed n` maps to the tsm seed INPUT_SEEDS[n % 4], so
# every input it can run has a stored reference. 1729 is the tsm default
# and a seed at which `verify` reports its known FOC failure. The pool is
# small because each scenario-eq reference takes about 0.5 MB.
INPUT_SEEDS = (1729, 7, 11, 23)

# Numeric CSV cells must agree with the reference within
# |got - ref| <= ATOL + RTOL * |ref|. The bound admits last-digit changes
# from reordered arithmetic and ROADMAP item 2's ~7e-8 shift of declared-
# price shares: a prototype of its closed form moved fig4 cells by at most
# 4.6e-7 relative over the four input seeds. ATOL only admits noise where
# the reference is 0; scenario-eq's supply cells go down to ~1e-7.
RTOL = 1e-5
ATOL = 1e-12
# The reference keeps non-integer cells to 8 significant digits, so its own
# rounding takes at most 5e-8 relative, 0.5% of RTOL.
STORED_DIGITS = 8

_INT = re.compile(r"[+-]?\d+")
# An error figure in a verify detail line, such as the 2.722e-06 of
# "max relative FOC 2.722e-06 over 200 equilibria (tol 1e-6)". Tolerances
# follow "tol " and stay part of the line's text.
_ERROR_FIGURE = re.compile(r"(?<!tol )(?<![\w.])\d+\.\d+e[+-]\d+")


def input_seed(seed: int) -> int:
    return INPUT_SEEDS[seed % len(INPUT_SEEDS)]


@dataclass(frozen=True)
class Workload:
    name: str
    items: int   # work items one repetition completes
    item: str    # what an item is
    args: tuple[str, ...]
    size_flag: str  # the option that sets how many providers or draws
    size: int
    writes_csv: bool

    def argv(self, seed: int, out: str, size: int | None = None) -> list[str]:
        argv = [*self.args, self.size_flag, str(size or self.size), "--seed", str(seed)]
        return argv + ["--out", out] if self.writes_csv else argv


WORKLOADS = {
    w.name: w for w in (
        Workload("fig4-sweep", 195 * 300, "provider-cell evaluation",
                 ("sweep", "--preset", "fig4"), "--n-providers", 300, True),
        Workload("scenario-eq", 3 * 10_000, "scenario record",
                 ("scenario", "--mode", "equilibrium",
                  "--scenario", "two_sided,fifty_fifty,pay_as_you_go"),
                 "--n-providers", 10_000, True),
        Workload("verify", 200, "reported equilibrium", ("verify",), "--draws", 200, False),
    )
}


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def parse_verdicts(stdout: str) -> tuple[dict[str, bool], dict[str, str]]:
    verdicts, details = {}, {}
    for line in stdout.splitlines():
        m = re.match(r"\[(PASS|FAIL)\] (\w+): (.*)", line)
        if m:
            verdicts[m.group(2)] = m.group(1) == "PASS"
            details[m.group(2)] = m.group(3)
    return verdicts, details


# ---------------------------------------------------------------------------
# References: one xz'd JSON per workload and tsm seed.
# ---------------------------------------------------------------------------


def _reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / workload / f"{seed}.json.xz"


def load_reference(workload: str, seed: int) -> dict:
    with lzma.open(_reference_path(workload, seed), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(workload: str, seed: int, entry: dict) -> None:
    path = _reference_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    with lzma.open(path, "wt", encoding="utf-8") as fh:
        json.dump(entry, fh, sort_keys=True)


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _stored(cell: str) -> str:
    if _INT.fullmatch(cell) or not _is_float(cell):
        return cell
    # repr keeps a float-looking form ("1.0", not "1") for a rounded value.
    return repr(float(f"{float(cell):.{STORED_DIGITS}g}"))


def _close(got: float, ref: float) -> bool:
    return abs(got - ref) <= ATOL + RTOL * abs(ref)


def csv_reference(path) -> dict:
    """The stored form of a CSV output: its sha256 and every cell, column by
    column, with non-integer cells rounded to STORED_DIGITS significant
    digits."""
    header, rows = _read_csv(path)
    return {"sha256": sha256_file(path), "header": header,
            "columns": [[_stored(cell) for cell in column] for column in zip(*rows)]}


def check_csv(path, ref: dict) -> list[str]:
    """Differences between a CSV output and its reference; [] if it passes.

    Every row is compared: text and integer cells must be equal, numeric
    cells must be within the tolerance above."""
    header, rows = _read_csv(path)
    ref_rows = list(zip(*ref["columns"]))
    if header != ref["header"]:
        return [f"header {header} != {ref['header']}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    errors = []
    for i, (got, want) in enumerate(zip(rows, ref_rows)):
        for name, g, r in zip(header, got, want):
            if g == r:
                continue
            if _INT.fullmatch(g) or _INT.fullmatch(r) or not (_is_float(g) and _is_float(r)):
                errors.append(f"row {i} {name}: {g!r} != {r!r}")
            elif not _close(float(g), float(r)):
                errors.append(f"row {i} {name}: {g} differs from {r} beyond tolerance")
        if len(errors) > 5:
            break
    return errors


def verify_reference(exit_code: int, stdout: str, drawn: int) -> dict:
    verdicts, details = parse_verdicts(stdout)
    return {"exit_code": exit_code, "verdicts": verdicts, "details": details,
            "drawn": drawn}


def _worse_figures(detail: str, ref_detail: str) -> str | None:
    """Why `detail` is worse than `ref_detail`, or None.

    The text around the error figures (counts, tolerances) must be equal,
    and no error figure may exceed the reference's by more than one unit
    in its last printed digit."""
    if _ERROR_FIGURE.sub("#", detail) != _ERROR_FIGURE.sub("#", ref_detail):
        return f"{detail!r} != reference {ref_detail!r}"
    for got, ref in zip(_ERROR_FIGURE.findall(detail), _ERROR_FIGURE.findall(ref_detail)):
        mantissa, exponent = ref.split("e")
        last_digit = 10.0 ** (int(exponent) - len(mantissa.split(".")[1]))
        if float(got) > float(ref) + last_digit:
            return f"{got} is worse than the reference's {ref} in {detail!r}"
    return None


def check_verify(exit_code: int, stdout: str, drawn: int, ref: dict) -> list[str]:
    got = verify_reference(exit_code, stdout, drawn)
    errors = [f"{key}: {got[key]} != reference {ref[key]}"
              for key in ("exit_code", "verdicts", "drawn") if got[key] != ref[key]]
    for name, ref_detail in ref["details"].items():
        why = _worse_figures(got["details"].get(name, ""), ref_detail)
        if why:
            errors.append(f"{name}: {why}")
    return errors
