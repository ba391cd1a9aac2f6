"""Workload definitions and per-op correctness checks for the cantorspec benchmark.

A workload is a fixed list of CLI invocations (ops), each an argv list for
``cantorspec.cli.main``.  The workload seed is forwarded as ``--seed`` to every
op that draws random numbers (``sample``, ``partition``, ``report``).  One
pass runs every op once, in order, each writing into its own output
directory, so that two ops never overwrite each other's artifacts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "demos" / "configs"
ORACLE_FILE = ROOT / "tests" / "oracles" / "completeness_gap_oracle.out"

# acceptance pin on the L=12 worst gap of the (4,2) completeness trend,
# frozen from the mpmath oracle (tests/test_acceptance.py)
ORACLE_GAP_PIN_L12 = 2.026e-7
ORACLE_LEVELS = 12
ORACLE_GRID_POINTS = 33
# grid points where the oracle gap is exactly 0 get this absolute bound
ZERO_GAP_ABS_TOL = 1e-12


def _pair(name: str) -> list[str]:
    return ["--pair", str(CONFIGS / f"{name}.json")]


_TREE = ["--tree", str(CONFIGS / "tree_deviation.json")]

# the op whose completeness.csv is compared against the mpmath oracle
ORACLE_OP = ["completeness", *_pair("mu42"), "--level", str(ORACLE_LEVELS), "--grid", "32"]


def workload_ops(name: str, seed: int) -> list[list[str]]:
    """The ops of workload ``name`` for workload seed ``seed``."""
    s = ["--seed", str(seed)]
    if name == "canonical":
        # certified floating-point path on constant pairs with canonical labels
        return [
            ["completeness", *_pair("mu42"), "--level", "16", "--grid", "32"],
            ORACLE_OP,
            ["partition", *_pair("mu93"), "--level", "8", "--draws", "50", *s],
            ["partition", *_pair("mu42"), "--level", "14", "--draws", "50", *s],
        ]
    if name == "sample":
        # artifact writing and sampling; no Fourier work at all
        return [["sample", *_pair("mu42"), "--count", "1000000", *s]]
    if name == "tree-alpha":
        # per-word walk, alpha-rule scales, pairwise orthogonality, dimension
        return [
            ["report", *_pair("alpha_quarter"), "--draws", "10", *s],
            ["report", *_pair("alpha_half"), *s],
            ["partition", *_pair("mu42"), *_TREE, "--level", "12", "--draws", "20", *s],
            ["completeness", *_pair("mu42"), *_TREE, "--level", "12", "--grid", "32"],
            ["orthogonality", *_pair("mu42"), *_TREE, "--level", "9"],
        ]
    raise KeyError(name)


WORKLOADS = ("canonical", "sample", "tree-alpha")


def op_dir(pass_dir: Path, index: int, op: list[str]) -> Path:
    return pass_dir / f"{index:02d}_{op[0]}"


def run_op(main, op: list[str], outdir: Path) -> int:
    """Run one op in-process; a usage error (SystemExit) becomes its exit code."""
    try:
        return main([*op, "--out", str(outdir)])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def artifact_hashes(outdir: Path) -> dict[str, str]:
    if not outdir.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.is_file()}


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def _cell_parses(cell: str) -> bool:
    if cell in ("True", "False"):
        return True
    for kind in (int, float):
        try:
            kind(cell)
            return True
        except ValueError:
            pass
    return False


def _parse_problems(outdir: Path) -> list[str]:
    """Every CSV cell must read back as int, float or bool; JSON must be strict."""
    problems = []
    for path in sorted(outdir.glob("*.csv")):
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            next(rows, None)  # header
            for lineno, row in enumerate(rows, start=2):
                bad = [c for c in row if not _cell_parses(c)]
                if bad:
                    problems.append(f"{path.name}:{lineno} unparseable cell {bad[0]!r}")
                    break
    for path in sorted(outdir.glob("*.json")):
        try:
            json.loads(path.read_text(), parse_constant=_reject_constant)
        except ValueError as exc:
            problems.append(f"{path.name}: {exc}")
    return problems


def _report_problems(outdir: Path) -> list[str]:
    reports = sorted(outdir.glob("*report.json"))
    if len(reports) != 1:
        return [f"expected one JSON report, found {[p.name for p in reports]}"]
    try:
        doc = json.loads(reports[0].read_text())
    except ValueError as exc:
        return [f"{reports[0].name}: {exc}"]
    problems = []
    if doc.get("passed") is not True:
        problems.append(f"{reports[0].name}: passed is {doc.get('passed')!r}")
    failed_checks = [k for k, v in doc.get("checks", {}).items() if v is not True]
    if failed_checks:
        problems.append(f"{reports[0].name}: failed checks {failed_checks}")
    return problems


def check_op(code: int, outdir: Path, reference: dict[str, str] | None) -> list[str]:
    """Problems with one op's result; an empty list means the op passed.

    ``reference`` holds the artifact hashes of the same op from the reference
    pass; every artifact must be byte-identical to it.
    """
    problems = [] if code == 0 else [f"exit code {code}"]
    if reference is not None:
        hashes = artifact_hashes(outdir)
        if hashes != reference:
            differing = sorted(k for k in set(hashes) | set(reference)
                               if hashes.get(k) != reference.get(k))
            problems.append(f"artifacts differ from the reference pass: {differing}")
    return problems + _report_problems(outdir) + _parse_problems(outdir)


def _read_oracle() -> dict[float, list[float]]:
    gaps = {}
    for line in ORACLE_FILE.read_text().splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#") or len(fields) != ORACLE_LEVELS + 1:
            continue
        xi, *row = map(float, fields)
        gaps[xi] = row
    return gaps


def oracle_gap_error(outdir: Path) -> tuple[float, list[str]]:
    """Largest relative error of 1 - Q_L against the mpmath oracle, and problems.

    Runs over the 33 grid points and L = 1..12 of ``ORACLE_OP``'s
    ``completeness.csv``.  Where the oracle gap is 0 the computed gap must be
    within ``ZERO_GAP_ABS_TOL`` instead.  The op also fails when its L=12
    worst gap exceeds the acceptance pin.
    """
    oracle = _read_oracle()
    worst = 0.0
    seen = 0
    problems = []
    with open(outdir / "completeness.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            xi, level = float(row["xi"]), int(row["L"])
            if xi not in oracle or not 1 <= level <= ORACLE_LEVELS:
                continue
            seen += 1
            gap = 1.0 - float(row["Q"])
            ref = oracle[xi][level - 1]
            if ref == 0.0:
                if abs(gap) > ZERO_GAP_ABS_TOL:
                    problems.append(f"xi={xi} L={level}: gap {gap:.3e} where the oracle has 0")
            else:
                worst = max(worst, abs(gap - ref) / ref)
    if seen != ORACLE_GRID_POINTS * ORACLE_LEVELS:
        problems.append(f"compared {seen} oracle points, expected "
                        f"{ORACLE_GRID_POINTS * ORACLE_LEVELS}")
    worst_gap = json.loads((outdir / "completeness_report.json").read_text())["worst_gap"]
    if not worst_gap <= ORACLE_GAP_PIN_L12:
        problems.append(f"L={ORACLE_LEVELS} worst_gap {worst_gap:.4e} above the pin "
                        f"{ORACLE_GAP_PIN_L12:.3e}")
    if not math.isfinite(worst):
        problems.append(f"relative gap error is {worst}")
    return worst, problems


def import_cli():
    """Import ``cantorspec.cli`` from the checkout's ``src`` directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from cantorspec import cli
    return cli
