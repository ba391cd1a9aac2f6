"""Byte identity across commits: one manifest of every artifact of a fixed op list.

    python tools/artifacts.py            # rewrite tools/artifacts.json
    python tools/artifacts.py --check    # compare a run with tools/artifacts.json
    python tools/artifacts.py --levels   # list the CPU dispatch levels numpy offers here

Runs each op of :func:`ops` in-process, as the benchmark does
(``perfbench/workloads.py``'s ``run_op``), each into its own directory of a
temporary one, and records per op its exit code and the sha256 of every file it
wrote, with the Python and numpy versions of the run.  ``--check`` names each op
whose exit code differs, and each file that differs, is missing or is new, and
exits 1 if there is any; a commit that changes an artifact rewrites the manifest
with it, so the diff of the manifest is that commit's record of byte identity.
In both modes a ``report`` op that exits other than 0, and a negative control
(:data:`NEGATIVE_CONTROLS`) that exits other than 1, is named and makes the run
exit 1 (the manifest is still written).

CI runs ``--check`` against the checked-in manifest on the numpy version it
records, each run a fresh process.  On the Pythons of its matrix where that
check does not run, it runs a plain run and a ``--check`` run in a fresh
process instead, so that every op's artifacts are byte-identical across two
processes.  These are the only CLI invocations CI runs.

numpy picks some float64 kernels by the CPU at run time.  ``--levels`` prints one
value of ``NPY_DISABLE_CPU_FEATURES`` a line, one for each dispatch level this CPU
offers (:func:`dispatch_levels`); CI runs ``--check`` under each, so the bytes do not
depend on the CPU's vector width either.  numpy's OpenBLAS picks its kernels by the
CPU too, which ``NPY_DISABLE_CPU_FEATURES`` does not reach, so CI also runs ``--check``
under ``OPENBLAS_CORETYPE`` Prescott, and Haswell on a CPU with AVX2 and FMA.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tools" / "artifacts.json"
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy  # noqa: E402
import workloads as wl  # noqa: E402


def _pair(name: str) -> list[str]:
    return ["--pair", f"demos/configs/{name}.json"]


_TREE = ["--tree", "demos/configs/tree_deviation.json"]
_ZERO_EXTENSION = ["--tree", "demos/configs/tree_zero_extension.json"]
_PAIRS = ["alpha_half", "alpha_one", "alpha_quarter", "alpha_zero", "explicit_huge",
          "mu25_5", "mu30_6", "mu42", "mu82", "mu93"]


# negative controls: each check must fail on these, so each must exit 1 in either mode
# (failed_controls).  orthogonality on b = [8, 8], d = [6, 4], where d_n does not divide
# b_n, finds 8,190 violating pairs; partition on mu42 at --level 8 has worst_defect
# 6.66e-16 against --tol 3e-16; dimension on alpha = 0.999 at --level 4 has box slope
# 0.764 against the formula's 0.650, outside the agreement of 0.05; report on the
# inadmissible pair stops at its checks {"pair": false, "tree": true}, so it fails only
# if every check must pass; partition with filters_overflow, whose coefficient sums
# overflow, has a failed certificate whose bounds -inf and inf are written as strings;
# partition with filters_negated42, -H_2, passes the QMF and window checks, so only the
# normalization G_1(0) = -1 fails its certificate
NEGATIVE_CONTROLS = [
    ["orthogonality", *_pair("explicit_inadmissible")],
    ["partition", *_pair("mu42"), "--level", "8", "--tol", "3e-16"],
    ["partition", *_pair("mu42"), "--filters", "demos/configs/filters_overflow.json", "--level", "1",
     "--budget", "100000000"],
    ["partition", *_pair("mu42"), "--filters", "demos/configs/filters_negated42.json", "--level", "2"],
    ["dimension", *_pair("alpha_near_one"), "--level", "4"],
    ["report", *_pair("explicit_inadmissible")],
]


def ops() -> list[list[str]]:
    """The fixed op list, paths relative to the repository root, each op once."""
    listed = [op for seed in (1, 2) for name in ("canonical", "tree-alpha")
              for op in wl.workload_ops(name, seed)]
    # completeness at levels past the walk depth, which run as polynomials in xi: mu25_5
    # takes the closed form of H_5, mu30_6 the H_2 and H_3 sub-levels of d_n = 6, alpha_zero
    # the H_2 sub-levels of d_4 = 16, and alpha_one --level 3 the explicit tail level
    # d_4 = 2048, which runs as 11 H_2 sub-levels like the tree's; past the group level
    # completeness walks one subtree group at a time: mu42 at --level 19, the deepest the
    # default word budget allows, in the most groups, and alpha_half at --level 5 in groups
    # over the H_2 sub-levels of d_5 = 32
    for spec in ["mu25_5:6", "mu30_6:5", "mu82:8", "mu93:8", "alpha_zero:4", "alpha_one:3",
                 "mu42:19", "alpha_half:5"]:
        pair, level = spec.split(":")
        listed.append(["completeness", *_pair(pair), "--level", level])
    # mu42 + tree_deviation at --level 1 and 5: at --level 1 level 2 is an explicit tail
    # level before the series, whose roots multiply into the series' by one rule; it is so
    # on mu42 whatever the table, as 2 (|u_2| + 1/2 / (2 rho_2)) = 0.375 > SERIES_THETA.  The
    # label of (1, 1) is not on a zero-extension of a level-1 word, so that op reads none
    # past the tree.  tree_zero_extension's label of (1, 0) is, at --level 1: it moves lambda
    # and u_2 of the tail past the tree.  report runs completeness at level 8 or deeper,
    # where that label is the tree's own
    listed += [["completeness", *_pair("mu42"), *_TREE, "--level", level] for level in ("1", "5")]
    listed.append(["completeness", *_pair("mu42"), *_ZERO_EXTENSION, "--level", "1"])
    listed.append(["report", *_pair("mu42"), *_ZERO_EXTENSION])
    # partition on alpha_half and alpha_quarter at --level 5 walks 15 H_2 sub-levels, the
    # last of 32,768 nodes in one-row tiles, a partition.csv that report never writes
    listed += [["partition", *_pair(pair), "--level", "5"]
               for pair in ("mu25_5", "mu30_6", "mu82", "mu93", "alpha_half", "alpha_quarter")]
    # the explicit filter levels, and the quotient b_3 / d_3 = 2^1099 of explicit_huge past
    # the double range
    listed.append(["partition", *_pair("mu42"), "--filters", "demos/configs/filters_modulated42.json",
                   "--level", "8"])
    listed.append(["partition", *_pair("explicit_huge"), "--level", "4"])
    # the valid label 2^1099 - 1 of the word (1,), past the double range: the digit tree
    # refuses it before the label walk, so partition exits 2 naming level 1 and the word
    listed.append(["partition", *_pair("label_past_range"), "--tree",
                   "demos/configs/tree_label_past_range.json", "--level", "2"])
    # the prime d_2 = 2^61 - 1 of the tail past level 1 is one sub-level of 2^60 - 1 rows
    # of angles: completeness exits 2 naming --budget, after trial division only as far as
    # the budget admits a factor
    listed.append(["completeness", *_pair("explicit_prime_tail"), "--level", "1"])
    # the composite d_2 = (2^31 - 1)(2^61 - 1) fails Fermat's test, so trial division runs,
    # to the cap of 10^6 + 1 only: completeness exits 2 naming --budget
    listed.append(["completeness", *_pair("explicit_composite_tail"), "--level", "1"])
    # dimension reads the exact integer tails at the endpoints alpha_zero and alpha_one, at
    # alpha_half and on mu42
    listed += [["dimension", *_pair(pair)] for pair in ("alpha_zero", "alpha_half", "alpha_one", "mu42")]
    # report runs every check of a pair and must pass (failed_reports): the alpha pairs run
    # the H_2 sub-levels of composite d_n, alpha_zero and alpha_one the paper's zero- and
    # one-dimensional endpoints, mu93 the cosine form of H_3, mu25_5 the closed form of H_5,
    # mu30_6 an H_2 and an H_3 sub-level per level, and mu42 + tree the table labels;
    # explicit_huge is left out, as its frequencies pass the range of the completeness
    # slack and report exits 2 on it.  Then completeness at further levels
    listed += [["report", *_pair(pair)] for pair in _PAIRS if pair != "explicit_huge"]
    listed.append(["report", *_pair("mu42"), *_TREE])
    for pair, level in [("mu42", 1), ("mu42", 2), ("mu42", 14), ("mu42", 18), ("mu93", 10),
                        ("alpha_quarter", 4), ("alpha_half", 4), ("mu25_5", 8), ("mu30_6", 6)]:
        listed.append(["completeness", *_pair(pair), "--level", str(level)])
    # completeness at its default level on every pair (six exceed the word budget and
    # explicit_huge the slack's range: exit 2), and the subcommands no op above runs
    listed += [["completeness", *_pair(pair)] for pair in _PAIRS]
    listed += [[name, *_pair("mu42")] for name in ("pair", "spectrum", "orthogonality", "beurling")]
    # the sampler sums 2^16 samples a block: --count 20000 on mu42 stays inside one block,
    # and --count 70001 on alpha_half crosses a block boundary on its d_n = 2^n levels
    listed.append(["sample", *_pair("mu42"), "--count", "20000"])
    listed.append(["sample", *_pair("alpha_half"), "--count", "70001"])
    listed += NEGATIVE_CONTROLS
    prefix = f"{ROOT}/"
    unique = []
    for op in listed:
        op = [arg.removeprefix(prefix) for arg in op]
        if op not in unique:  # the seed-free workload ops repeat across seeds
            unique.append(op)
    return unique


def run() -> dict:
    """The manifest of one run of :func:`ops`."""
    cli = wl.import_cli()
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, op in enumerate(ops()):
            outdir = wl.op_dir(Path(tmp), i, op)
            argv = [str(ROOT / arg) if arg.startswith("demos/") else arg for arg in op]
            with contextlib.redirect_stderr(io.StringIO()):  # the exit-2 ops' error lines
                code = wl.run_op(cli.main, argv, outdir)
            records.append({"op": " ".join(op), "exit": code, "files": wl.artifact_hashes(outdir)})
    return {"python": platform.python_version(), "numpy": numpy.__version__, "ops": records}


def differences(want: dict, got: dict) -> list[str]:
    """One line per op whose exit code differs and per file that differs, is missing
    or is new; ops are matched by their command line."""
    ran = {rec["op"]: rec for rec in got["ops"]}
    listed = {rec["op"] for rec in want["ops"]}
    lines = [f"{op}: not in the manifest" for op in ran if op not in listed]
    for rec in want["ops"]:
        other = ran.get(rec["op"])
        if other is None:
            lines.append(f"{rec['op']}: not run")
            continue
        if other["exit"] != rec["exit"]:
            lines.append(f"{rec['op']}: exit {other['exit']}, manifest {rec['exit']}")
        for name in sorted(set(rec["files"]) | set(other["files"])):
            a, b = rec["files"].get(name), other["files"].get(name)
            if a != b:
                state = "missing" if b is None else "new" if a is None else "differs"
                lines.append(f"{rec['op']}: {name} {state}")
    return lines


def failed_reports(manifest: dict) -> list[str]:
    """One line per ``report`` op other than a negative control that did not exit 0,
    whatever the manifest it is compared with records: report runs every check of a
    pair, and must pass on each."""
    controls = {" ".join(op) for op in NEGATIVE_CONTROLS}
    return [f"{rec['op']}: exit {rec['exit']}, report must exit 0" for rec in manifest["ops"]
            if rec["op"].startswith("report ") and rec["op"] not in controls and rec["exit"] != 0]


def failed_controls(manifest: dict) -> list[str]:
    """One line per negative control that did not exit 1, whatever the manifest it is
    compared with records: a control that passes shows a verdict that cannot fail."""
    controls = {" ".join(op) for op in NEGATIVE_CONTROLS}
    return [f"{rec['op']}: exit {rec['exit']}, a negative control must exit 1"
            for rec in manifest["ops"] if rec["op"] in controls and rec["exit"] != 1]


def umath():
    """numpy's ``_multiarray_umath``, whose ``__cpu_features__`` maps each CPU feature
    numpy knows to whether this CPU has it."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    return _multiarray_umath


def dispatch_levels() -> list[str]:
    """The values of ``NPY_DISABLE_CPU_FEATURES`` that select each dispatch level numpy
    offers on this CPU, from the highest (nothing disabled) to the baseline: each
    disables the dispatch targets this CPU supports from one of them upward.  Only names
    of numpy's ``__cpu_dispatch__`` appear, as numpy warns on any other."""
    numpy_cpu = umath()
    targets = [name for name in numpy_cpu.__cpu_dispatch__ if numpy_cpu.__cpu_features__.get(name)]
    return [" ".join(targets[i:]) for i in range(len(targets), -1, -1)]


def main(argv: list[str]) -> int:
    if argv == ["--levels"]:
        print(*dispatch_levels(), sep="\n")
        return 0
    if argv not in ([], ["--check"]):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    got = run()
    lines = []
    if argv:
        want = json.loads(MANIFEST.read_text())
        for key in ("python", "numpy"):
            if want[key] != got[key]:
                print(f"note: {key} {got[key]} here, {want[key]} in the manifest")
        lines = differences(want, got)
        for line in lines:
            print(line)
        print(f"{len(lines)} differences over {len(got['ops'])} ops")
    else:
        MANIFEST.write_text(json.dumps(got, indent=1) + "\n")
        print(f"wrote {MANIFEST.relative_to(ROOT)}: {len(got['ops'])} ops")
    failed = failed_reports(got) + failed_controls(got)
    for line in failed:
        print(line)
    return 1 if lines or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
