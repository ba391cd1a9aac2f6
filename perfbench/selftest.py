"""Smoke run of the benchmark harness on shrunken ops (about half a minute).

Usage (from the repository root): python3 perfbench/selftest.py

Runs every workload with tracing off and on, with each op's sizes cut down
but its subcommand, configs and layers kept, and checks that the last output
line carries every metric of BENCHMARK.json with its unit.  It also checks
that the harness refuses to run without the program's sources.  Exit code 0
when every check holds.
"""

import contextlib
import io
import json
import sys

import run
import workloads as wl

SMALL_SIZES = {"--level": "4", "--grid": "4", "--draws": "2", "--count": "1000"}
FULL_OPS = wl.workload_ops


def small_ops(name: str, seed: int) -> list[list[str]]:
    # the oracle op keeps its size: the gap check needs L=1..12 on 33 points
    return [op if op == wl.ORACLE_OP else
            [SMALL_SIZES.get(prev, arg) for prev, arg in zip([None, *op], op)]
            for op in FULL_OPS(name, seed)]


def main() -> int:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    wl.workload_ops = small_ops
    problems = []
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace)])
            result = json.loads(out.getvalue().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{workload} trace={trace}"
            if code != 0:
                problems.append(f"{label}: exit code {code}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                problems.append(f"{label}: missing {missing}, extra {extra}, wrong unit {wrong}")
            print(f"{label}: {len(got)} metrics, attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    wl.SRC = wl.ROOT / "no-such-src"
    with contextlib.redirect_stderr(io.StringIO()):
        if run.main(["--workload", "sample", "--seed", "1", "--seconds", "1"]) == 0:
            problems.append("run succeeded without the program's sources")
    for problem in problems:
        print(f"SELFTEST FAILED {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
