"""cantorspec benchmark: CLI workloads run in-process, end-to-end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload canonical --seed 1 --seconds 15 --trace 0

One process and one client run a closed loop: each op of the workload is a
``cantorspec.cli.main(argv)`` call started when the previous one returned.
``--trace 0`` measures the end-to-end metrics with tracing off, with times
brought to a fixed reference pace of the host (see ``pace.py``); ``--trace 1``
is a separate traced run that reports the per-layer metrics.  Every op is
checked for correctness either way (see ``workloads.check_op``).  The last
line of standard output is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from pace import Pacer
from tracing import COUNTED_NAMES, Tracer

HERE = Path(__file__).resolve().parent
WORK = wl.ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(wl.SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(pacer: Pacer) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing ``cantorspec.cli``:
    raw, and at the reference pace (see ``pace``)."""
    cmd = [sys.executable, "-c", "import cantorspec.cli"]
    raw, paced = [], []
    for i in range(SETUP_SAMPLES + 1):  # the first run may compile bytecode
        _, wall, _, scale = pacer.time(False, lambda: subprocess.run(
            cmd, env=_child_env(), cwd=wl.ROOT, check=True, timeout=CHILD_TIMEOUT_S))
        if i:
            raw.append(wall)
            paced.append(wall * scale)
    return statistics.median(raw), statistics.median(paced)


def reference_pass(ops: list[list[str]], pass_dir: Path) -> tuple[list[dict], float]:
    """One pass in a fresh interpreter: per-op artifact hashes and peak RSS (MiB)."""
    out = subprocess.run([sys.executable, str(HERE / "fresh_pass.py"),
                          str(wl.fresh_dir(pass_dir)), json.dumps(ops)],
                         env=_child_env(), cwd=wl.ROOT, check=True, capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT_S)
    result = json.loads(out.stdout.splitlines()[-1])
    return ([wl.artifact_hashes(wl.op_dir(pass_dir, i, op)) for i, op in enumerate(ops)],
            result["peak_rss_mb"])


class Runner:
    """Runs passes of one workload and counts the ops that fail their checks."""

    def __init__(self, ops: list[list[str]], work: Path):
        self.ops = ops
        self.pass_dir = work / "pass"
        self.reference, self.peak_rss_mb = reference_pass(ops, work / "reference")
        self.cli = wl.import_cli()
        self.attempted = 0
        self.failures: list[str] = []
        self.gap_rel_err: float | None = None

    def run_pass(self, main=None, pacer: Pacer | None = None) -> list[tuple[float, float, float]]:
        """One pass over the ops.

        Returns each op's (wall seconds, CPU seconds, scale): the raw times,
        and with a ``pacer`` the factor that brings them to the reference
        pace (1.0 without one).
        """
        main = main or self.cli.main
        wl.fresh_dir(self.pass_dir)
        dirs = [wl.op_dir(self.pass_dir, i, op) for i, op in enumerate(self.ops)]
        codes, times = [], []
        for op, d in zip(self.ops, dirs):
            if pacer:
                code, wall, cpu, scale = pacer.time(True, wl.run_op, main, op, d)
            else:
                wall0, cpu0 = time.perf_counter(), time.process_time()
                code = wl.run_op(main, op, d)
                wall, cpu, scale = time.perf_counter() - wall0, time.process_time() - cpu0, 1.0
            codes.append(code)
            times.append((wall, cpu, scale))
        for op, d, code, ref in zip(self.ops, dirs, codes, self.reference):
            problems = wl.check_op(code, d, ref)
            if op == wl.ORACLE_OP:
                problems += self._oracle_problems(code, d)
            self.attempted += 1
            if problems:
                self.failures.append(f"{_op_text(op)}: " + "; ".join(problems))
        return times

    def _oracle_problems(self, code: int, outdir: Path) -> list[str]:
        if code != 0:
            return []
        self.gap_rel_err, problems = wl.oracle_gap_error(outdir)
        return problems

    def oracle_probe(self, outdir: Path) -> float:
        """The oracle op's relative gap error.

        A workload without the oracle op runs it once, untimed and outside
        its op count; a failure there stops the benchmark.
        """
        if self.gap_rel_err is None:
            code = wl.run_op(self.cli.main, wl.ORACLE_OP, wl.fresh_dir(outdir))
            problems = wl.check_op(code, outdir, None) + self._oracle_problems(code, outdir)
            if problems:
                raise RuntimeError(f"oracle probe {_op_text(wl.ORACLE_OP)} failed: "
                                   + "; ".join(problems))
        return self.gap_rel_err


def _op_text(op: list[str]) -> str:
    return " ".join(op[:1] + [Path(a).name for a in op[1:]])


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def describe_timing(name: str, values: list[float]) -> str:
    tail = tail_percentile(values)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                 else "no percentile has 10 samples beyond it")
    return (f"{name:<14} median {statistics.median(values):.4f} s over n={len(values)} "
            f"passes; {tail_text}")


def repeat_for(seconds: float, fn) -> list:
    """Results of calling ``fn`` at least once, and again while the next call
    is expected to end within ``seconds`` of the first one's start."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(fn())
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def paced_pass(passes: list[list[tuple[float, float, float]]], column: int) -> float:
    """Sum over the ops of each op's median time at the reference pace."""
    return sum(statistics.median(times[column] * times[2] for times in op_times)
               for op_times in zip(*passes))


def end_to_end(runner: Runner, seconds: int, work: Path) -> dict[str, tuple[float, str]]:
    pacer = Pacer()
    raw_setup_s, setup_s = measure_setup(pacer)
    passes = repeat_for(seconds, lambda: runner.run_pass(pacer=pacer))
    gap_rel_err = runner.oracle_probe(work / "oracle")
    failed = len(runner.failures)
    wall_s, cpu_s = paced_pass(passes, 0), paced_pass(passes, 1)
    print(f"{'wall_s':<14} {wall_s:.4f} s: sum of each op's median wall time at the reference pace")
    print(f"{'cpu_s':<14} {cpu_s:.4f} s: sum of each op's median CPU time at the reference pace")
    print(describe_timing("raw pass wall", [sum(t[0] for t in p) for p in passes]))
    print(describe_timing("raw pass cpu", [sum(t[1] for t in p) for p in passes]))
    print(f"{'peak_rss_mb':<14} {runner.peak_rss_mb:.1f} MiB (fresh process, one pass)")
    print(f"{'setup_s':<14} median {setup_s:.4f} s of {SETUP_SAMPLES} fresh imports at the "
          f"reference pace ({raw_setup_s:.4f} s raw)")
    print(f"{'failed_ratio':<14} {failed}/{runner.attempted} = "
          f"{failed / runner.attempted:.4f} ratio")
    print(f"{'gap_rel_err':<14} {gap_rel_err:.4e} ratio (L=1..12, 33 grid points)")
    return {
        "wall_s": (wall_s, "s"),
        "cpu_s": (cpu_s, "s"),
        "peak_rss_mb": (runner.peak_rss_mb, "MiB"),
        "setup_s": (setup_s, "s"),
        "gap_rel_err": (gap_rel_err, "ratio"),
    }


DIMENSION_SPANS = ("dimension.hausdorff_dim_formula", "dimension.box_counting_dim",
                   "dimension.build_intervals", "dimension.beurling_vs_hausdorff",
                   "dimension.rescale_constant")
SVG_SPANS = ("svgplot.line_chart", "svgplot.scatter", "svgplot.histogram")
LAYER_UNITS = {"kernel_args_per_term": "ratio", "cli.artifact_bytes": "bytes"}


def _pass_layers(tracer: Tracer, pass_id: int, artifact_bytes: int) -> dict[str, float]:
    calls, self_s = tracer.pass_summary(pass_id)
    counts = tracer.counts[pass_id]
    m = {
        "fourier.eval_H_array.calls": calls["fourier.eval_H_array"],
        "fourier.eval_H_array.args": counts["fourier.eval_H_array.args"],
        "fourier.eval_H_array.self_s": self_s["fourier.eval_H_array"],
        "fourier.mu_hat_array.calls": calls["fourier.mu_hat_array"],
        "fourier.mu_hat_array.levels": counts["fourier.mu_hat_array.levels"],
        "fourier.mu_hat_array.self_s": self_s["fourier.mu_hat_array"],
        "spectra.enumerate_level.calls": calls["spectra.enumerate_level"],
        "spectra.enumerate_level.words": counts["spectra.enumerate_level.words"],
        "spectra.enumerate_level.self_s": self_s["spectra.enumerate_level"],
        "verify.completeness_Q.self_s": self_s["verify.completeness_Q"],
        "verify.completeness_Q.terms": counts["verify.completeness_Q.terms"],
        "verify.partition_identity.calls": calls["verify.partition_identity"],
        "verify.partition_identity.terms": counts["verify.partition_identity.terms"],
        "verify.partition_identity.self_s": self_s["verify.partition_identity"],
        "verify.orthogonality_check.pairs": counts["verify.orthogonality_check.pairs"],
        "verify.orthogonality_check.self_s": self_s["verify.orthogonality_check"],
        "dimension.self_s": sum(self_s[n] for n in DIMENSION_SPANS),
        "sampling.sample_measure.self_s": self_s["sampling.sample_measure"],
        "sampling.samples": counts["sampling.sample_measure.samples"],
        "svgplot.self_s": sum(self_s[n] for n in SVG_SPANS),
        "cli.write_csv.self_s": self_s["cli.write_csv"],
        "cli.write_csv.rows": counts["cli.write_csv.rows"],
        "cli.write_json.self_s": self_s["cli.write_json"],
        "cli.artifact_bytes": artifact_bytes,
        "cli.main.self_s": self_s["cli.main"],
    }
    terms = m["verify.completeness_Q.terms"] + m["verify.partition_identity.terms"]
    m["kernel_args_per_term"] = m["fourier.eval_H_array.args"] / terms if terms else 0.0
    return m


def per_layer(runner: Runner, seconds: int, work: Path) -> dict[str, tuple[float, str]]:
    tracer = Tracer()
    traced_main = tracer.span("cli.main", runner.cli.main)

    def traced_pair():
        untraced_wall = sum(t[0] for t in runner.run_pass())
        tracer.pass_id += 1
        tracer.install_spans()
        try:
            traced_wall = sum(t[0] for t in runner.run_pass(traced_main))
        finally:
            tracer.uninstall()
        size = sum(p.stat().st_size for p in runner.pass_dir.rglob("*") if p.is_file())
        return _pass_layers(tracer, tracer.pass_id, size), traced_wall, untraced_wall

    layers, traced_walls, untraced_walls = zip(*repeat_for(seconds, traced_pair))
    tracer.pass_id += 1
    tracer.install_counters()
    try:
        runner.run_pass()
    finally:
        tracer.uninstall()
    counted = tracer.counts[tracer.pass_id]
    (work / "spans.json").write_text(json.dumps(tracer.dump()))

    metrics = {}
    for name in layers[0]:
        if name.endswith("_s"):  # times vary per pass; counts repeat exactly
            metrics[name] = (statistics.median(layer[name] for layer in layers), "s")
        else:
            metrics[name] = (layers[-1][name], LAYER_UNITS.get(name, "count"))
    for name in COUNTED_NAMES:
        metrics[f"{name}.calls"] = (counted[name], "count")
    metrics["trace_overhead_s"] = (
        statistics.median(t - u for t, u in zip(traced_walls, untraced_walls)), "s")
    last = layers[-1]
    terms = last["verify.completeness_Q.terms"] + last["verify.partition_identity.terms"]
    print(f"traced passes: {len(layers)}, median wall {statistics.median(traced_walls):.4f} s "
          f"(untraced {statistics.median(untraced_walls):.4f} s); "
          f"spans written to {work / 'spans.json'}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:.6g} {unit}")
    print(f"kernel_args_per_term = {last['fourier.eval_H_array.args']} kernel args / "
          f"{terms} terms (completeness_Q + partition_identity)")
    return metrics


def _git_commit() -> str:
    head = wl.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (wl.ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    return {"seed": seed, "commit": _git_commit(), "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    work = wl.fresh_dir(WORK / workload)
    runner = Runner(wl.workload_ops(workload, seed), work)
    env = environment(seed)
    print("environment " + json.dumps(env, sort_keys=True))
    measure = per_layer if trace else end_to_end
    metrics = measure(runner, seconds, work)
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(
        {"workload": workload, "trace": int(trace), "environment": env,
         "failures": runner.failures, **result}, indent=2))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (wl.SRC / "cantorspec" / "cli.py").is_file():
        print(f"error: cantorspec sources not found under {wl.SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
