"""Command-line entry point: one binary, subcommand per verification task.

Every subcommand reads a pair configuration (JSON), runs the corresponding
library operations, and writes CSV/JSON artifacts (plus presentation-only
SVG charts) into the output directory.  Exit codes: 0 on pass, 1 on a
verification failure, 2 on usage or configuration errors.  Reports embed the
fully resolved configuration and contain no timestamps, so identical
invocations produce byte-identical artifacts.  ``--threads`` is validated
and echoed into every report, but no computation reads it: every subcommand
runs deterministically in a single process.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import dimension as dim
from . import sampling, svgplot
from .core import (BudgetExceededError, PairConstraintError, ScalePair,
                   pair_from_config, pair_to_config, validate_pair)
from .fourier import certificate_report, filter_family_from_config, mu_hat
from .spectra import (TreeMapping, canonical_tau, enumerate_level,
                      tree_mapping_from_config, validate_tree_mapping, word_count)
from .verify import (completeness_Q, orthogonality_check, partition_identity,
                     partition_levels)

PASS, FAIL, USAGE_ERROR = 0, 1, 2


class ConfigError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read JSON config {path}: {exc}") from exc


def _load_pair(args) -> tuple[ScalePair, dict]:
    if not args.pair:
        raise ConfigError("missing required --pair <path>")
    cfg = _load_json(args.pair)
    try:
        return pair_from_config(cfg), cfg
    except (PairConstraintError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid pair config {args.pair}: {exc}") from exc


def _load_tree(pair: ScalePair, args) -> tuple[TreeMapping, list]:
    if not args.tree:
        return canonical_tau(pair), []
    entries = _load_json(args.tree)
    try:
        return tree_mapping_from_config(pair, entries), entries
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid tree table {args.tree}: {exc}") from exc


def _resolved_config(args, pair_cfg, tree_cfg) -> dict:
    keys = ("level", "grid", "tol", "seed", "threads", "budget", "draws", "count")
    resolved = {k: getattr(args, k) for k in keys if hasattr(args, k)}
    resolved["pair"] = pair_cfg
    if tree_cfg:
        resolved["tree"] = tree_cfg
    return resolved


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return {"numerator": str(obj.numerator), "denominator": str(obj.denominator)}
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_json(outdir: Path, name: str, payload: dict):
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / name, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_csv(outdir: Path, name: str, header: list[str], rows: list[list]):
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / name, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([str(c) if isinstance(c, int) else c for c in row])


def _write_svg(outdir: Path, name: str, content: str):
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / name).write_text(content + "\n")


def _grid_points(k: int) -> list[float]:
    # k+1 equispaced points covering [0, 1/2]
    return [0.5 * j / k for j in range(k + 1)]


# ---------------------------------------------------------------------------
# subcommand handlers (return an exit code)
# ---------------------------------------------------------------------------

def _cmd_pair(args, outdir: Path) -> int:
    pair, pair_cfg = _load_pair(args)
    report = validate_pair(pair, depth=args.level)
    _write_json(outdir, "pair_report.json", {
        "config": _resolved_config(args, pair_cfg, None),
        "ok": report.ok,
        "issues": [{"condition": i.condition, "location": i.location, "message": i.message}
                   for i in report.issues],
        "rho": [str(pair.rho(n)) for n in range(1, min(args.level, 12) + 2)],
    })
    return PASS if report.ok else FAIL


def _cmd_spectrum(args, outdir: Path) -> int:
    pair, pair_cfg = _load_pair(args)
    tm, tree_cfg = _load_tree(pair, args)
    level = enumerate_level(tm, args.level, budget=args.budget)
    _write_csv(outdir, f"spectrum_L{args.level}.csv", ["lambda"],
               [[v] for v in level.elements])
    _write_json(outdir, "spectrum_report.json", {
        "config": _resolved_config(args, pair_cfg, tree_cfg),
        "level": level.level,
        "count": len(level.elements),
        "collisions": [[str(v), c] for v, c in level.collisions],
    })
    if len(level.elements) >= 2 and abs(level.elements[-1]) < 2**52 and abs(level.elements[0]) < 2**52:
        xs = [float(v) for v in level.elements]
        _write_svg(outdir, f"spectrum_L{args.level}.svg",
                   svgplot.scatter(xs, list(range(len(xs))),
                                   f"frequency set at level {args.level}", "lambda", "rank"))
    return PASS if not level.collisions else FAIL


def _cmd_orthogonality(args, outdir: Path) -> int:
    pair, pair_cfg = _load_pair(args)
    tm, tree_cfg = _load_tree(pair, args)
    level = enumerate_level(tm, args.level, budget=args.budget)
    report = orthogonality_check(level, pair, max_elements=args.budget)
    _write_json(outdir, "orthogonality_report.json", {
        "config": _resolved_config(args, pair_cfg, tree_cfg),
        "passed": report.passed,
        "elements": report.element_count,
        "pairs": report.pair_count,
        "method": report.method,
        "violation_count": report.violation_count,
        "violations": [[str(a), str(b)] for a, b in report.violations],
        "collisions": [[str(v), c] for v, c in level.collisions],
    })
    return PASS if report.passed and not level.collisions else FAIL


def _cmd_partition(args, outdir: Path) -> int:
    pair, pair_cfg = _load_pair(args)
    tm, tree_cfg = _load_tree(pair, args)
    filters = None
    cert_doc = None
    if args.filters:
        cfg = _load_json(args.filters)
        try:
            filters = filter_family_from_config(pair, cfg)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid filter family {args.filters}: {exc}") from exc
        cert = filters.certify(args.level)
        cert_doc = certificate_report(cert)
        _write_json(outdir, "filter_certificate.json", cert_doc)
        if not cert.ok:
            print(f"error: filter family failed certification: {cert.messages}",
                  file=sys.stderr)
            return FAIL
    rng = np.random.Generator(np.random.Philox(key=np.array([args.seed, 0], dtype=np.uint64)))
    xis = rng.random(args.draws)
    top = _capped_level(pair, args.level, args.budget)
    per_xi = [partition_levels(tm, float(xi), top, filters=filters, budget=args.budget)
              for xi in xis]
    rows = []
    worst = 0.0
    for level in range(top):
        for xi, results in zip(xis, per_xi):
            res = results[level]
            worst = max(worst, res.defect)
            rows.append([repr(float(xi)), res.level, repr(res.total), repr(res.defect)])
    _write_csv(outdir, "partition.csv", ["xi", "L", "sum", "defect"], rows)
    passed = worst <= args.tol
    report = {
        "config": _resolved_config(args, pair_cfg, tree_cfg),
        "worst_defect": worst,
        "tolerance": args.tol,
        "passed": passed,
    }
    if cert_doc is not None:
        report["filter_certificate"] = cert_doc
    _write_json(outdir, "partition_report.json", report)
    return PASS if passed else FAIL


def _cmd_completeness(args, outdir: Path) -> int:
    pair, pair_cfg = _load_pair(args)
    tm, tree_cfg = _load_tree(pair, args)
    grid = _grid_points(args.grid)
    report = completeness_Q(tm, grid, args.level, tol=args.tol, budget=args.budget)
    rows = [[repr(r.xi), r.level, repr(r.q), repr(r.certified_slack), r.monotone_ok]
            for r in report.rows]
    _write_csv(outdir, "completeness.csv", ["xi", "L", "Q", "certified_slack", "monotone_ok"], rows)
    curves = []
    for x in (grid[0], grid[len(grid) // 2], grid[-1]):
        pts = [(r.level, r.q) for r in report.rows if r.xi == x]
        curves.append((f"xi={x:g}", [p[0] for p in pts], [p[1] for p in pts]))
    _write_svg(outdir, "completeness.svg",
               svgplot.line_chart(curves, "completeness trend Q_L(xi)", "L", "Q"))
    _write_json(outdir, "completeness_report.json", {
        "config": _resolved_config(args, pair_cfg, tree_cfg),
        "monotone": report.monotone,
        "bounded": report.bounded,
        "worst_gap": report.worst_gap,
        "worst_gap_xi": report.worst_gap_xi,
        "passed": report.monotone and report.bounded,
    })
    return PASS if report.monotone and report.bounded else FAIL


def _box_depth(pair: ScalePair, budget: int, min_intervals: int = 1000) -> int:
    depth = 2
    while word_count(pair, depth + 1) <= budget and word_count(pair, depth) < min_intervals:
        depth += 1
    return depth


def _cmd_dimension(args, outdir: Path) -> int:
    pair, pair_cfg = _load_pair(args)
    formula = dim.hausdorff_dim_formula(pair, args.level)
    rows = [[n, repr(s)] for n, s in formula.partials]
    _write_csv(outdir, "dimension_ratios.csv", ["N", "s_N"], rows)
    _write_svg(outdir, "dimension_ratios.svg",
               svgplot.line_chart([("s_N", [n for n, _ in formula.partials],
                                    [s for _, s in formula.partials])],
                                  "dimension ratio convergence", "N", "s_N"))
    box_depth = _box_depth(pair, args.budget)
    family = dim.build_intervals(pair, min(box_depth, 6), budget=args.budget)
    _write_csv(outdir, "intervals.csv", ["word", "left", "right"],
               [["".join(map(str, word)) if word else "()", str(lo), str(hi)]
                for word, lo, hi in family.intervals(family.depth)])
    box = dim.box_counting_dim(pair, box_depth, budget=args.budget)
    agree = abs(box.slope - formula.liminf_proxy) <= 0.05
    _write_json(outdir, "dimension_report.json", {
        "config": _resolved_config(args, pair_cfg, None),
        "formula_liminf_proxy": formula.liminf_proxy,
        "box_slope": box.slope,
        "box_residual": box.residual,
        "box_depth": box_depth,
        "box_intervals": box.interval_count,
        "agree_within_0.05": agree,
    })
    return PASS if agree else FAIL


def _cmd_beurling(args, outdir: Path) -> int:
    pair, pair_cfg = _load_pair(args)
    tm, tree_cfg = _load_tree(pair, args)
    comparison = dim.beurling_vs_hausdorff(tm, args.level, budget=args.budget)
    _write_json(outdir, "beurling_report.json", {
        "config": _resolved_config(args, pair_cfg, tree_cfg),
        "beurling_estimate": comparison.beurling,
        "hausdorff_formula": comparison.hausdorff,
        "slack": comparison.slack,
        "passed": comparison.passed,
    })
    return PASS if comparison.passed else FAIL


def _cmd_sample(args, outdir: Path) -> int:
    pair, pair_cfg = _load_pair(args)
    samples = sampling.sample_measure(pair, args.count, seed=args.seed)
    _write_csv(outdir, "samples.csv", ["x"], [[v] for v in samples.values.tolist()])
    counts, edges = np.histogram(samples.values, bins=64)
    _write_csv(outdir, "histogram.csv", ["bin_left", "bin_right", "count"],
               [[repr(float(edges[i])), repr(float(edges[i + 1])), int(c)]
                for i, c in enumerate(counts)])
    _write_svg(outdir, "histogram.svg",
               svgplot.histogram([float(e) for e in edges], [int(c) for c in counts],
                                 "sample histogram", "x", "count"))
    mean = sampling.empirical_moments(samples, 1)
    expected = float(sampling.exact_mean(pair))
    sigma = float(np.std(samples.values))
    band = 5.0 * sigma / math.sqrt(args.count)
    passed = abs(mean - expected) <= band
    _write_json(outdir, "sample_report.json", {
        "config": _resolved_config(args, pair_cfg, None),
        "count": args.count,
        "depth": samples.depth,
        "truncation_radius": samples.radius,
        "mean": mean,
        "expected_mean": expected,
        "band_5sigma": band,
        "passed": passed,
    })
    return PASS if passed else FAIL


def _capped_level(pair: ScalePair, requested: int, cap: int) -> int:
    level = 0
    while level < requested and word_count(pair, level + 1) <= cap:
        level += 1
    return max(level, 1)


def _cmd_report(args, outdir: Path) -> int:
    pair, pair_cfg = _load_pair(args)
    tm, tree_cfg = _load_tree(pair, args)
    outcomes: dict[str, bool] = {}

    pair_report = validate_pair(pair, depth=max(args.level, 8))
    outcomes["pair"] = pair_report.ok
    tree_report = validate_tree_mapping(tm, depth=max(args.level, 8))
    outcomes["tree"] = tree_report.ok

    if pair_report.ok and tree_report.ok:
        l_orth = _capped_level(pair, args.level, cap=4096)
        lev = enumerate_level(tm, l_orth, budget=args.budget)
        orth = orthogonality_check(lev, pair, max_elements=args.budget)
        outcomes["orthogonality"] = orth.passed and not lev.collisions

        rng = np.random.Generator(np.random.Philox(key=np.array([args.seed, 0], dtype=np.uint64)))
        worst_defect = 0.0
        l_part = _capped_level(pair, args.level, cap=65536)
        for xi in rng.random(args.draws):
            worst_defect = max(worst_defect,
                               partition_identity(tm, float(xi), l_part, budget=args.budget).defect)
        outcomes["partition"] = worst_defect <= max(args.tol, 1e-9)

        l_q = _capped_level(pair, max(args.level, 8), cap=4096)
        comp = completeness_Q(tm, _grid_points(args.grid), l_q, tol=args.tol, budget=args.budget)
        outcomes["completeness"] = comp.monotone and comp.bounded

        formula = dim.hausdorff_dim_formula(pair, 40)
        box = dim.box_counting_dim(pair, _box_depth(pair, args.budget), budget=args.budget)
        outcomes["dimension"] = abs(box.slope - formula.liminf_proxy) <= 0.05

        # the windowed-count slope needs several scale octaves before the
        # asymptotic comparison is meaningful; skip it for pairs whose digit
        # growth caps enumeration at shallow depth
        l_beu = _capped_level(pair, max(args.level, 8), cap=4096)
        if l_beu >= 6:
            outcomes["beurling"] = dim.beurling_vs_hausdorff(tm, l_beu, budget=args.budget).passed

        samples = sampling.sample_measure(pair, args.count, seed=args.seed)
        mean = sampling.empirical_moments(samples, 1)
        band = 5.0 * float(np.std(samples.values)) / math.sqrt(args.count)
        outcomes["sampling"] = abs(mean - float(sampling.exact_mean(pair))) <= band

    _write_json(outdir, "report.json", {
        "config": _resolved_config(args, pair_cfg, tree_cfg),
        "checks": outcomes,
        "passed": all(outcomes.values()),
    })
    return PASS if all(outcomes.values()) else FAIL


_HANDLERS = {
    "pair": _cmd_pair,
    "spectrum": _cmd_spectrum,
    "orthogonality": _cmd_orthogonality,
    "partition": _cmd_partition,
    "completeness": _cmd_completeness,
    "dimension": _cmd_dimension,
    "beurling": _cmd_beurling,
    "sample": _cmd_sample,
    "report": _cmd_report,
}

_LEVEL_DEFAULTS = {"pair": 16, "spectrum": 3, "orthogonality": 4, "partition": 8,
                   "completeness": 12, "dimension": 40, "beurling": 8, "report": 5}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantorspec",
        description="Exact and certified-numeric verification for spectra of "
                    "Riesz product measures on homogeneous Cantor sets.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--pair", required=True, help="pair configuration JSON")
        p.add_argument("--tree", default=None, help="tree-mapping deviation table JSON")
        p.add_argument("--filters", default=None,
                       help="filter family JSON (partition subcommand)")
        p.add_argument("--level", type=int, default=_LEVEL_DEFAULTS.get(name, 8),
                       help="tree depth / ratio count for this command")
        p.add_argument("--grid", type=int, default=32,
                       help="K, for K+1 equispaced xi in [0, 1/2]")
        p.add_argument("--tol", type=float, default=None,
                       help="evaluation tolerance (default 1e-10); for "
                            "partition, the identity-defect tolerance (1e-9)")
        p.add_argument("--seed", type=int, default=20240801)
        p.add_argument("--out", default="out", help="output directory for artifacts")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and echoed into reports; no computation reads it")
        p.add_argument("--budget", type=int, default=10**6,
                       help="enumeration budget (words / elements / intervals)")
        p.add_argument("--draws", type=int, default=50,
                       help="number of seeded random xi draws (partition, report)")
        p.add_argument("--count", type=int, default=10**5,
                       help="Monte-Carlo sample count (sample, report)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")
    if args.grid < 1:
        parser.error(f"--grid must be >= 1, got {args.grid}")
    if args.command in ("partition", "completeness") and args.level < 1:
        parser.error(f"--level must be >= 1, got {args.level}")
    if args.command == "partition" and args.draws < 1:
        parser.error(f"--draws must be >= 1, got {args.draws}")
    if args.tol is None:
        args.tol = 1e-9 if args.command == "partition" else 1e-10
    elif not math.isfinite(args.tol) or args.tol <= 0:
        parser.error(f"--tol must be positive and finite, got {args.tol}")
    try:
        return _HANDLERS[args.command](args, Path(args.out))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BudgetExceededError as exc:
        print(f"error: {exc} (required: {exc.required})", file=sys.stderr)
        return USAGE_ERROR
    except (PairConstraintError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
