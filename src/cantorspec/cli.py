"""Command-line entry point: one binary, one subcommand per verification check.

Each subcommand is an entry of the check registry ``_CHECKS``: the flags its
check reads, with their defaults, and the check function.  A check takes the
pair, the tree mapping and the parsed flags and returns ``(passed, payload,
artifacts)``, where each artifact is an unevaluated writer taking the output
directory.  One driver loads the configuration, runs the check, writes its
artifacts (CSV/JSON, plus presentation-only SVG charts) and then
``<name>_report.json``: the resolved flags, the payload and ``passed``.
``report`` runs the other checks at its own levels and keeps only their
verdicts, so every pass rule is stated once, in its check.  A subcommand
accepts only the flags its check reads.  Exit codes: 0 on pass, 1 on a
verification failure, 2 on usage or configuration errors.  Reports contain no
timestamps, so identical invocations produce byte-identical artifacts.
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
from .core import BudgetExceededError, ScalePair, pair_from_config, validate_pair
from .fourier import certificate_report, filter_family_from_config
from .spectra import (TreeMapping, canonical_tau, enumerate_level,
                      tree_mapping_from_config, validate_tree_mapping, word_count)
from .verify import completeness_Q, orthogonality_check, partition_levels

# perfbench/tracing.py patches these names in this module; nothing here calls them
from .fourier import mu_hat  # noqa: E402,F401
from .verify import partition_identity  # noqa: E402,F401

PASS, FAIL, USAGE_ERROR = 0, 1, 2
_SEED, _BUDGET = 20240801, 10**6


class ConfigError(ValueError):
    pass


def _reject_constant(token: str):
    raise ValueError(f"non-finite constant {token}")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:  # ValueError includes JSONDecodeError
        raise ConfigError(f"cannot read JSON config {path}: {exc}") from exc


def _load_pair(path: str) -> tuple[ScalePair, dict]:
    cfg = _load_json(path)
    try:
        return pair_from_config(cfg), cfg
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid pair config {path}: {exc}") from exc


def _load_tree(pair: ScalePair, path: str | None) -> tuple[TreeMapping, list]:
    if not path:
        return canonical_tau(pair), []
    entries = _load_json(path)
    try:
        return tree_mapping_from_config(pair, entries), entries
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid tree table {path}: {exc}") from exc


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


def _write_csv(outdir: Path, name: str, header: list[str], rows):
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / name, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


class _Column:
    """The rows [v] of a one-column CSV over a float array, made a chunk at a
    time as :func:`_write_csv` iterates them, with the length of a row list."""

    _CHUNK = 1 << 16

    def __init__(self, values: np.ndarray):
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        for start in range(0, len(self.values), self._CHUNK):
            for v in self.values[start:start + self._CHUNK].tolist():
                yield [v]


def _as_floats(values: list[int]) -> list[float] | None:
    """Sorted integers as floats, or None when they or their span overflow a
    float, or when they all round to one float (no axis can show them)."""
    try:
        xs = [float(v) for v in values]
    except OverflowError:
        return None
    return xs if 0 < xs[-1] - xs[0] < math.inf else None


def _write_svg(outdir: Path, name: str, content: str):
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / name).write_text(content + "\n")


def _capped_level(pair: ScalePair, requested: int, cap: int) -> int:
    level = 0
    while level < requested and word_count(pair, level + 1) <= cap:
        level += 1
    return max(level, 1)


def _box_depth(pair: ScalePair, budget: int, min_intervals: int = 1000) -> int:
    depth = 2
    while word_count(pair, depth + 1) <= budget and word_count(pair, depth) < min_intervals:
        depth += 1
    return depth


# ---------------------------------------------------------------------------
# checks: (pair, tree mapping, flags) -> (passed, payload, artifact writers)
# ---------------------------------------------------------------------------

def _check_pair(pair, tm, args):
    report = validate_pair(pair, depth=args.level)
    return report.ok, {
        "ok": report.ok,
        "issues": [{"condition": i.condition, "location": i.location, "message": i.message}
                   for i in report.issues],
        "rho": [str(pair.rho(n)) for n in range(1, min(args.level, 12) + 2)],
    }, []


def _check_spectrum(pair, tm, args):
    level = enumerate_level(tm, args.level, budget=args.budget)
    elements = level.elements
    name = f"spectrum_L{args.level}"
    artifacts = [lambda out: _write_csv(out, f"{name}.csv", ["lambda"], [[v] for v in elements])]
    xs = _as_floats(elements) if len(elements) >= 2 else None
    if xs is not None:
        artifacts.append(lambda out: _write_svg(out, f"{name}.svg", svgplot.scatter(
            xs, list(range(len(elements))), f"frequency set at level {args.level}", "lambda", "rank")))
    return not level.collisions, {
        "level": level.level,
        "count": len(elements),
        "collisions": [[str(v), c] for v, c in level.collisions],
    }, artifacts


def _check_orthogonality(pair, tm, args):
    level = enumerate_level(tm, args.level, budget=args.budget)
    report = orthogonality_check(level, pair, max_elements=args.budget)
    return report.passed and not level.collisions, {
        "elements": report.element_count,
        "pairs": report.pair_count,
        "violation_count": report.violation_count,
        "violations": [[str(a), str(b)] for a, b in report.violations],
        "collisions": [[str(v), c] for v, c in level.collisions],
    }, []


def _check_partition(pair, tm, args):
    filters, payload, artifacts = None, {}, []
    if args.filters:
        cfg = _load_json(args.filters)
        try:
            filters = filter_family_from_config(pair, cfg)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid filter family {args.filters}: {exc}") from exc
        cert = filters.certify(args.level)
        cert_doc = payload["filter_certificate"] = certificate_report(cert)
        artifacts.append(lambda out: _write_json(out, "filter_certificate.json", cert_doc))
        if not cert.ok:
            return False, payload, artifacts
    rng = np.random.Generator(np.random.Philox(key=np.array([args.seed, 0], dtype=np.uint64)))
    xis = rng.random(args.draws).tolist()
    per_xi = partition_levels(tm, xis, args.level, filters=filters, budget=args.budget)
    worst = max(res.defect for results in per_xi for res in results)
    artifacts.append(lambda out: _write_csv(
        out, "partition.csv", ["xi", "L", "sum", "defect"],
        [[xi, results[n].level, results[n].total, results[n].defect]
         for n in range(args.level) for xi, results in zip(xis, per_xi)]))
    payload.update(worst_defect=worst, tolerance=args.tol)
    return worst <= args.tol, payload, artifacts


def _check_completeness(pair, tm, args):
    # K+1 equispaced points covering [0, 1/2]
    grid = [0.5 * j / args.grid for j in range(args.grid + 1)]
    report = completeness_Q(tm, grid, args.level, tol=args.tol, budget=args.budget)

    def curve(x):
        pts = [(r.level, r.q) for r in report.rows if r.xi == x]
        return f"xi={x:g}", [p[0] for p in pts], [p[1] for p in pts]

    return report.monotone and report.bounded, {
        "monotone": report.monotone,
        "bounded": report.bounded,
        "worst_gap": report.worst_gap,
        "worst_gap_xi": report.worst_gap_xi,
    }, [
        lambda out: _write_csv(
            out, "completeness.csv", ["xi", "L", "Q", "certified_slack", "monotone_ok"],
            [[r.xi, r.level, r.q, r.certified_slack, r.monotone_ok] for r in report.rows]),
        lambda out: _write_svg(out, "completeness.svg", svgplot.line_chart(
            [curve(x) for x in (grid[0], grid[len(grid) // 2], grid[-1])],
            "completeness trend Q_L(xi)", "L", "Q")),
    ]


def _check_dimension(pair, tm, args):
    if args.level < 2:  # the ratio sequence needs two terms
        raise ConfigError(f"--level must be >= 2 for dimension, got {args.level}")
    formula = dim.hausdorff_dim_formula(pair, args.level)
    box_depth = _box_depth(pair, args.budget)
    box = dim.box_counting_dim(pair, box_depth, budget=args.budget)
    agree = abs(box.slope - formula.liminf_proxy) <= 0.05

    def write_intervals(out):
        family = dim.build_intervals(pair, min(box_depth, 6), budget=args.budget)
        _write_csv(out, "intervals.csv", ["word", "left", "right"],
                   [["".join(map(str, word)) if word else "()", str(lo), str(hi)]
                    for word, lo, hi in family.intervals(family.depth)])

    return agree, {
        "formula_liminf_proxy": formula.liminf_proxy,
        "box_slope": box.slope,
        "box_residual": box.residual,
        "box_depth": box_depth,
        "box_intervals": box.interval_count,
        "agree_within_0.05": agree,
    }, [
        lambda out: _write_csv(out, "dimension_ratios.csv", ["N", "s_N"],
                               [[n, repr(s)] for n, s in formula.partials]),
        lambda out: _write_svg(out, "dimension_ratios.svg", svgplot.line_chart(
            [("s_N", [n for n, _ in formula.partials], [s for _, s in formula.partials])],
            "dimension ratio convergence", "N", "s_N")),
        write_intervals,
    ]


def _check_beurling(pair, tm, args):
    comparison = dim.beurling_vs_hausdorff(tm, args.level, budget=args.budget)
    return comparison.passed, {
        "beurling_estimate": comparison.beurling,
        "hausdorff_formula": comparison.hausdorff,
        "slack": comparison.slack,
    }, []


def _check_sample(pair, tm, args):
    samples = sampling.sample_measure(pair, args.count, seed=args.seed)
    mean = sampling.empirical_moments(samples, 1)
    expected = float(sampling.exact_mean(pair))
    band = 5.0 * float(np.std(samples.values)) / math.sqrt(args.count)

    def write_histogram(out):
        counts, edges = np.histogram(samples.values, bins=64)
        _write_csv(out, "histogram.csv", ["bin_left", "bin_right", "count"],
                   [[repr(float(edges[i])), repr(float(edges[i + 1])), int(c)]
                    for i, c in enumerate(counts)])
        _write_svg(out, "histogram.svg",
                   svgplot.histogram([float(e) for e in edges], [int(c) for c in counts],
                                     "sample histogram", "x", "count"))

    return abs(mean - expected) <= band, {
        "count": args.count,
        "depth": samples.depth,
        "truncation_radius": samples.radius,
        "mean": mean,
        "expected_mean": expected,
        "band_5sigma": band,
    }, [lambda out: _write_csv(out, "samples.csv", ["x"], _Column(samples.values)),
        write_histogram]


def _verdict(name: str, pair, tm, args, **overrides) -> bool:
    """Verdict of check ``name``, reading ``args``'s values of its flags where
    ``args`` has them and its defaults otherwise, then ``overrides``."""
    flags = {k: getattr(args, k, default) for k, default in _CHECKS[name]["flags"].items()}
    return _CHECKS[name]["check"](pair, tm, argparse.Namespace(**{**flags, **overrides}))[0]


def _check_report(pair, tm, args):
    depth = max(args.level, 8)
    checks = {"pair": _verdict("pair", pair, tm, args, level=depth),
              "tree": validate_tree_mapping(tm, depth=depth).ok}
    if all(checks.values()):
        l_deep = _capped_level(pair, depth, cap=4096)
        plan = {
            "orthogonality": ("orthogonality", {"level": _capped_level(pair, args.level, cap=4096)}),
            "partition": ("partition", {"level": _capped_level(pair, args.level, cap=65536),
                                        "tol": max(args.tol, 1e-9)}),
            "completeness": ("completeness", {"level": l_deep}),
            "dimension": ("dimension", {"level": 40}),
            "beurling": ("beurling", {"level": l_deep}),
            "sampling": ("sample", {}),
        }
        # the windowed-count slope needs several scale octaves before the
        # asymptotic comparison is meaningful; skip it for pairs whose digit
        # growth caps enumeration at shallow depth
        if l_deep < 6:
            del plan["beurling"]
        for key, (name, overrides) in plan.items():
            checks[key] = _verdict(name, pair, tm, args, **overrides)
    return all(checks.values()), {"checks": checks}, []


# ---------------------------------------------------------------------------
# registry, parser and driver
# ---------------------------------------------------------------------------

def _checked(kind, ok, rule: str):
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid <type> value"
    return parse


_POSITIVE = _checked(int, lambda v: v >= 1, ">= 1")

# flag -> (argparse type, help); the defaults are per check, in _CHECKS
_FLAGS = {
    "tree": (str, "tree-mapping deviation table JSON"),
    "filters": (str, "filter family JSON"),
    "level": (_POSITIVE, "tree depth / ratio count"),
    "grid": (_POSITIVE, "K, for K+1 equispaced xi in [0, 1/2]"),
    "tol": (_checked(float, lambda v: math.isfinite(v) and v > 0, "positive and finite"),
            "evaluation tolerance, or the identity-defect tolerance of partition"),
    "seed": (_checked(int, lambda v: v >= 0, ">= 0"), "random seed"),
    "budget": (_POSITIVE, "enumeration budget (words / elements / intervals)"),
    "draws": (_POSITIVE, "number of seeded random xi draws"),
    "count": (_POSITIVE, "Monte-Carlo sample count"),
}

_CHECKS = {
    "pair": {"flags": {"level": 16}, "check": _check_pair},
    "spectrum": {"flags": {"tree": None, "level": 3, "budget": _BUDGET},
                 "check": _check_spectrum},
    "orthogonality": {"flags": {"tree": None, "level": 4, "budget": _BUDGET},
                      "check": _check_orthogonality},
    "partition": {"flags": {"tree": None, "filters": None, "level": 8, "tol": 1e-9,
                            "seed": _SEED, "budget": _BUDGET, "draws": 50},
                  "check": _check_partition},
    "completeness": {"flags": {"tree": None, "level": 12, "grid": 32, "tol": 1e-10,
                               "budget": _BUDGET},
                     "check": _check_completeness},
    "dimension": {"flags": {"level": 40, "budget": _BUDGET}, "check": _check_dimension},
    "beurling": {"flags": {"tree": None, "level": 8, "budget": _BUDGET},
                 "check": _check_beurling},
    "sample": {"flags": {"seed": _SEED, "count": 10**5}, "check": _check_sample},
    "report": {"flags": {"tree": None, "level": 5, "grid": 32, "tol": 1e-10, "seed": _SEED,
                         "budget": _BUDGET, "draws": 50, "count": 10**5},
               "check": _check_report},
}


def _add_flags(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    parser.add_argument("--pair", required=True, help="pair configuration JSON")
    for flag, default in _CHECKS[name]["flags"].items():
        kind, text = _FLAGS[flag]
        parser.add_argument(f"--{flag}", type=kind, default=default,
                            help=f"{text} (default: %(default)s)")
    parser.add_argument("--out", default="out", help="output directory for artifacts")
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
    parser = argparse.ArgumentParser(
        prog="cantorspec",
        description="Exact and certified-numeric verification for spectra of "
                    "Riesz product measures on homogeneous Cantor sets.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _CHECKS:
        _add_flags(sub.add_parser(name), name)
    return parser


def subcommand_parser(name: str) -> argparse.ArgumentParser:
    """Subcommand ``name``'s parser alone: its subparser's usage, help and errors."""
    return _add_flags(argparse.ArgumentParser(prog=f"cantorspec {name}"), name)


def _run(args) -> int:
    entry = _CHECKS[args.command]
    pair, pair_cfg = _load_pair(args.pair)
    tm, tree_cfg = _load_tree(pair, getattr(args, "tree", None))
    passed, payload, artifacts = entry["check"](pair, tm, args)
    outdir = Path(args.out)
    for write in artifacts:
        write(outdir)
    config = {k: getattr(args, k) for k in entry["flags"] if k not in ("tree", "filters")}
    config["pair"] = pair_cfg
    if tree_cfg:
        config["tree"] = tree_cfg
    name = "report.json" if args.command == "report" else f"{args.command}_report.json"
    _write_json(outdir, name, {"config": config, **payload, "passed": passed})
    return PASS if passed else FAIL


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    if name in _CHECKS:
        args, extra = subcommand_parser(name).parse_known_args(
            argv[1:], argparse.Namespace(command=name))
    if name not in _CHECKS or extra:
        # no subcommand first, or flags it does not know: the full parser's error
        args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except BudgetExceededError as exc:
        print(f"error: {exc} (required: {exc.required})", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:  # ConfigError, PairConstraintError and bad inputs
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
