"""Command-line entry point: one binary, one subcommand per verification check.

Each subcommand is an entry of the check registry ``_CHECKS``: the flags its
check reads, with their defaults, and the check function.  A check takes the
pair, the tree mapping and the parsed flags and returns ``(passed, payload,
artifacts)``, where each artifact is an unevaluated writer taking the output
directory.  One driver loads the configuration, runs the check, writes its
artifacts (CSV/JSON, plus presentation-only SVG charts) and then
``<name>_report.json``: the resolved flags, the payload and ``passed``.  A CSV
artifact is given by its columns, lists or the checks' arrays, and
``_write_csv`` formats and writes its rows 4,096 at a time, so that no list of
rows is built; a JSON artifact is formatted whole before its file is opened.
``report`` runs the other checks at its own levels and keeps only their
verdicts, so every pass rule is stated once, in its check.  A subcommand
accepts only the flags its check reads.  Exit codes: 0 on pass, 1 on a
verification failure, 2 on usage or configuration errors.  Reports contain no
timestamps, so identical invocations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dimension as dim
from . import sampling, svgplot
from .core import (BudgetExceededError, ScalePair, _Scales, _to_float, pair_from_config,
                   validate_pair)
from .fourier import filter_family_from_config
from .spectra import (canonical_tau, enumerate_level,
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


def _load_config(path: str, what: str, build):
    """``build`` applied to the JSON document at ``path``, and the document; a
    ConfigError naming ``what`` and ``path`` when it cannot be read or built."""
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:  # ValueError includes JSONDecodeError
        raise ConfigError(f"cannot read JSON config {path}: {exc}") from exc
    try:
        return build(cfg), cfg
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what} {path}: {exc}") from exc


def _write_json(outdir: Path, name: str, payload: dict):
    # the text is formed before the file is opened, so a value json refuses leaves no file
    (outdir / name).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


# the rows of one write of _write_csv: enough that a block's own cost vanishes, few enough
# that the rows of samples.csv are streamed
_ROWS = 1 << 12


def _write_csv(outdir: Path, name: str, header: list[str], *columns):
    """The bytes ``csv.writer(fh, lineterminator="\\n")`` writes for ``header`` and the
    rows whose columns are ``columns``, each a list or a 1-D array, all of one length.  A
    cell is a Python int, float or string or a Fraction, whose ``str`` is the text
    :mod:`csv` writes for it, and needs no quoting; array columns become lists, as the
    ``str`` of a numpy scalar follows numpy's print options.  Each block of :data:`_ROWS`
    rows is formatted cell by cell with ``str`` and written as one ``str.join``."""
    with open(outdir / name, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _ROWS):
            cells = [map(str, c[start:start + _ROWS].tolist() if isinstance(c, np.ndarray)
                         else c[start:start + _ROWS]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _as_floats(values: list[int]) -> list[float] | None:
    """Sorted integers as floats, or None when they or their span overflow a
    float, or when they all round to one float (no axis can show them)."""
    xs = [_to_float(v) for v in values]
    return xs if 0 < xs[-1] - xs[0] < math.inf else None


def _write_svg(outdir: Path, name: str, content: str):
    (outdir / name).write_text(content + "\n")


def _capped_level(pair: ScalePair, requested: int, cap: int) -> int:
    level = 0
    while level < requested and word_count(pair, level + 1) <= cap:
        level += 1
    return max(level, 1)


# ---------------------------------------------------------------------------
# checks: (pair, tree mapping, flags) -> (passed, payload, artifact writers)
# ---------------------------------------------------------------------------

def _check_pair(pair, tm, args):
    report = validate_pair(pair, depth=args.level)
    top = min(args.level, 12) + 1  # rho_1 .. rho_top
    return report.ok, {
        "ok": report.ok,
        "issues": [{"condition": i.condition, "location": i.location, "message": i.message}
                   for i in report.issues],
        "rho": [str(r) for r in _Scales(pair).upto(top - 1).rho[1:top + 1]],
    }, []


def _check_spectrum(pair, tm, args):
    level = enumerate_level(tm, args.level, budget=args.budget)
    elements = level.elements
    name = f"spectrum_L{args.level}"
    artifacts = [lambda out: _write_csv(out, f"{name}.csv", ["lambda"], elements)]
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
    report = orthogonality_check(level, pair)
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
        filters, _ = _load_config(args.filters, "filter family",
                                  lambda cfg: filter_family_from_config(pair, cfg))
        cert = filters.certify(args.level, budget=args.budget)
        # strict JSON has no non-finite number: a bound that overflowed is written as the
        # string "Infinity", "-Infinity" or "NaN"
        cert_doc = payload["filter_certificate"] = json.loads(
            json.dumps(dataclasses.asdict(cert)), parse_constant=str)
        artifacts.append(lambda out: _write_json(out, "filter_certificate.json", cert_doc))
        if not cert.ok:
            return False, payload, artifacts
    rng = np.random.Generator(np.random.Philox(key=np.array([args.seed, 0], dtype=np.uint64)))
    xis = rng.random(args.draws).tolist()
    totals = partition_levels(tm, xis, args.level, filters=filters, budget=args.budget)
    defects = np.abs(totals - 1.0)
    worst = float(np.max(defects))  # nan propagates
    # the rows of level 1 at every xi, then of level 2, ...; each xi formatted once, as
    # csv.writer would
    artifacts.append(lambda out: _write_csv(out, "partition.csv", ["xi", "L", "sum", "defect"],
        [repr(xi) for xi in xis] * args.level, np.repeat(np.arange(1, args.level + 1), len(xis)),
        totals.T.ravel(), defects.T.ravel()))
    payload.update(worst_defect=worst, tolerance=args.tol)
    return worst <= args.tol, payload, artifacts


def _check_completeness(pair, tm, args):
    # K+1 equispaced points covering [0, 1/2]
    grid = [0.5 * j / args.grid for j in range(args.grid + 1)]
    report = completeness_Q(tm, grid, args.level, tol=args.tol, budget=args.budget)
    levels = list(range(1, args.level + 1))
    return report.bounded, {
        "bounded": report.bounded,
        "worst_gap": report.worst_gap,
        "worst_gap_xi": report.worst_gap_xi,
        "method": report.method,
        "work": report.work and report.work._asdict(),
    }, [
        # each xi formatted once, as csv.writer would; the rows of a point are consecutive.  The
        # gap G_L = gap_mantissa 2^gap_exp2 keeps its digits where Q rounds to 1
        lambda out: _write_csv(out, "completeness.csv",
                               ["xi", "L", "Q", "certified_slack", "gap_mantissa", "gap_exp2"],
                               [text for xi in grid for text in [repr(xi)] * args.level],
                               levels * len(grid), report.q.ravel(), report.slack.ravel(),
                               report.gap_mantissa.ravel(), report.gap_exp2.ravel()),
        lambda out: _write_svg(out, "completeness.svg", svgplot.line_chart(
            [(f"xi={grid[k]:g}", levels, report.q[k].tolist())
             for k in (0, len(grid) // 2, len(grid) - 1)],
            "completeness trend Q_L(xi)", "L", "Q")),
    ]


def _check_dimension(pair, tm, args):
    if args.level < 2:  # the ratio sequence needs two terms
        raise ConfigError(f"--level must be >= 2 for dimension, got {args.level}")
    logs = dim._log_pairs(pair, args.level)  # built once for both fits
    formula, box = dim._formula_of(logs), dim._box_fit_of(pair, logs)
    agree = abs(box.slope - formula.liminf_proxy) <= 0.05
    ns, ratios = map(list, zip(*formula.partials))

    def write_intervals(out):
        depth = _capped_level(pair, 6, cap=min(args.budget, 4096))
        words, lows, highs = zip(*dim.build_intervals(pair, depth, budget=args.budget)[-1])
        _write_csv(out, "intervals.csv", ["word", "left", "right"],
                   ["".join(map(str, word)) if word else "()" for word in words], lows, highs)

    return agree, {
        "formula_liminf_proxy": formula.liminf_proxy,
        "box_slope": box.slope,
        "box_residual": box.residual,
        "box_depth": box.levels_used,
        "box_intervals": str(box.interval_count),
        "agree_within_0.05": agree,
    }, [
        lambda out: _write_csv(out, "dimension_ratios.csv", ["N", "s_N"], ns, ratios),
        lambda out: _write_svg(out, "dimension_ratios.svg", svgplot.line_chart(
            [("s_N", ns, ratios)], "dimension ratio convergence", "N", "s_N")),
        write_intervals,
    ]


def _check_beurling(pair, tm, args):
    if args.level < 3:  # the slope needs two windows, rho_2 / 2 and rho_3 / 2
        raise ConfigError(f"--level must be >= 3 for beurling, got {args.level}")
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
    # np.std's variance and np.histogram's counts, summed over BLOCK-sized views of the
    # samples: np.std forms x - mean whole, and np.histogram's blocks hold 0.3 arrays at 10^6
    blocks = np.split(samples.values, range(sampling.BLOCK, args.count, sampling.BLOCK))
    variance = sum(float(np.sum(np.square(b - mean))) for b in blocks) / args.count
    band = 5.0 * math.sqrt(variance) / math.sqrt(args.count)

    def write_histogram(out):
        # np.histogram's bins and counts: bin i is [e_i, e_(i+1)), and the last one is closed
        edges = np.histogram_bin_edges(samples.values, bins=64)
        counts = sum(np.bincount(np.searchsorted(edges[1:-1], b, "right"), minlength=64) for b in blocks)
        _write_csv(out, "histogram.csv", ["bin_left", "bin_right", "count"],
                   edges[:-1], edges[1:], counts)
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
    }, [lambda out: _write_csv(out, "samples.csv", ["x"], samples.values),
        write_histogram]


def _verdict(name: str, pair, tm, args, **overrides) -> bool:
    """Verdict of check ``name``, reading ``args``'s values of its flags where
    ``args`` has them and its defaults otherwise, then ``overrides``."""
    flags = {k: getattr(args, k, default) for k, default in _CHECKS[name]["flags"].items()}
    return _CHECKS[name]["check"](pair, tm, argparse.Namespace(**{**flags, **overrides}))[0]


def _check_report(pair, tm, args):
    depth = max(args.level, 8)
    checks = {"pair": _verdict("pair", pair, tm, args, level=depth),
              "tree": validate_tree_mapping(tm).ok}
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
    "seed": (_checked(int, lambda v: 0 <= v < 2**64, "in [0, 2^64)"), "random seed"),
    "budget": (_POSITIVE, "enumeration budget (words / elements / intervals)"),
    "draws": (_POSITIVE, "number of seeded random xi draws"),
    # sample's 5-sigma band is the samples' own standard deviation, 0 for one sample
    "count": (_checked(int, lambda v: v >= 2, ">= 2"), "Monte-Carlo sample count"),
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process on the first call."""
    parser = argparse.ArgumentParser(
        prog="cantorspec",
        description="Exact and certified-numeric verification for spectra of "
                    "Riesz product measures on homogeneous Cantor sets.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in _CHECKS.items():
        command = sub.add_parser(name)
        command.add_argument("--pair", required=True, help="pair configuration JSON")
        for flag, default in entry["flags"].items():
            kind, text = _FLAGS[flag]
            command.add_argument(f"--{flag}", type=kind, default=default,
                                 help=f"{text} (default: %(default)s)")
        command.add_argument("--out", default="out", help="output directory for artifacts")
    return parser


def _outdir(path: str) -> Path:
    """``path`` as a Path; a ConfigError naming --out when it or its nearest
    existing ancestor is not a directory, where no artifact could be written."""
    outdir = Path(path)
    existing = next(p for p in (outdir, *outdir.parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise ConfigError(f"--out {path}: {existing} is not a directory")
    return outdir


def _run(args) -> int:
    entry = _CHECKS[args.command]
    outdir = _outdir(args.out)  # refused before the check runs
    pair, pair_cfg = _load_config(args.pair, "pair config", pair_from_config)
    tm, tree_cfg = canonical_tau(pair), []
    if getattr(args, "tree", None):
        tm, tree_cfg = _load_config(args.tree, "tree table",
                                    lambda entries: tree_mapping_from_config(pair, entries))
    passed, payload, artifacts = entry["check"](pair, tm, args)
    outdir.mkdir(parents=True, exist_ok=True)  # the writers below expect it
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
    args = build_parser().parse_args(argv)
    # exact integers and fractions are written whole, past Python's default limit on the
    # digits of an int-to-string conversion; the caller's limit is restored after the run
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    except BudgetExceededError as exc:
        print(f"error: --budget: {exc} (required: {exc.required})", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:  # ConfigError, PairConstraintError and bad inputs
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
