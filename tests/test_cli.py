import argparse
import csv
import decimal
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorspec import canonical_tau, cli, constant_pair, svgplot
from cantorspec.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent

MU42 = '{"kind": "constant", "b": 4, "d": 2}'
ALPHA_HALF = '{"kind": "alpha", "alpha": 0.5, "profile": "dyadic"}'
BAD_PAIR = '{"kind": "constant", "b": 6, "d": 4}'
INVALID_EXPLICIT = '{"kind": "explicit", "b": [4, 5], "d": [2, 2]}'


@pytest.fixture
def mu42(tmp_path):
    path = tmp_path / "mu42.json"
    path.write_text(MU42)
    return str(path)


def run(args):
    return main(args)


def test_pair_subcommand(mu42, tmp_path):
    out = tmp_path / "out"
    assert run(["pair", "--pair", mu42, "--out", str(out)]) == 0
    report = json.loads((out / "pair_report.json").read_text())
    assert report["ok"] is True
    assert report["config"]["pair"] == {"kind": "constant", "b": 4, "d": 2}


def test_pair_subcommand_invalid_pair(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(INVALID_EXPLICIT)
    assert run(["pair", "--pair", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_pair_config_errors(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text(BAD_PAIR)  # constructor-level rejection: 4 does not divide 6
    assert run(["pair", "--pair", str(cfg), "--out", str(tmp_path / "o")]) == 2
    missing = tmp_path / "nope.json"
    assert run(["pair", "--pair", str(missing), "--out", str(tmp_path / "o")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(["pair", "--pair", str(garbled), "--out", str(tmp_path / "o")]) == 2
    infinite = tmp_path / "infinite.json"
    infinite.write_text('{"kind": "alpha", "alpha": Infinity}')  # used to crash, exit 1
    assert run(["pair", "--pair", str(infinite), "--out", str(tmp_path / "o")]) == 2


def test_unknown_subcommand_exits_2(mu42):
    with pytest.raises(SystemExit) as err:
        run(["frobnicate", "--pair", mu42])
    assert err.value.code == 2


def _exit(parse, argv, capsys):
    # (exit code, stdout, stderr) of a parse that exits
    with pytest.raises(SystemExit) as err:
        parse(argv)
    out, errtext = capsys.readouterr()
    return err.value.code, out, errtext


@pytest.mark.parametrize("name", list(cli._CHECKS))
def test_subcommand_help_matches_the_full_parser(name, capsys):
    # main parses every call with build_parser(): a subcommand's help is its subparser's
    code, out, err = _exit(main, [name, "--help"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: cantorspec {name} [-h] --pair PAIR")
    flags = {"--pair", "--out", *(f"--{flag}" for flag in cli._CHECKS[name]["flags"])}
    assert set(_subcommand_flags()[name]) == flags
    assert all(flag in out for flag in flags)


def test_build_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("argv, prog", [
    (["frobnicate", "--pair", "x.json"], "cantorspec"),              # unknown subcommand
    (["--level", "3", "partition", "--pair", "x.json"], "cantorspec"),  # a flag before it
    (["partition", "--pair", "x.json", "--grid", "4"], "cantorspec"),  # another's flag
    (["partition", "--pair", "x.json", "--frob"], "cantorspec"),     # an unknown flag
    (["completeness", "--pair", "x.json", "--level", "0"], "cantorspec completeness"),
    (["completeness", "--pair", "x.json", "--tol", "nan"], "cantorspec completeness"),
    (["sample", "--pair", "x.json", "--count", "many"], "cantorspec sample"),
    (["report"], "cantorspec report"),                               # a required flag missing
    ([], "cantorspec"),
    (["--help"], "cantorspec"),
], ids=[f"argv{i}" for i in range(10)])
def test_usage_errors_match_the_full_parser(argv, prog, capsys):
    # exit code and usage line: an error in a subcommand's own flags prints its usage,
    # any other the usage of the whole command line
    code, out, err = _exit(main, argv, capsys)
    if argv == ["--help"]:
        assert (code, err) == (0, "") and out.startswith(f"usage: {prog} [-h]")
    else:
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: {prog} [-h]")
        assert err.splitlines()[-1].startswith(f"{prog}: error: ")


def test_spectrum_example(mu42, tmp_path):
    out = tmp_path / "out"
    assert run(["spectrum", "--pair", mu42, "--level", "3", "--out", str(out)]) == 0
    lines = (out / "spectrum_L3.csv").read_text().splitlines()
    assert lines[0] == "lambda"
    assert lines[1:] == ["0", "1", "4", "5", "16", "17", "20", "21"]
    assert (out / "spectrum_L3.svg").exists()


@pytest.mark.parametrize("b, table, plotted", [
    (2**30, None, True),                   # Lambda_3 reaches 1 + 2^30 + 2^60, past 2^52
    (2**600, None, False),                 # 1 + 2^600 + 2^1200: no float holds it
    (4, [2**62, 2**62 + 2048], True),      # two floats an ulp apart: ticks must not stall
    (4, [2**62, 2**62 + 1], False),        # one float: nothing to plot
])
def test_spectrum_plots_whenever_the_frequencies_fit_a_float(tmp_path, b, table, plotted):
    cfg, tree = tmp_path / "pair.json", tmp_path / "tree.json"
    cfg.write_text(json.dumps({"kind": "constant", "b": b, "d": 2}))
    argv = ["spectrum", "--pair", str(cfg), "--out", str(tmp_path / "out")]
    if table:  # level-1 labels, unvalidated by spectrum
        tree.write_text(json.dumps([{"word": [d], "value": v} for d, v in enumerate(table)]))
        argv += ["--tree", str(tree), "--level", "1"]
    else:
        argv += ["--level", "3"]
    assert run(argv) == 0
    elements = [int(v) for v in next((tmp_path / "out").glob("*.csv")).read_text().split()[1:]]
    assert elements == (table or [0, 1, b, b + 1, b * b, b * b + 1, b * b + b, b * b + b + 1])
    svgs = list((tmp_path / "out").glob("*.svg"))
    assert len(svgs) == plotted
    if plotted:
        assert svgs[0].read_text().count("<circle") == len(elements)


def test_ticks_of_an_empty_range_are_those_of_one_unit_above_it():
    # the frame widens an empty range once, and its ticks read the frame's bounds
    frame = svgplot._Frame(0.3, 0.3, -2.0, -2.0)
    assert (frame.xlo, frame.xhi, frame.ylo, frame.yhi) == (0.3, 0.3 + 1.0, -2.0, -1.0)
    assert svgplot._ticks(frame.xlo, frame.xhi) == svgplot._ticks(0.3, 1.3)


@pytest.mark.parametrize("x", [2.0 ** 62, -2.0 ** 62, 2.0 ** 53])
def test_a_constant_axis_past_2_pow_53_is_plotted(x):
    # lo + 1 rounds back to lo past 2^53, so the frame widens by one ulp of lo there;
    # it used to keep the range empty, and its ticks to raise a math domain error
    frame = svgplot._Frame(x, x, 0.0, 1.0)
    assert frame.xhi == x + math.ulp(x) > frame.xlo
    for svg in (svgplot.scatter([x] * 2, [0.0, 1.0], "t", "x", "y"),
                svgplot.line_chart([("a", [x] * 2, [0.0, 1.0])], "t", "x", "y")):
        assert svg.startswith("<svg") and svg.endswith("</svg>")



@pytest.mark.parametrize("x", [2.0 ** 62, 2.0 ** 53])
def test_a_constant_axis_past_2_pow_53_draws_each_tick_once(x):
    # the ticks' step is below half an ulp of x there: a loop adding it left the tick in
    # place, and only a count guard ended it, seven ticks of one value stacked in one place
    frame = svgplot._Frame(x, x, 0.0, 1.0)
    ticks = svgplot._ticks(frame.xlo, frame.xhi)
    assert len(set(ticks)) == len(ticks) >= 2
    elements = svgplot.scatter([x] * 2, [0.0, 1.0], "t", "x", "y").splitlines()
    assert len(set(elements)) == len(elements)

def test_spectrum_budget_exceeded(mu42, tmp_path):
    assert run(["spectrum", "--pair", mu42, "--level", "21",
                "--out", str(tmp_path / "o")]) == 2


def test_spectrum_fails_on_colliding_labels(mu42, tmp_path):
    # tau(1) = 0 gives the word (1,) the frequency of (0,): spectrum names the collision
    tree = tmp_path / "tree.json"
    tree.write_text('[{"word": [1], "value": 0}]')
    out = tmp_path / "out"
    assert run(["spectrum", "--pair", mu42, "--tree", str(tree), "--level", "1", "--out", str(out)]) == 1
    assert json.loads((out / "spectrum_report.json").read_text())["collisions"] == [["0", 2]]


def test_orthogonality_subcommand(mu42, tmp_path):
    out = tmp_path / "out"
    assert run(["orthogonality", "--pair", mu42, "--level", "4", "--out", str(out)]) == 0
    report = json.loads((out / "orthogonality_report.json").read_text())
    assert report["passed"] and report["pairs"] == 120


def test_partition_subcommand(mu42, tmp_path):
    out = tmp_path / "out"
    assert run(["partition", "--pair", mu42, "--level", "6", "--draws", "10",
                "--out", str(out)]) == 0
    report = json.loads((out / "partition_report.json").read_text())
    assert report["worst_defect"] <= report["tolerance"] == 1e-9
    header = (out / "partition.csv").read_text().splitlines()[0]
    assert header == "xi,L,sum,defect"


def test_partition_with_filter_family(mu42, tmp_path):
    filters = tmp_path / "filters.json"
    filters.write_text('{"levels": [[[0.5, 0.0], [0.5, 0.0]]], "label": "taps"}')
    out = tmp_path / "out"
    assert run(["partition", "--pair", mu42, "--filters", str(filters),
                "--level", "4", "--draws", "5", "--out", str(out)]) == 0
    cert = json.loads((out / "filter_certificate.json").read_text())
    assert cert["ok"] is True and cert["qmf_defects"][0] <= 1e-12

    bad = tmp_path / "bad_filters.json"
    bad.write_text('{"levels": [[[0.6, 0.0], [0.4, 0.0]]]}')
    assert run(["partition", "--pair", mu42, "--filters", str(bad),
                "--level", "3", "--draws", "2", "--out", str(tmp_path / "o2")]) == 1
    cert = json.loads((tmp_path / "o2" / "filter_certificate.json").read_text())
    assert cert["ok"] is False and cert["qmf_defects"][0] > 0


def test_an_overflowing_filter_certificate_fails_in_strict_json(mu42, tmp_path):
    # the coefficients' sums overflow: QMF defect inf and window bound -inf.  json refused
    # the -inf with exit 2 after opening filter_certificate.json, left cut off after "d1":
    filters, out = tmp_path / "filters.json", tmp_path / "o"
    filters.write_text('{"levels": [[[1e308, 0], [-1e308, 0], [1, 0]]]}')
    assert run(["partition", "--pair", mu42, "--filters", str(filters), "--level", "1",
                "--budget", "100000000", "--out", str(out)]) == 1
    cert = json.loads((out / "filter_certificate.json").read_text(), parse_constant=_strict_constant)
    assert cert["ok"] is False and cert["d1"] == "-Infinity" and cert["qmf_defects"] == ["Infinity"]
    report = json.loads((out / "partition_report.json").read_text(), parse_constant=_strict_constant)
    assert report["passed"] is False and report["filter_certificate"] == cert
    # a payload json refuses leaves no file
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._write_json(tmp_path, "refused.json", {"bound": -math.inf})
    assert not (tmp_path / "refused.json").exists()


def test_dimension_writes_interval_csv(mu42, tmp_path):
    out = tmp_path / "out"
    assert run(["dimension", "--pair", mu42, "--out", str(out)]) == 0
    lines = (out / "intervals.csv").read_text().splitlines()
    assert lines[0] == "word,left,right"
    assert lines[1].startswith("000000,0,")           # leftmost depth-6 interval
    # endpoints are exact fraction strings
    word, left, right = lines[2].split(",")
    assert "/" in right or right.isdigit()


def test_completeness_subcommand(mu42, tmp_path):
    out = tmp_path / "out"
    assert run(["completeness", "--pair", mu42, "--grid", "8", "--level", "8",
                "--out", str(out)]) == 0
    lines = (out / "completeness.csv").read_text().splitlines()
    assert lines[0] == "xi,L,Q,certified_slack,gap_mantissa,gap_exp2"
    assert len(lines) == 1 + 9 * 8                       # (grid+1) points x levels
    report = json.loads((out / "completeness_report.json").read_text())
    assert report["bounded"] and "monotone" not in report
    assert (out / "completeness.svg").exists()


def _walk_table(tmp_path) -> list[str]:
    # --tree with the one entry tau(1) = 1, the canonical label of the word (1,) on any pair
    # with d_1 = 2: the frequencies are the canonical ones, but completeness runs on the walk
    # over the words, as on every deviation table
    tree = tmp_path / "canonical_table.json"
    tree.write_text(json.dumps([{"word": [1], "value": 1}]))
    return ["--tree", str(tree)]


def test_completeness_alpha_one_matches_the_direct_sum(tmp_path):
    # the one-dimensional endpoint at L = 3, whose tail has the explicit level
    # d_4 = 2048, against the direct per-term sum of 189e78e (the oracle file's header
    # has the command): Q within an ulp and the same verdict, on the transfer operator
    # (canonical labels) and on the walk (a table of tau(1) = 1, canonical on alpha_one's
    # d_1 = 4); the walk's certified slack within 2.2e-14 relative of the per-term sum's.  The
    # oracle's last column, monotone_ok, has no counterpart
    oracle = ROOT / "tests" / "oracles" / "completeness_alpha_one_L3.csv"
    want = list(csv.reader(line for line in oracle.read_text().splitlines() if not line.startswith("#")))
    for labels in ([], _walk_table(tmp_path)):
        out = tmp_path / f"out{len(labels)}"
        assert run(["completeness", "--pair", str(ROOT / "demos" / "configs" / "alpha_one.json"),
                    "--level", "3", *labels, "--out", str(out)]) == 0
        got = list(csv.reader(io.StringIO((out / "completeness.csv").read_text())))
        assert got[0] == [*want[0][:4], "gap_mantissa", "gap_exp2"] and len(got) == len(want) == 1 + 33 * 3
        for (xi, level, q, slack, _), row in zip(want[1:], got[1:]):
            assert len(row) == 6 and row[:2] == [xi, level]
            assert abs(float(row[2]) - float(q)) <= math.ulp(float(q)), (xi, level)
            if labels:
                assert abs(float(row[3]) - float(slack)) <= 2.2e-14 * float(slack), (xi, level)
        report = json.loads((out / "completeness_report.json").read_text())
        assert report["bounded"] and report["worst_gap_xi"] == 0.5
        assert report["method"] == ("walk" if labels else "transfer")


@pytest.mark.parametrize("cmd, name, kinds", [
    (["completeness", "--grid", "8", "--level", "5"], "completeness.csv",
     (float, int, float, float, float, int)),
    (["partition", "--level", "4", "--draws", "7"], "partition.csv", (float, int, float, float)),
])
def test_csv_xi_text_is_what_csv_writer_writes(mu42, tmp_path, cmd, name, kinds):
    # xi is formatted once per point; the file is csv.writer's on the rows of floats
    assert run([*cmd, "--pair", mu42, "--out", str(tmp_path)]) == 0
    text = (tmp_path / name).read_text()
    rows = list(csv.reader(io.StringIO(text)))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows([[kind(cell) for kind, cell in zip(kinds, row)] for row in rows[1:]])
    assert buffer.getvalue() == text


def test_byte_identical_reruns(mu42, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["completeness", "--pair", mu42, "--grid", "4", "--level", "6",
                    "--out", str(out)]) == 0
        assert run(["sample", "--pair", mu42, "--count", "2000", "--seed", "7",
                    "--out", str(out)]) == 0
    for name in ("completeness.csv", "completeness_report.json", "completeness.svg",
                 "samples.csv", "histogram.csv", "sample_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_dimension_subcommand(mu42, tmp_path):
    out = tmp_path / "out"
    assert run(["dimension", "--pair", mu42, "--level", "40", "--out", str(out)]) == 0
    report = json.loads((out / "dimension_report.json").read_text())
    assert abs(report["formula_liminf_proxy"] - 0.5) < 1e-12
    assert abs(report["box_slope"] - 0.5) < 0.05
    assert report["box_depth"] == 40 and report["box_intervals"] == str(2**40)
    assert (out / "dimension_ratios.csv").exists()
    assert (out / "dimension_ratios.svg").exists()


def test_dimension_builds_the_ratio_numerators_once(mu42, tmp_path, monkeypatch):
    # the formula and the box fit share one U_1..U_41; the intervals artifact reads
    # its own, at its depth of 6
    depths = []

    def numerators(pair, n_max):
        depths.append(n_max)
        return ratio_numerators(pair, n_max)

    ratio_numerators = cli.dim._ratio_numerators
    monkeypatch.setattr(cli.dim, "_ratio_numerators", numerators)
    assert run(["dimension", "--pair", mu42, "--level", "40", "--out", str(tmp_path)]) == 0
    assert depths.count(40) == 1, depths


def test_dimension_alpha_pair(tmp_path):
    cfg = tmp_path / "alpha.json"
    cfg.write_text(ALPHA_HALF)
    out = tmp_path / "out"
    assert run(["dimension", "--pair", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "dimension_report.json").read_text())
    assert abs(report["formula_liminf_proxy"] - 0.5) < 0.02


def test_beurling_subcommand(mu42, tmp_path):
    out = tmp_path / "out"
    assert run(["beurling", "--pair", mu42, "--level", "8", "--out", str(out)]) == 0
    report = json.loads((out / "beurling_report.json").read_text())
    assert report["passed"]
    assert report["beurling_estimate"] <= report["hausdorff_formula"] + 0.1


@pytest.mark.parametrize("excess, code", [(0.15, 1), (0.05, 0)])
def test_beurling_fails_past_its_slack_of_0_1(mu42, tmp_path, monkeypatch, excess, code):
    # a windowed-count slope at the formula plus 0.15 fails and plus 0.05 passes: pins
    # the slack of 0.1 and the direction of the comparison
    formula = cli.dim.hausdorff_dim_formula(constant_pair(4, 2), 40).liminf_proxy
    monkeypatch.setattr(cli.dim, "beurling_upper_dim",
                        lambda level, window_grid: cli.dim.BeurlingEstimate(formula + excess, ()))
    out = tmp_path / "out"
    assert run(["beurling", "--pair", mu42, "--level", "8", "--out", str(out)]) == code
    report = json.loads((out / "beurling_report.json").read_text())
    assert report["beurling_estimate"] == formula + excess and report["slack"] == 0.1


@pytest.mark.parametrize("level", ["1", "2"])
def test_beurling_too_shallow_for_a_slope_exits_2(mu42, tmp_path, capsys, level):
    # these passed with "beurling_estimate": 0.0 from a grid of fewer than two windows
    assert run(["beurling", "--pair", mu42, "--level", level, "--out", str(tmp_path / "o")]) == 2
    assert "--level" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sample_subcommand(mu42, tmp_path):
    out = tmp_path / "out"
    assert run(["sample", "--pair", mu42, "--count", "20000", "--seed", "3",
                "--out", str(out)]) == 0
    report = json.loads((out / "sample_report.json").read_text())
    assert abs(report["mean"] - report["expected_mean"]) <= report["band_5sigma"]
    assert (out / "samples.csv").exists()
    assert (out / "histogram.csv").exists()
    assert (out / "histogram.svg").exists()


@pytest.mark.parametrize("bands, code", [(1.5, 1), (0.5, 0)])
def test_sample_fails_outside_its_5_sigma_band(mu42, tmp_path, monkeypatch, bands, code):
    # samples at +-sigma about a mean 1.5 bands off the exact mean fail and 0.5 bands off
    # pass, the band being 5 sigma / sqrt(count): pins its width and the comparison's
    count, sigma = 1000, 0.01
    pair = constant_pair(4, 2)
    mean = float(cli.sampling.exact_mean(pair)) + bands * 5.0 * sigma / math.sqrt(count)
    values = mean + sigma * np.tile([-1.0, 1.0], count // 2)
    monkeypatch.setattr(cli.sampling, "sample_measure",
                        lambda pair, count, seed: cli.sampling.SampleSet(values, 30, 0.0))
    out = tmp_path / "out"
    assert run(["sample", "--pair", mu42, "--count", str(count), "--out", str(out)]) == code
    report = json.loads((out / "sample_report.json").read_text())
    assert report["band_5sigma"] == pytest.approx(5.0 * sigma / math.sqrt(count), rel=1e-12)


def write_oracle_csv(path, header, rows):
    """The CSV that :func:`cli._write_csv` must write byte for byte: csv.writer's."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# the CLI's cells: Python floats, ints past 2^64, digit strings, the empty word "()" and
# exact fractions; and ints past 4,300 digits, a few per column, as each takes 0.3 ms to format
_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072e-308, 1e308, 1e16, 1e-5])
_INTS = st.integers() | st.integers(2**64 - 2, 2**70)
_TEXTS = st.text("0123456789", min_size=1, max_size=12) | st.just("()") | st.fractions().map(str)
_HUGE = st.lists(st.integers(1, 9).map(lambda k: k * 10**4400 + 7) | st.just(-(10**5000)), max_size=2)
_ARRAYS = (st.lists(_FLOATS, min_size=1, max_size=8).map(lambda v: np.array(v, dtype=float))
           | st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=8).map(
               lambda v: np.array(v, dtype=np.int64)))
_LISTS = st.tuples(_HUGE, st.one_of(*(st.lists(cells, min_size=1, max_size=8)
                                      for cells in (_FLOATS, _INTS, _TEXTS))))


@given(st.lists(_LISTS | _ARRAYS, min_size=1, max_size=4),
       st.sampled_from([0, 1, cli._ROWS - 1, cli._ROWS, cli._ROWS + 1]))
@settings(derandomize=True, deadline=None, max_examples=60)
def test_write_csv_writes_the_bytes_of_csv_writer(tmp_path_factory, drawn, count):
    # tables of 0, 1 and about one block of rows: a list column is its huge ints, then
    # its cells cycled to the row count, an array column its entries cycled
    out = tmp_path_factory.mktemp("csv")
    columns = [np.resize(c, count) if isinstance(c, np.ndarray) else (c[0] + c[1] * count)[:count]
               for c in drawn]
    header = ["abcd"[i] for i in range(len(columns))]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as cli.main sets it around a run
    try:
        # numpy's 1.13 print mode formats a numpy float with 12 digits, so a numpy scalar
        # that reached the formatter would show
        with np.printoptions(legacy="1.13"):
            cli._write_csv(out, "table.csv", header, *columns)
        write_oracle_csv(out / "oracle.csv", header,
                         zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns]))
    finally:
        sys.set_int_max_str_digits(limit)
    assert (out / "table.csv").read_bytes() == (out / "oracle.csv").read_bytes()


def test_samples_csv_is_streamed(tmp_path):
    # csv.writer's bytes, without a list of rows: the rows take a few block-sized lists,
    # not one list per sample
    count = 200_000
    args = argparse.Namespace(count=count, seed=5)
    pair = constant_pair(4, 2)
    _, _, artifacts = cli._check_sample(pair, canonical_tau(pair), args)
    write_samples = artifacts[0]
    for name in ("streamed", "listed"):  # cli._run makes the output directory
        (tmp_path / name).mkdir()
    tracemalloc.start()
    try:
        write_samples(tmp_path / "streamed")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * count
    values = cli.sampling.sample_measure(pair, count, seed=5).values
    write_oracle_csv(tmp_path / "listed" / "samples.csv", ["x"], ([v] for v in values.tolist()))
    streamed = (tmp_path / "streamed" / "samples.csv").read_bytes()
    assert streamed == (tmp_path / "listed" / "samples.csv").read_bytes()
    assert len(streamed.splitlines()) == count + 1



def test_the_sample_check_holds_one_array_of_samples(tmp_path):
    # tracemalloc peaks in arrays of 10^6 samples: np.std's x - mean held a second array in
    # the check (2.09), and np.histogram's 64 Ki-sample blocks 0.29 more in its writer (the
    # samples.csv writer's bound is test_samples_csv_is_streamed's)
    count = 10**6
    pair = constant_pair(4, 2)
    tracemalloc.start()
    try:
        _, _, (_, write_histogram) = cli._check_sample(pair, canonical_tau(pair),
                                                       argparse.Namespace(count=count, seed=5))
        check = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        write_histogram(tmp_path)
        written = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check <= 1.3 * 8 * count and written <= 1.2 * 8 * count

def test_tree_flag(mu42, tmp_path):
    tree = tmp_path / "tree.json"
    tree.write_text('[{"word": [1], "value": -1}]')
    out = tmp_path / "out"
    assert run(["spectrum", "--pair", mu42, "--tree", str(tree), "--level", "1",
                "--out", str(out)]) == 0
    lines = (out / "spectrum_L1.csv").read_text().splitlines()
    assert lines[1:] == ["-1", "0"]


def test_report_subcommand(mu42, tmp_path):
    out = tmp_path / "out"
    assert run(["report", "--pair", mu42, "--count", "20000", "--draws", "10",
                "--grid", "8", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    for check in ("pair", "tree", "orthogonality", "partition", "completeness",
                  "dimension", "beurling", "sampling"):
        assert report["checks"][check] is True, check


def test_report_alpha_pair(tmp_path):
    cfg = tmp_path / "alpha.json"
    cfg.write_text(ALPHA_HALF)
    out = tmp_path / "out"
    assert run(["report", "--pair", str(cfg), "--count", "20000", "--draws", "5",
                "--grid", "8", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert "beurling" not in report["checks"]   # too shallow at this digit growth


@pytest.mark.parametrize("config", ["alpha_zero", "alpha_one"])
def test_report_passes_on_the_paper_endpoints(config, tmp_path):
    # the zero- and one-dimensional measures: the box fit at the formula's own
    # depth agrees with the formula within 0.05 on both
    out = tmp_path / "out"
    assert run(["report", "--pair", str(ROOT / "demos" / "configs" / f"{config}.json"),
                "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert all(report["checks"].values()) and "dimension" in report["checks"], report["checks"]


def test_report_fails_on_a_root_table_entry(mu42, tmp_path):
    # tau ignores a root entry, so the table would pass validation and lose it; an
    # entry deeper than the levels report validated used to reach completeness,
    # whose own validation ended the run with a usage error
    for k, entry in enumerate(('{"word": [], "value": 5}',
                               '{"word": [0, 0, 0, 0, 0, 0, 0, 0, 1], "value": 5}')):
        tree = tmp_path / f"tree{k}.json"
        tree.write_text(f"[{entry}]")
        out = tmp_path / f"out{k}"
        assert run(["report", "--pair", mu42, "--tree", str(tree), "--out", str(out)]) == 1
        checks = json.loads((out / "report.json").read_text())["checks"]
        assert checks == {"pair": True, "tree": False}, entry


def test_report_fails_on_invalid_pair(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(INVALID_EXPLICIT)
    out = tmp_path / "out"
    assert run(["report", "--pair", str(cfg), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False and report["checks"]["pair"] is False


def test_threads_flag_validation(mu42, tmp_path, capsys):
    # --threads was never read by any computation and is no longer accepted
    for argv in (["pair", "--threads", "4"], ["report", "--threads", "1"]):
        with pytest.raises(SystemExit) as err:
            run([argv[0], "--pair", mu42, *argv[1:], "--out", str(tmp_path / "o")])
        assert err.value.code == 2
        assert "--threads" in capsys.readouterr().err


def _strict_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def _parses(cell):
    # int, float or bool; interval endpoints are exact fractions p/q
    if cell in ("True", "False"):
        return True
    for kind in (int, float, Fraction):
        try:
            kind(cell)
            return True
        except ValueError:
            pass
    return False


def test_every_artifact_parses_back(mu42, tmp_path):
    tree = tmp_path / "tree.json"
    tree.write_text('[{"word": [1], "value": -1}, {"word": [1, 1], "value": -1}]')
    commands = [
        ["pair"],
        ["spectrum", "--level", "3"],
        ["orthogonality", "--tree", str(tree), "--level", "4"],
        ["partition", "--tree", str(tree), "--level", "4", "--draws", "3"],
        ["completeness", "--tree", str(tree), "--level", "5", "--grid", "4"],
        ["dimension"],
        ["beurling", "--level", "6"],
        ["sample", "--count", "500"],
        ["report", "--count", "2000", "--draws", "2", "--grid", "2"],
    ]
    for cmd in commands:
        out = tmp_path / cmd[0]
        assert run([cmd[0], "--pair", mu42, *cmd[1:], "--out", str(out)]) == 0, cmd[0]
        for path in sorted(out.glob("*.csv")):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert rows, path.name
            for row in rows:
                for cell in row:
                    assert _parses(cell), (path.name, cell)
        reports = sorted(out.glob("*.json"))
        assert reports, cmd[0]
        for path in reports:
            json.loads(path.read_text(), parse_constant=_strict_constant)


@pytest.mark.parametrize("cmd, flag", [
    (["completeness", "--tol", "nan"], "--tol"),
    (["completeness", "--tol", "inf"], "--tol"),
    (["completeness", "--level", "0"], "--level"),
    (["partition", "--level", "0"], "--level"),
    (["partition", "--draws", "0"], "--draws"),
    (["partition", "--seed", "-1"], "--seed"),
    (["report", "--draws", "0"], "--draws"),
    (["spectrum", "--level", "0"], "--level"),
    (["completeness", "--tol", "0"], "--tol"),
    # the Philox key takes the seed as an unsigned 64-bit word
    (["sample", "--seed", "18446744073709551616"], "--seed"),
    (["report", "--seed", "18446744073709551616"], "--seed"),
])
def test_degenerate_flags_rejected(mu42, tmp_path, capsys, cmd, flag):
    with pytest.raises(SystemExit) as err:
        run([cmd[0], "--pair", mu42, *cmd[1:], "--out", str(tmp_path / "o")])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err


def test_partition_level_over_budget_exits_2(tmp_path, capsys):
    # the level used to be lowered silently to the deepest one within the
    # budget, passing with "level": 30 while partition.csv held only L=1..6
    out = tmp_path / "o"
    assert run(["partition", "--pair", str(ROOT / "demos" / "configs" / "mu42.json"),
                "--level", "30", "--budget", "100", "--draws", "2", "--out", str(out)]) == 2
    assert f"required: {2**30}" in capsys.readouterr().err
    assert not (out / "partition.csv").exists()


def test_a_word_budget_prints_its_count_once(tmp_path, capsys):
    # d_1 ... d_591 = 2^174,936 at alpha = 0 has 52,661 digits, and the one stderr line
    # printed them twice, in the message and in its "(required: N)"
    out = tmp_path / "o"
    assert run(["spectrum", "--pair", str(ROOT / "demos" / "configs" / "alpha_zero.json"),
                "--level", "591", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    required = _decimal(2 ** 174_936)
    assert len(required) == 52_661 and err.count(required) == 1
    assert err.startswith("error: --budget: ") and err.endswith(f" (required: {required})\n")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("d, required", [(1021, None), (4093, 8374278)])
def test_completeness_budgets_the_angles_of_a_prime_tail_level(tmp_path, capsys, d, required):
    # the walk's explicit tail level 2 of (2d, d) at L = 1 is one H_d sub-level, whose
    # (d - 1) / 2 rows of angles span every level-1 node: 2046 x 4093 entries pass the default
    # budget of 10^6, and the check exits 2 before it tabulates any; 510 x 1021 stay within it.
    # Canonical labels run on the transfer operator, whose start function takes d - 1 sines
    # per node there (test_transfer_holds_its_sines_to_the_budget)
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"kind": "constant", "b": 2 * d, "d": d}))
    out = tmp_path / "o"
    code = run(["completeness", "--pair", str(pair), "--level", "1", *_walk_table(tmp_path),
                "--out", str(out)])
    if required is None:
        assert code == 0
    else:
        assert code == 2 and f"(required: {required})" in capsys.readouterr().err
        assert not (out / "completeness.csv").exists()


def _tail_run(tmp_path, config: str, *argv: str):
    # a subprocess CLI run on a demo pair that must refuse its tail level 2 by the budget
    # within 10 s: exit 2 naming --budget, and no output directory
    out = tmp_path / "o"
    proc = subprocess.run([sys.executable, "-m", "cantorspec.cli", *argv, "--pair",
                           str(ROOT / "demos" / "configs" / f"{config}.json"), "--out", str(out)],
                          capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 2 and proc.stderr.startswith("error: --budget: tail level 2 ")
    assert not out.exists()


@pytest.mark.parametrize("cmd", [["completeness", "--level", "1"], ["report"]])
def test_a_large_prime_tail_level_exits_2_naming_the_budget(tmp_path, cmd):
    # d_2 = 2^61 - 1 is an explicit tail level past L = 1, one H_d sub-level over the
    # budget, refused at once, without trial division of d_2 to its square root
    _tail_run(tmp_path, "explicit_prime_tail", *cmd)


def test_a_prime_tail_level_past_the_caps_square_exits_2_at_once(tmp_path):
    # d_2 = 2^61 - 1 passes Fermat's test past 10^18, the square of the factoring cap at
    # --budget 10^9, so no trial division runs; to the cap of 10^9 it took minutes
    _tail_run(tmp_path, "explicit_prime_tail", "completeness", "--level", "1", "--budget", "1000000000")


def test_a_composite_tail_level_exits_2_after_trial_division_to_the_cap(tmp_path):
    # d_2 = (2^31 - 1)(2^61 - 1) fails Fermat's test, so trial division runs, and stops at
    # the cap of 10^6 / 24 + 1 of the default budget, short of its factor 2^31 - 1
    _tail_run(tmp_path, "explicit_composite_tail", "completeness", "--level", "1")


@pytest.mark.parametrize("config, budget", [("explicit_prime_tail", "1000000000"),
                                            ("explicit_composite_tail", "1000000")],
                         ids=["prime", "composite"])
def test_the_walk_refuses_a_large_tail_level_by_the_budget(tmp_path, config, budget):
    # the walk's tail plan, on a table: the prime d_2 = 2^61 - 1 passes Fermat's test past
    # (10^9)^2, the square of its factoring cap at --budget 10^9, so no trial division runs
    # (to the cap of 10^9 it took minutes); the composite (2^31 - 1)(2^61 - 1) stops at the
    # cap of 10^6 + 1, short of its factor 2^31 - 1
    _tail_run(tmp_path, config, "completeness", "--level", "1", "--budget", budget, *_walk_table(tmp_path))



@pytest.mark.parametrize("alpha, argv, exponent, level", [
    pytest.param("1e-09", ["pair", "--level", "3"], "ceil(n / alpha)", 1, id="1e-09"),
    pytest.param("1e-07", ["pair", "--level", "3"], "ceil(n / alpha)", 1, id="1e-07"),
    # the tails of dimension are formed in level order, so it names level 1 too, not M = 7
    pytest.param("1e-09", ["dimension", "--level", "3"], "ceil(n / alpha)", 1, id="dimension-1e-09"),
    # the alpha = 0 rule's b_n = 2^(3 n^2) passes the cap from level 592 on
    pytest.param("0", ["pair", "--level", "592"], "3 n^2", 592, id="0-level-592"),
    # the word count and Beurling's window grid read the levels before rho is formed: the
    # rho_n up to level 591 hold about 4 GB
    *(pytest.param("0", [command, "--level", "592"], "3 n^2", 592, id=f"0-level-592-{command}")
      for command in ["spectrum", "orthogonality", "partition", "completeness", "beurling"]),
])
def test_a_tiny_alpha_exits_2_at_once(tmp_path, alpha, argv, exponent, level):
    # b_1 = 2^ceil(1 / alpha) passes the cap of 2^20 bits on one b_n: it used to be formed,
    # ending in a MemoryError traceback (exit 1) at 1e-9 and running past 30 s at 1e-7, and
    # alpha = 0 at level 2000 ran 28 s; at level 592 five subcommands formed the rho list
    # first, ending in a MemoryError traceback.  The child's address space is capped, and
    # main must return within 1 s of its start
    pair, out = tmp_path / "pair.json", tmp_path / "o"
    pair.write_text(f'{{"kind": "alpha", "alpha": {alpha}}}')
    code = ("import resource, sys, time\n"
            "from cantorspec.cli import main\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
            "start = time.perf_counter()\n"
            "code = main(sys.argv[1:])\n"
            "sys.exit(code if time.perf_counter() - start < 1.0 else 99)\n")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code, *argv, "--pair", str(pair),
                           "--out", str(out)],
                          capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 2 and not out.exists()
    assert proc.stderr.splitlines() == [
        f"error: alpha = {float(alpha)!r}: the exponent {exponent} of b_n passes 2^20 bits at level {level}"]


def test_cli_import_does_not_load_mpmath():
    # mpmath is a test extra; the series coefficients come from exact fractions
    code = "import sys, cantorspec.cli; sys.exit('mpmath' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("command", ["sample", "report"])
@pytest.mark.parametrize("count", ["1", "0"])
def test_count_below_2_exits_2_naming_the_flag(mu42, tmp_path, capsys, command, count):
    # the 5-sigma band of sample is the samples' own standard deviation, 0 for one
    # sample, so --count 1 used to fail the check and exit 1
    code, _, err = _exit(main, [command, "--pair", mu42, "--count", count,
                                "--out", str(tmp_path / "o")], capsys)
    assert code == 2 and f"argument --count: must be >= 2, got {count}" in err
    assert not (tmp_path / "o").exists()


def _decimal(n) -> str:
    # n in decimal, past Python's default limit of 4300 digits on str(int)
    return str(decimal.Decimal(n))


BIG = 10 ** 4200  # a config may hold it; rho_3 = BIG^2 has 8401 digits


@pytest.mark.parametrize("command, code", [("pair", 0), ("spectrum", 0), ("dimension", 0),
                                           ("report", 2)])
def test_exact_integers_past_the_digit_limit_are_written_whole(tmp_path, capsys, command, code):
    # each of these runs exited 2 with Python's "Exceeds the limit (4300 digits) for
    # integer string conversion"; report still exits 2: its completeness passes on the
    # transfer operator, which needs no lambda in the double range, and beurling refuses a
    # window grid of rho_n / 2 all past the double range.  The caller's digit limit stays in
    # place
    pair = tmp_path / "big.json"
    pair.write_text(json.dumps({"kind": "explicit", "b": [BIG, BIG, 4], "d": [2, 2, 2]}))
    out = tmp_path / "o"
    limit = sys.get_int_max_str_digits()
    assert run([command, "--pair", str(pair), "--out", str(out)]) == code
    assert sys.get_int_max_str_digits() == limit
    err = capsys.readouterr().err
    assert "Exceeds the limit" not in err
    rho = [1, BIG, BIG ** 2] + [4 ** k * BIG ** 2 for k in range(1, 11)]  # rho_1..rho_13
    if command == "pair":
        assert json.loads((out / "pair_report.json").read_text())["rho"] == list(map(_decimal, rho))
    elif command == "spectrum":
        lines = (out / "spectrum_L3.csv").read_text().splitlines()
        assert lines == ["lambda", *(_decimal(a + b + c) for c in (0, rho[2])
                                     for b in (0, rho[1]) for a in (0, 1))]
    elif command == "dimension":
        report = json.loads((out / "dimension_report.json").read_text())
        assert report["box_intervals"].isdigit()
        rows = list(csv.reader((out / "intervals.csv").read_text().splitlines()))
        assert rows[0] == ["word", "left", "right"] and len(rows) > 1
        assert max(len(cell) for row in rows[1:] for cell in row) > 8400  # Fractions over rho_3
    else:
        assert "the window grid holds 0 distinct window(s)" in err


def test_dimension_counts_intervals_past_the_digit_limit(tmp_path):
    # alpha_zero at --level 169 counts 4325-digit many boxes, and the run exited 2 on
    # writing the count; at --level 168 it passed
    out = tmp_path / "o"
    assert run(["dimension", "--pair", str(ROOT / "demos" / "configs" / "alpha_zero.json"),
                "--level", "169", "--out", str(out)]) == 0
    count = json.loads((out / "dimension_report.json").read_text())["box_intervals"]
    assert count.isdigit() and len(count) > 4300


def test_dimension_level_1_exits_2_naming_the_flag(tmp_path, capsys):
    # used to exit 2 with "n_max must be >= 2, got 1", naming no flag
    assert run(["dimension", "--pair", str(ROOT / "demos" / "configs" / "mu42.json"),
                "--level", "1", "--out", str(tmp_path / "o")]) == 2
    assert "--level must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("pair_cfg, tree_cfg, field", [
    ('{"kind": "constant", "b": 4.7, "d": 2}', None, "b must be"),
    ('{"kind": "constant", "b": 4, "d": 2.5}', None, "d must be"),
    (MU42, '[{"word": [1.5], "value": -1}]', "word[0] must be"),
    (MU42, '[{"word": [1], "value": -0.5}]', "value must be"),
])
def test_non_integral_config_values_exit_2(tmp_path, capsys, pair_cfg, tree_cfg, field):
    pair = tmp_path / "pair.json"
    pair.write_text(pair_cfg)
    argv = ["spectrum", "--pair", str(pair), "--out", str(tmp_path / "o")]
    if tree_cfg is not None:
        tree = tmp_path / "tree.json"
        tree.write_text(tree_cfg)
        argv += ["--tree", str(tree)]
    assert run(argv) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("cmd, pair_cfg, extra, named", [
    # JSON true and false are no numbers, nor is a string: each of these ran, exit 0 or 1
    ("spectrum", MU42, ("--tree", '[{"word": [true], "value": true}]'),
     "invalid tree table {}: entry 0 word[0] must be an integer, got True"),
    ("pair", '{"kind": "explicit", "b": [4, true], "d": [2, true]}', None,
     "invalid pair config {}: b[1] must be an integer, got True"),
    ("pair", '{"kind": "alpha", "alpha": false}', None,
     "invalid pair config {}: alpha must be a finite number, got False"),
    ("pair", '{"kind": "alpha", "alpha": "1/3"}', None,
     "invalid pair config {}: alpha must be a finite number, got '1/3'"),
    ("partition", MU42, ("--filters", '{"levels": [[[0, 0], [0, 0], ["0.5", 0], [0.5, 0]]]}'),
     "invalid filter family {}: levels[0][2] re must be a finite number, got '0.5'"),
    ("partition", MU42, ("--filters", '{"levels": [[[0, 0], [0, 0], [true, 0], [0.5, 0]]]}'),
     "invalid filter family {}: levels[0][2] re must be a finite number, got True"),
])
def test_booleans_and_strings_are_not_numbers(tmp_path, capsys, cmd, pair_cfg, extra, named):
    pair, out = tmp_path / "pair.json", tmp_path / "o"
    pair.write_text(pair_cfg)
    argv = [cmd, "--pair", str(pair), "--out", str(out)]
    if extra is not None:
        flag, doc = extra
        path = tmp_path / "extra.json"
        path.write_text(doc)
        argv += [flag, str(path)]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: " + named.format(argv[-1] if extra else pair) + "\n"
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["pair", "completeness"])
@pytest.mark.parametrize("below", [False, True])
def test_out_naming_a_file_exits_2_before_the_check(tmp_path, capsys, monkeypatch, cmd, below):
    # mkdir ran after the whole check and died on FileExistsError or NotADirectoryError
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    out = blocker / "sub" if below else blocker

    def never(*args):
        raise AssertionError("the check ran")
    monkeypatch.setitem(cli._CHECKS[cmd], "check", never)
    assert run([cmd, "--pair", str(ROOT / "demos" / "configs" / "mu42.json"),
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out {out}: {blocker} is not a directory\n"
    assert blocker.read_text() == "kept"


@pytest.mark.parametrize("cmd, pair_cfg, tree_cfg, named", [
    # JSON that is not an object: pair_from_config died on an AttributeError of cfg.get
    *[("pair", cfg, None, f"invalid pair config {{}}: a pair config is a JSON object, got {got}")
      for cfg, got in [("[]", "[]"), ("4", "4"), ('"mu"', "'mu'"), ("null", "None")]],
    # a word listed twice: the last entry was used, and the report echoed both
    ("spectrum", MU42, '[{"word": [1], "value": 1}, {"word": [1], "value": -1}]',
     "invalid tree table {}: entries 0 and 1 both list the word [1]"),
    # b_1 = 2^ceil(1 / alpha): the shift died on an OverflowError
    *[(cmd, '{"kind": "alpha", "alpha": 1e-300}', None, "alpha = 1e-300: the exponent")
      for cmd in ("pair", "completeness", "report")],
])
def test_malformed_configs_exit_2(tmp_path, capsys, cmd, pair_cfg, tree_cfg, named):
    pair, out = tmp_path / "pair.json", tmp_path / "o"
    pair.write_text(pair_cfg)
    argv = [cmd, "--pair", str(pair), "--out", str(out)]
    if tree_cfg is not None:
        tree = tmp_path / "tree.json"
        tree.write_text(tree_cfg)
        argv += ["--tree", str(tree)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert named.format(argv[-1] if tree_cfg is not None else pair) in err
    assert not out.exists()


def _subcommand_flags() -> dict[str, dict[str, object]]:
    """Per subcommand, the long flags it accepts and their defaults."""
    subparsers = build_parser()._subparsers._group_actions[0].choices
    return {name: {a.option_strings[-1]: a.default for a in p._actions
                   if a.option_strings[-1] != "--help"}
            for name, p in subparsers.items()}


def test_each_subcommand_accepts_only_the_flags_it_reads():
    counts = {name: len(flags) for name, flags in _subcommand_flags().items()}
    assert counts == {"pair": 3, "spectrum": 5, "orthogonality": 5, "partition": 9,
                      "completeness": 7, "dimension": 4, "beurling": 5, "sample": 4,
                      "report": 10}
    assert sum(counts.values()) == 52


def test_ignored_flag_exits_2(mu42, tmp_path, capsys):
    filters = tmp_path / "filters.json"
    filters.write_text('{"levels": [[[0.5, 0.0], [0.5, 0.0]]]}')
    with pytest.raises(SystemExit) as err:
        run(["completeness", "--pair", mu42, "--filters", str(filters),
             "--out", str(tmp_path / "o")])
    assert err.value.code == 2
    assert "--filters" in capsys.readouterr().err


def flag_table() -> str:
    """The README's per-subcommand flag table, generated from the parser."""
    lines = ["| subcommand | flags (default) |", "|---|---|"]
    for name, flags in _subcommand_flags().items():
        cells = [f"`{flag}`" if default is None else f"`{flag} {default}`"
                 for flag, default in flags.items()]
        lines.append(f"| `{name}` | {', '.join(cells)} |")
    return "\n".join(lines)


def test_readme_flag_table_matches_registry():
    assert flag_table() in (ROOT / "README.md").read_text(), flag_table()


@pytest.mark.parametrize("pair_cfg", ['{"kind": "explicit", "b": [4, 1], "d": [2, 1]}',
                                      '{"kind": "explicit", "b": [4, 4], "d": [2, 1]}'])
@pytest.mark.parametrize("cmd", ["completeness", "sample", "dimension", "beurling"])
def test_repeating_b_or_d_of_one_exits_2(tmp_path, capsys, pair_cfg, cmd):
    # these ran until killed: rho_n or the gap-ratio tails stopped changing
    path = tmp_path / "pair.json"
    path.write_text(pair_cfg)
    assert run([cmd, "--pair", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("b, d, cmd, level", [
    # d_n does not divide b_n, so the digit tree would reduce the label sums by the floor
    # q_n = b_n // d_n: partition passed on a wrong sum, or on nan rows where q_1 = 0,
    # and completeness passed, or divided by q_1 = 0
    ([6], [4], "partition", 1), ([6], [4], "completeness", 1),
    ([10, 4], [4, 2], "partition", 1), ([10, 4], [4, 2], "completeness", 1),
    ([3], [4], "partition", 1), ([3], [4], "completeness", 1),
    ([4, 6], [2, 4], "partition", 2), ([4, 6], [2, 4], "completeness", 2),
    # the interval model needs d_n >= 2 and r_n d_n <= 1: these died on an assertion or
    # a division by zero, dimension on b = [8, 4], d = [1, 2] after writing two artifacts
    ([3], [4], "dimension", 1), ([3], [4], "beurling", 1),
    ([8, 4], [1, 2], "dimension", 1),
    ([4, 9, 12], [1, 1, 2], "dimension", 1), ([4, 9, 12], [1, 1, 2], "beurling", 1),
    ([4, 8, 4], [2, 1, 2], "dimension", 2),
])
def test_inadmissible_pair_exits_2_naming_the_level(tmp_path, capsys, b, d, cmd, level):
    out = tmp_path / "o"
    depth = ["--level", "3"] if cmd in ("partition", "completeness") else []
    assert run([cmd, "--pair", _pair_file(tmp_path, b, d), *depth, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: level {level}: ")
    assert not out.exists()  # no artifact, not even the report


def _pair_file(tmp_path, b, d) -> str:
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"kind": "explicit", "b": b, "d": d}))
    return str(path)


def test_partition_past_the_double_range(tmp_path):
    # d_2 rho_2 = 2^1101: the level-2 argument xi / (d_2 rho_2) is 0 at double resolution
    pair = _pair_file(tmp_path, [2**1100, 2**1100], [2, 2])
    assert run(["partition", "--pair", pair, "--level", "3", "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("b, d, count", [([2**600, 2**600], [2, 2], 4),
                                         ([2**1100, 2**1100], [2, 2], 4),
                                         # every |lambda| < 2^511, but 30 squares sum past 2^1024
                                         ([2**507, 32], [2, 16], 32)])
@pytest.mark.parametrize("cmd", ["completeness", "report"])
def test_completeness_refuses_frequencies_past_the_slack_range(tmp_path, capsys, b, d, count, cmd):
    # the walk's slack's sum of lambda^2 would overflow to inf, and inf slack bounds
    # everything; canonical labels run on the transfer operator, which forms no lambda
    # (test_transfer_reaches_frequencies_past_the_slack_range)
    pair = _pair_file(tmp_path, b, d)
    assert run([cmd, "--pair", pair, "--level", "2", "--grid", "4", *_walk_table(tmp_path),
                "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "2^511" in err  # report runs completeness at its own, deeper level
    assert cmd == "report" or "level 2: " in err and f"over {count} frequencies" in err


def test_beurling_past_the_double_range(tmp_path):
    # rho_4 = 2^1104: its window is inf and left out; x -+ h stay integers
    pair = str(ROOT / "demos" / "configs" / "explicit_huge.json")
    assert run(["beurling", "--pair", pair, "--level", "4", "--out", str(tmp_path / "o")]) in (0, 1)
    report = json.loads((tmp_path / "o" / "beurling_report.json").read_text())
    assert math.isfinite(report["beurling_estimate"])


@pytest.mark.parametrize("bits, cmd", [(1100, "completeness"), (1100, "report"), (1100, "sample"),
                                       (64, "sample"), (64, "report")])
def test_d_past_the_machine_range_exits_2_naming_the_level(tmp_path, capsys, bits, cmd):
    # d_2 = 2^1100 ended completeness, and so report, in an OverflowError traceback of
    # the walk's tail plan (exit 1); d_2 = 2^64 ended sample in numpy's "high is out of
    # bounds for int64", which named neither the level nor d_2.  completeness runs on the
    # walk here: the transfer operator's start function takes d_2 = 2^1100 as 1100 H_2
    # sub-levels (test_transfer_reaches_frequencies_past_the_slack_range)
    pair, out = _pair_file(tmp_path, [4, 2 ** (bits + 1)], [2, 2**bits]), tmp_path / "o"
    depth = ["--level", "1", *_walk_table(tmp_path)] if cmd == "completeness" else []
    assert run([cmd, "--pair", pair, *depth, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: level 2: d_2 = {2**bits} is past ")
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["partition", "report", "completeness"])
def test_label_past_the_double_range_exits_2_naming_the_level(tmp_path, capsys, cmd):
    # the valid label 2^1099 - 1 of the word (1,) ended partition, and so report, in an
    # OverflowError traceback of the label walk (exit 1); completeness, which builds the
    # same digit tree before its range check, names the word too
    pair, tree, out = _pair_file(tmp_path, [2**1100, 4], [2, 2]), tmp_path / "tree.json", tmp_path / "o"
    tree.write_text(json.dumps([{"word": [1], "value": 2**1099 - 1}]))
    depth = [] if cmd == "report" else ["--level", "2"]
    assert run([cmd, "--pair", pair, "--tree", str(tree), *depth, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: level 1: the label of word [1] is past the double range\n"
    assert not out.exists()


@pytest.mark.parametrize("zeros, code", [(255, 2), (254, 0)])
def test_the_range_bound_counts_the_labels_past_the_tree(mu42, tmp_path, capsys, zeros, code):
    # the label -2 of (1, 0^zeros) lies past --level 1 and moves lambda by -2 rho_{zeros+1}
    # = -2 4^zeros: B = 2 4^255 + 1 over P_1 = 2 frequencies passes 2^511 / sqrt(2), while
    # B = 2 4^254 + 1 stays below it
    tree, out = tmp_path / "tree.json", tmp_path / "o"
    tree.write_text(json.dumps([{"word": [1] + [0] * zeros, "value": -2}]))
    argv = ["completeness", "--pair", mu42, "--tree", str(tree), "--level", "1", "--grid", "4"]
    assert run([*argv, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert ("level 1: " in err and "2^511" in err) == (code == 2)


def test_filter_window_grid_is_held_to_the_budget(mu42, tmp_path, capsys):
    # a zero in the window of this level refined its bound's grid to 4,194,304 points,
    # about 17 s, only to report a nonpositive bound; 16,384 points x 64 coefficients
    # pass the default budget of 10^6
    taps = [[0.0, 0.0]] * 64
    taps[0], taps[63] = [0.5, 0.0], [-0.5, 0.0]
    filters, out = tmp_path / "filters.json", tmp_path / "o"
    filters.write_text(json.dumps({"levels": [taps]}))
    assert run(["partition", "--pair", mu42, "--filters", str(filters), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --budget: level 1: ") and "(required: 1048576)" in err
    assert not out.exists()
