import argparse
import csv
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from cantorspec import canonical_tau, cli, constant_pair
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
    # main parses with the invoked subcommand's own parser
    assert _exit(main, [name, "--help"], capsys) == _exit(build_parser().parse_args,
                                                          [name, "--help"], capsys)
    flags = [a.dest for a in cli.subcommand_parser(name)._actions]
    assert set(flags) == {"help", "pair", "out", *cli._CHECKS[name]["flags"]}


def test_valid_call_never_builds_the_full_parser(mu42, tmp_path, monkeypatch):
    def full_parser():
        raise AssertionError("main built the parser of every subcommand")
    monkeypatch.setattr(cli, "build_parser", full_parser)
    assert run(["pair", "--pair", mu42, "--level=3", "--out", str(tmp_path / "o")]) == 0
    assert run(["spectrum", "--pair", mu42, "--level", "2", "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("argv", [
    ["frobnicate", "--pair", "x.json"],                 # unknown subcommand
    ["--level", "3", "partition", "--pair", "x.json"],  # a flag before the subcommand
    ["partition", "--pair", "x.json", "--grid", "4"],   # a flag of another subcommand
    ["partition", "--pair", "x.json", "--frob"],        # an unknown flag
    ["completeness", "--pair", "x.json", "--level", "0"],  # an invalid value
    ["completeness", "--pair", "x.json", "--tol", "nan"],
    ["sample", "--pair", "x.json", "--count", "many"],
    ["report"],                                         # a required flag missing
    [],
    ["--help"],
])
def test_usage_errors_match_the_full_parser(argv, capsys):
    got = _exit(main, argv, capsys)
    assert got == _exit(build_parser().parse_args, argv, capsys)
    assert got[0] in (0, 2)


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


def test_spectrum_budget_exceeded(mu42, tmp_path):
    assert run(["spectrum", "--pair", mu42, "--level", "21",
                "--out", str(tmp_path / "o")]) == 2


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
    assert lines[0] == "xi,L,Q,certified_slack,monotone_ok"
    assert len(lines) == 1 + 9 * 8                       # (grid+1) points x levels
    report = json.loads((out / "completeness_report.json").read_text())
    assert report["monotone"] and report["bounded"]
    assert (out / "completeness.svg").exists()


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
    assert report["box_intervals"] >= 1000
    assert (out / "dimension_ratios.csv").exists()
    assert (out / "dimension_ratios.svg").exists()


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


def test_sample_subcommand(mu42, tmp_path):
    out = tmp_path / "out"
    assert run(["sample", "--pair", mu42, "--count", "20000", "--seed", "3",
                "--out", str(out)]) == 0
    report = json.loads((out / "sample_report.json").read_text())
    assert abs(report["mean"] - report["expected_mean"]) <= report["band_5sigma"]
    assert (out / "samples.csv").exists()
    assert (out / "histogram.csv").exists()
    assert (out / "histogram.svg").exists()


def test_samples_csv_is_streamed(tmp_path):
    # the same bytes as writing a list of one-element rows, without that list:
    # the rows take a few chunk-sized lists, not one list per sample
    count = 200_000
    args = argparse.Namespace(count=count, seed=5)
    pair = constant_pair(4, 2)
    _, _, artifacts = cli._check_sample(pair, canonical_tau(pair), args)
    write_samples = artifacts[0]
    tracemalloc.start()
    try:
        write_samples(tmp_path / "streamed")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * count
    values = cli.sampling.sample_measure(pair, count, seed=5).values
    cli._write_csv(tmp_path / "listed", "samples.csv", ["x"], [[v] for v in values.tolist()])
    streamed = (tmp_path / "streamed" / "samples.csv").read_bytes()
    assert streamed == (tmp_path / "listed" / "samples.csv").read_bytes()
    assert len(streamed.splitlines()) == count + 1


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


def test_cli_import_does_not_load_mpmath():
    # mpmath is a test extra; the series coefficients are literals
    code = "import sys, cantorspec.cli; sys.exit('mpmath' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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
