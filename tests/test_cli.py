import csv
import json
from fractions import Fraction

import pytest

from cantorspec.cli import main

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


def test_unknown_subcommand_exits_2(mu42):
    with pytest.raises(SystemExit) as err:
        run(["frobnicate", "--pair", mu42])
    assert err.value.code == 2


def test_spectrum_example(mu42, tmp_path):
    out = tmp_path / "out"
    assert run(["spectrum", "--pair", mu42, "--level", "3", "--out", str(out)]) == 0
    lines = (out / "spectrum_L3.csv").read_text().splitlines()
    assert lines[0] == "lambda"
    assert lines[1:] == ["0", "1", "4", "5", "16", "17", "20", "21"]
    assert (out / "spectrum_L3.svg").exists()


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
                    "--seed", "7", "--out", str(out)]) == 0
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


def test_threads_flag_validation(mu42, tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["pair", "--pair", mu42, "--threads", "0", "--out", str(tmp_path / "o")])
    assert err.value.code == 2
    assert run(["pair", "--pair", mu42, "--threads", "4",
                "--out", str(tmp_path / "o")]) == 0


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
])
def test_degenerate_flags_rejected(mu42, tmp_path, capsys, cmd, flag):
    with pytest.raises(SystemExit) as err:
        run([cmd[0], "--pair", mu42, *cmd[1:], "--out", str(tmp_path / "o")])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err
