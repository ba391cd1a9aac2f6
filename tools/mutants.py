"""The mutation gate: every gating verdict, and every fix a test pins, shown able to fail.

    python tools/mutants.py

Each mutant of :data:`MUTANTS` replaces one exact text of one file of ``src``.  The
gate copies the repository's files (those git lists, tracked or new and not ignored)
into a temporary directory once.  Per mutant it writes the mutated file there, runs
the mutant's named tests, and, when they pass, ``tools/artifacts.py --check``, whose
negative controls must exit 1 (:data:`artifacts.NEGATIVE_CONTROLS`); then it restores
the file.  The mutant is killed when either run fails or outlives its timeout.  The
gate never writes the working tree.  It prints one line per mutant and exits 1
naming each survivor, or 2 when it cannot tell: an old text that does not occur
exactly once, a named test that pytest cannot run, or an unmutated copy that fails
the named tests or the check (run first, as a kill shows nothing then).

:data:`EXCLUDED` lists the mutants known to survive, with the reason; the gate does
not run them.  A change that adds a gating verdict adds its mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
_TIMEOUT = 300  # seconds per run; the slowest passing run, the unmutated one, takes about 10


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str   # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids that fail on the mutant, before --check runs
    reason: str


_CLI, _CORE, _DIM = "src/cantorspec/cli.py", "src/cantorspec/core.py", "src/cantorspec/dimension.py"
_FOURIER, _SAMPLING, _SPECTRA, _VERIFY = ("src/cantorspec/fourier.py", "src/cantorspec/sampling.py",
                                           "src/cantorspec/spectra.py", "src/cantorspec/verify.py")

MUTANTS = [
    Mutant("pair verdict ignores admissibility", _CLI,
           "return report.ok, {", "return True, {",
           ("tests/test_cli.py::test_pair_subcommand_invalid_pair",
            "tests/test_cli.py::test_report_fails_on_invalid_pair"),
           "pair and report must fail on an inadmissible explicit pair"),
    Mutant("tree verdict ignores the table", _CLI,
           '"tree": validate_tree_mapping(tm).ok}', '"tree": True}',
           ("tests/test_cli.py::test_report_fails_on_a_root_table_entry",),
           "report must fail on a table entry that validation refuses"),
    Mutant("report passes when any check passes", _CLI,
           "return all(checks.values()), {", "return any(checks.values()), {",
           (),
           "the negative control report on explicit_inadmissible, {pair: false, tree: true}, "
           "must exit 1"),
    Mutant("orthogonality ignores its violations", _CLI,
           "return report.passed and not level.collisions, {", "return not level.collisions, {",
           (),
           "the negative control orthogonality on explicit_inadmissible finds 8,190 violating pairs"),
    Mutant("spectrum ignores collisions", _CLI,
           "return not level.collisions, {", "return True, {",
           ("tests/test_cli.py::test_spectrum_fails_on_colliding_labels",),
           "spectrum must fail where two words share a frequency"),
    Mutant("partition passes at 10 tol", _CLI,
           "return worst <= args.tol, payload, artifacts", "return worst <= 10 * args.tol, payload, artifacts",
           (),
           "the negative control partition on mu42 at --tol 3e-16 has worst_defect 6.66e-16"),
    Mutant("partition defects keep their sign", _CLI,
           "defects = np.abs(totals - 1.0)", "defects = totals - 1.0",
           (),
           "the manifest's partition.csv holds each defect |sum - 1|: the file of every partition "
           "op differs, and only three reports do, where the worst sum lies below 1"),
    Mutant("completeness slack halved", _VERIFY,
           "slack = np.cumsum(kc * (", "slack = 0.5 * np.cumsum(kc * (",
           ("tests/test_cli.py::test_completeness_alpha_one_matches_the_direct_sum",),
           "the certified slack is pinned by a direct sum and by the manifest's completeness.csv"),
    Mutant("dimension agrees within 0.5", _CLI,
           "agree = abs(box.slope - formula.liminf_proxy) <= 0.05",
           "agree = abs(box.slope - formula.liminf_proxy) <= 0.5",
           (),
           "the negative control dimension on alpha_near_one has box slope 0.764 against 0.650"),
    Mutant("beurling passes at 10 times its slack", _DIM,
           "passed=est.slope <= formula + _BEURLING_SLACK", "passed=est.slope <= formula + 10 * _BEURLING_SLACK",
           ("tests/test_cli.py::test_beurling_fails_past_its_slack_of_0_1",),
           "a windowed-count slope 0.15 above the formula must fail"),
    Mutant("beurling slack 1.0", _DIM,
           "_BEURLING_SLACK = 0.1", "_BEURLING_SLACK = 1.0",
           ("tests/test_cli.py::test_beurling_fails_past_its_slack_of_0_1",),
           "the slack of 0.1 is pinned, and printed in beurling_report.json"),
    Mutant("sample passes within 10 bands", _CLI,
           "return abs(mean - expected) <= band, {", "return abs(mean - expected) <= 10 * band, {",
           ("tests/test_cli.py::test_sample_fails_outside_its_5_sigma_band",),
           "a mean 1.5 bands off the exact mean must fail"),
    Mutant("sample band 50 sigma", _CLI,
           "band = 5.0 * math.sqrt(variance)", "band = 50.0 * math.sqrt(variance)",
           ("tests/test_cli.py::test_sample_fails_outside_its_5_sigma_band",),
           "the 5-sigma band is pinned, and printed in sample_report.json"),
    Mutant("sample band by np.std", _CLI,
           "band = 5.0 * math.sqrt(variance) / math.sqrt(args.count)",
           "band = 5.0 * float(np.std(samples.values)) / math.sqrt(args.count)",
           ("tests/test_cli.py::test_the_sample_check_holds_one_array_of_samples",),
           "np.std forms x - mean of all the samples, a second array of them: the check's "
           "tracemalloc peak at 10^6 samples is 2.09 arrays against the bound of 1.3"),
    Mutant("raw digits read the high half of each word first", _SAMPLING,
           '.astype("<u8", copy=False).view("<u4")', '.astype(">u8", copy=False).view(">u4")',
           ("tests/test_sampling.py::test_streamed_digits_match_digit_matrix[d-2^32]",
            "tests/test_sampling.py::test_streamed_digits_match_digit_matrix[alpha-1]"),
           "a level with d_n = 2^k takes the halves of each raw Philox word low half first, as "
           "Generator.integers does, so its digits and every sample keep their bits"),
    Mutant("dyadic b exponent one higher", _CORE,
           "max(n + 1, -(-n * q // p))", "max(n + 1, -(-n * q // p) + 1)",
           ("tests/test_core.py::test_alpha_rule_scales_equal_the_fraction_ceiling",
            "tests/test_core.py::test_alpha_pair_level_values"),
           "b_n = 2^max(n + 1, ceil(n / alpha)) is pinned in exact integers"),
    Mutant("alpha-rule exponent guarded by sys.maxsize", _CORE,
           "if b > _MAX_BITS:", "if b > (1 << 63) - 1:",
           ("tests/test_cli.py::test_a_tiny_alpha_exits_2_at_once[1e-09]",
            "tests/test_cli.py::test_a_tiny_alpha_exits_2_at_once[dimension-1e-09]"),
           "b_1 = 2^ceil(1 / alpha) at alpha = 1e-9 must exit 2 at once, not end in a MemoryError "
           "traceback, and at 1e-7 not run past the test's 10 s"),
    Mutant("alpha = 0 rule uncapped", _CORE,
           "if b > _MAX_BITS:", "if b > _MAX_BITS and p != 0:",
           ("tests/test_cli.py::test_a_tiny_alpha_exits_2_at_once[0-level-592]",),
           "the alpha = 0 rule's b_n = 2^(3 n^2) passes 2^20 bits from level 592: pair --level 592 "
           "must exit 2 at once, not form it"),
    Mutant("word count forms the rho list", _SPECTRA,
           "math.prod(pair.d(n) for n in range(1, level + 1))",
           "math.prod(_Scales(pair).upto(level).d[1:level + 1])",
           ("tests/test_cli.py::test_a_tiny_alpha_exits_2_at_once[0-level-592-spectrum]",),
           "the word budget is checked before any rho_n is formed: at alpha = 0 the rho_n up to "
           "level 591 hold about 4 GB, and spectrum --level 592 must exit 2 at once"),
    Mutant("beurling forms rho before it enumerates", _DIM,
           """    spectrum = enumerate_level(tm, level, budget=budget)  # its word budget is checked before rho is formed
    halves = [_to_float(r) / 2.0 for r in _Scales(tm.pair).upto(level).rho[2:level + 1]]
""",
           """    halves = [_to_float(r) / 2.0 for r in _Scales(tm.pair).upto(level).rho[2:level + 1]]
    spectrum = enumerate_level(tm, level, budget=budget)
""",
           ("tests/test_cli.py::test_a_tiny_alpha_exits_2_at_once[0-level-592-beurling]",),
           "beurling --level 592 at alpha = 0 must exit 2 at the word budget's check, not form "
           "rho_2..rho_592 first"),
    Mutant("filter certificate ignores its normalization", _FOURIER,
           "if norm_defect > _QMF_TOL:", "if False:",
           ("tests/test_fourier.py::test_a_filter_off_its_normalization_is_rejected",),
           "-H_2 passes the QMF and window checks, and its G_1(0) = -1 must fail the "
           "certificate; the negative control partition with filters_negated42 exits 1"),
    Mutant("guard-band series of H_m off by a factor 2", _FOURIER,
           "(np.pi * s[near]) ** 2 / 6.0)", "(np.pi * s[near]) ** 2 / 3.0)",
           ("tests/test_fourier.py::test_eval_H_array_guard_band_within_2_pow_52_of_mpmath",),
           "H_m within 1e-9 of an integer must stay within 2^-52 of mpmath"),
    Mutant("powers by np.power with an array exponent", _FOURIER,
           "return np.multiply.accumulate(rows)",
           "return np.power(rows, np.arange(count).reshape(-1, *[1] * np.ndim(x)))",
           ("tests/test_fourier.py::test_powers_are_repeated_products_bit_for_bit",),
           "every power of the completeness path is a row of repeated products, whose bits no "
           "CPU dispatch level moves; np.power's kernel differs from them in about half the entries"),
    Mutant("tail series levels multiplied by np.convolve", _FOURIER,
           """        product = [0.0] * count
        for i, out_i in enumerate(out):
            for k in range(i, count):
                product[k] += out_i * level[k - i]
        out = product""",
           "        out = np.convolve(out, level)[:count]",
           ("tests/test_artifacts_manifest.py::test_tail_series_bytes_do_not_depend_on_the_openblas_kernel",),
           "np.convolve's dot products run the ddot kernel OpenBLAS picks for the CPU, so the tail "
           "series' bytes would follow OPENBLAS_CORETYPE"),
    Mutant("tail factored without the budget's cap", _VERIFY,
           "_sub_levels(scales, k, max(3, 2 * budget // nodes + 1))", "_sub_levels(scales, k)",
           ("tests/test_cli.py::test_a_composite_tail_level_exits_2_after_trial_division_to_the_cap",),
           "a composite tail level d_2 = (2^31 - 1)(2^61 - 1) must exit 2 within the test's 10 s, "
           "not after trial division to its factor 2^31 - 1"),
    Mutant("tail factoring without the probable-prime stop", _VERIFY,
           "factors, p, prime = [], 2, d > limit * limit and pow(2, d - 1, d) == 1",
           "factors, p, prime = [], 2, False",
           ("tests/test_cli.py::test_a_prime_tail_level_past_the_caps_square_exits_2_at_once",),
           "a prime tail level d_2 = 2^61 - 1 at --budget 10^9 must exit 2 within the test's "
           "10 s, not after trial division to the cap of 10^9"),
    Mutant("tail inputs drop the labels past the tree", _VERIFY,
           "u[at] += labels", "pass",
           ("tests/test_verify.py::test_a_label_past_the_polynomial_levels_matches_mpmath",),
           "the label of (1, 0^12) past --level 12 moves u_13 of the tail, pinned against mpmath"),
    Mutant("lambda drops the labels past the tree", _VERIFY,
           "lam[at] += labels * _to_float(scales.rho[k])", "pass",
           ("tests/test_verify.py::test_completeness_matches_scalar_sum",),
           "a label past the tree moves lambda, and with it the slack, pinned by a scalar sum"),
    Mutant("range bound drops the labels past the tree", _VERIFY,
           "for k, (lo, hi) in tree.extremes.items())",
           "for k, (lo, hi) in tree.extremes.items() if k <= level)",
           ("tests/test_cli.py::test_the_range_bound_counts_the_labels_past_the_tree",),
           "the label -2 of (1, 0^255) on mu42 at --level 1 makes B = 2 4^255 + 1, which the "
           "range check must refuse"),
]

_UNDECIDED = ("survives: the only runs where bounded is false are the rounding defects of ROADMAP "
              "items 3 and 4, which no test may pin as verdicts until they are mended")
EXCLUDED = [
    Mutant("completeness bounded by 2 + slack", _VERIFY,
           "np.cumsum(sums, axis=1) <= 1.0 + slack", "np.cumsum(sums, axis=1) <= 2.0 + slack", (),
           _UNDECIDED),
    Mutant("completeness verdict ignores bounded", _CLI,
           "return report.bounded, {", "return True, {", (), _UNDECIDED),
]


def _count(mutant: Mutant, root: Path) -> int:
    return (root / mutant.path).read_text().count(mutant.old)


def _files() -> list[str]:
    """The repository's files, tracked or new and not ignored, relative to the root."""
    out = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                         cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return [name for name in out.split("\0") if name and (ROOT / name).is_file()]


def _run(argv: list[str], cwd: Path) -> int | None:
    """The exit code of Python on ``argv`` in ``cwd``, importing the package from
    ``cwd``'s ``src``, or None when it outlives the timeout.  No bytecode is cached:
    a mutant and the restored file may share a size and a second of mtime."""
    env = {**os.environ, "PYTHONPATH": str(cwd / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run([sys.executable, *argv], cwd=cwd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=_TIMEOUT, env=env).returncode
    except subprocess.TimeoutExpired:
        return None


def _failure(tests: tuple[str, ...], copy: Path) -> str | None:
    """How the code in ``copy`` fails the pytest node ids ``tests`` or
    ``tools/artifacts.py --check``, or None when it passes both; a RuntimeError when
    pytest cannot run the tests."""
    if tests:
        code = _run(["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests], copy)
        if code is None:
            return f"its tests outlive {_TIMEOUT} s"
        if code == 1:
            return "its tests fail"
        if code != 0:
            raise RuntimeError(f"pytest exits {code} on {' '.join(tests)}")
    code = _run(["tools/artifacts.py", "--check"], copy)
    if code is None:
        return f"artifacts --check outlives {_TIMEOUT} s"
    return "artifacts --check fails" if code else None


def main() -> int:
    wrong = [f"{m.name}: {m.path} holds its old text {_count(m, ROOT)} times"
             for m in MUTANTS if _count(m, ROOT) != 1]
    if wrong:
        print("\n".join(wrong), file=sys.stderr)
        return 2
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in _files():
            (copy / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, copy / name)
        # unmutated, every named test and the check must pass, or no kill would show anything
        try:
            how = _failure(tuple(dict.fromkeys(test for m in MUTANTS for test in m.tests)), copy)
        except RuntimeError as exc:
            how = str(exc)
        if how:
            print(f"error: the unmutated copy fails: {how}", file=sys.stderr)
            return 2
        for mutant in MUTANTS:
            target = copy / mutant.path
            original = target.read_text()
            target.write_text(original.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            try:
                how = _failure(mutant.tests, copy)
            except RuntimeError as exc:
                print(f"error: {mutant.name}: {exc}", file=sys.stderr)
                return 2
            finally:
                target.write_text(original)
            print(f"{'killed' if how else 'SURVIVED'} ({time.perf_counter() - start:.1f} s) "
                  f"{mutant.name}: {how or mutant.reason}", flush=True)
            if how is None:
                survivors.append(mutant.name)
    for mutant in EXCLUDED:
        print(f"excluded {mutant.name}: {mutant.reason}")
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    for name in survivors:
        print(f"survivor: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
