"""``tools/artifacts.py``: its manifest covers its op list, ``--check`` names each
difference, and a failed ``report`` op or a passing negative control fails either mode.

The runs themselves are CI's: ``python tools/artifacts.py --check`` against the
checked-in manifest on the numpy version it records, at each CPU dispatch level and
under OpenBLAS core types, then on every Python of the matrix a plain run, which
rewrites the manifest, and a ``--check`` run in a fresh process, which compares every
artifact with it.  These tests keep the manifest and the op list in step and the tool's
report exact, at no run cost, save one op run at each dispatch level and one tail
series under each OpenBLAS core type.
"""

import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_artifacts():
    spec = importlib.util.spec_from_file_location("artifacts_tool", ROOT / "tools" / "artifacts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_manifest_lists_the_op_list():
    tool = _load_artifacts()
    manifest = json.loads(tool.MANIFEST.read_text())
    ops = tool.ops()
    assert [rec["op"] for rec in manifest["ops"]] == [" ".join(op) for op in ops]
    assert not any(arg.startswith("/") for op in ops for arg in op)  # paths from the root
    assert {"python", "numpy"} <= set(manifest)


def test_differences_name_each_op_and_file():
    tool = _load_artifacts()

    def manifest(*ops):
        return {"ops": [{"op": op, "exit": code, "files": files} for op, code, files in ops]}

    want = manifest(("a", 0, {"x.csv": "1", "r.json": "2"}), ("b", 0, {"y.csv": "3"}), ("c", 2, {}))
    got = manifest(("a", 0, {"x.csv": "9", "s.json": "2"}), ("b", 1, {"y.csv": "3"}), ("d", 0, {}))
    assert tool.differences(want, got) == [
        "d: not in the manifest",
        "a: r.json missing", "a: s.json new", "a: x.csv differs",
        "b: exit 1, manifest 0",
        "c: not run",
    ]
    assert tool.differences(want, want) == []


def _manifest(*ops):
    return {"python": "3", "numpy": "2",
            "ops": [{"op": op, "exit": code, "files": {}} for op, code in ops]}


def test_a_report_op_that_does_not_exit_0_fails_either_mode(tmp_path, monkeypatch, capsys):
    tool = _load_artifacts()
    # a report op among the negative controls must exit 1 instead, which failed_controls checks
    control = next(" ".join(op) for op in tool.NEGATIVE_CONTROLS if op[0] == "report")
    got = _manifest(("report --pair a", 0), ("report --pair b", 1), ("report --pair c", 2),
                    ("completeness --pair a", 1), ("pair --pair report", 1), (control, 1))
    assert tool.failed_reports(got) == ["report --pair b: exit 1, report must exit 0",
                                        "report --pair c: exit 2, report must exit 0"]
    assert tool.failed_reports(_manifest((control, 0))) == tool.failed_controls(got) == []
    monkeypatch.setattr(tool, "run", lambda: got)
    monkeypatch.setattr(tool, "MANIFEST", tmp_path / "artifacts.json")
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    assert tool.main([]) == 1  # the manifest is written all the same
    assert json.loads(tool.MANIFEST.read_text()) == got
    assert tool.main(["--check"]) == 1  # no difference from the manifest, but failed reports
    out = capsys.readouterr().out.splitlines()
    assert out == ["wrote artifacts.json: 6 ops", *tool.failed_reports(got),
                   "0 differences over 6 ops", *tool.failed_reports(got)]
    monkeypatch.setattr(tool, "run", lambda: _manifest(("report --pair a", 0)))
    assert tool.main([]) == tool.main(["--check"]) == 0


def test_a_negative_control_that_does_not_exit_1_fails_either_mode(tmp_path, monkeypatch, capsys):
    tool = _load_artifacts()
    controls = [" ".join(op) for op in tool.NEGATIVE_CONTROLS]
    assert len(controls) == 6 and set(controls) <= {" ".join(op) for op in tool.ops()}
    manifest = json.loads(tool.MANIFEST.read_text())
    assert [rec["exit"] for rec in manifest["ops"] if rec["op"] in controls] == [1] * 6
    got = _manifest((controls[0], 1), (controls[1], 0), (controls[2], 2), ("pair --pair a", 1))
    assert tool.failed_controls(got) == [f"{controls[1]}: exit 0, a negative control must exit 1",
                                         f"{controls[2]}: exit 2, a negative control must exit 1"]
    assert tool.failed_reports(got) == []
    monkeypatch.setattr(tool, "run", lambda: got)
    monkeypatch.setattr(tool, "MANIFEST", tmp_path / "artifacts.json")
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    assert tool.main([]) == 1  # the manifest is written all the same
    assert tool.main(["--check"]) == 1  # no difference from the manifest, but passing controls
    out = capsys.readouterr().out.splitlines()
    assert out == ["wrote artifacts.json: 4 ops", *tool.failed_controls(got),
                   "0 differences over 4 ops", *tool.failed_controls(got)]
    monkeypatch.setattr(tool, "run", lambda: _manifest((controls[0], 1)))
    assert tool.main([]) == tool.main(["--check"]) == 0


def test_one_op_is_byte_identical_at_every_cpu_dispatch_level(tmp_path):
    # numpy picks some float64 kernels (np.power with an array exponent among them) by the
    # CPU at run time; completeness on mu93 at --level 10, whose tail series forms powers,
    # wrote a worst_gap one ulp apart on the AVX512 and the AVX2 paths.  Each run is a
    # fresh process under -W error, as numpy warns on a feature name it does not dispatch
    levels = _load_artifacts().dispatch_levels()
    assert levels[0] == "" and len(set(levels)) == len(levels)
    written = []
    for i, level in enumerate(levels):
        out = tmp_path / str(i)
        subprocess.run([sys.executable, "-W", "error", "-m", "cantorspec.cli", "completeness", "--pair",
                        str(ROOT / "demos" / "configs" / "mu93.json"), "--level", "10", "--out", str(out)],
                       check=True, capture_output=True, timeout=30,
                       env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "NPY_DISABLE_CPU_FEATURES": level})
        written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert len(written[0]) == 3
    for level, files in zip(levels[1:], written[1:]):
        assert files == written[0], f"NPY_DISABLE_CPU_FEATURES={level!r}"


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the OpenBLAS core types named are x86-64's")
def test_tail_series_bytes_do_not_depend_on_the_openblas_kernel():
    # np.convolve's dot products ran the ddot kernel OpenBLAS picks for the CPU, which
    # OPENBLAS_CORETYPE overrides and NPY_DISABLE_CPU_FEATURES does not reach: mu42's tail
    # series at --level 18 (m_k = 2, t_k = 4^-k over 18 levels) had three byte strings
    # under Prescott, Haswell and SkylakeX, and its completeness report a worst_gap one ulp
    # apart.  A core type is forced only where the CPU has its instructions, as one it lacks
    # can end in an illegal instruction; None leaves OpenBLAS its own pick
    features = _load_artifacts().umath().__cpu_features__
    core_types = [None, "Prescott"]
    if features.get("AVX2") and features.get("FMA3"):
        core_types.append("Haswell")
    if features.get("AVX512F"):
        core_types.append("SkylakeX")
    code = ("import sys\n"
            "from cantorspec.fourier import root_series\n"
            "series, low = root_series([2] * 18, [4.0 ** -k for k in range(18)])\n"
            "sys.stdout.write(series.tobytes().hex() + ' ' + low.hex())\n")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    written = {core: subprocess.run([sys.executable, "-W", "error", "-c", code], check=True,
                                    capture_output=True, text=True, timeout=30,
                                    env=env if core is None else {**env, "OPENBLAS_CORETYPE": core}).stdout
               for core in core_types}
    assert len(set(written.values())) == 1, f"OPENBLAS_CORETYPE {list(written)}: {written}"
