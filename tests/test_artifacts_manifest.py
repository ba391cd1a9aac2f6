"""``tools/artifacts.py``: its manifest covers its op list, and ``--check`` names each difference.

The byte comparison itself runs in CI (``python tools/artifacts.py --check`` on the
numpy version the manifest records); these tests keep the manifest and the op list
in step and the comparison's report exact, at no run cost.
"""

import importlib.util
import json
from pathlib import Path

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
