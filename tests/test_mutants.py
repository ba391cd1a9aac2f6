"""``tools/mutants.py``: its list is well formed, and, with its runs stubbed, it names a
survivor, passes a kill, refuses a failing copy and leaves the working tree as it was.
The run of the whole list is CI's, ``python tools/mutants.py``."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants_tool", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_old_text_occurs_once_and_each_named_test_exists():
    tool = _load_mutants()
    mutants = tool.MUTANTS + tool.EXCLUDED
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
        assert m.new != m.old and m.reason, m.name
        for node in m.tests:
            path, name = node.split("::")
            name = re.escape(name.split("[")[0])  # a parametrized id names one case of the test
            assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), node


def _gate(monkeypatch, fails):
    """main() on one comment mutant with its runs stubbed: ``fails(text)`` says how the
    copy's fourier.py ``text`` fails.  The real runs (named tests and artifacts --check,
    whose manifest needs the pinned numpy) are CI's full run."""
    tool = _load_mutants()
    path = "src/cantorspec/fourier.py"
    mutant = tool.Mutant("a comment", path, "# the signs of sin and cos", "# the sines and cosines",
                         (), "changes no behaviour")
    seen = []

    def failure(tests, copy):
        seen.append((copy / path).read_text())
        return fails(seen[-1])

    monkeypatch.setattr(tool, "MUTANTS", [mutant])
    monkeypatch.setattr(tool, "_files", lambda: [path])
    monkeypatch.setattr(tool, "_failure", failure)
    before = (ROOT / path).read_text()
    code = tool.main()
    assert (ROOT / path).read_text() == before
    return code, seen, before, before.replace(mutant.old, mutant.new)


def test_the_gate_names_a_survivor_and_leaves_the_tree(monkeypatch, capsys):
    code, seen, before, mutated = _gate(monkeypatch, lambda text: None)
    assert code == 1 and seen == [before, mutated]
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("SURVIVED (") and out[0].endswith("a comment: changes no behaviour")
    assert out[-2:] == ["0 of 1 mutants killed", "survivor: a comment"]


def test_the_gate_passes_a_killed_mutant_and_refuses_a_failing_copy(monkeypatch, capsys):
    killed = "# the sines and cosines"
    code, seen, before, mutated = _gate(monkeypatch, lambda text: "its tests fail" if killed in text else None)
    assert code == 0 and seen == [before, mutated]
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("killed (") and out[0].endswith("a comment: its tests fail")
    assert out[-1] == "1 of 1 mutants killed"
    code, seen, _, _ = _gate(monkeypatch, lambda text: "artifacts --check fails")
    assert code == 2 and seen == [before]
    assert "the unmutated copy fails: artifacts --check fails" in capsys.readouterr().err
