"""The names that ``perfbench/run.py --trace 1`` wraps must exist.

``perfbench/tracing.py`` patches functions of ``cantorspec`` by module and
attribute name.  A refactor that drops one of them breaks the traced
benchmark run with an AttributeError, which no other test would notice.
"""

import importlib
import importlib.util
from pathlib import Path

from cantorspec.core import ScalePair

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracing = _load_tracing()
    missing = [f"cantorspec.{module}.{attr}"
               for _, attr, modules, *_ in tracing.SPANNED + tracing.COUNTED
               for module in modules
               if not hasattr(importlib.import_module(f"cantorspec.{module}"), attr)]
    missing += [f"ScalePair.{attr}" for _, attr in tracing.COUNTED_METHODS
                if not hasattr(ScalePair, attr)]
    assert not missing
