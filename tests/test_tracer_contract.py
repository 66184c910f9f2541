"""The benchmark tracer wraps cmlinv functions by name: each must still exist.

`perfbench/tracer.py` rebinds every function listed in its LAYERS table; a
name deleted or renamed in the package would make a traced run fail with an
AttributeError, so the table is checked against the package here.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _layers() -> dict:
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer").LAYERS
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_layers_resolve_in_cmlinv():
    missing = [f"cmlinv.{layer}.{name}"
               for layer, names in _layers().items()
               for name in names
               if not callable(getattr(importlib.import_module(f"cmlinv.{layer}"),
                                       name, None))]
    assert not missing, missing
