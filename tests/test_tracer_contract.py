"""The benchmark tracer wraps cmlinv functions by name: each must still exist.

`perfbench/tracer.py` rebinds every function listed in its LAYERS table; a
name deleted or renamed in the package would make a traced run fail with an
AttributeError, so the table is checked against the package here.  Its
PROBES read the bound arguments and the result of a call by name, so each
probe is run on one real call as well.
"""

import importlib
import inspect
import sys
from pathlib import Path

from cmlinv.characters import char_from_kronecker
from cmlinv.padic import make_context
from cmlinv.quadfield import quad_field_data

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# one small real call, (args, kwargs), for each function a probe reads
PROBE_CALLS = {
    "characters.gen_bernoulli": ((3, char_from_kronecker(-4)), {}),
    "kl.branch_series": ((0, char_from_kronecker(-4), 0, 2, make_context(5, 8)),
                         {"n_cert": 4}),
    "quadfield.pi_bar": ((quad_field_data(1), 5, make_context(5, 8)), {}),
}


def _tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_layers_resolve_in_cmlinv():
    missing = [f"cmlinv.{layer}.{name}"
               for layer, names in _tracer().LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"cmlinv.{layer}"),
                                       name, None))]
    assert not missing, missing


def test_tracer_probes_run_on_real_calls():
    probes = _tracer().PROBES
    assert set(probes) <= set(PROBE_CALLS), sorted(set(probes) - set(PROBE_CALLS))
    for name, probe in probes.items():
        layer, fname = name.split(".")
        fn = getattr(importlib.import_module(f"cmlinv.{layer}"), fname)
        args, kwargs = PROBE_CALLS[name]
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        key, amount = probe(bound.arguments, fn(*args, **kwargs))
        assert isinstance(key, str) and amount > 0, name
