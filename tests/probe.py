"""The suite's one work probe: `stage_probe()` records which work primitives a block
calls, so a test that a refusal comes before any work, or that a stage runs only where
it is read, asserts on the list it yields."""

import contextlib
import importlib
import sys

import pytest

from cmlinv.padic import PadicContext

# The work primitives, by module.  A block that calls none of them and computes no
# p^N has done no work.  Each pipeline stage calls one of them once: pi_bar one
# quadfield._norm_solution, each Hecke root pair one cmform.unit_root, and each
# decomposition one sympower.decompose.
WORK = {"cmform": ("ap_point_count", "unit_root"), "kl": ("_g_at_zero", "_closed_form"),
        "padic": ("_log_value", "_log_units", "hensel_lift"),
        "characters": ("_bernoulli_table", "_kronecker_row", "gen_bernoulli"),
        "quadfield": ("_norm_solution",), "sympower": ("decompose",)}


def _recorded(stages: list, stage: str, fn):
    def probe(*args, **kwargs):
        stages.append(stage)
        return fn(*args, **kwargs)
    return probe


@contextlib.contextmanager
def stage_probe():
    """Yield the list of the work primitives called in the block, in call order, as
    "<layer>.<name>", with "p^N" for each context's first p^N.  Every name a cmlinv
    module binds to a primitive is rebound, so calls through a from-import and cache
    hits count."""
    importlib.import_module("cmlinv.acceptance")  # loaded first, so it is rebound too
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cmlinv"]
    stages, modulus = [], PadicContext._modulus

    def first_modulus(ctx, rel):
        if rel == ctx.N and ctx._pN is None:
            stages.append("p^N")
        return modulus(ctx, rel)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PadicContext, "_modulus", first_modulus)
        for layer, names in WORK.items():
            for name in names:
                real = getattr(sys.modules[f"cmlinv.{layer}"], name)
                probe = _recorded(stages, f"{layer}.{name}", real)
                for module in modules:
                    for attr in [a for a, value in vars(module).items() if value is real]:
                        mp.setattr(module, attr, probe)
        yield stages
