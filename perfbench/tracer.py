"""Spans and operation counts for cmlinv, installed from outside the package.

`Tracer("spans").install()` wraps the public functions named in LAYERS and
rebinds every module-level name that refers to one of them in every loaded
cmlinv module (kl.gen_bernoulli, sympower.branch_series, cli.branch_series,
linvariant.branch_derivative, linvariant.pi_bar, ...), so calls made through
a from-import are traced too.  Spans stay in memory, each with its parent
span and the item it belongs to, and `dump` writes them out at the end.

`Tracer("count").install()` instead counts PadicNumber add, mul and div
calls and the unit bit lengths that mul and div take in.  That is a pass of
its own because a wrapper on every operation would inflate the span times.

Run as a script, it executes one CLI command under a tracer:

    python3 perfbench/tracer.py spans|count DUMP.json <cli arguments>
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "padic": ("iwasawa_log", "teichmuller", "sqrt_unit", "padic_exp"),
    "characters": ("gen_bernoulli", "char_product", "char_teichmuller_power",
                   "char_from_kronecker"),
    "kl": ("kl_value", "branch_series", "branch_derivative"),
    "quadfield": ("pi_bar", "quad_field_data"),
    "cmform": ("unit_root", "ap_point_count", "cm_spec"),
    "sympower": ("trivial_zero_locations", "decompose", "e_plus"),
    "linvariant": ("verify_ferrero_greenberg", "verify_trivial_zero_formula",
                   "full_report", "l_invariant_analytic", "l_invariant_via_alpha"),
}
PADIC_OPS = {"add": ("__add__", "__radd__"), "mul": ("__mul__", "__rmul__"),
             "div": ("__truediv__",)}


def _char_key(chi) -> str:
    return repr((chi.modulus, tuple(chi.value_pair(a) for a in range(chi.modulus))))


# probes: (bound arguments, result) -> (reuse key, amount of work)
def _gen_bernoulli(a, out):
    return f"{a['n']}|{_char_key(a['chi'])}", a["chi"].modulus


def _branch_series(a, out):
    # g is expanded at 1 - s0 on branch 1 and at s0 on branch 0
    point = 1 - a["s0"] if a["i"] == 1 else a["s0"]
    key = (_char_key(a["theta"]), a["ctx"].p, a["n_cert"], out.nodes_used, point)
    return repr(key), out.nodes_used


def _pi_bar(a, out):
    key = (a["F"].D, a["p"], a["ctx"].N, a["conjugate_lift"], a["representation"])
    return repr(key), abs(out.pibar_coords[1]) + 1


PROBES = {"characters.gen_bernoulli": _gen_bernoulli,
          "kl.branch_series": _branch_series,
          "quadfield.pi_bar": _pi_bar}


class Tracer:
    def __init__(self, mode: str):
        if mode not in ("spans", "count"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self.item = None          # index of the item being run; spans carry it
        self.spans: list[list] = []
        self.counts = Counter()
        self._stack: list[int] = []

    def install(self) -> None:
        import cmlinv  # noqa: F401  (loads every module)
        if self.mode == "count":
            self._install_counters()
            return
        mods = [m for name, m in sys.modules.items()
                if name == "cmlinv" or name.startswith("cmlinv.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"cmlinv.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, self.item, name,
                   0.0, 0.0, 0, None, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = time.perf_counter()
                rec[6] = 1
                raise
            finally:
                stack.pop()
            rec[5] = time.perf_counter()
            if probe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[7], rec[8] = probe(bound.arguments, out)
            return out
        return wrapper

    def _install_counters(self) -> None:
        from cmlinv.padic import PadicNumber
        counts = self.counts

        def counted(op, fn):
            if op == "add":
                def add(a, b):
                    counts["add"] += 1
                    return fn(a, b)
                return add

            def muldiv(a, b):
                counts[op] += 1
                counts["bits"] += a._unit.bit_length()
                if isinstance(b, PadicNumber):
                    counts["bits"] += b._unit.bit_length()
                return fn(a, b)
            return muldiv

        for op, attrs in PADIC_OPS.items():
            for attr in attrs:
                setattr(PadicNumber, attr, counted(op, getattr(PadicNumber, attr)))

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"mode": self.mode, "spans": self.spans,
                       "counts": dict(self.counts), **extra}, fh)


def summarize(dumps: list[dict]) -> dict:
    """Per-layer metrics from the dumps of one traced and one counting pass.

    Self time is a span's duration minus the time its child spans cover.
    A distinct ratio counts keys per process, because reuse can only
    happen inside one process, and divides by all calls.
    """
    calls, errors, amount, distinct = Counter(), Counter(), Counter(), Counter()
    self_s = defaultdict(float)
    counts = Counter()
    for d in dumps:
        counts.update(d["counts"])
        child = defaultdict(float)
        for sid, parent, _item, _name, t0, t1, *_ in d["spans"]:
            if parent is not None:
                child[parent] += t1 - t0
        keys = defaultdict(set)
        for sid, _parent, _item, name, t0, t1, err, key, amt in d["spans"]:
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[sid]
            errors[name.split(".")[0]] += err
            if key is not None:
                keys[name].add(key)
                amount[name] += amt
        for name, ks in keys.items():
            distinct[name] += len(ks)

    def ratio(name):
        return distinct[name] / calls[name] if calls[name] else 0.0

    out = {}
    for layer, fnames in LAYERS.items():
        for f in fnames:
            out[f"{layer}.{f}.calls"] = calls[f"{layer}.{f}"]
            out[f"{layer}.{f}.self_s"] = self_s[f"{layer}.{f}"]
        out[f"{layer}.errors"] = errors[layer]
    imports = [d["import_s"] for d in dumps if "import_s" in d]
    out.update({
        "padic.add.count": counts["add"], "padic.mul.count": counts["mul"],
        "padic.div.count": counts["div"], "padic.operand_bits": counts["bits"],
        "characters.gen_bernoulli.residues": amount["characters.gen_bernoulli"],
        "characters.gen_bernoulli.distinct_ratio": ratio("characters.gen_bernoulli"),
        "kl.nodes": amount["kl.branch_series"],
        "kl.branch_series.distinct_ratio": ratio("kl.branch_series"),
        "quadfield.pi_bar.y_tried": amount["quadfield.pi_bar"],
        "quadfield.pi_bar.distinct_ratio": ratio("quadfield.pi_bar"),
        "cli.import_s": statistics.median(imports) if imports else 0.0,
    })
    return out


def layer_calls(metrics: dict, layer: str) -> int:
    return sum(metrics[f"{layer}.{f}.calls"] for f in LAYERS[layer])


def _main(argv: list[str]) -> int:
    mode, dump_path, cli_args = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    import cmlinv.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer(mode)
    tracer.install()
    try:
        return cmlinv.cli.main(cli_args)
    finally:
        tracer.dump(dump_path, import_s=import_s)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
