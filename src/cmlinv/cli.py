"""Command-line front end: deterministic JSON out, verification exit codes.

Each `cmd_*` handler returns its payload; `main` writes it and owns the exit
code: 0 all checks pass (or nothing to check), 1 the payload's "result" is
"FAIL", 2 a usage or configuration error, with nothing on stdout.
Every p-adic number is emitted as {"valuation": v, "digits": [d_0...],
"precision": r} meaning p^v * sum d_i p^i with r known digits; zeros
carry empty digits with "precision" 0, valuation = the proven lower
bound (null when the zero is exact).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .cmform import _curve_field, _curve_spec, unit_root
from .kl import _check_branch, branch_series
from .linvariant import full_report, verify_ferrero_greenberg
from .padic import PadicNumber, json_valuation, make_context
from .quadfield import pi_bar, quad_field_data, quad_field_from_discriminant, split_behavior
from .sympower import (_check_decompose, critical_integers, decompose,
                       trivial_zero_certificates, trivial_zero_locations)

__all__ = ["main", "console_entry"]


def encode_padic(x: PadicNumber) -> dict:
    if x.is_zero():
        return {"valuation": json_valuation(x.abs_prec),
                "digits": [], "precision": 0}
    return {"valuation": x.valuation(), "digits": x.digits(),
            "precision": x.rel_prec}


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":"),
                                allow_nan=False) + "\n")


def _curve_arg(s: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(t) for t in s.split(","))
    except ValueError:  # a coefficient that is not an integer: refused below
        parts = ()
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError("curve must be a4,a6 or a2,a4,a6")
    return parts


def _prec_arg(s: str) -> int:
    N = int(s) if re.fullmatch(r"\s*[+-]?\d+\s*", s) else 0  # not an integer: refused below
    if N < 1:  # refused for every command, before any work
        raise argparse.ArgumentTypeError(f"precision must be a positive integer, got {s}")
    return N


def _field_from_args(args):
    if args.D is None and args.d is None:
        raise ValueError("one of --D or --d is required")
    F = quad_field_data(args.d) if args.D is None else quad_field_from_discriminant(args.D)
    if args.d not in (None, F.d):
        quad_field_data(args.d)  # an invalid d is named as such
        raise ValueError(f"--D {args.D} and --d {args.d} name different fields")
    return F


def cmd_quadfield(args) -> dict:
    F = _field_from_args(args)
    payload = {"d": F.d, "D": F.D, "h": F.h, "w": F.w}
    if args.p is not None:
        ctx = make_context(args.p, args.prec)  # p is an odd prime, as for every command
        behavior = split_behavior(F, args.p)
        payload["p"] = args.p
        payload["splitting"] = behavior
        if behavior == "split":
            sp = pi_bar(F, args.p, ctx, conjugate_lift=args.conjugate_lift)
            payload["pibar_coords"] = list(sp.pibar_coords)
            payload["pi_coords"] = list(sp.pi_coords)
            payload["log_pibar"] = encode_padic(sp.log_pibar)
    return payload


def cmd_cmform(args) -> dict:
    F = _curve_field(args.curve, args.p)
    ap, spec = _curve_spec(args.curve, F, make_context(args.p, args.prec))
    roots = unit_root(spec)
    return {
        "p": args.p,
        "a_p": ap,
        "alpha": encode_padic(roots.alpha),
        "beta": encode_padic(roots.beta),
    }


def cmd_decompose(args) -> dict:
    _check_decompose(args.n, args.prec)  # restated only to come before the point count
    F = _curve_field(args.curve, args.p)
    spec = _curve_spec(args.curve, F, make_context(args.p, args.prec))[1]
    theta_m, modular = decompose(spec, args.n)
    factors = [] if theta_m is None else [{
        "kind": "dirichlet", "modulus": theta_m.modulus, "conductor": theta_m.modulus,
        "odd": theta_m.parity() == -1}]
    for f in modular:
        factors.append({
            "kind": "modular",
            "weight": f.weight,
            "shift": f.shift,
            "twist_conductor": f.twist.modulus,
            "alpha": encode_padic(f.alpha),
            "beta": encode_padic(f.beta),
            "archimedean_L": f"L(s + {f.shift}, f_{f.eta_power})  [symbolic]",
        })
    return {"n": args.n, "m": args.n // 2, "factors": factors}


def cmd_critical(args) -> dict:
    return {"C": critical_integers(args.n, args.k)}


def cmd_trivial_zeros(args) -> dict:
    locations = trivial_zero_locations(args.n)
    theta = _curve_field(args.curve, args.p).character()
    payload = {"n": args.n, "zeros": [list(loc) for loc in locations]}
    if args.certificates:  # a context only when there is something to certify
        certs = locations and trivial_zero_certificates(theta, make_context(args.p, args.prec))
        payload["certificates"] = [
            {"branch": c.branch, "s": c.branch, "order": 1,
             "c0": encode_padic(c.coefficients[0]), "c1": encode_padic(c.coefficients[1]),
             "N_cert": args.prec}
            for c in certs]
    return payload


def cmd_klp(args) -> dict:
    theta = _field_from_args(args).character()
    ctx = make_context(args.p, args.prec)
    bs = branch_series(args.branch, theta, args.at, args.order, ctx, n_cert=args.prec)
    return {
        "branch": bs.branch,
        "s0": bs.s0,
        "coefficients": [encode_padic(c) for c in bs.coefficients],
        "N_cert": bs.n_cert,
        "J": bs.nodes_used,
    }


def cmd_verify_fg(args) -> dict:
    N = max(args.prec + 4, 12)
    F = _field_from_args(args)
    ctx = make_context(args.p, N)
    chk = verify_ferrero_greenberg(F, args.p, ctx, target=args.prec)
    return {
        "D": F.D, "p": args.p, "target": args.prec,
        "lhs_branch_derivative": encode_padic(chk.lhs),
        "rhs_scaled_log_pibar": encode_padic(chk.rhs),
        "residual_valuation": json_valuation(chk.residual_valuation),
        "result": "PASS" if chk.passed else "FAIL",
    }


def cmd_linvariant(args) -> dict:
    locations = trivial_zero_locations(args.n)  # n < 1 is refused before the point count
    N = max(args.prec + 4, 16)
    F = _curve_field(args.curve, args.p)
    ctx = make_context(args.p, N)
    # full_report's refusals, restated only to come before the point count
    _check_branch(0, F.character(), 0, 2, ctx, N)  # branch 1 at 1 reads the same g' at 0
    if locations:  # full_report decomposes Sym^n
        _check_decompose(args.n, N)
    spec = _curve_spec(args.curve, F, ctx)[1]
    rep = full_report(spec, args.n, target=args.prec)
    checks = {
        "fg_identity": rep.fg_check.passed,
        "unit_root_agreement": rep.agreement_passed,
    }
    payload = {
        "D": spec.field.D, "p": args.p, "n": args.n,
        "l_at_1": encode_padic(rep.l_at_1),
        "l_at_0": encode_padic(rep.l_at_0),
        "l_via_alpha": encode_padic(rep.l_via_alpha),
        "agreement_valuation": json_valuation(rep.agreement_valuation),
        "fg_residual_valuation": json_valuation(rep.fg_check.residual_valuation),
    }
    if rep.formulas:
        formulas = {}
        for i, r in enumerate(rep.formulas):  # branch i at s = i
            formulas[str(i)] = {
                "residual_valuation": json_valuation(r.residual_valuation),
                "e_plus": encode_padic(r.e_plus_value),
                "archimedean_value": str(r.archimedean_value),
                "modular_symbols": list(r.modular_symbols),
                "functional_equation_note": r.functional_equation_note,
                "result": "PASS" if r.passed else "FAIL",
            }
            checks[f"derivative_formula_branch_{i}"] = r.passed
        payload["trivial_zero_formulas"] = formulas
    payload["checks"] = {k: ("PASS" if v else "FAIL") for k, v in sorted(checks.items())}
    payload["result"] = "PASS" if all(checks.values()) else "FAIL"
    return payload


def cmd_acceptance(args) -> dict:
    from .acceptance import run_all  # the only command that runs the battery
    results = run_all()
    ok = True
    rows = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        ok = ok and r.passed
        sys.stderr.write(f"[{status}] {r.name}  ({r.seconds}s)\n")
        rows.append({"name": r.name, "result": status, "seconds": r.seconds,
                     "detail": r.detail})
    return {"criteria": rows, "result": "PASS" if ok else "FAIL"}


def _arg(*flags, **kwargs) -> tuple:
    return flags, kwargs


_P = _arg("--p", type=int, required=True, help="odd prime of the p-adic context")
_PREC = _arg("--prec", type=_prec_arg, default=8,
             help="certified digits / residual target (default 8)")
_CURVE = _arg("--curve", type=_curve_arg, required=True,
              help="a4,a6 or a2,a4,a6 of y^2 = x^3 + a2 x^2 + a4 x + a6 with CM")
_FIELD = (_arg("--D", type=int, default=None, help="fundamental discriminant (< 0)"),
          _arg("--d", type=int, default=None, help="squarefree d for Q(sqrt(-d))"))

# name -> (help, arguments in the order --help lists them, handler)
_COMMANDS = {
    "quadfield": ("field invariants and the split-prime package",
                  (_arg("--p", type=int, required=False,
                        help="odd prime of the p-adic context"),
                   _PREC,
                   _arg("--conjugate-lift", action="store_true",
                        help="label pi and pibar by the other embedding"),
                   *_FIELD),
                  cmd_quadfield),
    "cmform": ("a_p by point counting plus Hecke roots",
               (_P, _PREC, _CURVE),
               cmd_cmform),
    "decompose": ("symmetric-power factor list",
                  (_P, _PREC, _CURVE,
                   _arg("--n", type=int, required=True, help="symmetric power")),
                  cmd_decompose),
    "critical": ("critical integers C_{n,k}",
                 (_arg("--n", type=int, required=True), _arg("--k", type=int, required=True)),
                 cmd_critical),
    "trivial-zeros": ("trivial-zero locations and certificates",
                      (_P, _PREC, _CURVE, _arg("--n", type=int, required=True),
                       _arg("--certificates", action="store_true",
                            help="attach order-1 certificates (c0, c1)")),
                      cmd_trivial_zeros),
    "klp": ("certified branch series of the p-adic L-function",
            (_P, _PREC, *_FIELD,
             _arg("--branch", type=int, required=True, choices=(0, 1)),
             _arg("--at", type=int, required=True, choices=(0, 1),
                  help="expansion point s0"),
             _arg("--order", type=int, default=4)),
            cmd_klp),
    "verify-fg": ("derivative identity at the trivial zero",
                  (_P, _PREC, *_FIELD),
                  cmd_verify_fg),
    "linvariant": ("full L-invariant report with PASS/FAIL",
                   (_P, _PREC, _CURVE,
                    _arg("--n", type=int, default=2, help="symmetric power (default 2)")),
                   cmd_linvariant),
    "acceptance": ("run the whole acceptance battery", (), cmd_acceptance),
}


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv: only the subparser of the command argv names,
    or all of them when argv[0] names none (help, usage errors)."""
    top = argparse.ArgumentParser(
        prog="cmlinv",
        description="exact p-adic verification of CM symmetric-power "
                    "trivial-zero and L-invariant identities")
    names = [argv[0]] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    # a usage line printed for an error after one subparser was built still
    # lists every command; the metavar would rename the argument in the
    # errors only a full build reports ("invalid choice", "required")
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = top.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_, arguments, fn = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_)
        for flags, kwargs in arguments:
            sp.add_argument(*flags, **kwargs)
        sp.set_defaults(fn=fn)
    return top


def main(argv=None) -> int:
    """Run one command, write its payload and return its exit code; never ends the process."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        payload = args.fn(args)
        _emit(payload)  # a value JSON cannot carry is refused before stdout is written
    except (ValueError, ZeroDivisionError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 1 if payload.get("result") == "FAIL" else 0


def console_entry() -> None:
    """Process entry of `python -m cmlinv.cli` and the `cmlinv` script.

    Runs `main()`, flushes stdout and stderr, and ends the process with
    `os._exit`, so no time goes to tearing the interpreter down once the
    output is out.  A host process's `atexit` handlers (coverage, for
    instance) do not run; cmlinv registers none.  An argparse exit (usage
    error, `--help`), a KeyboardInterrupt, an uncaught exception or a
    failed flush takes the normal interpreter exit, with the output and
    exit code that `sys.exit(main())` gives.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed
                stream.flush()
    except OSError:  # e.g. a broken pipe: let the interpreter report it
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console_entry()
