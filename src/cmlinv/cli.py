"""Command-line front end: deterministic JSON out, verification exit codes.

Exit codes: 0 all checks pass (or nothing to check), 1 a verification
failed, 2 a usage or configuration error, with nothing on stdout.
Every p-adic number is emitted as {"valuation": v, "digits": [d_0...],
"precision": r} meaning p^v * sum d_i p^i with r known digits; zeros
carry empty digits with "precision" 0, valuation = the proven lower
bound (null when the zero is exact).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cmform import _curve_field, _curve_spec, unit_root
from .kl import _check_branch, branch_series
from .linvariant import (full_report, verify_ferrero_greenberg,
                         verify_trivial_zero_formula)
from .padic import PadicNumber, _check_prime, json_valuation, make_context
from .quadfield import (_check_split, pi_bar, quad_field_data, quad_field_from_discriminant,
                        split_behavior)
from .sympower import (_DECOMPOSE_OVERHEAD, MAX_DECOMPOSE_DIGITS, critical_integers,
                       decompose, trivial_zero_certificates, trivial_zero_locations)

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


def _field_from_args(args):
    if args.D is None and args.d is None:
        raise ValueError("one of --D or --d is required")
    F = quad_field_data(args.d) if args.D is None else quad_field_from_discriminant(args.D)
    if args.d not in (None, F.d):
        quad_field_data(args.d)  # an invalid d is named as such
        raise ValueError(f"--D {args.D} and --d {args.d} name different fields")
    return F


def _curve_field_split(args):
    # the field the curve's j names, with p split in it: before p^N, the plans and the count
    F = _curve_field(args.curve)
    _check_prime(args.p)
    _check_split(F, args.p)
    return F


def cmd_quadfield(args) -> int:
    F = _field_from_args(args)
    payload = {"d": F.d, "D": F.D, "h": F.h, "w": F.w}
    if args.p is not None:
        behavior = split_behavior(F, args.p)
        payload["p"] = args.p
        payload["splitting"] = behavior
        if behavior == "split":
            ctx = make_context(args.p, args.prec)
            sp = pi_bar(F, args.p, ctx, conjugate_lift=args.conjugate_lift)
            payload["pibar_coords"] = list(sp.pibar_coords)
            payload["pi_coords"] = list(sp.pi_coords)
            payload["log_pibar"] = encode_padic(sp.log_pibar)
    _emit(payload)
    return 0


def cmd_cmform(args) -> int:
    ap, spec = _curve_spec(args.curve, _curve_field(args.curve), args.p, args.prec)
    roots = unit_root(spec)
    payload = {
        "p": args.p,
        "a_p": ap,
        "alpha": encode_padic(roots.alpha),
        "beta": encode_padic(roots.beta),
    }
    _emit(payload)
    return 0


def cmd_decompose(args) -> int:
    if args.n < 1:  # before the count and p^N
        raise ValueError("n must be >= 1")
    if args.n * (args.prec + _DECOMPOSE_OVERHEAD) > MAX_DECOMPOSE_DIGITS:
        raise ValueError(f"decompose lists n * (prec + {_DECOMPOSE_OVERHEAD}) "
                         f"up to {MAX_DECOMPOSE_DIGITS} digits")
    spec = _curve_spec(args.curve, _curve_field(args.curve), args.p, args.prec)[1]
    factors = []
    for f in decompose(spec, args.n):
        if f.kind == "dirichlet":
            factors.append({"kind": "dirichlet",
                            "modulus": f.character.modulus,
                            "conductor": f.character.modulus,
                            "odd": f.character.parity() == -1})
        else:
            factors.append({
                "kind": "modular",
                "weight": f.weight,
                "shift": f.shift,
                "twist_conductor": f.twist.modulus,
                "alpha": encode_padic(f.alpha),
                "beta": encode_padic(f.beta),
                "archimedean_L": f"L(s + {f.shift}, f_{f.eta_power})  [symbolic]",
            })
    _emit({"n": args.n, "m": args.n // 2, "factors": factors})
    return 0


def cmd_critical(args) -> int:
    _emit({"C": critical_integers(args.n, args.k)})
    return 0


def cmd_trivial_zeros(args) -> int:
    locations = trivial_zero_locations(args.n)
    F = _curve_field_split(args)
    certify = args.certificates and locations
    if certify:
        # both certificates read g' at 0: its plan comes before p^N and the point count
        _check_branch(0, F.character(), 0, 2, args.p, args.prec, args.prec)
    spec = _curve_spec(args.curve, F, args.p, args.prec)[1]
    payload = {"n": args.n, "zeros": [list(loc) for loc in locations]}
    if args.certificates:
        payload["certificates"] = [
            {"branch": c.branch, "s": c.branch, "order": 1,
             "c0": encode_padic(c.c0), "c1": encode_padic(c.c1),
             "N_cert": args.prec}
            for c in (trivial_zero_certificates(spec, args.prec) if certify else ())]
    _emit(payload)
    return 0


def cmd_klp(args) -> int:
    theta = _field_from_args(args).character()
    _check_branch(args.branch, theta, args.at, args.order, args.p, args.prec, args.prec)
    ctx = make_context(args.p, args.prec)
    bs = branch_series(args.branch, theta, args.at, args.order, ctx, n_cert=args.prec)
    payload = {
        "branch": bs.branch,
        "s0": bs.s0,
        "coefficients": [encode_padic(c) for c in bs.coefficients],
        "N_cert": bs.n_cert,
        "J": bs.nodes_used,
    }
    _emit(payload)
    return 0


def cmd_verify_fg(args) -> int:
    N = max(args.prec + 4, 12)
    F = _field_from_args(args)
    _check_branch(0, F.character(), 0, 2, args.p, N, N)  # the derivative it certifies
    ctx = make_context(args.p, N)
    chk = verify_ferrero_greenberg(F, args.p, ctx, target=args.prec)
    payload = {
        "D": F.D, "p": args.p, "target": chk.target,
        "lhs_branch_derivative": encode_padic(chk.lhs),
        "rhs_scaled_log_pibar": encode_padic(chk.rhs),
        "residual_valuation": json_valuation(chk.residual_valuation),
        "result": "PASS" if chk.passed else "FAIL",
    }
    _emit(payload)
    return 0 if chk.passed else 1


def cmd_linvariant(args) -> int:
    locations = trivial_zero_locations(args.n)
    N = max(args.prec + 4, 16)
    F = _curve_field_split(args)
    # the derivative full_report certifies; branch 1 at 1 reads the same table at 0
    _check_branch(0, F.character(), 0, 2, args.p, N, N)
    spec = _curve_spec(args.curve, F, args.p, N)[1]
    rep = full_report(spec, target=args.prec)
    checks = {
        "fg_identity": rep.fg_check.passed,
        "unit_root_agreement": rep.agreement_valuation >= args.prec,
    }
    payload = {
        "D": spec.field.D, "p": args.p, "n": args.n,
        "l_at_1": encode_padic(rep.l_at_1),
        "l_at_0": encode_padic(rep.l_at_0),
        "l_via_alpha": encode_padic(rep.l_via_alpha),
        "agreement_valuation": json_valuation(rep.agreement_valuation),
        "fg_residual_valuation": json_valuation(rep.fg_check.residual_valuation),
    }
    if locations:
        formulas = {}
        for i, _ in locations:
            r = verify_trivial_zero_formula(spec, args.n, i, target=args.prec)
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
    ok = all(checks.values())
    payload["result"] = "PASS" if ok else "FAIL"
    _emit(payload)
    return 0 if ok else 1


def cmd_acceptance(args) -> int:
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
    _emit({"criteria": rows, "result": "PASS" if ok else "FAIL"})
    return 0 if ok else 1


def _arg(*flags, **kwargs) -> tuple:
    return flags, kwargs


_P = _arg("--p", type=int, required=True, help="odd prime of the p-adic context")
_PREC = _arg("--prec", type=int, default=8,
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
    """Run one command and return its exit code; never ends the process."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


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
