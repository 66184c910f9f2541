"""The acceptance battery: every exit criterion as a callable check.

Each criterion returns a CriterionResult with a machine-readable detail
dict; `run_all` executes the battery in order.  The test suite and the
CLI `acceptance` subcommand both drive these functions, so the table the
CLI prints and the pytest results cannot drift apart.
"""

from __future__ import annotations

import time
from collections import namedtuple
from fractions import Fraction

from .characters import (char_from_kronecker, dirichlet_L_nonpositive,
                         is_fundamental_discriminant)
from .cmform import ap_point_count, cm_spec, cm_spec_from_curve, unit_root
from .kl import branch_series, kl_value
from .linvariant import (full_report, l_invariant_analytic,
                         verify_ferrero_greenberg, verify_trivial_zero_formula)
from .padic import PadicContext, iwasawa_log, json_valuation, make_context
from .quadfield import pi_bar, quad_field_from_discriminant
from .sympower import critical_integers, trivial_zero_certificates, trivial_zero_locations

__all__ = ["CriterionResult", "run_all", "CRITERIA"]

FG_PAIRS = ((-4, 5), (-4, 13), (-3, 7), (-7, 11))
CURVE = (0, -1, 0)  # y^2 = x^3 - x, CM by Q(i)
CURVE_PRIMES = (5, 13, 17, 29)
TARGET = 6


class CriterionResult(namedtuple("CriterionResult", "name passed detail seconds")):
    """One criterion's verdict, its JSON-ready detail dict and its wall time."""

    __slots__ = ()


def _timed(fn):
    def wrapper() -> CriterionResult:
        t0 = time.perf_counter()
        name, passed, detail = fn()
        return CriterionResult(name=name, passed=passed, detail=detail,
                               seconds=round(time.perf_counter() - t0, 3))
    wrapper.__name__ = fn.__name__
    return wrapper


@_timed
def ac1_ferrero_greenberg():
    """Branch derivative at the trivial zero vs (4/w) log(pibar), four (D, p) pairs."""
    detail = {}
    ok = True
    for D, p in FG_PAIRS:
        ctx = make_context(p, 12)
        F = quad_field_from_discriminant(D)
        chk = verify_ferrero_greenberg(F, p, ctx, target=TARGET)
        detail[f"D={D},p={p}"] = {"residual_valuation": json_valuation(chk.residual_valuation),
                                  "passed": chk.passed}
        ok = ok and chk.passed
    return "AC-1 derivative identity (interpolation vs norm-equation path)", ok, detail


@_timed
def ac2_class_number_formula():
    """L(0, theta_D) = 2h/w exactly for every fundamental D in [-200, 0)."""
    checked = 0
    failures = []
    for D in range(-3, -201, -1):
        if not is_fundamental_discriminant(D):
            continue
        F = quad_field_from_discriminant(D)
        lhs = dirichlet_L_nonpositive(0, char_from_kronecker(D))
        rhs = Fraction(2 * F.h, F.w)
        checked += 1
        if lhs != rhs:
            failures.append({"D": D, "L(0)": str(lhs), "2h/w": str(rhs)})
    ok = not failures and checked > 0
    return ("AC-2 analytic class number formula",
            ok, {"discriminants_checked": checked, "failures": failures})


@_timed
def ac3_unit_root_identity():
    """log(alpha_p) = (k-1) log(pibar)/h for the CM curve and a weight-3 sibling."""
    detail = {}
    ok = True
    for p in CURVE_PRIMES:
        ctx = make_context(p, 16)
        spec = cm_spec_from_curve(CURVE, ctx)
        sp = pi_bar(spec.field, p, ctx)
        roots = unit_root(spec)
        resid = (iwasawa_log(roots.alpha)
                 - (spec.weight - 1) * sp.log_pibar / spec.field.h).min_valuation()
        good = resid >= TARGET
        detail[f"p={p},k=2"] = {"a_p": ap_point_count(CURVE, p),
                                "residual_valuation": json_valuation(resid), "passed": good}
        ok = ok and good
        # weight-3 form synthesized from the squared Hecke roots
        ap3 = roots.alpha**2 + roots.beta**2
        spec3 = cm_spec(spec.field, 3, char_from_kronecker(-4), ap3, 32, ctx)
        roots3 = unit_root(spec3)
        resid3 = (iwasawa_log(roots3.alpha)
                  - (spec3.weight - 1) * sp.log_pibar / spec.field.h).min_valuation()
        good3 = resid3 >= TARGET
        detail[f"p={p},k=3"] = {"residual_valuation": json_valuation(resid3), "passed": good3}
        ok = ok and good3
    return "AC-3 unit-root log identity (point counts + synthetic weight 3)", ok, detail


@_timed
def ac4_interpolation_oracle():
    """Branch series against the exact g(1-n) at the first 5 nodes n > 2J, n = 1 mod p - 1."""
    detail = {}
    ok = True
    for D, p in ((-4, 5), (-3, 7)):
        ctx = make_context(p, 12)
        theta = char_from_kronecker(D)
        bs = branch_series(0, theta, 0, 2, ctx, n_cert=8)
        J = bs.nodes_used
        exact = PadicContext(p, J)  # kl_value is exact: J digits at valuation >= 0
        n0 = 2 * J + 1 + (-2 * J) % (p - 1)  # the first n > 2J with n = 1 mod p - 1
        residuals = [(bs.evaluate(1 - n) - kl_value(n, theta, exact)).min_valuation()
                     for n in range(n0, n0 + 5 * (p - 1), p - 1)]
        good = all(r >= TARGET for r in residuals)
        detail[f"D={D},p={p}"] = {"held_out_residuals": list(map(json_valuation, residuals)),
                                  "passed": good}
        ok = ok and good
    return "AC-4 interpolation oracle at held-out nodes", ok, detail


@_timed
def ac5_trivial_zero_classification():
    """Locations for n = 1..12 and the two order-1 certificates on the p = 5 spec."""
    ctx = make_context(5, 12)
    spec = cm_spec_from_curve(CURVE, ctx)
    n_cert = 8
    certified = all(cert.c0.min_valuation() >= n_cert and not cert.c1.is_zero()
                    and cert.c1.valuation() < n_cert
                    for cert in trivial_zero_certificates(spec, n_cert))
    expected_nonempty = {2, 6, 10}
    detail = {}
    ok = True
    for n in range(1, 13):
        locations = trivial_zero_locations(n)
        want = n in expected_nonempty
        good = (bool(locations) == want)
        if want:
            good = good and locations == ((0, 0), (1, 1)) and certified
        detail[f"n={n}"] = {"locations": list(map(list, locations)),
                            "passed": good}
        ok = ok and good
    return "AC-5 trivial-zero classification with order-1 certificates", ok, detail


@_timed
def ac6_critical_containment():
    """Every tabulated critical integer is critical for every factor."""
    checked = 0
    failures = []
    for n in range(2, 11, 2):
        m = n // 2
        for k in range(2, 9):
            for a in critical_integers(n, k):
                checked += 1
                for j in range(1, m + 1):
                    if not (1 <= a + j * (k - 1) <= 2 * j * (k - 1)):
                        failures.append({"n": n, "k": k, "a": a, "j": j})
                if m % 2 == 1:
                    # odd quadratic character: positive odd or non-positive even
                    if not ((a > 0 and a % 2 == 1) or (a <= 0 and a % 2 == 0)):
                        failures.append({"n": n, "k": k, "a": a, "parity": "odd char"})
                else:
                    if not ((a > 0 and a % 2 == 0) or (a < 0 and a % 2 == 1)):
                        failures.append({"n": n, "k": k, "a": a, "parity": "even char"})
    ok = not failures and checked > 0
    return ("AC-6 critical-set containment",
            ok, {"points_checked": checked, "failures": failures})


@_timed
def ac7_sign_branch_structure():
    """l(0) = -l(1) exactly, and the two branches agree under s -> 1-s."""
    ctx = make_context(5, 12)
    F = quad_field_from_discriminant(-4)
    rep = l_invariant_analytic(F, 5, ctx)
    neg = -rep.l_at_1
    exact_neg = (rep.l_at_0.valuation() == neg.valuation()
                 and rep.l_at_0.unit_int() == neg.unit_int()
                 and rep.l_at_0.abs_prec == neg.abs_prec)
    theta = F.character()
    bs0 = branch_series(0, theta, 0, 8, ctx, n_cert=8)
    bs1 = branch_series(1, theta, 1, 8, ctx, n_cert=8)
    residuals = []
    for t in (1, 2, 3):
        s = 5 * t
        lhs = bs0.series_value(s)       # truncated Taylor route
        rhs = bs1.evaluate(1 - s)       # closed-form route
        residuals.append((lhs - rhs).min_valuation())
    ok = exact_neg and all(r >= TARGET for r in residuals)
    return ("AC-7 sign and branch symmetry",
            ok, {"l0_plus_l1_exactly_zero": exact_neg,
                 "symmetry_residuals": list(map(json_valuation, residuals))})


@_timed
def ac8_embedding_swap():
    """What the opposite Hensel lift of sqrt(D) changes, and what it must not.

    Swapping the lift must swap the two coordinate pairs and leave
    pibar_unit and log_pibar with equal (valuation, unit, abs_prec) parts.
    The suite (FG, full report, trivial-zero formula) reads the embedding
    only through that unit image, so it runs once, and its verdicts are
    those under either lift; the lift-free checks (AC-2, AC-6) are
    untouched by construction.
    """
    def parts(x):  # digits() stands for the unit part, and is [] for a zero
        return x.min_valuation(), x.digits(), x.abs_prec

    detail = {}
    ok = True
    for D, p in FG_PAIRS:
        ctx = make_context(p, 12)
        F = quad_field_from_discriminant(D)
        a = pi_bar(F, p, ctx)
        b = pi_bar(F, p, ctx, conjugate_lift=True)
        swapped = (a.pibar_coords == b.pi_coords and a.pi_coords == b.pibar_coords)
        same_log = all(parts(getattr(a, f)) == parts(getattr(b, f))
                       for f in ("pibar_unit", "log_pibar"))
        chk = verify_ferrero_greenberg(F, p, ctx, target=TARGET)
        detail[f"D={D},p={p}"] = {"coords_swapped": swapped,
                                  "log_invariant": same_log,
                                  "fg_passed": chk.passed}
        ok = ok and swapped and same_log and chk.passed
    for p in CURVE_PRIMES:
        ctx = make_context(p, 16)
        spec = cm_spec_from_curve(CURVE, ctx)
        rep = full_report(spec, target=TARGET)
        good = rep.fg_check.passed and rep.agreement_valuation >= TARGET
        detail[f"curve,p={p}"] = {
            "agreement_valuation": json_valuation(rep.agreement_valuation), "passed": good}
        ok = ok and good
    ctx = make_context(5, 12)
    spec = cm_spec_from_curve(CURVE, ctx)
    for i in (0, 1):
        r = verify_trivial_zero_formula(spec, 2, i, target=TARGET)
        detail[f"formula,i={i}"] = {"residual_valuation": json_valuation(r.residual_valuation),
                                    "passed": r.passed}
        ok = ok and r.passed
    return "AC-8 embedding-swap invariance", ok, detail


CRITERIA = (
    ac1_ferrero_greenberg,
    ac2_class_number_formula,
    ac3_unit_root_identity,
    ac4_interpolation_oracle,
    ac5_trivial_zero_classification,
    ac6_critical_containment,
    ac7_sign_branch_structure,
    ac8_embedding_swap,
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in CRITERIA]
