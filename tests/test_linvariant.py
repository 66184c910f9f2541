"""L-invariants two ways, the family exponential, and the verification battery."""

import dataclasses
import json
import importlib
import pkgutil
from fractions import Fraction
from math import isqrt

import pytest

import cmlinv
from cmlinv.acceptance import ac6_critical_containment, run
from cmlinv.characters import char_from_kronecker, trivial_character
from cmlinv.cli import main
from cmlinv.cmform import (ap_point_count, cm_spec, cm_spec_from_curve,
                           curve_discriminant, unit_root)
from cmlinv.kl import branch_series
from cmlinv.linvariant import (full_report, l_invariant_analytic,
                               l_invariant_via_alpha, verify_ferrero_greenberg)
from cmlinv.padic import PadicNumber, iwasawa_log, make_context, padic_exp
from cmlinv.quadfield import (pi_bar, quad_field_data, quad_field_from_discriminant,
                              split_behavior)
from cmlinv.sympower import decompose
from probe import stage_probe

CURVE = (0, -1, 0)


def _spec(p=5, N=16):
    return cm_spec_from_curve(CURVE, make_context(p, N))


# --- the analytic value ------------------------------------------------------

def test_analytic_value_and_sign():
    ctx = make_context(5, 16)
    F = quad_field_data(1)
    rep = l_invariant_analytic(F, 5, ctx)
    sp = pi_bar(F, 5, ctx)
    assert (rep.l_at_1 + 2 * sp.log_pibar).is_zero()
    assert (rep.l_at_0 + rep.l_at_1).is_zero()
    # negation is exact at the representation level
    neg = -rep.l_at_1
    assert rep.l_at_0.valuation() == neg.valuation()
    assert rep.l_at_0.unit_int() == neg.unit_int()


def test_analytic_rejects_inert():
    with pytest.raises(ValueError):
        l_invariant_analytic(quad_field_data(1), 3, make_context(3, 12))


def test_via_alpha_matches_analytic_weight_two():
    for p in (5, 13):
        spec = _spec(p)
        base = l_invariant_analytic(spec.field, p, spec.context)
        via = l_invariant_via_alpha(spec)
        assert (via - base.l_at_1).min_valuation() >= 14, p


def test_via_alpha_weight_independence():
    # the weight-3 sibling built from squared roots gives the same constant
    ctx = make_context(5, 16)
    spec2 = cm_spec_from_curve(CURVE, ctx)
    roots = unit_root(spec2)
    spec3 = cm_spec(spec2.field, 3, char_from_kronecker(-4),
                    roots.alpha**2 + roots.beta**2, 32, ctx)
    v2 = l_invariant_via_alpha(spec2)
    v3 = l_invariant_via_alpha(spec3)
    assert (v2 - v3).min_valuation() >= 14


# --- the unit-root route at every class-number-1 field ----------------------------

# d -> (j(O_K), a_p at the first split prime of good reduction): each of the nine
# imaginary quadratic fields of class number 1 has a CM curve over Q with that j
# (Silverman, Advanced Topics, Appendix A), whose point count gives an a_p that
# does not come from the norm equation of the field route
CM_CURVES = {3: (0, (7, -4)), 1: (1728, (5, -2)), 7: (-3375, (11, 4)),
             2: (8000, (11, 6)), 11: (-32768, (5, -3)), 19: (-884736, (5, 1)),
             43: (-884736000, (11, 1)), 67: (-147197952000, (17, 1)),
             163: (-262537412640768000, (41, 1))}


# j -> (d, the same pin): the 13 j-invariants of CM curves over Q, which are those
# nine and the j of the orders Z[sqrt(-3)], Z[3 omega], Z[2i] and Z[sqrt(-7)]
CM_J = {j: (d, pinned) for d, (j, pinned) in CM_CURVES.items()} | {
    54000: (3, (7, -4)), -12288000: (3, (7, 1)), 287496: (1, (5, 2)),
    16581375: (7, (11, -4))}


def cm_curve(j):
    """(a4, a6) of a curve over Q with j-invariant j; twists change no L-invariant."""
    if j == 0:
        return (0, 1)
    if j == 1728:
        return (-1, 0)
    return (3 * j * (1728 - j), 2 * j * (1728 - j) ** 2)


def good_split_primes(curve, F, count):
    """The first `count` primes 5 <= p < 100 split in F where the curve has good reduction."""
    return [p for p in range(5, 100) if all(p % q for q in range(2, p))
            and split_behavior(F, p) == "split" and curve_discriminant(curve) % p][:count]


@pytest.mark.parametrize("j", CM_J)
def test_curve_names_its_cm_field(j):
    d, (p0, ap0) = CM_J[j]
    curve = cm_curve(j)
    primes = good_split_primes(curve, quad_field_data(d), 3)
    assert primes[0] == p0 and ap_point_count(curve, p0) == ap0
    for p in primes:
        F = cm_spec_from_curve(curve, make_context(p, 8)).field
        # Frobenius lies in an order of F, so a_p^2 - D y^2 = 4p for an integer y
        y2, r = divmod(4 * p - ap_point_count(curve, p) ** 2, -F.D)
        assert F.d == d and r == 0 and isqrt(y2) ** 2 == y2, (j, p)


@pytest.mark.parametrize("d", CM_CURVES)
def test_unit_root_route_agrees_at_every_class_number_one_field(d):
    j, pinned = CM_CURVES[d]
    curve, F = cm_curve(j), quad_field_data(d)
    primes = good_split_primes(curve, F, 5)
    assert ap_point_count(curve, primes[0]) == pinned[1] and primes[0] == pinned[0]
    for p in primes:
        # CM by O_K: a_p is the trace of a generator of norm p, a_p^2 - D y^2 = 4p
        ap = ap_point_count(curve, p)
        y2, r = divmod(4 * p - ap * ap, -F.D)
        assert r == 0 and isqrt(y2) ** 2 == y2, (d, p)
        rep = full_report(cm_spec_from_curve(curve, make_context(p, 12)), 2, target=8)
        assert rep.fg_check.passed and rep.agreement_valuation >= 12, (d, p)
        assert [r.passed for r in rep.formulas] == [True, True], (d, p)


@pytest.mark.parametrize("d", CM_CURVES)
def test_weight_three_sibling_at_every_class_number_one_field(d):
    # AC-3's synthetic weight 3 at each field: a_p = alpha^2 + beta^2 with
    # nebentypus theta_D, whose unit root alpha^2 has log 2 log_p(pibar) / h
    curve, F = cm_curve(CM_CURVES[d][0]), quad_field_data(d)
    for p in good_split_primes(curve, F, 3):
        ctx = make_context(p, 16)
        spec = cm_spec_from_curve(curve, ctx)
        roots = unit_root(spec)
        spec3 = cm_spec(F, 3, F.character(), roots.alpha**2 + roots.beta**2, 32, ctx)
        resid = iwasawa_log(unit_root(spec3).alpha) - 2 * pi_bar(F, p, ctx).log_pibar / F.h
        assert resid.min_valuation() >= 16, (d, p)


@pytest.mark.parametrize("p", ["29", "37", "53"])
def test_unit_root_agreement_fails_on_the_wrong_field(capsys, p):
    # the D = -7 curve passes under the field its j names; its a_p fed to the
    # unit-root route over Q(i) agrees with the field route to one digit only
    curve = cm_curve(-3375)
    assert main(["linvariant", "--p", p, "--curve=%d,%d" % curve, "--n", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["D"] == -7
    ctx = make_context(int(p), 32)
    ap = ap_point_count(curve, int(p))
    rep = full_report(cm_spec(quad_field_data(1), 2, trivial_character(), ap, 32, ctx), 1)
    assert rep.agreement_valuation == 1 and rep.fg_check.passed


def test_agreement_verdict_is_the_reports_own():
    # full_report compares the agreement valuation to its target, as it does the
    # FG and formula residuals: the wrong field agrees to one digit only
    ctx = make_context(29, 32)
    ap = ap_point_count(cm_curve(-3375), 29)
    wrong = full_report(cm_spec(quad_field_data(1), 2, trivial_character(), ap, 32, ctx), 1)
    assert wrong.agreement_valuation == 1 and wrong.agreement_passed is False
    assert full_report(_spec(13, 16), 2, target=14).agreement_passed is True


# --- the family exponential -----------------------------------------------------

def hida_ap(s, F, p, ctx):
    """The weight-family Frobenius interpolation exp_p((s-1) log_p(pibar)/h).

    The root-of-unity prefactor of the family is dropped: every identity
    checked here is log-level, and the Iwasawa log kills it.
    log_p(pibar) lies in pZ_p, so the exponential always converges on Z_p.
    """
    sp = pi_bar(F, p, ctx)
    s = ctx.convert(s) if not isinstance(s, PadicNumber) else s
    if not s.is_zero() and s.valuation() < 0:
        raise ValueError("s must lie in Z_p")
    exponent = (s - 1) * sp.log_pibar / F.h
    if not exponent.is_zero() and exponent.valuation() < 1:
        raise ArithmeticError("exponential argument escaped pZ_p")
    return padic_exp(exponent)


def test_hida_at_one():
    ctx = make_context(5, 16)
    assert hida_ap(1, quad_field_data(1), 5, ctx) == 1


def test_hida_log_at_two_is_log_alpha():
    # weight-2 member: the p-th coefficient of the stabilized form is alpha
    ctx = make_context(5, 16)
    F = quad_field_data(1)
    spec = cm_spec_from_curve(CURVE, ctx)
    a2 = hida_ap(2, F, 5, ctx)
    la = iwasawa_log(unit_root(spec).alpha)
    assert (iwasawa_log(a2) - la).min_valuation() >= 14


def test_hida_log_linear_in_s():
    ctx = make_context(5, 16)
    F = quad_field_data(1)
    sp = pi_bar(F, 5, ctx)
    for s in (0, 3, 10):
        val = iwasawa_log(hida_ap(s, F, 5, ctx))
        expected = (s - 1) * sp.log_pibar / F.h
        assert (val - expected).min_valuation() >= 14, s


def test_hida_rejects_s_outside_zp():
    ctx = make_context(5, 16)
    with pytest.raises(ValueError):
        hida_ap(ctx.from_rational(Fraction(1, 5)), quad_field_data(1), 5, ctx)


# --- Ferrero-Greenberg check ------------------------------------------------------

def test_fg_eisenstein_pair_w_six():
    ctx = make_context(7, 12)
    F = quad_field_data(3)
    chk = verify_ferrero_greenberg(F, 7, ctx)
    assert F.w == 6
    assert chk.passed
    sp = pi_bar(F, 7, ctx)
    assert (chk.rhs - ctx.from_rational(Fraction(4, 6)) * sp.log_pibar).is_zero()


def test_fg_rejects_inert():
    with pytest.raises(ValueError):
        verify_ferrero_greenberg(quad_field_data(1), 3, make_context(3, 12))


def test_fg_higher_class_numbers():
    # pibar generates the h-th power of the prime; h = 2, 3, 5 here
    for (d, p, h) in ((15, 17, 2), (23, 3, 3), (47, 7, 5)):
        F = quad_field_data(d)
        assert F.h == h
        chk = verify_ferrero_greenberg(F, p, make_context(p, 12), target=6)
        assert chk.passed, (d, p)


def test_fg_sweep_all_split_pairs():
    # every split (D, p) with -200 <= D < 0 and p < 60: the identity holds at
    # the full certified precision, whatever the class number
    from cmlinv.characters import is_fundamental_discriminant
    checked = 0
    for D in range(-3, -201, -1):
        if not is_fundamental_discriminant(D):
            continue
        F = quad_field_from_discriminant(D)
        for p in range(3, 60):
            if not all(p % q for q in range(2, p)) or split_behavior(F, p) != "split":
                continue
            chk = verify_ferrero_greenberg(F, p, make_context(p, 8), target=8)
            assert chk.passed and chk.residual_valuation >= 8, (D, p)
            checked += 1
    assert checked == 473


@pytest.mark.parametrize("D, p, lhs", [
    (-4, 5, "2672815856568735235078*5^1 + O(5^32)"),
    (-3, 7, "96074083241731727870477443*7^1 + O(7^32)"),
    (-39, 5, "2167092036852944021384*5^1 + O(5^32)"),
    (-40, 13, "16982797670185897189314356149024444*13^1 + O(13^32)"),
])
def test_fg_heaviest_derivatives_pinned(D, p, lhs):
    # the 32-digit branch derivatives of the costliest fg-grid benchmark
    # items, digit for digit
    chk = verify_ferrero_greenberg(quad_field_from_discriminant(D), p,
                                   make_context(p, 32), target=32)
    assert repr(chk.lhs) == lhs
    assert chk.passed


def test_fg_residual_scales_with_context():
    residuals = []
    for N in (8, 12, 16):
        chk = verify_ferrero_greenberg(quad_field_data(1), 5, make_context(5, N))
        residuals.append(chk.residual_valuation)
    assert residuals == [8, 12, 16]


# --- the derivative formula at a trivial zero ----------------------------------------

def test_formula_branch_zero():
    r = full_report(_spec(), 2).formulas[0]
    assert r.passed and r.residual_valuation >= 6
    assert r.archimedean_value == Fraction(1, 2)  # 2h/w for Q(i)
    assert r.modular_symbols == ("Lp[branch 0](1, f_1)",)
    assert r.functional_equation_note is None
    assert not r.e_plus_value.is_zero()


def test_formula_branch_one_functional_equation():
    r = full_report(_spec(), 2).formulas[1]
    assert r.passed
    assert r.functional_equation_note is not None


def test_formula_larger_power_same_core():
    rep2, rep6 = full_report(_spec(), 2), full_report(_spec(), 6)
    r2, r6 = rep2.formulas[0], rep6.formulas[0]
    assert r6.passed
    assert len(r6.modular_symbols) == 3
    assert (rep2.l_at_0 - rep6.l_at_0).is_zero()
    assert (r2.derivative - r6.derivative).is_zero()


def test_formula_rejects_non_exceptional():
    # no trivial zero, no formula: n = 4 has an even Dirichlet factor, n = 3 none
    for n in (3, 4):
        rep = full_report(_spec(), n)
        assert rep.formulas == () and rep.fg_check.passed, n


@pytest.mark.parametrize("target", [0, -3])
def test_target_below_one_rejected_before_any_work(target):
    spec = _spec()
    with stage_probe() as stages:
        for check in (lambda: verify_ferrero_greenberg(spec.field, 5, spec.context, target=target),
                      lambda: full_report(spec, 2, target=target)):
            with pytest.raises(ValueError, match="target"):
                check()
    assert stages == []


def test_fg_refuses_another_prime_than_the_contexts_before_the_sum():
    # 13 splits in Q(i), so only the context's p = 5 tells: g'(0) was summed at 5 first
    with stage_probe() as stages, pytest.raises(ValueError, match="context prime and p disagree"):
        verify_ferrero_greenberg(quad_field_data(1), 13, make_context(5, 8))
    assert stages == []


def test_full_report_refuses_n_over_the_decompose_ceiling_before_any_work():
    # g'(0), pibar and log alpha were computed before decompose refused
    spec = _spec()
    with stage_probe() as stages, pytest.raises(ValueError, match="n = 100002 at N = 16 digits"):
        full_report(spec, 100002)
    assert stages == []


# --- the records ----------------------------------------------------------------

def _records():
    # one instance of every record type, built the way the program builds it
    spec = _spec()
    rep = full_report(spec, 2, target=6)
    bs = branch_series(0, spec.field.character(), 0, 2, spec.context)
    return [spec.field, pi_bar(spec.field, 5, spec.context), spec, unit_root(spec), bs,
            decompose(spec, 2)[1][0], rep, rep.fg_check, rep.formulas[0],
            run(ac6_critical_containment)]


def test_records_are_immutable():
    records = _records()
    assert len({type(r) for r in records}) == len(records) == 10
    for rec in records:
        names = getattr(rec, "_fields", None) or [f.name for f in dataclasses.fields(rec)]
        for name in names:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError):
            rec.note = None  # no instance dict to take a new attribute


def test_fgcheck_is_the_only_dataclass():
    # every other record is a named tuple, whose class is far cheaper to
    # build at import; FGCheck must support dataclasses.replace (below)
    found = set()
    for info in pkgutil.iter_modules(cmlinv.__path__):
        mod = importlib.import_module(f"cmlinv.{info.name}")
        found |= {obj.__name__ for obj in vars(mod).values()
                  if isinstance(obj, type) and obj.__module__ == mod.__name__
                  and dataclasses.is_dataclass(obj)}
    assert found == {"FGCheck"}


def test_every_name_in_each_all_exists():
    # a name left in __all__ after its definition went breaks `from cmlinv.x import *`
    mods = [cmlinv, *(importlib.import_module(f"cmlinv.{info.name}")
                      for info in pkgutil.iter_modules(cmlinv.__path__))]
    assert len(mods) == 10
    assert [(m.__name__, name) for m in mods for name in m.__all__ if not hasattr(m, name)] == []


def test_fgcheck_supports_dataclasses_replace():
    # the benchmark's self-test flips a digit of a real check this way
    ctx = make_context(5, 8)
    chk = verify_ferrero_greenberg(quad_field_data(1), 5, ctx)
    lhs = chk.lhs + ctx.from_int(5) ** (chk.lhs.valuation() + 3)
    flipped = dataclasses.replace(chk, lhs=lhs)
    assert flipped.lhs is lhs and flipped is not chk
    assert (flipped.rhs, flipped.residual_valuation, flipped.passed) == \
        (chk.rhs, chk.residual_valuation, chk.passed)
