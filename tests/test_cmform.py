"""Point counting, spec validation, Hecke unit roots."""

import importlib
import sys
from math import isqrt
from pathlib import Path

import pytest

from cmlinv.characters import char_from_kronecker, trivial_character
from cmlinv.cmform import (MAX_POINT_COUNT_PRIME, ap_point_count, cm_spec,
                           cm_spec_from_curve, curve_discriminant, unit_root)
from cmlinv.padic import PadicNumber, iwasawa_log, make_context
from cmlinv.quadfield import pi_bar, quad_field_data, quad_field_from_discriminant
from probe import stage_probe

CURVE = (0, -1, 0)  # y^2 = x^3 - x
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _ap_by_table(curve, p):
    # independent oracle: tabulate squares, count solutions per x
    a2, a4, a6 = curve
    squares = {}
    for y in range(p):
        squares.setdefault(y * y % p, 0)
        squares[y * y % p] += 1
    count = 1  # point at infinity
    for x in range(p):
        f = (x**3 + a2 * x * x + a4 * x + a6) % p
        count += squares.get(f, 0)
    return p + 1 - count


def test_point_count_matches_table_oracle():
    # p = 3 is supersingular: every x^3 - x is 0 mod 3, so a_3 = 0
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
        assert ap_point_count(CURVE, p) == _ap_by_table(CURVE, p), p


def test_hasse_bound():
    for p in range(3, 50, 2):
        if p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            if curve_discriminant(CURVE) % p == 0:
                continue
            assert abs(ap_point_count(CURVE, p)) <= 2 * isqrt(p) + 1, p


def test_bad_reduction_rejected():
    assert curve_discriminant((0, 0, 1)) % 3 == 0
    with pytest.raises(ValueError):
        ap_point_count((0, 0, 1), 3)


@pytest.mark.parametrize("p", [10**9 + 7, MAX_POINT_COUNT_PRIME + 3, 15, 1000001])
def test_point_count_rejects_p_over_the_ceiling_or_composite(p):
    # 10^9 + 7 is prime and 10^6 + 3 too: past the ceiling; 15 and
    # 1000001 = 101 * 9901 are composite.  p alone is refused: the curve None,
    # which the count would read first, is never read
    with pytest.raises(ValueError):
        ap_point_count(None, p)


def test_point_count_just_below_the_ceiling():
    # 999961 = 1 mod 4 is the largest such prime below 10^6, where
    # y^2 = x^3 - x has ordinary reduction and an even a_p
    p = 999961
    assert p <= MAX_POINT_COUNT_PRIME
    ap = ap_point_count(CURVE, p)
    assert ap % 2 == 0 and 0 < abs(ap) <= 2 * isqrt(p) + 1


def test_two_coefficient_curve_form():
    assert ap_point_count((-1, 0), 5) == ap_point_count((0, -1, 0), 5)


# --- spec validation -----------------------------------------------------------

def test_valid_weight_two_spec():
    ctx = make_context(5, 16)
    spec = cm_spec_from_curve(CURVE, ctx)
    assert spec.weight == 2
    assert spec.ap == -2


def test_rejects_non_ordinary():
    ctx = make_context(5, 16)
    with pytest.raises(ValueError):
        cm_spec(quad_field_data(1), 2, trivial_character(), 5, 32, ctx)


def test_rejects_level_divisible_by_p():
    ctx = make_context(5, 16)
    with pytest.raises(ValueError, match="level"):
        cm_spec(quad_field_data(1), 2, trivial_character(), -2, 35, ctx)


def test_rejects_parity_mismatch():
    ctx = make_context(5, 16)
    with pytest.raises(ValueError):
        cm_spec(quad_field_data(1), 3, trivial_character(), -2, 32, ctx)


def test_rejects_inert_prime():
    ctx = make_context(3, 16)
    with pytest.raises(ValueError):
        cm_spec(quad_field_data(1), 2, trivial_character(), 1, 32, ctx)


def test_rejects_nebentypus_with_p_in_conductor():
    ctx = make_context(5, 16)
    psi = char_from_kronecker(-20)  # conductor 20, divisible by 5
    with pytest.raises(ValueError):
        cm_spec(quad_field_data(1), 3, psi, -2, 32, ctx)


# --- unit roots -------------------------------------------------------------------

def test_unit_root_residues():
    ctx = make_context(5, 16)
    spec = cm_spec_from_curve(CURVE, ctx)
    roots = unit_root(spec)
    assert roots.alpha.residue(1) == 3
    assert roots.alpha.residue(2) == 13
    assert roots.beta.valuation() == 1


def test_vieta_exact_at_precision():
    for p in (5, 13, 17, 29):
        ctx = make_context(p, 20)
        spec = cm_spec_from_curve(CURVE, ctx)
        roots = unit_root(spec)
        assert roots.alpha + roots.beta == spec.ap
        assert roots.alpha * roots.beta == p


def test_unit_root_log_equals_log_pibar():
    # the flagship cross-check: both sides computed by independent modules
    for p in (5, 13):
        ctx = make_context(p, 20)
        spec = cm_spec_from_curve(CURVE, ctx)
        sp = pi_bar(spec.field, p, ctx)
        diff = iwasawa_log(unit_root(spec).alpha) - sp.log_pibar
        assert diff.min_valuation() >= 18, p


def test_synthetic_weight_three_roots():
    ctx = make_context(5, 20)
    base = unit_root(cm_spec_from_curve(CURVE, ctx))
    ap3 = base.alpha**2 + base.beta**2
    spec3 = cm_spec(quad_field_data(1), 3, char_from_kronecker(-4), ap3, 32, ctx)
    roots3 = unit_root(spec3)
    assert (roots3.alpha - base.alpha**2).is_zero()
    assert roots3.alpha * roots3.beta == 25


def _unit_root_oracle(spec):
    # Newton on f(x) = x^2 - a_p x + c in PadicNumber arithmetic, from
    # x = a_p mod p, a fixed number of full-precision steps
    ctx = spec.context
    p = ctx.p
    c = ctx.from_int(spec.nebentypus.value_exact(p)) * ctx.from_int(p) ** (spec.weight - 1)
    ap = spec.ap
    x = ctx.from_int(ap.residue(1))
    for _ in range(ctx.N.bit_length() + 2):
        x = x - (x * x - ap * x + c) / (2 * x - ap)
    return x, c / x


def _assert_roots_match_oracle(spec):
    roots = unit_root(spec)
    alpha, beta = _unit_root_oracle(spec)
    assert repr(roots.alpha) == repr(alpha) and roots.alpha.abs_prec == alpha.abs_prec
    assert repr(roots.beta) == repr(beta) and roots.beta.abs_prec == beta.abs_prec


def _field_twoway_specs():
    # every field-twoway benchmark item of seeds 0-5, built as the benchmark builds it
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    items = {(it["D"], it["h"], it["p"], it["N"])
             for seed in range(6) for it in workloads.plan("field-twoway", seed)}
    for D, h, p, N in sorted(items):
        item = {"D": D, "h": h, "p": p, "N": N}
        yield workloads.prepare("field-twoway", item)[2]


def test_unit_root_matches_newton_oracle_on_field_twoway_items():
    specs = list(_field_twoway_specs())
    assert len(specs) >= 40
    for spec in specs:
        _assert_roots_match_oracle(spec)


@pytest.mark.parametrize("p", [3, 5, 29])
def test_unit_root_matches_newton_oracle_across_weights(p):
    # weights 2-12: trivial nebentypus for even k, an odd quadratic one for odd k
    D = -8 if p == 3 else -4  # p splits in Q(sqrt(D)) and is prime to D
    F = quad_field_from_discriminant(D)
    for N in (1, 2, 7, 20, 64):
        ctx = make_context(p, N)
        for k in range(2, 13):
            psi = trivial_character() if k % 2 == 0 else char_from_kronecker(D)
            for ap in (1, 2, p - 1, 7 + 3 * p**2, 1 + p**N):
                for R in sorted({1, (N + 1) // 2, N}):
                    a = PadicNumber(ctx, 0, ap, R)  # a_p known to R < N digits too
                    _assert_roots_match_oracle(cm_spec(F, k, psi, a, 8 * abs(D), ctx))


def test_unit_root_matches_newton_oracle_on_synthetic_weight_three():
    # the acceptance battery's weight-3 form, nebentypus theta_{-4}
    for p, N in ((5, 16), (13, 16), (17, 16), (29, 16), (5, 64)):
        ctx = make_context(p, N)
        base = unit_root(cm_spec_from_curve(CURVE, ctx))
        spec3 = cm_spec(quad_field_data(1), 3, char_from_kronecker(-4),
                        base.alpha**2 + base.beta**2, 32, ctx)
        _assert_roots_match_oracle(spec3)


def test_curve_spec_refuses_a_curve_without_cm_by_the_field():
    # y^2 = x^3 - x has j = 1728, so CM by Q(i); y^2 = x^3 - x + 1 has the same
    # a_5 = -2 but j = -6912/23, so no CM, and no field to build its spec over
    ctx = make_context(5, 8)
    spec = cm_spec_from_curve(CURVE, ctx)
    assert spec.ap == -2 and spec.field.d == 1
    assert ap_point_count((-1, 1), 5) == -2
    with pytest.raises(ValueError, match="no CM: j = -6912/23"):
        cm_spec_from_curve((-1, 1), ctx)
    with pytest.raises(ValueError, match="singular"):
        cm_spec_from_curve((0, 0), ctx)


def test_curve_spec_keeps_the_callers_context():
    ctx = make_context(5, 8)
    assert cm_spec_from_curve(CURVE, ctx).context is ctx


def test_curve_spec_refuses_a_nonsplit_prime_before_counting():
    # 999983 = 3 mod 4 is inert in Q(i): that is the cause named, and none of
    # its 10^6 points is counted (the count alone takes about 2 s)
    with stage_probe() as stages:
        with pytest.raises(ValueError, match="p = 999983 does not split"):
            cm_spec_from_curve(CURVE, make_context(999983, 8))
        with pytest.raises(ValueError, match="p = 3 does not split"):
            cm_spec_from_curve(CURVE, make_context(3, 8))
    assert stages == []
