"""Field invariants, class numbers two ways, and the split-prime package."""

from functools import cache
from math import gcd, isqrt

import pytest

from cmlinv import characters
from cmlinv.characters import is_fundamental_discriminant
from cmlinv.padic import _is_prime, iwasawa_log, make_context, sqrt_mod_prime
from cmlinv.quadfield import (MAX_ABS_DISCRIMINANT, _norm_solution, pi_bar,
                              quad_field_data, quad_field_from_discriminant,
                              reduced_forms, split_behavior)
from test_characters import kronecker_symbol

CTX5 = make_context(5, 24)


def embed(sp, coords):
    """Image of (x + y*sqrt(D))/2 under the embedding of the split-prime package."""
    x, y = coords
    return (sp.sqrt_disc * y + x) / 2


KNOWN_H = {-3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -23: 3,
           -24: 2, -31: 3, -47: 5, -71: 7, -199: 9}


def test_gaussian_field():
    F = quad_field_data(1)
    assert (F.D, F.h, F.w) == (-4, 1, 4)
    assert reduced_forms(-4) == [(1, 0, 1)]


def test_eisenstein_field():
    F = quad_field_data(3)
    assert (F.D, F.h, F.w) == (-3, 1, 6)


def test_class_number_23():
    F = quad_field_data(23)
    assert F.D == -23 and F.h == 3
    assert sorted(reduced_forms(-23)) == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]


def test_known_class_numbers():
    for D, h in KNOWN_H.items():
        assert quad_field_from_discriminant(D).h == h, D


def test_rejects_non_squarefree():
    # the gate is the fundamental-discriminant test; trial division is the oracle
    for d in range(1, 200):
        if any(d % (q * q) == 0 for q in range(2, isqrt(d) + 1)):
            with pytest.raises(ValueError):
                quad_field_data(d)
        else:
            assert quad_field_data(d).d == d


def test_discriminant_over_the_ceiling_rejected_fast(monkeypatch):
    # 200 digits: trial division for the squarefree test would never end, so the
    # ceiling is checked before it
    monkeypatch.setattr(characters, "_prime_factors", lambda n: pytest.fail("trial division"))
    D = -int("9" * 199 + "5")
    for build, arg in ((quad_field_from_discriminant, D), (quad_field_data, -D),
                       (quad_field_from_discriminant, -(MAX_ABS_DISCRIMINANT + 3))):
        with pytest.raises(ValueError, match="at most"):
            build(arg)


def test_discriminant_just_below_the_ceiling_passes():
    D = -(MAX_ABS_DISCRIMINANT - 5)
    assert is_fundamental_discriminant(D)
    F = quad_field_from_discriminant(D)
    assert (F.d, F.D, F.w) == (-D, D, 2) and F.h > 0


def _reduce_form(a: int, b: int, c: int) -> tuple[int, int, int]:
    # classical reduction loop for positive definite forms
    while True:
        if c < a or (c == a and b < 0):
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            r = (a - b) // (2 * a)
            b2 = b + 2 * r * a
            c = a * r * r + b * r + c
            b = b2
            continue
        break
    if b < 0 and (-b == a or a == c):
        b = -b
    return (a, b, c)


def class_number_by_reduction(D: int) -> int:
    """Independent h(D): reduce every small form and count distinct classes.

    Enumerates all (a, b, c) with a <= sqrt(|D|/3) and |b| <= 2a, runs the
    reduction algorithm on each, and counts canonical representatives.
    """
    seen = set()
    for a in range(1, isqrt(-D // 3) + 2):
        for b in range(-2 * a, 2 * a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c <= 0:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            seen.add(_reduce_form(a, b, c))
    return len(seen)


def test_class_number_against_reduction_oracle():
    for D in range(-3, -101, -1):
        if not is_fundamental_discriminant(D):
            continue
        assert len(reduced_forms(D)) == class_number_by_reduction(D), D


def test_w_rule():
    assert quad_field_from_discriminant(-3).w == 6
    assert quad_field_from_discriminant(-4).w == 4
    for D in (-7, -8, -11, -20):
        assert quad_field_from_discriminant(D).w == 2


# --- splitting ----------------------------------------------------------------

def test_split_behavior_table():
    F = quad_field_data(1)
    assert split_behavior(F, 5) == "split"
    assert split_behavior(F, 3) == "inert"
    assert split_behavior(F, 2) == "ramified"
    assert split_behavior(quad_field_data(3), 3) == "ramified"
    assert split_behavior(quad_field_data(3), 7) == "split"


def test_split_behavior_matches_the_kronecker_oracle():
    # (D/2) follows D mod 8 for odd D, a rule the Kronecker row shares
    names = {1: "split", -1: "inert", 0: "ramified"}
    primes = [2] + [q for q in range(3, 60) if _is_prime(q)]
    for D in range(-200, 0):
        if is_fundamental_discriminant(D):
            F = quad_field_from_discriminant(D)
            for q in primes:
                assert split_behavior(F, q) == names[kronecker_symbol(D, q)], (D, q)


# --- pi_bar ----------------------------------------------------------------------

def primitive_norm_representations(F, p, max_count=None):
    """Brute-force oracle: primitive (x, y), x, y >= 0, (x^2 - D y^2)/4 = p^h.

    Tries every y up to sqrt(4 p^h / |D|), so it is exponential in h.
    Rejects pairs with p | x and p | y, which are exactly the generators
    of mixed ideals.  Yields in order of increasing y.
    """
    D, h = F.D, F.h
    target = 4 * p**h
    found = 0
    y = 0
    while target + D * y * y >= 0:
        t = target + D * y * y
        x = isqrt(t)
        if x * x == t and (x - y * D) % 2 == 0:
            if not (x % p == 0 and y % p == 0):
                yield (x, y)
                found += 1
                if max_count is not None and found >= max_count:
                    return
        y += 1


def test_norm_solution_matches_search_oracle():
    # every fundamental -400 < D < 0 and split p < 60 with p^h <= 10^12: the
    # solver's choice is the search's first hit, fed through the same pi_bar
    pairs = 0
    for D in range(-3, -400, -1):
        if not is_fundamental_discriminant(D):
            continue
        F = quad_field_from_discriminant(D)
        for p in range(3, 60):
            if not _is_prime(p) or split_behavior(F, p) != "split" or p**F.h > 10**12:
                continue
            ctx = make_context(p, 2)
            rep = next(primitive_norm_representations(F, p, max_count=1))
            got = pi_bar(F, p, ctx)
            want = pi_bar(F, p, ctx, representation=rep)
            assert (got.pibar_coords, got.pi_coords) == \
                (want.pibar_coords, want.pi_coords), (D, p)
            pairs += 1
    assert pairs == 738


def test_norm_solution_least_y_with_extra_units():
    # Q(sqrt(-3)) and Q(i) have six and four units: the solver's output must
    # be the least-y associate from either square root of D mod p
    for D in (-3, -4):
        F = quad_field_from_discriminant(D)
        for p in range(5, 3000):
            if not _is_prime(p) or split_behavior(F, p) != "split":
                continue
            want = next(primitive_norm_representations(F, p, max_count=1))
            r0 = sqrt_mod_prime(D, p)
            assert _norm_solution(F, p, r0) == _norm_solution(F, p, p - r0) == want, (D, p)


# pibar_coords of every (D, p) of the benchmark's seed-0 field-twoway items
FIELD_TWOWAY_PIBAR = {
    (-4, 5): (4, -1), (-4, 13): (6, 2), (-4, 17): (8, 1), (-4, 29): (10, 2),
    (-23, 3): (4, -2), (-23, 13): (74, 12), (-23, 29): (282, 28),
    (-71, 3): (92, 2), (-71, 5): (558, 4), (-71, 19): (10316, -6990),
    (-71, 29): (37194, 30860),
    (-167, 3): (596, -46), (-167, 7): (88888, -222),
    (-167, 11): (572988, -69770), (-167, 19): (2490068, 1659234),
    (-167, 29): (219778854, -1729100),
}


@pytest.mark.parametrize("D,p", sorted(FIELD_TWOWAY_PIBAR))
def test_pibar_coords_pinned(D, p):
    sp = pi_bar(quad_field_from_discriminant(D), p, make_context(p, 4))
    x, y = FIELD_TWOWAY_PIBAR[D, p]
    assert sp.pibar_coords == (x, y)
    assert sp.pi_coords == (x, -y)


@cache
def first_representation(D, p):
    return next(primitive_norm_representations(quad_field_from_discriminant(D), p, max_count=1))


def unit_conjugate(sp, x, y):
    """Oracle: build both images (x +- y*sqrt(D))/2 in full and keep the unit one."""
    plus, minus = embed(sp, (x, y)), embed(sp, (x, -y))
    assert plus.is_unit() != minus.is_unit()
    return ((x, y), plus) if plus.is_unit() else ((x, -y), minus)


@pytest.mark.parametrize("conjugate_lift", (False, True))
@pytest.mark.parametrize("D,p", sorted(FIELD_TWOWAY_PIBAR))
def test_pibar_picks_the_unit_conjugate_mod_p(D, p, conjugate_lift):
    # pi_bar reads the choice off one residue mod p; every sign of the search's
    # first representation, negative x included, must give the oracle's conjugate
    F, ctx = quad_field_from_discriminant(D), make_context(p, 16)
    x0, y0 = first_representation(D, p)
    for x, y in ((x0, y0), (x0, -y0), (-x0, y0), (-x0, -y0)):
        sp = pi_bar(F, p, ctx, conjugate_lift=conjugate_lift, representation=(x, y))
        coords, unit = unit_conjugate(sp, x, y)
        assert sp.pibar_coords == coords and sp.pi_coords == (coords[0], -coords[1])
        assert sp.pibar_unit.valuation() == 0
        assert (sp.pibar_unit.digits(), sp.pibar_unit.abs_prec) == (unit.digits(), unit.abs_prec)
        assert embed(sp, sp.pi_coords).valuation() == F.h


def test_large_class_number_norm_equation():
    # the search needs about 2 p^(h/2) / sqrt(|D|) steps here: 10^16 and 10^9; CI's
    # "Large class numbers finish" step times the two under `timeout 20`
    for D, p, h in ((-647, 29, 23), (-1151, 3, 41)):
        F = quad_field_from_discriminant(D)
        assert F.h == h
        sp = pi_bar(F, p, make_context(p, 64))
        x, y = sp.pibar_coords
        assert x * x - D * y * y == 4 * p**h
        assert not (x % p == 0 and y % p == 0)
        assert sp.pibar_unit.valuation() == 0
        assert embed(sp, sp.pi_coords).valuation() == h


def test_pibar_gaussian_at_five_default_lift():
    sp = pi_bar(quad_field_data(1), 5, CTX5)
    # least positive root of x^2 = -4 mod 5 is 1
    assert sp.sqrt_disc.residue(1) == 1
    assert sp.pibar_unit.valuation() == 0
    assert embed(sp, sp.pi_coords).valuation() == 1
    assert sp.pibar_unit.residue(2) == 9


def test_pibar_spec_worked_example_conjugate_lift():
    # with sqrt(-4) = 2i and i = 7 (mod 25): 1+2i maps to 15 (valuation 1),
    # 1-2i maps to -13 (a unit); realized via the representation (2, 2)
    sp = pi_bar(quad_field_data(1), 5, CTX5, conjugate_lift=True,
                representation=(2, 2))
    i_lift = sp.sqrt_disc / 2
    assert i_lift.residue(2) == 7
    assert sp.pibar_unit.residue(2) == (-13) % 25
    assert embed(sp, (2, 2)).residue(2) == 15  # the other conjugate, val 1... checked below
    assert sp.pibar_coords == (2, -2)


def test_pibar_thirteen():
    sp = pi_bar(quad_field_data(1), 13, make_context(13, 20))
    x, y = sp.pibar_coords
    assert (x * x + 4 * y * y) == 4 * 13
    assert sp.pibar_unit.valuation() == 0


def test_log_pi_plus_log_pibar_vanishes():
    # log loses ord_p(r) digits per series term, worst for p = 3
    for (d, p, floor) in ((1, 5, 18), (1, 13, 18), (3, 7, 18), (7, 11, 18),
                          (2, 3, 16), (2, 11, 18), (23, 3, 16)):
        ctx = make_context(p, 20)
        F = quad_field_data(d)
        sp = pi_bar(F, p, ctx)
        lp = iwasawa_log(embed(sp, sp.pi_coords))
        assert (lp + sp.log_pibar).min_valuation() >= floor, (d, p)


def test_pibar_rejects_non_split():
    with pytest.raises(ValueError):
        pi_bar(quad_field_data(1), 3, make_context(3, 16))
    with pytest.raises(ValueError):
        pi_bar(quad_field_data(1), 7, make_context(7, 16))


def test_pibar_log_independent_of_representation():
    # fields with extra units: several primitive representations, same log
    for (d, p, N) in ((1, 5, 24), (3, 7, 20)):
        F = quad_field_data(d)
        ctx = make_context(p, N)
        reps = list(primitive_norm_representations(F, p))
        assert len(reps) >= 2
        logs = [pi_bar(F, p, ctx, representation=r).log_pibar for r in reps]
        for lg in logs[1:]:
            assert (lg - logs[0]).min_valuation() >= N - 2


def test_embedding_swap_swaps_coords_and_keeps_log():
    # every fundamental D in [-200, 0) and every split odd p < 54: the other
    # embedding relabels pi and pibar, negates sqrt(D), and sends the unit
    # conjugate to the same number, part for part
    def parts(x):
        return x.min_valuation(), x.digits(), x.abs_prec

    pairs = 0
    for D in range(-3, -201, -1):
        if not is_fundamental_discriminant(D):
            continue
        F = quad_field_from_discriminant(D)
        for p in filter(_is_prime, range(3, 54, 2)):
            if split_behavior(F, p) != "split":
                continue
            ctx = make_context(p, 12)
            a = pi_bar(F, p, ctx)
            b = pi_bar(F, p, ctx, conjugate_lift=True)
            assert a.pibar_coords == b.pi_coords, (D, p)
            assert a.pi_coords == b.pibar_coords, (D, p)
            assert parts(-a.sqrt_disc) == parts(b.sqrt_disc), (D, p)
            for name in ("pibar_unit", "log_pibar"):
                assert parts(getattr(a, name)) == parts(getattr(b, name)), (D, p, name)
            pairs += 1
    assert pairs == 441


def test_rejects_bad_explicit_representation():
    F = quad_field_data(1)
    for bad in ((1, 1), (10, 5), (3, 1)):
        with pytest.raises(ValueError):
            pi_bar(F, 5, CTX5, representation=bad)


def test_higher_class_number_split_prime():
    # Q(sqrt(-23)), h = 3: pibar generates the cube of the conjugate prime
    F = quad_field_data(23)
    ctx = make_context(3, 20)
    sp = pi_bar(F, 3, ctx)
    x, y = sp.pibar_coords
    assert x * x + 23 * y * y == 4 * 27
    assert sp.pibar_unit.valuation() == 0
    assert embed(sp, sp.pi_coords).valuation() == 3
