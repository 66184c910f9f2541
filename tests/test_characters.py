"""Dirichlet characters and generalized Bernoulli numbers; L(0, theta_D) = -B_{1,theta_D}
is checked against 2h/w by the acceptance battery (AC-2)."""

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

import pytest

from cmlinv import characters
from cmlinv.characters import (DirichletCharacter, bernoulli_number,
                               char_from_kronecker, char_product,
                               char_teichmuller_power, gen_bernoulli,
                               is_fundamental_discriminant, trivial_character)
from cmlinv.padic import make_context, ordp

CTX5 = make_context(5, 32)

FUNDAMENTAL = [D for D in range(-3, -201, -1) if is_fundamental_discriminant(D)]


def kronecker_symbol(D: int, n: int) -> int:
    """Kronecker symbol (D/n), n >= 1, by trial division of n.

    The oracle for `characters._kronecker_row` and `split_behavior`: (D/2)
    from D mod 8 and (D/q) at an odd prime q by Euler's criterion.
    """
    res, q = 1, 2
    while n > 1:
        if q * q > n:
            q = n
        while n % q == 0:
            n //= q
            if q == 2:
                res *= 0 if D % 2 == 0 else 1 if D % 8 in (1, 7) else -1
            else:
                e = pow(D % q, (q - 1) // 2, q)
                res *= 0 if e == 0 else 1 if e == 1 else -1
        q += 1
    return res


def _jacobi(D: int, a: int) -> int:
    """Kronecker symbol (D/a), a >= 1, by the binary reciprocity algorithm."""
    if a % 2 == 0 and D % 2 == 0:
        return 0
    t = 1
    while a % 2 == 0:
        a //= 2
        if D % 8 in (3, 5):
            t = -t
    x = D % a
    while x:
        while x % 2 == 0:
            x //= 2
            if a % 8 in (3, 5):
                t = -t
        x, a = a, x
        if x % 4 == 3 and a % 4 == 3:
            t = -t
        x %= a
    return t if a == 1 else 0


@lru_cache(maxsize=None)
def _teichmuller_table(p: int, N: int) -> tuple:
    """teichmuller(r) mod p^N for r = 0..p-1 from pow towers."""
    P = p**N
    out = []
    for t in range(p):
        for _ in range(N + 1):
            t = pow(t, p, P)
        out.append(t)
    return tuple(out)


def _raw_value(D: int, i: int, p: int, N: int, a: int) -> int:
    """(D/a) * teichmuller(a)^i mod p^N from a pow tower; 0 off the units."""
    P = p**N
    return _jacobi(D, a) * pow(_teichmuller_table(p, N)[a % p], i, P) % P


@lru_cache(maxsize=None)
def _character_row(D: int, i: int, p: int, N: int, f: int) -> dict:
    """_raw_value at the units a mod f."""
    return {a: _raw_value(D, i, p, N, a) for a in range(1, f + 1) if gcd(a, f) == 1}


@lru_cache(maxsize=None)
def _horner_row(f: int, n: int):
    """f^(n-1) B_n(a/f) for the units a mod f as (den, {a: numerator}).

    B_n(x) = sum_j C(n, j) B_j x^(n-j) is evaluated at x = a/f by Horner,
    one integer loop per unit a after clearing the denominators of the
    coefficients and of x: the textbook definition of B_{n,chi}.
    """
    coeffs = [comb(n, j) * _bernoulli_oracle(j) for j in range(n + 1)]
    L = lcm(*(c.denominator for c in coeffs))
    # f^n B_n(a/f) L = sum_j c_j a^(n-j) f^j with the integers c_j = C(n, j) B_j L
    scaled = [c.numerator * (L // c.denominator) * f**j for j, c in enumerate(coeffs)]
    row = {}
    for a in range(1, f + 1):
        if gcd(a, f) == 1:
            acc = 0
            for c in scaled:
                acc = acc * a + c
            row[a] = acc
    return L * f, row


def _gen_bernoulli_oracle(n: int, D: int, i: int, p: int, N: int):
    """B_{n, theta_D omega^i} = f^(n-1) sum_a chi(a) B_n(a/f), term by term.

    chi(a) is the reciprocity Kronecker symbol times a pow-tower Teichmuller
    power mod p^N.  Returns the exact Fraction when chi is rational-valued
    (2i = 0 mod p - 1); otherwise (V, A) with V a rational congruent to
    B_{n,chi} mod p^A, where A = N + min_a ord_p(f^(n-1) B_n(a/f)) is the
    absolute precision of the p-adic sum of those terms at N digits each.
    """
    f = abs(D) * (p if i else 1)
    den, row = _horner_row(f, n)
    chi = _character_row(D, i, p, N, f)
    if 2 * i % (p - 1) == 0:
        return Fraction(sum(num if chi[a] == 1 else -num for a, num in row.items()), den)
    m = min(ordp(num, p) for num in row.values() if num) - ordp(den, p)
    return Fraction(sum(chi[a] * num for a, num in row.items()), den), N + m


# (D, p, i) with i = 0 or (p - 1)/2, the powers of omega that are rational-valued;
# D = 1 is the pure Teichmuller power
RAW_CASES = [(-4, 5, 2), (-3, 7, 3), (-8, 5, 2), (5, 7, 3), (-7, 11, 5),
             (-4, 13, 6), (1, 7, 3), (1, 3, 1), (12, 5, 0)]


# --- Kronecker symbol -----------------------------------------------------------

def test_kronecker_symbol_against_legendre():
    # the symbol at a prime, in the module and in the oracle, against the
    # Legendre symbol by counting the squares mod q
    for q in (3, 5, 7, 11, 13, 17):
        squares = {x * x % q for x in range(1, q)}
        for D in (-3, -4, -7, -8, -11, 5, 12):
            want = 0 if D % q == 0 else 1 if D % q in squares else -1
            assert characters._kronecker_prime(D, q) == kronecker_symbol(D, q) == want
    for D in range(-200, 201):
        assert characters._kronecker_prime(D, 2) == kronecker_symbol(D, 2) == _jacobi(D, 2)


def test_kronecker_multiplicative_in_denominator():
    # the oracle against the reciprocity algorithm and its own multiplicativity
    for D in (-4, -7, 5):
        assert all(kronecker_symbol(D, n) == _jacobi(D, n) for n in range(1, 800))
        for m in range(1, 40):
            for n in range(1, 20):
                assert kronecker_symbol(D, m * n) == \
                    kronecker_symbol(D, m) * kronecker_symbol(D, n)


def test_kronecker_row_matches_the_symbol():
    # the row is built from one symbol per prime by complete multiplicativity;
    # __wrapped__ leaves the cache as the other tests find it
    for D in range(-2000, 2001):
        if D == 1 or is_fundamental_discriminant(D):
            m = abs(D)
            want = tuple(kronecker_symbol(D, a or m) for a in range(m))
            assert characters._kronecker_row.__wrapped__(D) == want, D


def test_positive_discriminant_parity_convention():
    # chi(-1) = -1 exactly when D < 0
    assert char_from_kronecker(5).parity() == 1
    assert char_from_kronecker(8).parity() == 1
    assert char_from_kronecker(-4).parity() == -1
    assert char_from_kronecker(-8).parity() == -1


def test_fundamental_discriminant_gate():
    for D in (-4, -3, -7, -8, -20, 5, 8, 12):
        assert is_fundamental_discriminant(D)
    for D in (0, 1, -1, -2, -6, -9, -12, -16, 4):
        assert not is_fundamental_discriminant(D)
    with pytest.raises(ValueError):
        char_from_kronecker(-6)


# --- Teichmuller powers -----------------------------------------------------------

def test_omega_zero_is_trivial_mod_one():
    chi = char_teichmuller_power(0, CTX5)
    assert chi.modulus == 1 and chi.D == 1


def test_omega_value_at_two():
    # at p = 3, omega itself is rational: the Teichmuller lift of 2 is -1
    chi = char_teichmuller_power(1, make_context(3, 8))
    assert chi.D == -3 and chi.value_exact(2) == -1
    assert _raw_value(1, 1, 3, 8, 2) == 3**8 - 1


def test_omega_squared_at_two_is_minus_one():
    chi = char_teichmuller_power(2, CTX5)
    assert chi.D == 5 and chi.value_exact(2) == -1  # omega^2 is rational-valued at p = 5
    assert _raw_value(1, 2, 5, 32, 2) == 5**32 - 1


def test_omega_is_odd():
    # omega^i has parity (-1)^i: odd at i = (p - 1)/2 exactly when p = 3 mod 4
    for p in (3, 5, 7, 11, 13):
        i = (p - 1) // 2
        assert char_teichmuller_power(i, make_context(p, 8)).parity() == (-1) ** i


def test_omega_powers_that_are_not_rational_raise():
    for p, i in ((5, 1), (5, 3), (7, 1), (7, 2), (13, 5)):
        with pytest.raises(ValueError, match="not rational-valued"):
            char_teichmuller_power(i, make_context(p, 8))


# --- products and conductors --------------------------------------------------------

def test_char_times_inverse_is_trivial():
    ctx7 = make_context(7, 8)
    for chi in (char_teichmuller_power(2, CTX5),
                char_product(char_from_kronecker(-4), char_teichmuller_power(3, ctx7)),
                char_from_kronecker(-8), trivial_character()):
        prod = char_product(chi, chi.power(-1))
        assert prod.D == 1 and prod.modulus == 1
        assert all(prod.value_pair(a) == (1, 0) for a in range(1, 30))


def test_quadratic_squares_to_trivial():
    th = char_from_kronecker(-4)
    assert char_product(th, th).D == 1
    assert char_product(th, th).modulus == 1


def test_theta_times_omega():
    # theta_{-4} omega^((p-1)/2): theta_{-20} at p = 5, odd; theta_{28} at p = 7, even
    for p, D, parity in ((5, -20, -1), (7, 28, 1)):
        prod = char_product(char_from_kronecker(-4),
                            char_teichmuller_power((p - 1) // 2, make_context(p, 8)))
        assert (prod.D, prod.modulus, prod.parity()) == (D, 4 * p, parity)


def test_conductor_reduction_idempotent_and_value_preserving():
    # values and conductor of theta_D omega^i against the raw formula: the
    # conductor is the least d | f with chi trivial on units = 1 mod d
    for D, p, i in RAW_CASES:
        N = 6
        ctx = make_context(p, N)
        chi = char_product(DirichletCharacter(D), char_teichmuller_power(i, ctx))
        f = chi.modulus
        raw = {a: _raw_value(D, i, p, N, a) for a in range(1, f + 1)}
        for a in range(1, f + 1):
            if gcd(a, f) > 1:
                assert chi.value_pair(a) is None and raw[a] == 0, (D, p, i, a)
            else:
                assert chi.value_exact(a) % p**N == raw[a], (D, p, i, a)
                assert chi.value_pair(a) == chi.value_pair(a + f) == (chi.value_exact(a), 0)
        units = [a for a in range(1, f + 1) if gcd(a, f) == 1]
        cond = min(d for d in range(1, f + 1) if f % d == 0
                   and all(raw[a] == 1 for a in units if a % d == 1 % d))
        assert cond == f, (D, p, i)
        assert chi.parity() * raw[f - 1] % p**N == 1
        # reducing an already primitive character changes nothing
        for again in (chi.power(1), char_product(chi, trivial_character())):
            assert (again.D, again.modulus) == (chi.D, chi.modulus)


@pytest.mark.parametrize("D1, D2, D", [(-4, -8, 8), (-4, -3, 12), (-3, -3, 1),
                                       (-4, 5, -20), (-8, 8, -4), (-7, -8, 56),
                                       (12, -3, -4), (-24, -4, 24)])
def test_quadratic_product_rule(D1, D2, D):
    prod = char_product(char_from_kronecker(D1), char_from_kronecker(D2))
    assert (prod.D, prod.modulus) == (D, abs(D))
    for a in range(1, 4 * abs(D1 * D2)):
        if gcd(a, D1 * D2) == 1:
            assert prod.value_exact(a) == _jacobi(D1, a) * _jacobi(D2, a), a


def test_constructor_rejections():
    with pytest.raises(ValueError):
        DirichletCharacter(-12)  # not fundamental
    with pytest.raises(ValueError):
        char_product(char_from_kronecker(5), char_teichmuller_power(1, CTX5))
    # i = 4 = 0 mod p - 1 leaves no Teichmuller component, so p | D is fine
    assert char_product(DirichletCharacter(-20), char_teichmuller_power(4, CTX5)).modulus == 20


def test_power_method():
    th = char_from_kronecker(-7)
    assert th.power(2).D == 1
    assert th.power(3).value_exact(3) == th.value_exact(3)
    assert th.power(-1).value_exact(3) == th.value_exact(3)
    assert th.power(0).D == 1


# --- generalized Bernoulli numbers ------------------------------------------------------

def test_bernoulli_numbers_first_convention():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(12) == Fraction(-691, 2730)
    with pytest.raises(ValueError):
        bernoulli_number(-1)


@lru_cache(maxsize=None)
def _bernoulli_oracle(n: int) -> Fraction:
    """B_n from sum_{j <= n} C(n+1, j) B_j = 0, in Fractions: O(n^2) additions."""
    if n == 0:
        return Fraction(1)
    return -sum(comb(n + 1, j) * _bernoulli_oracle(j) for j in range(n)) / (n + 1)


@pytest.mark.parametrize("order", ["large_first", "small_first"])
def test_bernoulli_numbers_match_recurrence_oracle(monkeypatch, order):
    # from a table of B_0 alone: B_300 first reads every smaller B_n from
    # the table it built; ascending order makes the table grow
    builds = []

    def counted(n):
        builds.append(n)
        return build(n)

    build = characters._bernoulli_table
    monkeypatch.setattr(characters, "_bernoulli_table", counted)
    monkeypatch.setattr(characters, "_bernoulli", (Fraction(1),))
    ns = [300, *range(300)] if order == "large_first" else range(301)
    got = {n: bernoulli_number(n) for n in ns}
    assert all(got[n] == _bernoulli_oracle(n) for n in range(301))
    if order == "large_first":
        assert builds == [300]
    else:
        # each rebuild at least doubles and none passes twice the largest n,
        # so together they cost O(300^2) steps
        assert all(b >= 2 * a for a, b in zip(builds, builds[1:]))
        assert builds[-1] <= 600


def test_b1_trivial_character_convention():
    assert gen_bernoulli(1, trivial_character()) == Fraction(1, 2)


def test_parity_vanishing_sweep():
    for D in FUNDAMENTAL:
        if abs(D) > 50:
            continue
        chi = char_from_kronecker(D)
        for n in range(1, 7):
            B = gen_bernoulli(n, chi)
            if (-1) ** n != chi.parity():
                assert B == 0, (D, n)
            else:
                assert B != 0, (D, n)


def test_imprimitive_euler_factor_relation():
    # extending theta_{-4} to modulus 12 multiplies B_n by (1 - theta(3) 3^(n-1));
    # the mod-12 sum 12^(n-1) sum_a theta(a) B_n(a/12) is done by hand here
    th = char_from_kronecker(-4)
    for n in (1, 3, 5):
        lhs = Fraction(0)
        for a in (1, 5, 7, 11):
            x = Fraction(a, 12)
            b_n = sum(comb(n, j) * _bernoulli_oracle(j) * x ** (n - j) for j in range(n + 1))
            lhs += (1 if a % 4 == 1 else -1) * b_n
        lhs *= Fraction(12) ** (n - 1)
        rhs = gen_bernoulli(n, th) * (1 + Fraction(3) ** (n - 1))  # theta(3) = -1
        assert lhs == rhs


ORACLE_DS = [1] + [D for D in range(-43, 0) if is_fundamental_discriminant(D)]


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_gen_bernoulli_against_horner_oracle(p):
    # every rational-valued theta_D omega^i: i = 0 and, for p prime to D, (p - 1)/2
    N = 12
    ctx = make_context(p, N)
    for D in ORACLE_DS:
        for i in {0, (p - 1) // 2} if D % p else {0}:
            chi = char_product(DirichletCharacter(D), char_teichmuller_power(i, ctx))
            assert chi.modulus == abs(D) * (p if i else 1), (D, i)
            for n in range(1, 9):
                got = gen_bernoulli(n, chi)
                assert isinstance(got, Fraction) and \
                    got == _gen_bernoulli_oracle(n, D, i, p, N), (n, D, i)


def test_gen_bernoulli_oracle_named_cases():
    N = 12
    # f = 1: the trivial character, B_{n,1} = B_n(1) (p is immaterial at i = 0)
    for n in range(1, 9):
        assert gen_bernoulli(n, trivial_character()) == _gen_bernoulli_oracle(n, 1, 0, 3, N)
    for p in (3, 5, 7, 13):
        ctx = make_context(p, N)
        for D in (-3, -4, -7, -40):
            # i = (p - 1)/2: omega^i = theta_{p*}, so the product is quadratic, of modulus |D| p
            i = (p - 1) // 2
            if D % p:
                chi = char_product(DirichletCharacter(D), char_teichmuller_power(i, ctx))
                assert chi.modulus == abs(D) * p
                for n in range(1, 9):
                    assert gen_bernoulli(n, chi) == _gen_bernoulli_oracle(n, D, i, p, N), (n, D)
            # n = 1 mod p - 1: kl_value's theta*omega^(1-n) is theta, of conductor |D|
            for n in range(1, 9, p - 1):
                chi_n = char_product(DirichletCharacter(D), char_teichmuller_power(1 - n, ctx))
                assert chi_n.D == D and chi_n.modulus == abs(D)
                assert gen_bernoulli(n, chi_n) == _gen_bernoulli_oracle(n, D, 0, p, N), (n, D)


def test_rational_path_against_per_residue_sum():
    # chi = theta_D reads the Kronecker row; D = 1 (f = 1) counts a = 1
    for D in range(-300, 301):
        if D == 1 or is_fundamental_discriminant(D):
            chi = DirichletCharacter(D)
            for n in range(1, 7):
                assert gen_bernoulli(n, chi) == _gen_bernoulli_oracle(n, D, 0, 3, 12), (n, D)


def test_gen_bernoulli_rejects_n_zero():
    with pytest.raises(ValueError):
        gen_bernoulli(0, char_from_kronecker(-4))
