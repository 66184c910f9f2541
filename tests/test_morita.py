"""A third route to g'(0), sharing no code with `kl` or `quadfield`: Morita's Gamma_p.

By Ferrero-Greenberg (Invent. Math. 50, 1978), for an odd quadratic theta of
conductor |D| and a prime p that splits in Q(sqrt(D)),

    L_p'(0, theta*omega) = sum_{a=1}^{|D|} theta(a) log_p Gamma_p(a/|D|),

the sum that Gross-Koblitz (Ann. of Math. 109, 1979) turns into log_p of Gauss
sums.  Here Gamma_p(n) = (-1)^n prod_{0<j<n, p∤j} j at the integers n >= 0, and
|Gamma_p(x) - Gamma_p(y)| <= |x - y| for odd p, so Gamma_p(a/|D|) mod p^N is
Gamma_p(n_a) for the integer n_a = a/|D| mod p^N in [0, p^N).  One pass of
prefix products up to p^N reads every n_a.  The Kronecker symbol, Gamma_p and the
log series are written out below; only the value checked comes from cmlinv.
"""

import pytest

from cmlinv.characters import char_from_kronecker
from cmlinv.kl import branch_derivative
from cmlinv.padic import make_context


def _ordp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _jacobi(x: int, n: int) -> int:
    # the Jacobi symbol (x/n), n odd and positive, by quadratic reciprocity
    x, r = x % n, 1
    while x:
        while x % 2 == 0:
            x //= 2
            if n % 8 in (3, 5):
                r = -r
        x, n = n, x
        if x % 4 == 3 and n % 4 == 3:
            r = -r
        x %= n
    return r if n == 1 else 0


def _kronecker(D: int, a: int) -> int:
    # (D/a) for a >= 1: (D/2) is 0 for even D, 1 for D = +-1 mod 8 and -1 otherwise
    r = 1
    while a % 2 == 0:
        if D % 2 == 0:
            return 0
        r = r if D % 8 in (1, 7) else -r
        a //= 2
    return r * _jacobi(D, a)


def _class_number(D: int) -> int:
    # the reduced forms (a, b, c) of discriminant D: |b| <= a <= c, and b >= 0 when
    # |b| = a or a = c; every one is primitive, D being fundamental
    h, a = 0, 1
    while 3 * a * a <= -D:
        for b in range(1 - a, a + 1):
            c, r = divmod(b * b - D, 4 * a)
            h += r == 0 and c >= a and not (b < 0 and a == c)
        a += 1
    return h


def _log_unit(u: int, p: int, N: int) -> int:
    # log_p u mod p^N for a unit u: log(1 + x) / (p - 1) with 1 + x = u^(p-1), v(x) >= 1.
    # Term k of the series has valuation >= k - log_p k, at least N from k = 2N + 2 on,
    # and dividing it by k costs v(k) <= L digits, so it is summed mod p^(N + L)
    K = 2 * N + 2
    L = max(_ordp(k, p) for k in range(1, K))
    m = p ** (N + L)
    x = pow(u, p - 1, m) - 1
    total = 0
    for k in range(1, K):
        t = _ordp(k, p)
        total += (-1) ** (k + 1) * (pow(x, k, m) // p**t) * pow(k // p**t, -1, m)
    return total * pow(p - 1, -1, p**N) % p**N


def _morita_derivative(D: int, p: int, N: int) -> int:
    # sum_a theta(a) log_p Gamma_p(a/|D|) mod p^N
    A, m = -D, p**N
    points = {a: a * pow(A, -1, m) % m for a in range(1, A + 1) if _kronecker(D, a)}
    gamma, prod, n = {}, 1, 0  # prod = prod_{0<j<n, p∤j} j mod p^N
    for a, na in sorted(points.items(), key=lambda item: item[1]):
        for j in range(n, na):
            if j and j % p:
                prod = prod * j % m
        n = na
        gamma[a] = (-1) ** na * prod % m
    return sum(_kronecker(D, a) * _log_unit(g, p, N) for a, g in gamma.items()) % m


@pytest.mark.parametrize("D, p, N, h", [
    (-4, 5, 7, 1), (-3, 7, 5, 1), (-8, 3, 10, 1), (-163, 41, 3, 1), (-20, 3, 10, 2),
    (-23, 13, 4, 3), (-39, 5, 7, 4), (-47, 3, 10, 5), (-167, 29, 3, 11),
])
def test_branch_derivative_matches_morita_gamma(D, p, N, h):
    # p splits in Q(sqrt(D)) of class number h, and p^N <= 10^5 keeps the pass short
    assert _kronecker(D, p) == 1 and _class_number(D) == h and p**N <= 10**5
    expected = _morita_derivative(D, p, N)
    got = branch_derivative(0, char_from_kronecker(D), 0, make_context(p, N), n_cert=N)
    assert expected % p**N and got.residue(N) == expected
