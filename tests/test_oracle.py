"""A_n^{(r,k)}(x) against an expansion that shares no code with
polycauchy.series: sympy's own ring-series arithmetic over ℚ[t, x]."""

from fractions import Fraction
from math import factorial

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.ring_series import rs_mul, rs_pow  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

from polycauchy.families import mixed_A  # noqa: E402

QQ = sympy.QQ
R, t, x = ring("t, x", QQ)


def sympy_mixed_A(n, r, k):
    """n! [t^n] (t/log(1+t))^r Lif_k(log(1+t)) (1+t)^{-x}, coefficients in
    ascending powers of x."""
    prec = n + 1
    ell = sum(QQ((-1) ** (m + 1), m) * t ** m for m in range(1, prec + 1))
    ell_over_t = sum(QQ((-1) ** m, m + 1) * t ** m for m in range(prec))
    ratio = rs_pow(ell_over_t, -r, t, prec)
    lif, ell_pow = R(0), R(1)
    for m in range(prec):
        lif += ell_pow * QQ(1, factorial(m)) * QQ(m + 1) ** (-k)
        ell_pow = rs_mul(ell_pow, ell, t, prec)
    # (1+t)^{-x} = sum_m (-1)^m x(x+1)...(x+m-1) t^m / m!
    binom, rising = R(0), R(1)
    for m in range(prec):
        binom += (-1) ** m * rising * QQ(1, factorial(m)) * t ** m
        rising *= x + m
    prod = rs_mul(rs_mul(ratio, lif, t, prec), binom, t, prec)
    coeffs = {
        j: Fraction(int(c.numerator), int(c.denominator)) * factorial(n)
        for (i, j), c in prod.terms()
        if i == n
    }
    return [coeffs.get(j, Fraction(0)) for j in range(max(coeffs, default=-1) + 1)]


@pytest.mark.parametrize(
    "n, r, k",
    [
        (4, 0, 2), (5, 1, 1), (6, -2, 3), (7, 3, -2), (9, -1, -3), (12, 2, -1), (14, -3, -2),
        # past degree 32: g is regrown, Lif_k(log(1+t)) read off the Stirling matrix
        (33, 2, -1), (34, -2, 3), (40, 0, 2),
    ],
)
def test_mixed_A_matches_sympy_expansion(n, r, k):
    want = sympy_mixed_A(n, r, k)
    assert len(want) == n + 1  # degree n, leading coefficient (-1)^n
    assert list(mixed_A(n, r, k).coeffs) == want
