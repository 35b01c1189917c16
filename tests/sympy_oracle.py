"""A_n^{(r,k)}(x) from sympy's own ring-series arithmetic over ℚ[t, x], an
expansion that shares no code with polycauchy.  Import it after
``pytest.importorskip("sympy")``."""

from fractions import Fraction
from math import factorial, lcm

import sympy
from sympy.polys.ring_series import rs_mul, rs_pow
from sympy.polys.rings import ring

QQ = sympy.QQ
R, t, x = ring("t, x", QQ)


def _expansion(r, k, prec):
    """(t/log(1+t))^r Lif_k(log(1+t)) (1+t)^{-x} through t^(prec-1)."""
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
    return rs_mul(rs_mul(ratio, lif, t, prec), binom, t, prec)


def _rows(r, k, order):
    """A_0 .. A_order, each a list of Fractions in ascending powers of x,
    from one product."""
    rows = [{} for _ in range(order + 1)]
    for (i, j), c in _expansion(r, k, order + 1).terms():
        rows[i][j] = Fraction(int(c.numerator), int(c.denominator)) * factorial(i)
    return [[row.get(j, Fraction(0)) for j in range(max(row, default=-1) + 1)] for row in rows]


def sympy_mixed_A(n, r, k):
    """n! [t^n] (t/log(1+t))^r Lif_k(log(1+t)) (1+t)^{-x}, coefficients in
    ascending powers of x."""
    return _rows(r, k, n)[n]


def sympy_A_rows(order, r, k):
    """`identities._A_rows(order, r, k)` from one sympy expansion: (rows,
    columns, den), rows[l][i] = columns[i][l] the numerator of [x^i] A_l
    over one denominator, the columns zero-padded to length order + 1."""
    fractions = _rows(r, k, order)
    den = lcm(*(c.denominator for row in fractions for c in row))
    rows = tuple(tuple(c.numerator * (den // c.denominator) for c in row) for row in fractions)
    cols = tuple(zip(*(row + (0,) * (order - len(row) + 1) for row in rows)))
    return rows, cols, den
