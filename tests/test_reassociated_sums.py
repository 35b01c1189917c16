"""The evaluators of Theorems 1, 2 and 5 (with (32), (34) and the Theorem 5
variant) sum their right sides in a re-associated order, over polynomials
and values memoized across points.  Each must still give the pair of the
paper's formula, written out here coefficient by coefficient in plain
Fraction arithmetic as the reference.  The report hashes cannot show this:
a rewrite that changed a right side and the left side alike would keep
every verdict."""

from fractions import Fraction as F
from functools import lru_cache
from itertools import product
from math import comb, factorial

import pytest

from polycauchy import identities as idn
from polycauchy.algebra import Polynomial
from polycauchy.families import (
    bernoulli2,
    bernoulli_poly,
    mixed_A,
    narumi,
    poly_cauchy,
    stirling1,
    stirling2,
)

NS = range(9)
RS = range(-2, 4)
KS = range(-3, 4)


@lru_cache(maxsize=None)
def A_at(n, r, k, c):
    return mixed_A(n, r, k).evaluate(c)


# -- Theorem 1 --------------------------------------------------------------


def thm1_reference(n, r, k):
    """[x^j] = (-1)^j sum_{m=j}^n s(n,m) sum_l C(m,l) C(m-l,j) (l+1)^(-k)
    S(m-l-j+r, r) / C(m-l-j+r, r)."""
    coeffs = []
    for j in range(n + 1):
        total = F(0)
        for m in range(j, n + 1):
            inner = F(0)
            for l in range(m - j + 1):
                q = m - l - j
                inner += (
                    comb(m, l) * comb(m - l, j) * F(l + 1) ** -k
                    * stirling2(q + r, r) / comb(q + r, r)
                )
            total += stirling1(n, m) * inner
        coeffs.append((-1) ** j * total)
    return [(mixed_A(n, r, k), Polynomial(coeffs))]


@pytest.mark.parametrize("r", [r for r in RS if r >= 0])
def test_thm1_matches_the_coefficient_formula(r):
    for n, k in product(NS, KS):
        p = {"n": n, "r": r, "k": k}
        assert idn._thm1(p) == thm1_reference(n, r, k), p


# -- Theorem 2, (32) and (34) ----------------------------------------------


def bernoulli_a(a, r):
    return bernoulli_poly(a, a - r + 1).evaluate(1)


def narumi_a(a, r):
    return narumi(a, -r).evaluate(0)


def compositions(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    return [
        (first,) + rest
        for first in range(total + 1)
        for rest in compositions(total - first, parts - 1)
    ]


def composition_a(a, r):
    total = F(0)
    for parts in compositions(a, r):
        term = F(factorial(a))
        for ai in parts:
            term *= bernoulli2(ai).evaluate(0) / factorial(ai)
        total += term
    return total


def thm2_reference(n, r, k, a_number):
    """[x^j] = (-1)^j sum_{i=j}^n C(n,i) s(i,j) sum_a C(n-i,a) a_number(a, r)
    C_{n-i-a}^{(k)}."""
    inner = [
        sum(comb(t, a) * a_number(a, r) * poly_cauchy(t - a, k).evaluate(0) for a in range(t + 1))
        for t in range(n + 1)
    ]
    coeffs = [
        (-1) ** j * sum(comb(n, i) * stirling1(i, j) * inner[n - i] for i in range(j, n + 1))
        for j in range(n + 1)
    ]
    return [(mixed_A(n, r, k), Polynomial(coeffs))]


@pytest.mark.parametrize(
    "identity, a_number, rs",
    [
        ("THM2", bernoulli_a, RS),
        ("EQ32", narumi_a, RS),
        # (34) sums over compositions into r parts: r >= 0 only
        ("EQ34", composition_a, [r for r in RS if r >= 0]),
    ],
)
def test_thm2_family_matches_the_coefficient_formula(identity, a_number, rs):
    evaluator = idn._DEFS[identity].pairs
    cached = lru_cache(maxsize=None)(a_number)
    for n, r, k in product(NS, rs, KS):
        p = {"n": n, "r": r, "k": k}
        assert evaluator(p) == thm2_reference(n, r, k, cached), (identity, p)


# -- Theorem 5 and its variant ---------------------------------------------


def thm5_reference(n, m, r, k, printed):
    lhs = sum(comb(n, l) * stirling1(n - l, m) * A_at(l, r, k, 0) for l in range(n - m + 1))
    rhs = F(0)
    for a in range(n - m):
        weight = sum(
            F((-1) ** (l - a + 1) * factorial(l - a) * comb(n - 1, l) * comb(l, a)
              * stirling1(n - 1 - l, m), l - a + 2)
            for l in range(a, n - m)
        )
        rhs += r * weight * A_at(a, r + 1, k, 1)
    for l in range(n - m):
        rhs += r * comb(n - 1, l) * stirling1(n - l - 1, m) * A_at(l, r, k, 1)
    for l in range(n - m + 1):
        last = comb(n - 1, l) * stirling1(n - l - 1, m - 1)
        if printed:
            rhs += last * A_at(l, r, k, 1)
        else:
            rhs += last * (F(1, m) * A_at(l, r, k - 1, 1) + (1 - F(1, m)) * A_at(l, r, k, 1))
    return [(Polynomial.constant(lhs), Polynomial.constant(rhs))]


@pytest.mark.parametrize("identity, printed", [("THM5", True), ("THM5_VARIANT", False)])
def test_thm5_matches_the_termwise_formula(identity, printed):
    evaluator = idn._DEFS[identity].pairs
    checked = 0
    for n, r, k in product(NS, RS, KS):
        for m in range(1, n):  # every m of the domain n-1 >= m >= 1
            p = {"n": n, "m": m, "r": r, "k": k}
            assert evaluator(p) == thm5_reference(n, m, r, k, printed), (identity, p)
            checked += 1
    assert checked == 28 * len(RS) * len(KS)
