"""The evaluators of Theorems 1, 2 and 5 to 8 (with (32), (34) and the
Theorem 5 variant) sum their right sides in a re-associated order, over
polynomials and values memoized across points; Theorems 2, 6, 7 and 8 and
(32) and (34) read each right side as row n of a table built once per
parameter slab.  Each must still give the pair of the paper's formula,
written out here per point in plain Fraction arithmetic as the reference.
The report hashes cannot show this: a rewrite that changed a right side
and the left side alike would keep every verdict."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from functools import lru_cache
from itertools import product
from math import comb, factorial

import pytest

from polycauchy import families
from polycauchy import identities as idn
from polycauchy import umbral as um
from polycauchy.algebra import Polynomial
from polycauchy.families import (
    bernoulli2,
    bernoulli_poly,
    frobenius_euler,
    lif_neg_t,
    mixed_A,
    narumi,
    poly_cauchy,
    stirling1,
    stirling2,
)
from polycauchy.series import Series, comp_inverse, compose, div, exp_t, int_pow, mul, reciprocal

NS = range(9)
# past the tables' first order, 8, so that every slab table is regrown
SLAB_NS = range(13)
LAMBDAS = (F(2), F(-1), F(1, 2), F(3), F(-1, 3))
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
    for r, k, n in product(rs, KS, SLAB_NS):
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


# -- Theorems 6, 7 and 8 ----------------------------------------------------


def falling_coeffs(j):
    """(-1)^j <x>_j = (-x)_j, as coefficients: (-1)^i s(j, i)."""
    return [(-1) ** i * stirling1(j, i) for i in range(j + 1)]


def stirling_transform(j, family):
    """sum_m (-1)^m s(j, m) family(m), as coefficients."""
    out = [F(0)] * (j + 1)
    for m in range(j + 1):
        for i, c in enumerate(family(m).coeffs):
            out[i] += (-1) ** m * stirling1(j, m) * c
    return out


def binomial_reference(n, values, coeffs):
    """Coefficients of sum_l C(n, l) values[l] P_{n-l}, P_j given as
    coefficient lists coeffs[j]."""
    out = [F(0)] * (n + 1)
    for l in range(n + 1):
        w = comb(n, l) * values[l]
        for i, c in enumerate(coeffs[n - l]):
            out[i] += w * c
    return Polynomial(out)


@lru_cache(maxsize=None)
def bernoulli_transform(j, s):
    return stirling_transform(j, lambda m: bernoulli_poly(m, s))


@lru_cache(maxsize=None)
def frobenius_transform(j, s, lam):
    return stirling_transform(j, lambda m: frobenius_euler(m, s, lam))


def thm6_reference(n, r, k, s):
    values = [A_at(l, r + s, k, s) for l in range(n + 1)]
    coeffs = [bernoulli_transform(j, s) for j in range(n + 1)]
    return [(mixed_A(n, r, k), binomial_reference(n, values, coeffs))]


@lru_cache(maxsize=None)
def thm7_inner(l, r, k, s, lam):
    """(1 - lam)^(-s) sum_a (-lam)^a C(s, a) A_l(s - a), from A_l's values
    at the points s - a."""
    total = sum((-lam) ** a * comb(s, a) * A_at(l, r, k, s - a) for a in range(s + 1))
    return total / (1 - lam) ** s


def thm7_reference(n, r, k, s, lam):
    values = [thm7_inner(l, r, k, s, lam) for l in range(n + 1)]
    coeffs = [frobenius_transform(j, s, lam) for j in range(n + 1)]
    return [(mixed_A(n, r, k), binomial_reference(n, values, coeffs))]


def thm8_reference(n, r, k):
    values = [A_at(l, r, k, 0) for l in range(n + 1)]
    coeffs = [falling_coeffs(j) for j in range(n + 1)]
    return [(mixed_A(n, r, k), binomial_reference(n, values, coeffs))]


def test_thm8_rows_match_the_per_point_formula():
    for r, k, n in product(RS, KS, SLAB_NS):
        p = {"n": n, "r": r, "k": k}
        assert idn._thm8(p) == thm8_reference(n, r, k), p


@pytest.mark.parametrize("s", range(4))
def test_thm6_rows_match_the_per_point_formula(s):
    for r, k, n in product(RS, KS, SLAB_NS):
        p = {"n": n, "r": r, "k": k, "s": s}
        assert idn._thm6(p) == thm6_reference(n, r, k, s), p


@pytest.mark.parametrize("s", range(4))
def test_thm7_rows_match_the_per_point_formula(s):
    for lam, r, k, n in product(LAMBDAS, RS, KS, SLAB_NS):
        p = {"n": n, "r": r, "k": k, "s": s, "lam": lam}
        assert idn._thm7(p) == thm7_reference(n, r, k, s, lam), p


def test_a_slab_table_is_regrown_whole():
    key = (idn._thm7_table, 2, -1, 3, -1, 3)
    families._memo.pop(key, None)
    p = {"n": 3, "r": 2, "k": -1, "s": 3, "lam": F(-1, 3)}
    assert idn._thm7(p) == thm7_reference(3, 2, -1, 3, F(-1, 3))
    assert families._memo[key][0] == 8
    p["n"] = 12
    assert idn._thm7(p) == thm7_reference(12, 2, -1, 3, F(-1, 3))
    order, rows = families._memo[key]
    assert order == 16 and len(rows) == 17 and type(rows) is tuple


def test_cold_verify_past_the_first_table_order():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-m", "polycauchy.cli", "verify", "thm7",
         "--n-max", "12", "--r", "0..1", "--k", "-1..0", "--s", "0..2"],
        capture_output=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr.decode()
    report = json.loads(out.stdout)
    assert report["totals"] == {"pass": 13 * 2 * 2 * 3 * 3, "fail": 0, "skipped": 0}
    assert all(entry["verdict"] == "pass" for entry in report["results"])


# -- the mixed Sheffer pair ---------------------------------------------------


@pytest.mark.parametrize("order", range(1, 31))
def test_mixed_pair_and_inverse_data_match_the_series_construction(order):
    # t e^t/(e^t-1) by mul and div, and g(fbar) by Horner composition
    t_exp = mul(Series.t(order + 1), exp_t(order + 1))
    u = div(t_exp, exp_t(order + 1) - 1)
    for r, k in ((2, -1), (-1, 2), (3, 0)):
        pair = um.mixed_pair(r, k, order)
        assert pair.g == mul(int_pow(u, r), reciprocal(lif_neg_t(k, order))), (r, k)
        fbar = comp_inverse(pair.f)
        assert um._inverse_data(pair) == (fbar, reciprocal(compose(pair.g, fbar))), (r, k)
