"""The evaluators of Theorems 1 to 8 (with (32), (34), (35), (52) and the
Theorem 4 and 5 variants) sum their right sides in a re-associated order,
as integer rows over values memoized across points, and read each point's
sides as row n of a table built once per parameter slab.  Each must still
give the pair of the paper's formula, written out here per point in plain
Fraction arithmetic as the reference; a table's sides, integer rows over
one denominator, are compared as reduced Polynomials through `pairs`.
The report hashes cannot show this: a rewrite that changed a right side
and the left side alike would keep every verdict."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from functools import lru_cache
from itertools import product
from math import comb, factorial, lcm

import pytest

from polycauchy import families
from polycauchy import identities as idn
from polycauchy import umbral as um
from polycauchy.identities import GridSpec
from polycauchy.algebra import Polynomial, poly_shift
from polycauchy.families import (
    bernoulli2,
    bernoulli_poly,
    frobenius_euler,
    higher_cauchy,
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


def pairs(sides) -> list:
    """An evaluator's pairs with each side a reduced Polynomial."""
    return [tuple(side if isinstance(side, Polynomial) else Polynomial._of(list(side[0]), side[1])
                  for side in pair) for pair in sides]


def table_pairs(identity):
    """p -> point p's pair of sides, ((a, da), (b, db)), from row n of its
    slab's table, which rows gives side by side."""
    rows = idn._DEFS[identity].rows
    return lambda p: [(row[:2], row[2:]) for row in zip(*rows(p, [p["n"]]))]


def agreed_on_images(decided, identity, p, ns=SLAB_NS) -> bool:
    """Whether the Sheffer-sum table of slab p, deciding on whole-row
    images (`written_out`'s decided), answers `_AGREED` at every n in ns
    without the coefficient route: the image route agrees where the
    written-out rows match the formula."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(idn, "_coefficient_rows", lambda *args: pytest.fail("left to the coefficients"))
        return decided(identity, p, list(ns)) == [idn._AGREED] * len(ns)


@lru_cache(maxsize=None)
def A_at(n, r, k, c):
    return mixed_A(n, r, k).evaluate(c)


# -- Theorem 1 --------------------------------------------------------------


def thm1_reference(n, r, k, first=1):
    """[x^j] = (-1)^j sum_{m=j}^n s(n,m) sum_l C(m,l) C(m-l,j) (l+1)^(-k)
    S(m-l-j+r, r) / C(m-l-j+r, r); `first` stands for (0+1)^(-k) = 1."""
    coeffs = []
    for j in range(n + 1):
        total = F(0)
        for m in range(j, n + 1):
            inner = F(0)
            for l in range(m - j + 1):
                q = m - l - j
                inner += (
                    comb(m, l) * comb(m - l, j) * (F(l + 1) ** -k if l else first)
                    * stirling2(q + r, r) / comb(q + r, r)
                )
            total += stirling1(n, m) * inner
        coeffs.append((-1) ** j * total)
    return [(mixed_A(n, r, k), Polynomial(coeffs))]


@pytest.mark.parametrize("r", [r for r in RS if r >= 0])
def test_thm1_matches_the_coefficient_formula(r, written_out):
    for n, k in product(NS, KS):
        p = {"n": n, "r": r, "k": k}
        assert pairs(table_pairs("THM1")(p)) == thm1_reference(n, r, k), p
    for k in KS:
        assert agreed_on_images(written_out, "THM1", {"r": r, "k": k}), (r, k)


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
def test_thm2_family_matches_the_coefficient_formula(identity, a_number, rs, written_out):
    evaluator = table_pairs(identity)
    cached = lru_cache(maxsize=None)(a_number)
    for r, k, n in product(rs, KS, SLAB_NS):
        p = {"n": n, "r": r, "k": k}
        assert pairs(evaluator(p)) == thm2_reference(n, r, k, cached), (identity, p)
    for r, k in product(rs, KS):
        assert agreed_on_images(written_out, identity, {"r": r, "k": k}), (identity, r, k)


@pytest.mark.parametrize("r", [20, 40])
def test_composition_a_is_the_higher_order_cauchy_number(r):
    # the sum is a! [t^a] (t/log(1+t))^r; r parts are far past what
    # enumerating the compositions can reach
    values, den = idn._composition_values(8, r)
    for a in range(9):
        assert F(values[a], den) == higher_cauchy(a, r), (a, r)


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
    evaluator = table_pairs(identity)
    checked = 0
    for n, r, k in product(NS, RS, KS):
        for m in range(1, n):  # every m of the domain n-1 >= m >= 1
            p = {"n": n, "m": m, "r": r, "k": k}
            assert pairs(evaluator(p)) == thm5_reference(n, m, r, k, printed), (identity, p)
            checked += 1
    assert checked == 28 * len(RS) * len(KS)


@pytest.mark.parametrize("identity, printed", [("THM5", True), ("THM5_VARIANT", False)])
def test_thm5_slab_values_past_the_first_order(identity, printed):
    # a cold memo, so that the value vectors are built at order 8 and
    # regrown for n past it
    families._memo.clear()
    evaluator = table_pairs(identity)
    for n, r, k in product(SLAB_NS, RS, KS):
        for m in range(1, n):
            p = {"n": n, "m": m, "r": r, "k": k}
            assert pairs(evaluator(p)) == thm5_reference(n, m, r, k, printed), (identity, p)


def test_slab_vectors_match_the_family_rows():
    families._memo.clear()
    for r, k in product(RS, KS):
        rows, cols, den = idn._slab(idn._A_rows, 12, r, k)
        assert type(rows) is tuple and type(cols) is tuple
        for l in SLAB_NS:
            assert type(rows[l]) is tuple and type(cols[l]) is tuple
            assert Polynomial([F(c, den) for c in rows[l]]) == mixed_A(l, r, k), (l, r, k)
            assert [col[l] for col in cols[: l + 1]] == list(rows[l])
            assert not any(col[l] for col in cols[l + 1:])
        for c in (0, 1, 3):
            values, vden = idn._slab(idn._A_values, 12, r, k, c)
            assert type(values) is tuple
            assert [F(v, vden) for v in values[:13]] == [
                mixed_A(l, r, k).evaluate(c) for l in SLAB_NS
            ], (r, k, c)


# -- (35), (52), Theorems 3 and 4: shifts of A's rows -------------------------


def affine(cs, a, b):
    """Coefficients of p(a x + b) for p with the coefficients cs, a and b
    integers."""
    out = [F(0)] * len(cs)
    for j, c in enumerate(cs):
        for i in range(j + 1):
            out[i] += c * (comb(j, i) * a ** i * b ** (j - i))
    return out


@lru_cache(maxsize=None)
def reflected(j, alpha, b):
    """Coefficients of B_j^{(alpha)}(-x + b)."""
    return affine(bernoulli_poly(j, alpha).coeffs, -1, b)


def combination(terms):
    """The polynomial sum of w * cs over the (w, cs) pairs."""
    out = [F(0)] * max((len(cs) for _, cs in terms), default=0)
    for w, cs in terms:
        if not w:
            continue
        for i, c in enumerate(cs):
            out[i] += w * c
    return Polynomial(out)


def rising(y, m):
    out = 1
    for i in range(m):
        out *= y + i
    return out


def eq35_reference(n, r, k):
    """A_n(x + y) = sum_j (-1)^(n-j) C(n, j) <y>_{n-j} A_j(x), y = -2..n-2;
    the left side is the shift that the test below checks the integer
    shift against."""
    return [
        (
            poly_shift(mixed_A(n, r, k), y),
            combination([
                ((-1) ** (n - j) * comb(n, j) * rising(y, n - j), mixed_A(j, r, k).coeffs)
                for j in range(n + 1)
            ]),
        )
        for y in range(-2, n - 1)
    ]


def eq35_pairs(p):
    """(35)'s pairs at y = -2..n-2, specialized from the two sides in x and
    y that the evaluator compares as integers; when they agree, its one
    pair is 0 = 0."""
    lhs, rhs, den = idn._eq35_sides(p["n"], p["r"], p["k"])
    assert lhs == rhs and list(zip(*idn._DEFS["EQ35"].rows(p, [p["n"]]))) == [idn._AGREED], p
    return idn._eq35_at(p["n"], lhs, rhs, den)


def eq52_reference(n, r, k):
    """A_n'(x) = sum_{l<n} (-1)^(n+l) n! / ((n-l) l!) A_l(x)."""
    a_n = mixed_A(n, r, k).coeffs
    return [(
        Polynomial([i * c for i, c in enumerate(a_n)][1:]),
        combination([
            (F((-1) ** (n + l) * factorial(n), (n - l) * factorial(l)), mixed_A(l, r, k).coeffs)
            for l in range(n)
        ]),
    )]


@lru_cache(maxsize=None)
def thm3_weights(n, k):
    """The weights of B_j^{(1-r)}(-x) (over r) and of B_j^{(-r)}(-x-1) in
    Theorem 3, each summed term by term from the paper's sums."""
    mid, last = [F(0)] * (n + 1), [F(0)] * (n + 1)
    for m in range(n + 1):
        for l in range(m + 1):
            for a in range(m - l + 1):
                mid[m - l - a] += (
                    (-1) ** a * comb(m, l) * comb(m - l, a) * stirling1(n, m)
                    * F(l + 1) ** -k / ((a + 2) * (a + 1))
                )
        for j in range(m + 1):
            last[j] += stirling1(n, m) * comb(m, j) * F(m - j + 2) ** -k
    return mid, last


def thm3_reference(n, r, k):
    """A_{n+1}(x) = -x A_n(x+1)
    + r sum_m s(n,m) sum_l sum_a (-1)^a C(m,l) C(m-l,a) (l+1)^(-k)
      / ((a+2)(a+1)) B_{m-l-a}^{(1-r)}(-x)
    + sum_m s(n,m) sum_j C(m,j) (m-j+2)^(-k) B_j^{(-r)}(-x-1)."""
    mid, last = thm3_weights(n, k)
    terms = [(-1, [F(0)] + affine(mixed_A(n, r, k).coeffs, 1, 1))]
    terms += [(r * w, reflected(j, 1 - r, 0)) for j, w in enumerate(mid)]
    terms += [(w, reflected(j, -r, -1)) for j, w in enumerate(last)]
    return [(mixed_A(n + 1, r, k), combination(terms))]


def thm4_reference(n, r, k, printed):
    """A_n(x) = -x A_{n-1}(x+1)
    + r sum_l sum_a (-1)^(n-a) (n-1-l)! (l-a)! C(n-1,l) C(l,a) / (l-a+2)
      A_a^{(r+1,k)}(x)   (A_n^{(r+1,k)}(x) for every a in the printed reading)
    + r sum_l (-1)^(n-l-1) (n-l-1)! C(n-1,l) A_l(x)
    + (A_n^{(r+1,k-1)}(x+1) - A_n^{(r+1,k)}(x+1)) / n."""
    terms = [(-1, [F(0)] + affine(mixed_A(n - 1, r, k).coeffs, 1, 1))]
    for l in range(n):
        for a in range(l + 1):
            w = F(
                r * (-1) ** (n - a) * factorial(n - 1 - l) * factorial(l - a)
                * comb(n - 1, l) * comb(l, a),
                l - a + 2,
            )
            terms.append((w, mixed_A(n if printed else a, r + 1, k).coeffs))
        w = r * (-1) ** (n - l - 1) * factorial(n - l - 1) * comb(n - 1, l)
        terms.append((w, mixed_A(l, r, k).coeffs))
    terms.append((F(1, n), affine(mixed_A(n, r + 1, k - 1).coeffs, 1, 1)))
    terms.append((F(-1, n), affine(mixed_A(n, r + 1, k).coeffs, 1, 1)))
    return [(mixed_A(n, r, k), combination(terms))]


SHIFT_REFERENCES = {
    "EQ35": eq35_reference,
    "EQ52": eq52_reference,
    "THM3": thm3_reference,
    "THM4": lambda n, r, k: thm4_reference(n, r, k, printed=True),
    "THM4_VARIANT": lambda n, r, k: thm4_reference(n, r, k, printed=False),
}


@pytest.mark.parametrize("identity", list(SHIFT_REFERENCES))
def test_shifted_rows_match_the_per_point_formula(identity):
    # a cold memo, so that A's rows are built at order 8 and regrown for n
    # past it
    families._memo.clear()
    evaluator = eq35_pairs if identity == "EQ35" else table_pairs(identity)
    reference = SHIFT_REFERENCES[identity]
    ns = SLAB_NS[1:] if identity.startswith("THM4") else SLAB_NS  # Theorem 4: n >= 1
    for n, r, k in product(ns, RS, KS):
        p = {"n": n, "r": r, "k": k}
        assert pairs(evaluator(p)) == reference(n, r, k), (identity, p)


def test_thm4_weights_match_the_double_sum():
    # the closed forms against Theorem 4's sums as the paper writes them,
    # over lcm(2..n+1)
    for n in range(60):
        dden = lcm(*range(2, n + 2))
        dbl = [
            sum(
                (-1) ** (n - a) * factorial(n - 1 - l) * factorial(l - a)
                * comb(n - 1, l) * comb(l, a) * (dden // (l - a + 2))
                for l in range(a, n)
            )
            for a in range(n)
        ]
        single = [(-1) ** (n - l - 1) * factorial(n - l - 1) * comb(n - 1, l) for l in range(n)]
        assert idn._thm4_weights(n) == (dbl, dden, single), n


def test_thm5_weights_match_the_double_sum():
    # the double sum over l and a as the paper writes it, over
    # lcm(2..n-m+1), against the coefficients of one series per m
    families._memo.clear()
    for n in range(2, 13):
        s1 = families.stirling_triangle(1, n)
        for m in range(1, n):
            dden = lcm(*range(2, n - m + 2))
            double = [
                sum(
                    (-1) ** (l - a + 1) * factorial(l - a) * comb(n - 1, l) * comb(l, a)
                    * s1[n - 1 - l][m] * (dden // (l - a + 2))
                    for l in range(a, n - m)
                )
                for a in range(n - m)
            ]
            assert idn._thm5_weights(n, m)[1:3] == (double, dden), (n, m)


def test_thm3_weights_match_the_cubic_sum():
    # the middle sum over m, l and a as the paper writes it, each term an
    # integer over eden, against its binomial convolution
    for n, k in product(NS, KS):
        s1 = families.stirling_triangle(1, n)[n]
        w, d = families._lif_weights(n + 1, k)
        eden = lcm(*((a + 2) * (a + 1) for a in range(n + 1)))
        e = [eden // ((a + 2) * (a + 1)) for a in range(n + 1)]
        mid = [
            sum(
                (-1) ** (m - l - j) * comb(m, l) * comb(m - l, j) * s1[m] * w[l] * e[m - l - j]
                for m in range(j, n + 1) for l in range(m - j + 1)
            )
            for j in range(n + 1)
        ]
        assert idn._thm3_weights(n, k)[0] == mid, (n, k)


def test_thm1_table_matches_the_cubic_sum(written_out):
    # R_m's coefficients as the sum over l of C(m,l) C(m-l,j) w_l b_(m-l-j),
    # summed over s(n, m), against the Sheffer sum over (-x)_j of the
    # Stirling transform of u, their binomial convolution
    for order, r, k in product(NS, range(4), KS):
        w, d = families._lif_weights(order, k)
        s2 = families.stirling_triangle(2, order + r)
        combs = [comb(q + r, r) for q in range(order + 1)]
        qden = lcm(*combs)
        b = [s2[q + r][r] * (qden // c) for q, c in enumerate(combs)]
        R = [
            [(-1) ** j * sum(comb(m, l) * comb(m - l, j) * w[l] * b[m - l - j] for l in range(m - j + 1))
             for j in range(m + 1)]
            for m in range(order + 1)
        ]
        s1 = families.stirling_triangle(1, order)
        table = tuple(
            (tuple(sum(s1[n][m] * R[m][j] for m in range(j, n + 1)) for j in range(n + 1)), d * qden)
            for n in range(order + 1)
        )
        got = tuple((tuple(b), db) for _, _, b, db in idn._thm1_table(order, r, k))
        assert got == table, (order, r, k)


def test_rows_at_a_shift_from_the_values_there_match_poly_shift():
    # a cold memo read at 8, 12 and 20: each sequence is built at 8 and
    # regrown at 16 and at 32 (A at x + 1: `test_every_sheffer_sum_source_is_one_shape`)
    families._memo.clear()
    for order in (8, 12, 20):
        for alpha, b in product(range(-3, 4), (0, -1)):
            cols, den = idn._slab(idn._reflected_bernoulli, order, alpha, b)
            for j in range(order + 1):
                got = Polynomial._of([col[j] for col in cols], den)
                assert got == bernoulli_poly(j, alpha).compose_affine(-1, b), (order, j, alpha, b)
        for r in range(-3, 4):
            table = idn._slab(idn._narumi_bernoulli_table, order, r)
            for n in range(order + 1):
                got = Polynomial._of(list(table[n][2]), table[n][3])
                assert got == bernoulli_poly(n, n + r + 1).shift(1), (order, n, r)


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


def test_thm8_rows_match_the_per_point_formula(written_out):
    for r, k, n in product(RS, KS, SLAB_NS):
        p = {"n": n, "r": r, "k": k}
        assert pairs(table_pairs("THM8")(p)) == thm8_reference(n, r, k), p
    for r, k in product(RS, KS):
        assert agreed_on_images(written_out, "THM8", {"r": r, "k": k}), (r, k)


@pytest.mark.parametrize("s", range(4))
def test_thm6_rows_match_the_per_point_formula(s, written_out):
    for r, k, n in product(RS, KS, SLAB_NS):
        p = {"n": n, "r": r, "k": k, "s": s}
        assert pairs(table_pairs("THM6")(p)) == thm6_reference(n, r, k, s), p
    for r, k in product(RS, KS):
        assert agreed_on_images(written_out, "THM6", {"r": r, "k": k, "s": s}), (r, k)


@pytest.mark.parametrize("s", range(4))
def test_thm7_rows_match_the_per_point_formula(s, written_out):
    for lam, r, k, n in product(LAMBDAS, RS, KS, SLAB_NS):
        p = {"n": n, "r": r, "k": k, "s": s, "lam": lam}
        assert pairs(table_pairs("THM7")(p)) == thm7_reference(n, r, k, s, lam), p
    for lam, r, k in product(LAMBDAS, RS, KS):
        p = {"r": r, "k": k, "s": s, "lam": lam}
        assert agreed_on_images(written_out, "THM7", p), p


def test_a_slab_table_is_regrown_whole(written_out):
    key = (idn._thm7_table, 2, -1, 3, -1, 3)
    p = {"n": 3, "r": 2, "k": -1, "s": 3, "lam": F(-1, 3)}
    assert pairs(table_pairs("THM7")(p)) == thm7_reference(3, 2, -1, 3, F(-1, 3))
    assert families._memo[key][0] == 8
    p["n"] = 12
    assert pairs(table_pairs("THM7")(p)) == thm7_reference(12, 2, -1, 3, F(-1, 3))
    order, rows = families._memo[key]
    assert order == 16 and len(rows) == 17 and type(rows) is tuple
    # the image table of the same slab, at n = 3 and then regrown to 12
    assert agreed_on_images(written_out, "THM7", p, [3])
    assert agreed_on_images(written_out, "THM7", p, range(13))


@pytest.mark.parametrize("order", [8, 20])
def test_every_sheffer_sum_source_is_one_shape(order):
    # every row set a Sheffer-sum table reads is `_sheffer_source`'s
    # (rows, columns, den), read from a cold memo at 8 and regrown at 20
    if order == 8:
        families._memo.clear()
    r, k, half = 1, -1, F(1, 2)
    sources = [
        (idn._slab(idn._A_rows, order, r, k), lambda n: mixed_A(n, r, k)),
        (idn._slab(idn._sheffer_source, order, idn._mixed_at, r, k, 1),
         lambda n: mixed_A(n, r, k).shift(1)),
        (idn._slab(idn._sheffer_source, order, Series.one), falling),
        (idn._slab(idn._sheffer_source, order, idn._stirling_g, families._bernoulli_g, 2),
         lambda n: Polynomial(bernoulli_transform(n, 2))),
        (idn._slab(idn._sheffer_source, order, idn._stirling_g, families._frobenius_g, 1, 1, 2),
         lambda n: Polynomial(frobenius_transform(n, 1, half))),
    ]
    for i, ((rows, cols, den), reference) in enumerate(sources):
        assert len(rows) == len(cols) > order and {len(col) for col in cols} == {len(rows)}, i
        for n, row in enumerate(rows[: order + 1]):
            # rows[n][i] == columns[i][n], the columns zero past degree n
            assert [col[n] for col in cols] == [*row, *[0] * (len(cols) - len(row))], (i, n)
            assert Polynomial._of(list(row), den) == reference(n), (i, n)


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


# -- the fail path -------------------------------------------------------------
#
# The harness compares integer sides by cross-multiplying them and builds
# reduced Polynomials only for a failing point.  Each case below perturbs
# one weight (or one shift) of an evaluator and gives the pairs of the
# perturbed formula from the references above: every report entry must be
# the one built from those Polynomials, "pass" where they agree and the
# first differing pair's "fail" entry where not.


def strings(p):
    return [str(c) for c in p.coeffs] or ["0"]


def expected_entry(shown, pairs):
    for lhs, rhs in pairs:
        if lhs != rhs:
            return {
                "point": shown, "verdict": "fail",
                "lhs": strings(lhs), "rhs": strings(rhs), "diff": strings(lhs - rhs),
            }
    return {"point": shown, "verdict": "pass"}


def patch_result(monkeypatch, name, change):
    """identities.<name>(*args) becomes change(its value, *args); the
    memoized original is never modified."""
    original = getattr(idn, name)
    monkeypatch.setattr(idn, name, lambda *args: change(original(*args), *args))


def first_binomial_value_plus_one(monkeypatch):
    """v_0 + 1 in every Sheffer binomial sum: row n gains P_n(x).  Every
    v_0 there is 1 (A_0 = 1, the a-numbers and the C^{(k)} start at 1, and
    Theorem 1's v_0 is u_0 = S(r, r)), so its numerator is the values'
    denominator and doubling it adds 1."""
    original = idn.sheffer_rows

    def bumped(values, cols, ns):
        return original([2 * values[0], *values[1:]], cols, ns)

    monkeypatch.setattr(idn, "sheffer_rows", bumped)


def eq35_weights_plus_rising(weights, n):
    """(y+1)(y+2) = y^2 + 3y + 2 added to the weight of A_0 for n >= 2:
    zero at y = -2 and -1, so y = 0 is the first point that fails."""
    binomials, w = weights
    if n < 2:
        return weights
    w = [list(wj) for wj in w]
    for j, c in enumerate((2, 3, 1)):
        w[j][0] += c
    return binomials, tuple(tuple(wj) for wj in w)


def eq35_perturbed(n, r, k):
    ref = eq35_reference(n, r, k)
    if n < 2:
        return ref
    return [
        (lhs, rhs + (y + 1) * (y + 2) * mixed_A(0, r, k))
        for y, (lhs, rhs) in zip(range(-2, n - 1), ref)
    ]


def plus(pairs, dl=0, dr=0):
    return [(lhs + dl, rhs + dr) for lhs, rhs in pairs]


def falling(n):
    return Polynomial(falling_coeffs(n))


def shift_one_further(monkeypatch):
    """Every `poly_shift` by c becomes a shift by c - 1."""
    original = idn.poly_shift
    monkeypatch.setattr(idn, "poly_shift", lambda p, c: original(p, c - 1))

FAIL_CASES = {
    "THM1": (
        lambda mp: patch_result(mp, "_lif_weights", lambda wd, order, k: (
            [wd[0][0] + wd[1], *wd[0][1:]], wd[1])),
        lambda p: thm1_reference(p["n"], p["r"], p["k"], first=2),
    ),
    # Theorem 1's right side as the Sheffer sum over (-x)_j of the v_n
    "THM1+v_0": (
        first_binomial_value_plus_one,
        lambda p: plus(thm1_reference(p["n"], p["r"], p["k"]), dr=falling(p["n"])),
    ),
    "THM2": (
        first_binomial_value_plus_one,
        lambda p: plus(thm2_reference(p["n"], p["r"], p["k"], bernoulli_a), dr=falling(p["n"])),
    ),
    "EQ32": (
        first_binomial_value_plus_one,
        lambda p: plus(thm2_reference(p["n"], p["r"], p["k"], narumi_a), dr=falling(p["n"])),
    ),
    "EQ34": (
        first_binomial_value_plus_one,
        lambda p: plus(thm2_reference(p["n"], p["r"], p["k"], composition_a), dr=falling(p["n"])),
    ),
    "EQ35": (
        lambda mp: patch_result(mp, "_eq35_weights", eq35_weights_plus_rising),
        lambda p: eq35_perturbed(p["n"], p["r"], p["k"]),
    ),
    "EQ36": (
        # A_n(x-2) - A_n(x) for A_n(x-1) - A_n(x)
        shift_one_further,
        lambda p: [(
            p["n"] * mixed_A(p["n"] - 1, p["r"], p["k"]),
            poly_shift(mixed_A(p["n"], p["r"], p["k"]), -2) - mixed_A(p["n"], p["r"], p["k"]),
        )],
    ),
    "THM3": (
        # B_0^{(-r)}(-x-1) = 1 gains weight 1
        lambda mp: patch_result(mp, "_thm3_weights", lambda w, n, k: (
            w[0], [w[1][0] + w[2], *w[1][1:]], w[2])),
        lambda p: plus(thm3_reference(p["n"], p["r"], p["k"]), dr=1),
    ),
    "THM4": (
        lambda mp: patch_result(mp, "_thm4_weights", lambda w, n: (w[0], w[1], [w[2][0] + 1, *w[2][1:]])),
        lambda p: plus(thm4_reference(p["n"], p["r"], p["k"], printed=True),
                       dr=p["r"] * mixed_A(0, p["r"], p["k"])),
    ),
    "THM4_VARIANT": (
        lambda mp: patch_result(mp, "_thm4_weights", lambda w, n: (w[0], w[1], [w[2][0] + 1, *w[2][1:]])),
        lambda p: plus(thm4_reference(p["n"], p["r"], p["k"], printed=False),
                       dr=p["r"] * mixed_A(0, p["r"], p["k"])),
    ),
    "THM5": (
        lambda mp: patch_result(mp, "_thm5_weights", lambda w, n, m: ([w[0][0] + 1, *w[0][1:]], *w[1:])),
        lambda p: plus(thm5_reference(p["n"], p["m"], p["r"], p["k"], True),
                       dl=A_at(0, p["r"], p["k"], 0)),
    ),
    "THM5_VARIANT": (
        lambda mp: patch_result(mp, "_thm5_weights", lambda w, n, m: ([w[0][0] + 1, *w[0][1:]], *w[1:])),
        lambda p: plus(thm5_reference(p["n"], p["m"], p["r"], p["k"], False),
                       dl=A_at(0, p["r"], p["k"], 0)),
    ),
    "EQ52": (
        lambda mp: patch_result(mp, "_eq52_weights", lambda w, n: (w[0] + 1, *w[1:]) if n else w),
        lambda p: plus(eq52_reference(p["n"], p["r"], p["k"]),
                       dr=mixed_A(0, p["r"], p["k"]) if p["n"] else 0),
    ),
    "THM6": (
        first_binomial_value_plus_one,
        lambda p: plus(thm6_reference(p["n"], p["r"], p["k"], p["s"]),
                       dr=Polynomial(bernoulli_transform(p["n"], p["s"]))),
    ),
    "THM7": (
        first_binomial_value_plus_one,
        lambda p: plus(thm7_reference(p["n"], p["r"], p["k"], p["s"], p["lam"]),
                       dr=Polynomial(frobenius_transform(p["n"], p["s"], p["lam"]))),
    ),
    "THM8": (
        first_binomial_value_plus_one,
        lambda p: plus(thm8_reference(p["n"], p["r"], p["k"]), dr=falling(p["n"])),
    ),
    "SHEFFER_PAIR_EQ17": (
        lambda mp: patch_result(mp, "sheffer_by_gf", lambda poly, pair, n: poly + Polynomial.x()),
        lambda p: [(mixed_A(p["n"], p["r"], p["k"]), mixed_A(p["n"], p["r"], p["k"]) + Polynomial.x())],
    ),
}


FAIL_GRID = GridSpec(
    n_values=tuple(range(6)), r_values=(0, 1, 2), k_values=(-1, 0, 1), s_values=(0, 2),
    m_values=tuple(range(6)), lambdas=(F(2), F(1, 2)),
)


@pytest.fixture
def cold_memo():
    # slab tables built from a perturbed weight must not outlive the test
    families._memo.clear()
    yield
    families._memo.clear()


@pytest.mark.parametrize("case", list(FAIL_CASES))
def test_fail_entries_match_the_perturbed_reference(case, monkeypatch, cold_memo):
    perturb, reference = FAIL_CASES[case]
    perturb(monkeypatch)
    identity = case.partition("+")[0]
    definition = idn._DEFS[identity]
    report = idn.verify(identity, FAIL_GRID)
    assert report.totals["fail"] > 0, report.totals
    for entry in report.results:
        p = {**entry["point"]}
        if "lam" in p:
            p["lam"] = F(p["lam"])
        if p["n"] < definition.domain({a: v for a, v in p.items() if a != "n"})[0]:
            assert entry["verdict"] == "skipped"
        else:
            assert entry == expected_entry(entry["point"], reference(p)), (identity, p)


def test_eq35_fail_entry_names_the_first_failing_y(monkeypatch, cold_memo):
    FAIL_CASES["EQ35"][0](monkeypatch)
    report = idn.verify("EQ35", FAIL_GRID)
    assert report.totals["fail"] == 4 * 3 * 3  # n = 2..5
    for entry in report.results:
        n, r, k = entry["point"]["n"], entry["point"]["r"], entry["point"]["k"]
        if n < 2:
            assert entry["verdict"] == "pass"
            continue
        # y = -2 and y = -1 pass; the entry is the pair at y = 0
        pairs = eq35_perturbed(n, r, k)
        assert [lhs == rhs for lhs, rhs in pairs[:3]] == [True, True, False]
        assert entry == expected_entry(entry["point"], pairs[2:3])
        assert entry["diff"] == strings(-2 * mixed_A(0, r, k))


def test_fail_strings_are_the_fraction_strings():
    p = Polynomial((F(-3, 4), 5, 0, F(7, 12), F(-1, 6), 1))
    assert idn._poly_strings(p) == ["-3/4", "5", "0", "7/12", "-1/6", "1"]
    assert idn._poly_strings(Polynomial((-2, 0, 3))) == ["-2", "0", "3"]
    assert idn._poly_strings(Polynomial(())) == ["0"]


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
