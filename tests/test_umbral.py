from fractions import Fraction as F
from itertools import product
from math import comb, factorial

import pytest

from polycauchy.algebra import Polynomial, poly_shift, rising_factorial
from polycauchy.series import (
    Series,
    SeriesError,
    div,
    exp_t,
    int_pow,
    log_one_plus_t,
    mul,
)
from polycauchy.families import mixed_A, poly_cauchy, stirling1, stirling2
from polycauchy import families
from polycauchy import umbral as um

X = Polynomial.x()

PAIRS = {
    "identity": lambda: um.identity_pair(10),
    "bernoulli": lambda: um.bernoulli_pair(10),
    "mixed(1,1)": lambda: um.mixed_pair(1, 1, 10),
    "mixed(2,-1)": lambda: um.mixed_pair(2, -1, 10),
    "mixed(0,2)": lambda: um.mixed_pair(0, 2, 10),
}


# -- functional ------------------------------------------------------------


def test_functional_monomial_pairing():
    for k in range(5):
        tk = Series([F(0)] * k + [F(1)] + [F(0)] * (6 - k))
        for n in range(5):
            assert um.functional(tk, Polynomial.monomial(n)) == (
                factorial(n) if n == k else 0
            )


def test_functional_evaluation():
    y = F(5, 7)
    ey = Series(y ** i / factorial(i) for i in range(9))
    for n in range(8):
        assert um.functional(ey, Polynomial.monomial(n)) == y ** n


def test_functional_log():
    assert um.functional(log_one_plus_t(4), X * X) == -1


def test_functional_truncation_guard():
    with pytest.raises(SeriesError):
        um.functional(Series.t(2), Polynomial.monomial(5))


# -- operator action -------------------------------------------------------


def test_apply_shift_operator():
    p = Polynomial((F(1, 3), -1, 1))
    assert um.apply_series(exp_t(6), p) == poly_shift(p, 1)


def test_apply_derivative():
    assert um.apply_series(Series.t(4), X ** 3) == 3 * X * X


def test_apply_backward_difference():
    op = um.backward_delta(6)
    assert um.apply_series(op, X * X) == Polynomial((1, -2))


# -- sheffer construction --------------------------------------------------


def test_identity_pair_gives_monomials():
    pair = um.identity_pair(8)
    for n in range(9):
        assert um.sheffer_by_gf(pair, n) == Polynomial.monomial(n)
        assert um.sheffer_by_conjugate(pair, n) == Polynomial.monomial(n)


def test_bernoulli_pair_b2():
    pair = um.bernoulli_pair(6)
    assert um.sheffer_by_gf(pair, 2) == Polynomial((F(1, 6), -1, 1))


def test_mixed_pair_matches_oracle():
    pair = um.mixed_pair(1, 1, 8)
    assert um.sheffer_by_gf(pair, 2) == mixed_A(2, 1, 1)


def test_route_equivalence():
    for make in PAIRS.values():
        pair = make()
        for n in range(11):
            assert um.sheffer_by_gf(pair, n) == um.sheffer_by_conjugate(pair, n)


def test_conjugate_matches_families():
    for k in (-1, 0, 1, 2):
        pair = um.mixed_pair(0, k, 10)
        for n in range(9):
            assert um.sheffer_by_conjugate(pair, n) == poly_cauchy(n, k)
    pair = um.mixed_pair(2, 2, 10)
    for n in range(9):
        assert um.sheffer_by_conjugate(pair, n) == mixed_A(n, 2, 2)


def test_mixed_pairs_share_the_delta_series_data():
    # every mixed pair has f = e^{-t}-1, so a 4x4 block of pairs of one
    # order builds fbar and the associated sequence of f once
    families._memo.clear()
    params = [(r, k) for r in range(4) for k in range(-1, 3)]
    pairs = [um.mixed_pair(r, k, 10) for r, k in params]
    for pair in pairs:
        um.sheffer_by_gf(pair, 10)
    assert sum(key[0] is um._delta_data.__wrapped__ for key in families._memo) == 1
    for (r, k), pair in zip(params, pairs):
        for n in range(11):
            got = um.sheffer_by_gf(pair, n)
            assert got == um.sheffer_by_conjugate(pair, n) == mixed_A(n, r, k), (r, k, n)


# -- defining properties ---------------------------------------------------


def test_lowering_property():
    for make in PAIRS.values():
        pair = make()
        seq = um.sheffer_sequence(pair, 10)
        for n in range(1, 11):
            assert um.apply_series(pair.f, seq[n]) == n * seq[n - 1]


def test_biorthogonality():
    for make in PAIRS.values():
        pair = make()
        seq = um.sheffer_sequence(pair, 8)
        for n in range(9):
            for k in range(9):
                val = um.functional(mul(pair.g, int_pow(pair.f, k)), seq[n])
                assert val == (factorial(n) if n == k else 0)


def test_binomial_identity():
    # S_n(x+y) = sum_j binom(n,j) S_j(x) p_{n-j}(y) with p_n = g(t) S_n
    for make in PAIRS.values():
        pair = make()
        seq = um.sheffer_sequence(pair, 8)
        assoc = [um.apply_series(pair.g, s) for s in seq]
        for n in range(9):
            for y in (F(i) for i in range(-2, n - 1)):
                lhs = poly_shift(seq[n], y)
                rhs = Polynomial()
                for j in range(n + 1):
                    rhs = rhs + comb(n, j) * assoc[n - j].evaluate(y) * seq[j]
                assert lhs == rhs


def test_recurrence_builds_sequence():
    for make in PAIRS.values():
        pair = make()
        seq = um.sheffer_sequence(pair, 8)
        for n in range(8):
            assert um.sheffer_next(pair, seq[n], n) == seq[n + 1]


def test_derivative_formula():
    for make in PAIRS.values():
        pair = make()
        seq = um.sheffer_sequence(pair, 8)
        for n in range(9):
            got = um.sheffer_derivative(pair, n, seq[:n])
            assert got == seq[n].derivative()


def test_derivative_formula_mixed_specialization():
    # d/dx A_n = (-1)^{n+1} n! sum_l (-1)^{l+1} A_l / ((n-l) l!)
    n, r, k = 3, 1, 1
    lhs = mixed_A(n, r, k).derivative()
    rhs = Polynomial()
    for l in range(n):
        w = F((-1) ** (n + 1) * factorial(n)) * F((-1) ** (l + 1), (n - l) * factorial(l))
        rhs = rhs + w * mixed_A(l, r, k)
    assert lhs == rhs


# -- connection constants --------------------------------------------------


def test_connection_self_is_identity():
    pair = um.mixed_pair(1, 1, 8)
    rows = um.connection_constants(pair, pair, 5)
    for i in range(6):
        for m in range(6):
            assert rows[i][m] == (1 if i == m else 0)


def test_connection_monomials_to_falling_is_stirling2():
    src = um.identity_pair(8)
    dst = um.ShefferPair(Series.one(8), exp_t(8) - 1)  # falling factorials
    rows = um.connection_constants(src, dst, 6)
    for n in range(7):
        for m in range(n + 1):
            assert rows[n][m] == stirling2(n, m)
    assert rows[2] == [F(0), F(1), F(1), F(0), F(0), F(0), F(0)]


def test_connection_mixed_to_rising_matches_A_numbers():
    src = um.mixed_pair(1, 1, 8)
    dst = um.ShefferPair(Series.one(8), um.backward_delta(8))  # (-1)^m x^(m)
    rows = um.connection_constants(src, dst, 4)
    for n in range(5):
        for m in range(n + 1):
            # coefficient in the x^(m) basis is (-1)^m C[n][m]
            expect = F((-1) ** m) * comb(n, m) * mixed_A(n - m, 1, 1).evaluate(0)
            assert F((-1) ** m) * rows[n][m] == expect


def test_connection_matrices_invert():
    a = um.mixed_pair(1, 1, 8)
    b = um.bernoulli_pair(8)
    fwd = um.connection_constants(a, b, 5)
    back = um.connection_constants(b, a, 5)
    for i in range(6):
        for j in range(6):
            acc = sum(fwd[i][m] * back[m][j] for m in range(6))
            assert acc == (1 if i == j else 0)


def test_connection_mixed_to_higher_bernoulli_is_theorem6():
    # Theorem 6's coefficient of B_m^{(s)}(x) in A_n^{(r,k)}(x) is
    # c_{n,m} = sum_l C(n,l) A_l^{(r+s,k)}(s) (-1)^m s(n-l,m); B_m^{(s)} is
    # the Sheffer sequence of (((e^t-1)/t)^s, t), and this route shares no
    # code with the Sheffer-row kernel
    order = 6
    checked = 0
    for r, k, s in product((-1, 0, 2), (-1, 0, 2), (0, 1, 3)):
        src = um.mixed_pair(r, k, order)
        ratio = div(exp_t(order + 1) - 1, Series.t(order + 1))
        dst = um.ShefferPair(int_pow(ratio, s), Series.t(order))
        rows = um.connection_constants(src, dst, order)
        values = [mixed_A(l, r + s, k).evaluate(s) for l in range(order + 1)]
        for n in range(order + 1):
            for m in range(n + 1):
                want = sum(
                    comb(n, l) * values[l] * (-1) ** m * stirling1(n - l, m)
                    for l in range(n - m + 1)
                )
                assert rows[n][m] == want, (r, k, s, n, m)
                checked += 1
    assert checked == 756


def test_connection_mixed_to_frobenius_euler_is_theorem7():
    # Theorem 7's coefficient of H_m^{(s)}(x|lam) in A_n^{(r,k)}(x) is
    # c_{n,m} = sum_l C(n,l) inner_l (-1)^m s(n-l,m), with inner_l =
    # (1-lam)^(-s) sum_a (-lam)^a C(s,a) A_l^{(r,k)}(s-a); H_m^{(s)}(x|lam)
    # is the Sheffer sequence of (((e^t-lam)/(1-lam))^s, t)
    order = 6
    checked = 0
    for r, k in product((-1, 0, 2), (-1, 0, 2)):
        src = um.mixed_pair(r, k, order)
        rows_A = [mixed_A(l, r, k) for l in range(order + 1)]
        for s, lam in product((0, 1, 3), (F(2), F(-1), F(1, 2))):
            base = (exp_t(order) - lam) * (1 / (1 - lam))
            dst = um.ShefferPair(int_pow(base, s), Series.t(order))
            rows = um.connection_constants(src, dst, order)
            inner = [
                sum((-lam) ** a * comb(s, a) * A.evaluate(s - a) for a in range(s + 1))
                / (1 - lam) ** s
                for A in rows_A
            ]
            for n in range(order + 1):
                for m in range(n + 1):
                    want = sum(
                        comb(n, l) * inner[l] * (-1) ** m * stirling1(n - l, m)
                        for l in range(n - m + 1)
                    )
                    assert rows[n][m] == want, (r, k, s, lam, n, m)
                    checked += 1
    assert checked == 2268


def test_connection_mixed_to_rising_is_theorem8():
    # Theorem 8's coefficient of the rising factorial x(x+1)...(x+m-1) in
    # A_n^{(r,k)}(x) is c_{n,m} = (-1)^m C(n,m) A_{n-m}^{(r,k)}(0); the rising
    # factorials are the Sheffer sequence of (1, 1-e^{-t})
    order = 6
    dst = um.ShefferPair(Series.one(order), Series.one(order) - um.exp_minus_t(order))
    checked = 0
    for r, k in product(range(-2, 4), range(-2, 4)):
        rows = um.connection_constants(um.mixed_pair(r, k, order), dst, order)
        for n in range(order + 1):
            for m in range(n + 1):
                want = (-1) ** m * comb(n, m) * mixed_A(n - m, r, k).evaluate(0)
                assert rows[n][m] == want, (r, k, n, m)
                checked += 1
    assert checked == 1008


def test_connection_triangular_with_unit_diagonal_scale():
    a = um.mixed_pair(2, -1, 8)
    b = um.bernoulli_pair(8)
    rows = um.connection_constants(a, b, 5)
    for i in range(6):
        assert rows[i][i] != 0
        for m in range(i + 1, 6):
            assert rows[i][m] == 0


# -- transfer formula ------------------------------------------------------


def test_transfer_identity():
    f = Series.t(10)
    for n in range(6):
        assert um.transfer(f, f, n) == Polynomial.monomial(n)


def test_transfer_to_backward_delta_gives_rising():
    for n in range(11):
        got = um.transfer(Series.t(12), um.backward_delta(12), n)
        assert got == F((-1) ** n) * rising_factorial(n)


def test_transfer_requires_delta_series():
    with pytest.raises(SeriesError):
        um.transfer(Series.one(6), Series.t(6), 2)


# -- pair validation -------------------------------------------------------


def test_pair_validation():
    with pytest.raises(SeriesError):
        um.ShefferPair(Series.t(6), Series.t(6))  # g not invertible
    with pytest.raises(SeriesError):
        um.ShefferPair(Series.one(6), Series.one(6))  # f not delta


def test_pair_is_an_immutable_value():
    pair = um.ShefferPair(g=Series.one(6), f=um.backward_delta(6))
    same = um.ShefferPair(Series.one(6), um.backward_delta(6))
    assert pair == same and hash(pair) == hash(same)
    assert pair != um.ShefferPair(Series.one(6), Series.t(6))
    assert {pair: 1}[same] == 1
    with pytest.raises(AttributeError):
        pair.g = Series.t(6)
    with pytest.raises(SeriesError, match="truncation order"):
        um.ShefferPair(Series.one(5), Series.t(6))
