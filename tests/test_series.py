import random
from fractions import Fraction as F
from math import factorial

import pytest

from polycauchy.algebra import Polynomial
from polycauchy.series import (
    Series,
    SeriesError,
    coefficient,
    comp_inverse,
    compose,
    div,
    exp_series,
    exp_t,
    factorial_coefficient,
    int_pow,
    log_one_plus_t,
    log_series,
    mul,
    reciprocal,
)


def rand_series(rng, order=8, unit=False, delta=False):
    cs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
    if unit:
        while cs[0] == 0:
            cs[0] = F(rng.randint(-9, 9), rng.randint(1, 9))
    if delta:
        cs[0] = F(0)
        while cs[1] == 0:
            cs[1] = F(rng.randint(-9, 9), rng.randint(1, 9))
    return Series(cs)


# -- mul -------------------------------------------------------------------


def test_mul_difference_of_squares():
    one_plus = Series([1, 1, 0, 0])
    one_minus = Series([1, -1, 0, 0])
    assert mul(one_plus, one_minus) == Series([1, 0, -1, 0])


def test_mul_truncation():
    t = Series.t(1)
    assert mul(t, t) == Series.zero(1)


def test_mul_collapses_ratio():
    ell = log_one_plus_t(5)
    ratio = div(Series.t(5), ell)  # order 4
    assert mul(ell.truncate(4), ratio) == Series.t(4)


def test_mul_order_mismatch():
    with pytest.raises(SeriesError):
        mul(Series.t(3), Series.t(4))


# -- div -------------------------------------------------------------------


def test_div_cauchy_ratio():
    got = div(Series.t(5), log_one_plus_t(5))
    assert got == Series([1, F(1, 2), F(-1, 12), F(1, 24), F(-19, 720)])
    # n! c_n reproduces the Cauchy numbers, C_4 = -19/30
    assert factorial(4) * got.coeffs[4] == F(-19, 30)


def test_div_self():
    rng = random.Random(5)
    for _ in range(10):
        f = rand_series(rng, 6, unit=True)
        assert div(f, f) == Series.one(6)


def test_div_monomial_cancellation():
    a = Series([0, 0, 1, 1])
    assert div(a, Series.t(3)) == Series([0, 1, 1])


def test_div_valuation_error():
    with pytest.raises(SeriesError):
        div(Series.one(3), Series.t(3))


def test_div_zero_series_error():
    with pytest.raises(SeriesError):
        div(Series.t(3), Series.zero(3))


def test_div_roundtrip_randomized():
    rng = random.Random(6)
    for _ in range(20):
        a = rand_series(rng, 8)
        b = rand_series(rng, 8, unit=True)
        assert mul(div(a, b), b) == a


# -- int_pow ---------------------------------------------------------------


def test_pow_binomial():
    assert int_pow(Series([1, 1, 0, 0]), 2) == Series([1, 2, 1, 0])


def test_pow_ratio_squared():
    ratio = div(Series.t(5), log_one_plus_t(5))
    sq = int_pow(ratio, 2)
    assert sq.coeffs[2] == F(1, 12)
    assert factorial(2) * sq.coeffs[2] == F(1, 6)  # second-order Cauchy number


def test_pow_negative_inverts():
    ratio = div(Series.t(4), log_one_plus_t(4))
    inv_ratio = div(log_one_plus_t(4), Series.t(4))
    assert int_pow(inv_ratio, -1) == ratio


def test_pow_additivity():
    rng = random.Random(11)
    for _ in range(5):
        a = rand_series(rng, 6, unit=True)
        for r in range(-3, 4):
            for s in range(-3, 4):
                assert int_pow(a, r + s) == mul(int_pow(a, r), int_pow(a, s))


def test_pow_negative_non_unit_raises():
    with pytest.raises(SeriesError):
        int_pow(Series.t(4), -1)


def test_pow_squares_only_while_exponent_bits_remain(monkeypatch):
    from polycauchy import series

    a = rand_series(random.Random(5), 6, unit=True)
    powers = [a]  # a^1 .. a^9, one product at a time
    for _ in range(8):
        powers.append(mul(powers[-1], a))
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(series, "mul", counted)
    for r in range(1, 10):
        calls.clear()
        assert int_pow(a, r) == powers[r - 1], r
        # a square per bit after the first, a product per set bit
        assert len(calls) == r.bit_length() - 1 + bin(r).count("1"), r


# -- compose ---------------------------------------------------------------


def test_compose_exp_log():
    got = compose(exp_t(5), log_one_plus_t(5))
    assert got == Series([1, 1, 0, 0, 0, 0])


def test_compose_identity_inner():
    rng = random.Random(13)
    f = rand_series(rng, 6)
    assert compose(f, Series.t(6)) == f


def test_compose_lif1_log_is_cauchy_ratio():
    from polycauchy.families import lif

    got = compose(lif(1, 4), log_one_plus_t(4))
    assert got == Series([1, F(1, 2), F(-1, 12), F(1, 24), F(-19, 720)])


def test_compose_nonzero_constant_raises():
    with pytest.raises(SeriesError):
        compose(exp_t(4), Series.one(4))


# -- comp_inverse ----------------------------------------------------------


def test_comp_inverse_identity():
    assert comp_inverse(Series.t(6)) == Series.t(6)


def test_comp_inverse_exp_minus():
    em = Series([F((-1) ** i, factorial(i)) for i in range(5)]) - 1  # e^{-t} - 1
    assert comp_inverse(em) == Series([0, -1, F(1, 2), F(-1, 3), F(1, 4)])


def test_comp_inverse_roundtrip():
    rng = random.Random(17)
    for _ in range(10):
        f = rand_series(rng, 8, delta=True)
        fbar = comp_inverse(f)
        assert compose(f, fbar) == Series.t(8)
        assert compose(fbar, f) == Series.t(8)


def test_comp_inverse_requires_delta():
    with pytest.raises(SeriesError):
        comp_inverse(Series.one(4))


# -- log / exp -------------------------------------------------------------


def test_log_one_plus_t_series():
    assert log_series(Series.t(4) + 1) == Series([0, 1, F(-1, 2), F(1, 3), F(-1, 4)])


def test_log_of_one():
    assert log_series(Series.one(4)) == Series.zero(4)


def test_log_exp_inverse_pair():
    assert log_series(exp_t(6)) == Series.t(6)
    rng = random.Random(19)
    for _ in range(10):
        f = rand_series(rng, 8)
        f = Series([F(0)] + list(f.coeffs[1:]))
        assert log_series(exp_series(f)) == f
        g = rand_series(rng, 8, unit=False)
        g = Series([F(1)] + list(g.coeffs[1:]))
        assert exp_series(log_series(g)) == g
    assert exp_series(log_one_plus_t(8)) == Series.t(8) + 1


def test_exp_series_basic():
    assert exp_series(Series.t(3)) == Series([1, 1, F(1, 2), F(1, 6)])
    assert exp_series(Series.zero(4)) == Series.one(4)


def test_log_exp_preconditions():
    with pytest.raises(SeriesError):
        log_series(Series.t(4))
    with pytest.raises(SeriesError):
        exp_series(Series.one(4))


# -- coefficient access ----------------------------------------------------


def test_factorial_coefficient_cauchy():
    ratio = div(Series.t(5), log_one_plus_t(5))
    assert factorial_coefficient(ratio, 2) == F(-1, 6)


def test_factorial_coefficient_monomial():
    tk = Series([0, 0, 0, 1, 0])
    for n in range(5):
        assert factorial_coefficient(tk, n) == (factorial(3) if n == 3 else 0)


def test_factorial_coefficient_exp():
    assert factorial_coefficient(exp_t(6), 5) == 1


def test_coefficient_beyond_truncation_raises():
    with pytest.raises(SeriesError):
        coefficient(Series.t(3), 4)
    # a negative index neither wraps around nor raises a bare IndexError
    for n in (-1, -5):
        with pytest.raises(SeriesError):
            coefficient(Series([1, 2, 3]), n)


# -- structural properties -------------------------------------------------


def test_ring_laws_randomized():
    rng = random.Random(23)
    for _ in range(15):
        a, b, c = (rand_series(rng, 8) for _ in range(3))
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, b + c) == mul(a, b) + mul(a, c)


def test_reciprocal_roundtrip():
    rng = random.Random(29)
    for _ in range(10):
        f = rand_series(rng, 8, unit=True)
        assert mul(f, reciprocal(f)) == Series.one(8)


def test_truncate_never_extends():
    with pytest.raises(SeriesError):
        Series.t(3).truncate(4)
    s = Series.t(3)
    assert s.truncate(3) is s


def test_comp_inverse_closed_form_order_40():
    # e^{-t} - 1 and -log(1+t) are inverse to each other
    em = Series([F((-1) ** i, factorial(i)) for i in range(41)]) - 1
    assert comp_inverse(em) == -log_one_plus_t(40)


# -- representation ---------------------------------------------------------


def test_polynomial_coefficients_are_rejected():
    p = Polynomial.x()
    with pytest.raises(TypeError):
        Series([1, p])
    with pytest.raises(TypeError):
        Series.t(2) + p
    with pytest.raises(TypeError):
        p + Series.t(2)
    with pytest.raises(TypeError):
        Series.t(2).scale(p)


def test_coeffs_view_kinds():
    f = Series([1, F(1, 2)])
    assert f.coeffs == (F(1), F(1, 2))
    assert all(isinstance(c, F) for c in f.coeffs)
    assert all(isinstance(c, F) for c in Series([0, 3]).coeffs)


def test_common_denominator_is_reduced():
    f = Series([F(1, 6), F(1, 4), F(-1, 3)])
    assert f.den == 12
    assert f.num == (2, 3, -4)
    assert mul(f, Series([6, 0, 0])) == Series([1, F(3, 2), -2])
    assert (f.scale(12).num, f.scale(12).den) == ((2, 3, -4), 1)
