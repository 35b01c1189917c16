import math
import random
from fractions import Fraction as F

import pytest

from polycauchy.algebra import (
    Polynomial,
    falling_factorial,
    poly_derivative,
    poly_eval,
    poly_shift,
    rising_factorial,
)

X = Polynomial.x()
P = Polynomial((F(1, 3), -1, 1))  # x^2 - x + 1/3


def rand_poly(rng, deg=5):
    return Polynomial(
        F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, deg + 1))
    )


def rand_frac(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 9))


def test_eval_constant_term():
    assert poly_eval(P, F(0)) == F(1, 3)


def test_eval_zero_polynomial():
    assert poly_eval(Polynomial(), F(7)) == 0


def test_eval_at_one():
    assert poly_eval(P, F(1)) == F(1, 3)


def test_shift_linear():
    assert poly_shift(X, 1) == Polynomial((1, 1))


def test_shift_square():
    assert poly_shift(X * X, -1) == Polynomial((1, -2, 1))


def test_shift_mixed():
    # (x-1)^2 - (x-1) + 1/3 expanded by hand
    assert poly_shift(P, -1) == Polynomial((F(7, 3), -3, 1))


def test_derivative():
    assert poly_derivative(X ** 3) == 3 * X * X
    assert poly_derivative(Polynomial((5,))) == Polynomial()
    assert poly_derivative(P) == Polynomial((-1, 2))


def test_rising_factorial_small():
    assert rising_factorial(0) == Polynomial((1,))
    assert rising_factorial(2) == Polynomial((0, 1, 1))
    assert rising_factorial(3) == Polynomial((0, 2, 3, 1))


def test_falling_factorial_small():
    assert falling_factorial(0) == Polynomial((1,))
    assert falling_factorial(2) == Polynomial((0, -1, 1))
    assert falling_factorial(3) == Polynomial((0, 2, -3, 1))


def test_eval_is_multiplicative():
    rng = random.Random(7)
    for _ in range(50):
        p, q = rand_poly(rng), rand_poly(rng)
        c = rand_frac(rng)
        assert poly_eval(p * q, c) == poly_eval(p, c) * poly_eval(q, c)


def test_shift_is_additive():
    rng = random.Random(8)
    for _ in range(50):
        p = rand_poly(rng)
        a, b = rand_frac(rng), rand_frac(rng)
        assert poly_shift(poly_shift(p, a), b) == poly_shift(p, a + b)


def test_ring_laws_randomized():
    rng = random.Random(9)
    for _ in range(50):
        p, q, s = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (p * q) * s == p * (q * s)
        assert p * (q + s) == p * q + p * s
        assert p * q == q * p


def test_rising_reflects_to_falling():
    for n in range(13):
        assert rising_factorial(n).compose_affine(-1, 0) == F((-1) ** n) * falling_factorial(n)


def test_normalization_and_equality():
    assert Polynomial((1, 2, 0, 0)) == Polynomial((1, 2))
    assert Polynomial((0,)) == Polynomial()
    assert Polynomial((F(2, 4),)) == Polynomial((F(1, 2),))
    assert Polynomial((3,)) == 3


def test_division_by_zero_scalar_raises():
    with pytest.raises(ZeroDivisionError):
        P / 0


def test_str_rendering():
    assert str(P) == "1/3 - 1x + 1x^2"
    assert str(Polynomial((-1, 1))) == "-1 + 1x"
    assert str(Polynomial()) == "0"
    assert str(Polynomial((0, -2))) == "-2x"


def test_quotient_by_x():
    assert (X * P).quotient_by_x() == P
    with pytest.raises(ValueError):
        P.quotient_by_x()


# -- reference: Fraction-list arithmetic ----------------------------------
#
# The arithmetic Polynomial used before it stored integer numerators over
# one denominator, kept here as the reference the integer form must match
# exactly.  Lists hold Fractions in ascending powers, trailing zeros
# stripped.


def ref_strip(cs):
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_strip(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_strip(out)


def ref_eval(a, c):
    acc = F(0)
    for coeff in reversed(a):
        acc = acc * c + coeff
    return acc


def ref_compose_affine(a, u, v):
    """a(u*x + v) by Horner in the linear polynomial."""
    acc = []
    for coeff in reversed(a):
        acc = ref_add(ref_mul(acc, [v, u]), [coeff])
    return acc


def ref_shift(a, c):
    return ref_compose_affine(a, F(1), c)


def rand_point(rng):
    """An integer point or a non-integer Fraction point."""
    if rng.random() < 0.5:
        return F(rng.randint(-5, 5))
    return F(rng.randint(-9, 9), rng.randint(2, 9))


def rand_ref(rng):
    kind = rng.random()
    if kind < 0.1:
        return []
    if kind < 0.25:
        return ref_strip([rand_frac(rng)])
    return ref_strip(F(rng.randint(-99, 99), rng.randint(1, 30))
                     for _ in range(rng.randint(1, 8)))


def assert_canonical(p, ref):
    assert p.coeffs == tuple(ref)
    assert p.den > 0
    assert not p.num or p.num[-1] != 0
    assert math.gcd(p.den, *p.num) == 1
    assert p == Polynomial(ref) and hash(p) == hash(Polynomial(ref))


def test_integer_form_matches_fraction_reference():
    rng = random.Random(20131)
    for _ in range(300):
        a, b = rand_ref(rng), rand_ref(rng)
        p, q = Polynomial(a), Polynomial(b)
        assert_canonical(p, a)
        assert_canonical(p + q, ref_add(a, b))
        assert_canonical(p - q, ref_add(a, [-c for c in b]))
        assert_canonical(p * q, ref_mul(a, b))
        c, u, v = rand_point(rng), rand_point(rng), rand_point(rng)
        assert_canonical(p * c, ref_mul(a, ref_strip([c])))
        assert_canonical(c + p, ref_add(a, ref_strip([c])))
        assert p.evaluate(c) == ref_eval(a, c)
        assert type(p.evaluate(c)) is F
        assert_canonical(p.shift(c), ref_shift(a, c))
        assert_canonical(p.compose_affine(u, v), ref_compose_affine(a, u, v))
        if c:
            assert_canonical(p / c, ref_mul(a, [1 / c]))


def test_int_points_and_int_scalars():
    rng = random.Random(20132)
    for _ in range(100):
        a = rand_ref(rng)
        p = Polynomial(a)
        c = rng.randint(-6, 6)
        assert p.evaluate(c) == ref_eval(a, F(c))
        assert_canonical(p.shift(c), ref_shift(a, F(c)))
        assert_canonical(p.compose_affine(c, -c), ref_compose_affine(a, F(c), F(-c)))
        assert_canonical(c * p, ref_mul(a, ref_strip([c])))


def test_division_by_negative_fraction_keeps_denominator_positive():
    p = Polynomial((F(1, 3), -2, F(5, 7)))
    for d in (F(-3, 4), F(-1, 6), -5):
        r = p / d
        assert r.den > 0
        assert_canonical(r, ref_mul(list(p.coeffs), [1 / F(d)]))


def test_equal_values_have_equal_hashes():
    a, b = Polynomial((F(2, 4), 0)), Polynomial((F(1, 2),))
    assert a == b and hash(a) == hash(b)
    assert (a.num, a.den) == ((1,), 2)
    assert Polynomial() == Polynomial((0, F(0, 3)))
    assert (Polynomial().num, Polynomial().den) == ((), 1)


def test_float_coefficient_raises():
    with pytest.raises(TypeError):
        Polynomial((0.5,))
    with pytest.raises(TypeError):
        P.evaluate(0.5)


def _chained(terms, den=1):
    out = Polynomial()
    for w, p in terms:
        out = out + w * p
    return out / den


def _rand_weight(rng):
    """Zero, a negative or positive integer, or a non-integer Fraction."""
    kind = rng.random()
    if kind < 0.15:
        return rng.choice((0, F(0)))
    if kind < 0.5:
        return rng.randint(-9, 9)
    return F(rng.randint(-99, 99), rng.randint(2, 30))


def test_linear_combination_matches_chained_sums():
    rng = random.Random(20134)
    for _ in range(300):
        terms = [
            (_rand_weight(rng), Polynomial(rand_ref(rng)))
            for _ in range(rng.randint(0, 6))
        ]
        den = rng.choice((1, 1, 2, 7, 12))
        got = Polynomial.linear_combination(terms, den)
        want = _chained(terms, den)
        assert_canonical(got, want.coeffs)
        # a generator is consumed once, like the list
        assert Polynomial.linear_combination(iter(terms), den) == want


def test_linear_combination_edge_cases():
    assert_canonical(Polynomial.linear_combination([]), [])
    assert_canonical(Polynomial.linear_combination([], 5), [])
    assert_canonical(Polynomial.linear_combination([(0, P), (F(0), X)]), [])
    # terms that cancel leave no trailing zero and denominator 1
    assert_canonical(Polynomial.linear_combination([(F(1, 2), P), (F(-1, 2), P)]), [])
    assert_canonical(Polynomial.linear_combination([(1, X * X), (-1, X * X), (3, X)]), [0, 3])
    # negative and non-integer weights, reduced to lowest terms
    got = Polynomial.linear_combination([(F(-3, 4), P), (6, X)], 3)
    assert_canonical(got, [F(-1, 12), F(9, 4), F(-1, 4)])
    with pytest.raises(TypeError):
        Polynomial.linear_combination([(0.5, P)])
