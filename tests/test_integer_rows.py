"""The integer-row layout that Polynomial and Series share (IntegerRows)."""

import random
from fractions import Fraction as F

import pytest

from polycauchy.algebra import IntegerRows, Polynomial, _conv, _lowest
from polycauchy.series import Series, SeriesError


def naive_conv(x, y, n):
    out = [0] * n
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if i + j < n:
                out[i + j] += a * b
    return out


def rand_ints(rng, length):
    """Random ints, with runs of zeros at either end now and then."""
    xs = [rng.randint(-50, 50) for _ in range(length)]
    if xs and rng.random() < 0.4:
        lead = rng.randint(0, len(xs))
        xs[:lead] = [0] * lead
    if xs and rng.random() < 0.4:
        trail = rng.randint(0, len(xs))
        xs[len(xs) - trail:] = [0] * trail
    return xs


def test_conv_matches_naive_double_loop():
    rng = random.Random(909)
    for _ in range(600):
        x, y = rand_ints(rng, rng.randint(0, 9)), rand_ints(rng, rng.randint(0, 9))
        full = len(x) + len(y) - 1
        for n in {0, 1, max(full - 2, 0), max(full, 0), full + 3}:
            got = _conv(tuple(x), tuple(y), n)
            assert got == naive_conv(x, y, n), (x, y, n)
            assert len(got) == n


def test_conv_edge_cases():
    assert _conv((), (), 0) == []
    assert _conv((), (1, 2), 3) == [0, 0, 0]
    assert _conv((0, 0, 3), (0, 5), 5) == [0, 0, 0, 15, 0]
    assert _conv((0, 0, 3), (0, 5), 2) == [0, 0]
    assert _conv((1, 1), (1, -1), 3) == [1, 0, -1]


def test_lowest():
    assert _lowest(()) == 0
    assert _lowest((0, 0)) == 2
    assert _lowest((0, 4, 0)) == 1
    assert _lowest((7,)) == 0


@pytest.mark.parametrize(
    "coeffs",
    [
        [0],
        [0, 0, 0],
        [3, -6, 9],
        [F(1, 6), F(1, 4), F(-1, 3)],
        [F(-2, 4), 0, 5, 0, 0],
        [0, F(3, 7), -1, F(0, 5)],
        [-4, F(-8, 6), F(12, 9)],
    ],
)
def test_series_and_polynomial_share_the_layout(coeffs):
    s, p = Series(coeffs), Polynomial(coeffs)
    # the same reduced numerators over the same positive denominator; only
    # the polynomial drops its trailing zeros
    assert s.num[: len(p.num)] == p.num and not any(s.num[len(p.num):])
    assert len(s.num) == len(coeffs)
    assert s.den == p.den > 0
    assert s.coeffs == tuple(F(c) for c in coeffs)


def test_empty_rows():
    assert (Polynomial().num, Polynomial().den) == ((), 1)
    with pytest.raises(SeriesError):
        Series([])


def test_equal_values_hash_equal():
    rng = random.Random(4242)
    for cls in (Polynomial, Series):
        values = [
            cls([F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3)])
            for _ in range(200)
        ]
        for a in values[:40]:
            for b in values:
                if a == b:
                    assert hash(a) == hash(b)
        # equal rationals written differently give one value and one hash
        a, b = cls([F(2, 4), 0, 1]), cls([F(1, 2), F(0, 7), F(3, 3)])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert Polynomial.__hash__ is IntegerRows.__hash__
    assert Series.__hash__ is IntegerRows.__hash__


def test_types_do_not_mix():
    p, s = Polynomial([1, 2]), Series([1, 2])
    assert p.num == s.num and p.den == s.den
    assert p != s and s != p
    with pytest.raises(TypeError):
        p + s
    with pytest.raises(TypeError):
        s - p
    with pytest.raises(TypeError):
        p * s


def test_shared_operations():
    p, s = Polynomial([F(1, 2), -1, 3]), Series([F(1, 2), -1, 3])
    for v in (p, s):
        cls = type(v)
        assert -v == cls([F(-1, 2), 1, -3])
        assert v.scale(F(-2, 3)) == cls([F(-1, 3), F(2, 3), -2])
        assert v.scale(0).num in ((), (0, 0, 0))
        assert v.derivative() == cls([-1, 6])
        assert 1 - v == cls([F(1, 2), 1, -3])
        assert repr(v) == f"{cls.__name__}([Fraction(1, 2), Fraction(-1, 1), Fraction(3, 1)])"
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            v.den = 3
