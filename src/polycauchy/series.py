"""Truncated formal power series with exact coefficients in ℚ.

A Series holds coefficients c_0..c_N of t^0..t^N; N is the truncation
order and is fixed per value.  It is an ``IntegerRows`` (see
``polycauchy.algebra``) that keeps its trailing zeros.  The triangular
solves (div, reciprocal, exp_series) give each row its own denominator
while they run, so intermediate numbers stay about the size of the
result's instead of growing with powers of the input's denominator.

All operations are exact through index N.  Nothing ever extends or
shrinks the truncation order silently; div is the one operation that
returns a shorter series (it cancels the shared power of t first).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul as _times
from typing import Iterable

from .algebra import IntegerRows, _conv, _lowest


class SeriesError(ValueError):
    """Raised when a series operation's preconditions are violated."""


def _from_rows(num: list, dens: list) -> "Series":
    """The series whose coefficient i is num[i] over dens[i]."""
    common = lcm(*dens)
    for i, d in enumerate(dens):
        f = common // d
        if f != 1:
            num[i] *= f
    return Series._of(num, common)


def _reduce_row(num: list, i: int, den: int, dens: list):
    """Divide num[i] and its denominator den by their gcd and record the
    reduced, positive denominator in dens."""
    g = gcd(den, num[i])
    if den < 0:
        g = -g
    if g != 1:
        num[i] //= g
    dens.append(den // g)


def _unit(s: "Series", i: int) -> int:
    """Numerator of coefficient i of s, which must be nonzero."""
    if not s.num[i]:
        raise SeriesError("leading coefficient is zero, not a unit")
    return s.num[i]


class Series(IntegerRows):
    """Immutable truncated power series in t over ℚ."""

    __slots__ = ()
    _strip = False

    def __init__(self, coeffs: Iterable):
        super().__init__(coeffs)
        if not self.num:
            raise SeriesError("a series needs at least the constant coefficient")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls._of([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls._of([1] + [0] * order)

    @classmethod
    def t(cls, order: int) -> "Series":
        if order < 1:
            raise SeriesError("t needs order >= 1")
        return cls._of([0, 1] + [0] * (order - 1))

    # -- queries ----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.num) - 1

    def valuation(self) -> int:
        """Smallest index with a nonzero coefficient; order+1 for the zero
        series (sentinel)."""
        return _lowest(self.num)

    def is_unit(self) -> bool:
        return self.num[0] != 0

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise SeriesError(f"cannot extend truncation order {self.order} to {order}")
        if order == self.order:
            return self
        return Series._of(list(self.num[: order + 1]), self.den)

    # -- linear operations ------------------------------------------------

    def _check_order(self, other: "Series"):
        if self.order != other.order:
            raise SeriesError(
                f"truncation order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if isinstance(other, Series):
            self._check_order(other)
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Series):
            self._check_order(other)
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, Series):
            return mul(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def derivative(self) -> "Series":
        """Formal d/dt; the result order drops by one."""
        if self.order == 0:
            raise SeriesError("cannot differentiate an order-0 series")
        return super().derivative()


# -- core operations ------------------------------------------------------


def mul(a: Series, b: Series) -> Series:
    a._check_order(b)
    return Series._of(_conv(a.num, b.num, a.order + 1), a.den * b.den)


def _solve(anum, aden: int, bnum, bden: int, beta: int) -> Series:
    """q with q * b = a through the common order, where a = anum/aden,
    b = bnum/bden and bnum[0] = beta is b's (nonzero) constant numerator.

    Row i is q_i = (a_i - sum_{j<i} q_j b_{i-j}) / b_0, solved over the
    least common multiple `lam` of the rows found so far.
    """
    n = len(anum) - 1
    q = [0] * (n + 1)
    dens: list = []
    lam = 1
    for i in range(n + 1):
        if i:
            lam = lcm(lam, dens[-1])
        # aden * (lam / D_j) * b_{i-j} for j = 0..i-1
        w = [aden * (lam // d) * c for d, c in zip(dens, bnum[i:0:-1])]
        q[i] = anum[i] * bden * lam - sum(map(_times, w, q))
        _reduce_row(q, i, aden * lam * beta, dens)
    return _from_rows(q, dens)


def reciprocal(b: Series) -> Series:
    """1/b for a unit series, by the triangular recurrence."""
    beta = _unit(b, 0)
    return _solve([1] + [0] * b.order, 1, b.num, b.den, beta)


def div(a: Series, b: Series) -> Series:
    """a/b after cancelling the shared power of t.

    Requires ord(b) <= ord(a) and a unit coefficient at b's valuation.
    The result has truncation order N - ord(b).
    """
    a._check_order(b)
    v = b.valuation()
    if v > b.order:
        raise SeriesError("division by the zero series")
    va = a.valuation()
    if va > a.order:
        return Series.zero(a.order - v)
    if v > va:
        raise SeriesError(f"ord(b)={v} exceeds ord(a)={va}")
    beta = _unit(b, v)
    return _solve(a.num[v:], a.den, b.num[v:], b.den, beta)


def int_pow(a: Series, r: int) -> Series:
    """a**r by repeated squaring; negative r inverts a unit series first."""
    if r < 0:
        return int_pow(reciprocal(a), -r)
    result = Series.one(a.order)
    base = a
    while r:
        if r & 1:
            result = mul(result, base)
        r >>= 1
        base = mul(base, base) if r else base  # no square past the last bit
    return result


def compose(outer: Series, inner: Series) -> Series:
    """outer(inner(t)); exact because inner has no constant term."""
    outer._check_order(inner)
    if inner.is_unit():
        raise SeriesError("inner series must have zero constant term")
    acc = Series.zero(outer.order)
    for c in reversed(outer.num):
        acc = mul(acc, inner) + Fraction(c, outer.den)
    return acc


def comp_inverse(f: Series) -> Series:
    """The compositional inverse fbar with f(fbar(t)) = t through order N.

    By Lagrange inversion, [t^m] fbar = [t^(m-1)] h^m / m with h = t/f;
    the powers h^m take one mul each.
    """
    n = f.order
    if n < 1 or f.valuation() != 1:
        raise SeriesError("compositional inverse needs a delta series (ord = 1)")
    h = div(Series.t(n), f)
    num = [0] * (n + 1)
    dens = [1]
    power = h
    for m in range(1, n + 1):
        num[m] = power.num[m - 1]
        dens.append(m * power.den)
        if m < n:
            power = mul(power, h)
    return _from_rows(num, dens)


def log_series(f: Series) -> Series:
    """log f via (log f)' = f'/f, integrated term by term; needs c_0 = 1."""
    if f.num[0] != f.den:
        raise SeriesError("log needs constant coefficient 1")
    if f.order == 0:
        return Series.zero(0)
    h = div(f.derivative(), f.truncate(f.order - 1))
    return _from_rows(
        [0] + list(h.num), [1] + [(i + 1) * h.den for i in range(h.order + 1)]
    )


def exp_series(f: Series) -> Series:
    """exp f via (exp f)' = f' exp f; needs c_0 = 0.

    Row m is out_m = (1/m) sum_{j=1..m} j f_j out_{m-j}, summed over the
    least common multiple `lam` of the rows found so far.
    """
    if f.is_unit():
        raise SeriesError("exp needs zero constant coefficient")
    n = f.order
    out = [1] + [0] * n
    dens = [1]
    lam = 1
    for m in range(1, n + 1):
        lam = lcm(lam, dens[-1])
        # j f_j lam / D_{m-j} for j = 1..m
        w = [j * c * (lam // d) for j, c, d in zip(range(1, m + 1), f.num[1:], reversed(dens))]
        out[m] = sum(map(_times, w, out[m - 1::-1]))
        _reduce_row(out, m, m * f.den * lam, dens)
    return _from_rows(out, dens)


def coefficient(f: Series, n: int) -> Fraction:
    if n < 0:
        raise SeriesError(f"coefficient index {n} is negative")
    if n > f.order:
        raise SeriesError(
            f"coefficient {n} exceeds truncation order {f.order}; recompute at a higher order"
        )
    return Fraction(f.num[n], f.den)


def factorial_coefficient(f: Series, n: int):
    """n! * [t^n] f — the umbral pairing <f | x^n>."""
    return factorial(n) * coefficient(f, n)


# -- stock series ---------------------------------------------------------


def log_one_plus_t(order: int) -> Series:
    """t - t^2/2 + t^3/3 - ... (Mercator series)."""
    den = lcm(*range(1, order + 1))
    return Series._of([0] + [(-1) ** (i + 1) * (den // i) for i in range(1, order + 1)], den)


def exp_t(order: int) -> Series:
    den = factorial(order)
    return Series._of([den // factorial(i) for i in range(order + 1)], den)
