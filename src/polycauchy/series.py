"""Truncated formal power series with exact coefficients in ℚ or ℚ[x].

A Series holds coefficients c_0..c_N of t^0..t^N; N is the truncation
order and is fixed per value.  Each coefficient is a polynomial in x over
ℚ; a rational coefficient is the x-degree-0 case, so a series over ℚ and
a series over ℚ[x] are the same kind of value and mix freely.

Storage is one integer array over one common denominator, the layout of
FLINT's fmpq_poly: ``num[d][i]`` is the numerator of the x^d t^i term and
``den > 0`` the denominator, so c_i = sum_d num[d][i] x^d / den.  Columns
past the highest x-degree present are dropped (a series over ℚ has
exactly one) and ``den`` has no factor common to all entries, so the form
is canonical: two series are equal iff their arrays and denominators are.
Every operation runs on plain Python ints and reduces its result by one
gcd pass.  The triangular solves (div, reciprocal, exp_series) give each
row its own denominator while they run, so intermediate numbers stay
about the size of the result's instead of growing with powers of the
input's denominator.

``Series.coeffs`` is the read view: Fractions for a series over ℚ,
Polynomials for one over ℚ[x], built once per value on first read.

All operations are exact through index N.  Nothing ever extends or
shrinks the truncation order silently; div is the one operation that
returns a shorter series (it cancels the shared power of t first).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial, gcd, lcm
from operator import mul as _times
from typing import Iterable

from .algebra import Polynomial


class SeriesError(ValueError):
    """Raised when a series operation's preconditions are violated."""


def _lowest(col) -> int:
    """Index of the first nonzero entry; len(col) if there is none."""
    for i, c in enumerate(col):
        if c:
            return i
    return len(col)


def _scalar(c) -> tuple[list, int]:
    """Integer numerators (ascending powers of x) and denominator of an
    int, Fraction or Polynomial coefficient."""
    if isinstance(c, Polynomial):
        return list(c.num) or [0], c.den
    if isinstance(c, (int, Fraction)):
        return [c.numerator], c.denominator
    raise TypeError(f"unsupported series coefficient type {type(c).__name__}")


def _conv_add(acc: list, x, y):
    """acc[i] += sum_j x[j] y[i-j] for every index i of acc."""
    n = len(acc) - 1
    vx, vy = _lowest(x), _lowest(y)
    if vx + vy > n:
        return
    ry = y[::-1]
    for i in range(vx + vy, n + 1):
        acc[i] += sum(map(_times, x[vx:i - vy + 1], ry[n - i + vx:n - vy + 1]))


def _from_rows(cols: list, dens: list) -> "Series":
    """The series whose row i is column entries cols[.][i] over dens[i]."""
    common = lcm(*dens)
    for i, d in enumerate(dens):
        f = common // d
        if f != 1:
            for col in cols:
                col[i] *= f
    return Series._of(cols, common)


def _reduce_row(cols: list, i: int, den: int, dens: list):
    """Divide row i of cols and its denominator den by their gcd and
    record the reduced, positive denominator in dens."""
    g = gcd(den, *(col[i] for col in cols))
    if den < 0:
        g = -g
    if g != 1:
        for col in cols:
            col[i] //= g
    dens.append(den // g)


def _unit(s: "Series", i: int) -> int:
    """Numerator of coefficient i of s, which must be a unit of ℚ[x]."""
    if any(col[i] for col in s.num[1:]):
        raise SeriesError("leading coefficient is a non-constant polynomial, not a unit")
    if not s.num[0][i]:
        raise SeriesError("leading coefficient is zero, not a unit")
    return s.num[0][i]


class Series:
    """Immutable truncated power series in t over ℚ[x]."""

    __slots__ = ("num", "den", "_coeffs")

    def __init__(self, coeffs: Iterable):
        parts = [_scalar(c) for c in coeffs]
        if not parts:
            raise SeriesError("a series needs at least the constant coefficient")
        den = lcm(*(d for _, d in parts))
        cols = [[0] * len(parts) for _ in range(max(len(p) for p, _ in parts))]
        for i, (p, d) in enumerate(parts):
            f = den // d
            for e, q in enumerate(p):
                cols[e][i] = q * f
        self._set(cols, den)

    def _set(self, cols: list, den: int):
        while len(cols) > 1 and not any(cols[-1]):
            cols.pop()
        g = gcd(den, *chain.from_iterable(cols))
        if den < 0:
            g = -g
        if g != 1:
            cols = [[c // g for c in col] for col in cols]
            den //= g
        object.__setattr__(self, "num", tuple(map(tuple, cols)))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_coeffs", None)

    @classmethod
    def _of(cls, cols: list, den: int = 1) -> "Series":
        """The series cols / den, reduced; cols may be modified."""
        s = object.__new__(cls)
        s._set(cols, den)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @property
    def coeffs(self) -> tuple:
        view = self._coeffs
        if view is None:
            den = self.den
            if len(self.num) == 1:
                view = tuple(Fraction(c, den) for c in self.num[0])
            else:
                view = tuple(Polynomial._of(list(row), den) for row in zip(*self.num))
            object.__setattr__(self, "_coeffs", view)
        return view

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls._of([[0] * (order + 1)])

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls._of([[1] + [0] * order])

    @classmethod
    def t(cls, order: int) -> "Series":
        if order < 1:
            raise SeriesError("t needs order >= 1")
        return cls._of([[0, 1] + [0] * (order - 1)])

    # -- queries ----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.num[0]) - 1

    def valuation(self) -> int:
        """Smallest index with a nonzero coefficient; order+1 for the zero
        series (sentinel)."""
        return min(_lowest(col) for col in self.num)

    def is_delta(self) -> bool:
        return self.valuation() == 1

    def is_unit(self) -> bool:
        return any(col[0] for col in self.num)

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise SeriesError(f"cannot extend truncation order {self.order} to {order}")
        if order == self.order:
            return self
        return Series._of([list(col[: order + 1]) for col in self.num], self.den)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.den, self.num))

    def __repr__(self):
        return f"Series({list(self.coeffs)!r})"

    # -- linear operations ------------------------------------------------

    def _check_order(self, other: "Series"):
        if self.order != other.order:
            raise SeriesError(
                f"truncation order mismatch: {self.order} vs {other.order}"
            )

    def _constant(self, c) -> "Series":
        """c as a series of this order."""
        p, d = _scalar(c)
        zeros = [0] * self.order
        return Series._of([[q] + zeros for q in p], d)

    def _combine(self, other: "Series", sign: int) -> "Series":
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        a, b = self.num, other.num
        zero = (0,) * (self.order + 1)
        cols = [
            [x * fa + y * fb for x, y in zip(a[d] if d < len(a) else zero,
                                            b[d] if d < len(b) else zero)]
            for d in range(max(len(a), len(b)))
        ]
        return Series._of(cols, den)

    def __add__(self, other):
        if isinstance(other, Series):
            self._check_order(other)
            return self._combine(other, 1)
        if isinstance(other, (int, Fraction, Polynomial)):
            return self._combine(self._constant(other), 1)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Series._of([[-c for c in col] for col in self.num], self.den)

    def __sub__(self, other):
        if isinstance(other, Series):
            self._check_order(other)
            return self._combine(other, -1)
        if isinstance(other, (int, Fraction, Polynomial)):
            return self._combine(self._constant(other), -1)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "Series":
        p, d = _scalar(c)
        n = self.order
        cols = [[0] * (n + 1) for _ in range(len(self.num) + len(p) - 1)]
        for e, q in enumerate(p):
            if q:
                for d0, col in enumerate(self.num):
                    out = cols[d0 + e]
                    for i, a in enumerate(col):
                        out[i] += q * a
        return Series._of(cols, self.den * d)

    def __mul__(self, other):
        if isinstance(other, Series):
            return mul(self, other)
        if isinstance(other, (int, Fraction, Polynomial)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            return self.scale(other)
        return NotImplemented

    def derivative(self) -> "Series":
        """Formal d/dt; the result order drops by one."""
        if self.order == 0:
            raise SeriesError("cannot differentiate an order-0 series")
        return Series._of(
            [[i * c for i, c in enumerate(col) if i] for col in self.num], self.den
        )


# -- core operations ------------------------------------------------------


def mul(a: Series, b: Series) -> Series:
    a._check_order(b)
    n = a.order
    cols = [[0] * (n + 1) for _ in range(len(a.num) + len(b.num) - 1)]
    for e, x in enumerate(a.num):
        for f, y in enumerate(b.num):
            _conv_add(cols[e + f], x, y)
    return Series._of(cols, a.den * b.den)


def _solve(acols, aden: int, bcols, bden: int, beta: int) -> Series:
    """q with q * b = a through the common order, where b = bcols/bden and
    bcols[0][0] = beta is b's (unit) constant numerator.

    Row i is q_i = (a_i - sum_{j<i} q_j b_{i-j}) / b_0, solved over the
    least common multiple `lam` of the rows found so far.
    """
    n = len(acols[0]) - 1
    width = len(acols) + (len(bcols) - 1) * n
    q = [[0] * (n + 1) for _ in range(width)]
    dens: list = []
    lam = 1
    for i in range(n + 1):
        if i:
            lam = lcm(lam, dens[-1])
        for qcol, acol in zip(q, acols):
            qcol[i] = acol[i] * bden * lam
        # aden * (lam / D_j) * b_{i-j} for j = 0..i-1, per column of b
        lift = [aden * (lam // d) for d in dens]
        for e, bcol in enumerate(bcols):
            w = list(map(_times, lift, bcol[i:0:-1]))
            if any(w):
                for d in range(e, width):
                    q[d][i] -= sum(map(_times, w, q[d - e][:i]))
        _reduce_row(q, i, aden * lam * beta, dens)
    return _from_rows(q, dens)


def reciprocal(b: Series) -> Series:
    """1/b for a unit series, by the triangular recurrence."""
    beta = _unit(b, 0)
    return _solve([[1] + [0] * b.order], 1, b.num, b.den, beta)


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
    return _solve(
        [col[v:] for col in a.num], a.den, [col[v:] for col in b.num], b.den, beta
    )


def int_pow(a: Series, r: int) -> Series:
    """a**r by repeated squaring; negative r inverts a unit series first."""
    if r < 0:
        return int_pow(reciprocal(a), -r)
    result = Series.one(a.order)
    base = a
    while r:
        if r & 1:
            result = mul(result, base)
        base = mul(base, base)
        r >>= 1
    return result


def compose(outer: Series, inner: Series) -> Series:
    """outer(inner(t)); exact because inner has no constant term."""
    outer._check_order(inner)
    if inner.is_unit():
        raise SeriesError("inner series must have zero constant term")
    zeros = [0] * outer.order
    acc = Series.zero(outer.order)
    for i in range(outer.order, -1, -1):
        c = Series._of([[col[i]] + zeros for col in outer.num], outer.den)
        acc = mul(acc, inner)._combine(c, 1)
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
    cols = [[0] * (n + 1)]
    dens = [1]
    power = h
    for m in range(1, n + 1):
        while len(cols) < len(power.num):
            cols.append([0] * (n + 1))
        for col, pcol in zip(cols, power.num):
            col[m] = pcol[m - 1]
        dens.append(m * power.den)
        if m < n:
            power = mul(power, h)
    return _from_rows(cols, dens)


def log_series(f: Series) -> Series:
    """log f via (log f)' = f'/f, integrated term by term; needs c_0 = 1."""
    if f.num[0][0] != f.den or any(col[0] for col in f.num[1:]):
        raise SeriesError("log needs constant coefficient 1")
    if f.order == 0:
        return Series.zero(0)
    h = div(f.derivative(), f.truncate(f.order - 1))
    return _from_rows(
        [[0] + list(col) for col in h.num],
        [1] + [(i + 1) * h.den for i in range(h.order + 1)],
    )


def exp_series(f: Series) -> Series:
    """exp f via (exp f)' = f' exp f; needs c_0 = 0.

    Row m is out_m = (1/m) sum_{j=1..m} j f_j out_{m-j}, summed over the
    least common multiple `lam` of the rows found so far.
    """
    if f.is_unit():
        raise SeriesError("exp needs zero constant coefficient")
    n = f.order
    terms = [(e, col) for e, col in enumerate(f.num) if any(col)]
    deg = len(f.num) - 1  # row r of the result has x-degree at most r * deg
    width = deg * n + 1
    out = [[0] * (n + 1) for _ in range(width)]
    out[0][0] = 1
    dens = [1]
    lam = 1
    for m in range(1, n + 1):
        lam = lcm(lam, dens[-1])
        lift = [lam // d for d in reversed(dens)]  # lam / D_{m-j}, j = 1..m
        for e, fcol in terms:
            # j f_j lam / D_{m-j} for j = 1..m
            w = [j * c * s for j, c, s in zip(range(1, m + 1), fcol[1:], lift)]
            for c in range(min((m - 1) * deg + 1, width - e)):
                out[c + e][m] += sum(map(_times, w, out[c][m - 1::-1]))
        _reduce_row(out, m, m * f.den * lam, dens)
    return _from_rows(out, dens)


def coefficient(f: Series, n: int):
    if n > f.order:
        raise SeriesError(
            f"coefficient {n} exceeds truncation order {f.order}; recompute at a higher order"
        )
    return f.coeffs[n]


def factorial_coefficient(f: Series, n: int):
    """n! * [t^n] f — the umbral pairing <f | x^n>."""
    return factorial(n) * coefficient(f, n)


# -- stock series ---------------------------------------------------------


def log_one_plus_t(order: int) -> Series:
    """t - t^2/2 + t^3/3 - ... (Mercator series)."""
    den = lcm(*range(1, order + 1))
    return Series._of([[0] + [(-1) ** (i + 1) * (den // i) for i in range(1, order + 1)]], den)


def exp_t(order: int) -> Series:
    den = factorial(order)
    return Series._of([[den // factorial(i) for i in range(order + 1)]], den)
