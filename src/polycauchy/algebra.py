"""Exact univariate polynomials over ℚ, and the integer-row layout they
share with ``polycauchy.series.Series``.

``IntegerRows`` holds that layout and everything the two types do alike;
``Polynomial`` is the carrier for all the named polynomial families built
elsewhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from operator import mul as _times
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def _lowest(num) -> int:
    """Index of the first nonzero entry; len(num) if there is none."""
    i, n = 0, len(num)
    while i < n and not num[i]:
        i += 1
    return i


def _conv(x, y, n: int) -> list:
    """The first n coefficients of the product of the integer sequences x
    and y, out[i] = sum_j x[j] y[i-j], zero-padded past the full product;
    the leading zeros of x and y are skipped."""
    lx, ly = len(x), len(y)
    vx, vy = _lowest(x), _lowest(y)
    ry = y[::-1]
    out = [0] * n
    for i in range(vx + vy, min(n, lx + ly - 1)):
        lo = i - ly + 1 if i - ly + 1 > vx else vx
        # when i - vy is past the end of x, x's slice is the shorter and map stops there
        out[i] = sum(map(_times, x[lo:i - vy + 1], ry[ly - 1 - i + lo:ly - vy]))
    return out


def _ratio(c) -> tuple[int, int]:
    """Numerator and denominator of an int or Fraction."""
    if isinstance(c, int):
        return c, 1
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    raise TypeError(f"expected an integer or Fraction, got {type(c).__name__}")


class IntegerRows:
    """Immutable row of rationals c_0, c_1, ... in the layout of FLINT's
    fmpq_poly: one tuple of integer numerators ``num`` over one positive
    denominator ``den``, so c_i = num[i] / den.

    One gcd pass per result removes any factor common to ``den`` and all of
    ``num``, so the form is canonical: two values of one type are equal iff
    their numerators and denominators are, and the zero row has denominator
    1.  ``Polynomial`` also strips trailing zeros (``_strip``), so its zero
    has empty numerators; a ``Series`` keeps its fixed length.  Every
    operation runs on plain Python ints and reduces once; ``coeffs`` is a
    read view for printing, a tuple of ``Fraction``s built on each read
    and kept nowhere.
    """

    __slots__ = ("num", "den")
    _strip = True

    def __init__(self, coeffs: Iterable = ()):
        parts = [_ratio(c) for c in coeffs]
        den = lcm(*(q for _, q in parts))
        self._set([p * (den // q) for p, q in parts], den)

    def _set(self, num: list, den: int):
        if self._strip:
            while num and not num[-1]:
                num.pop()
        if not num:
            den = 1
        elif den != 1:
            g = gcd(den, *num)
            if den < 0:
                g = -g
            if g != 1:
                num = [c // g for c in num]
                den //= g
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    @classmethod
    def _of(cls, num: list, den: int = 1):
        """The value num / den, reduced; num may be modified."""
        p = object.__new__(cls)
        p._set(num, den)
        return p

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def coeffs(self) -> tuple:
        return tuple([Fraction(c, self.den) for c in self.num])

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"{type(self).__name__}({list(self.coeffs)!r})"

    def _combine(self, other, sign: int):
        """self + sign * other for a value of the same type (the shorter
        numerator padded with zeros) or an int or Fraction, or NotImplemented
        for any other type."""
        if isinstance(other, type(self)):
            onum, oden = other.num, other.den
        elif isinstance(other, (int, Fraction)):
            onum, oden = _ratio(other)
            onum = (onum,)
        else:
            return NotImplemented
        den = self.den
        if den == oden:
            fa, fb = 1, sign
        else:
            den = lcm(den, oden)
            fa, fb = den // self.den, sign * (den // oden)
        return self._of(
            [a * fa + b * fb for a, b in zip_longest(self.num, onum, fillvalue=0)], den
        )

    def __neg__(self):
        return self._of([-c for c in self.num], self.den)

    def __rsub__(self, other):
        return (-self)._combine(other, 1)

    def scale(self, c: Scalar):
        """c times self for an int or Fraction c."""
        p, q = _ratio(c)
        return self._of([p * a for a in self.num], self.den * q)

    def derivative(self):
        """Formal derivative, one entry shorter."""
        return self._of([i * c for i, c in enumerate(self.num) if i], self.den)


class Polynomial(IntegerRows):
    """Dense polynomial in x over ℚ, the ``IntegerRows`` of its
    coefficients in ascending powers of x, trailing zeros stripped.

    The zero polynomial has empty numerators, denominator 1 and degree -1.
    """

    __slots__ = ()

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls((c,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, power: int, c: Scalar = 1) -> "Polynomial":
        if power < 0:
            raise ValueError("monomial power must be nonnegative")
        return cls((0,) * power + (c,))

    @classmethod
    def linear_combination(cls, terms: Iterable, den: int = 1) -> "Polynomial":
        """The sum of w * p over the (w, p) pairs in terms, divided by the
        positive integer den, for int or Fraction weights w: one lcm of the
        term denominators, one integer accumulation and one gcd pass, where
        a chain of w * p + ... would reduce once per operation."""
        parts = []
        for w, p in terms:
            a, b = _ratio(w)
            if a and p.num:
                parts.append((a, b * p.den, p.num))
        common = lcm(*(q for _, q, _ in parts))
        acc = [0] * max((len(num) for _, _, num in parts), default=0)
        for a, q, num in parts:
            f = a * (common // q)
            for i, c in enumerate(num):
                acc[i] += f * c
        return cls._of(acc, common * den)

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.num):
            return Fraction(self.num[i], self.den)
        return Fraction(0)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            x, y = self.num, other.num
            return Polynomial._of(_conv(x, y, len(x) + len(y) - 1), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            p, q = _ratio(other)
            return Polynomial._of([c * p for c in self.num], self.den * q)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        p, q = _ratio(other)
        return Polynomial._of([c * q for c in self.num], self.den * p)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial._of([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            base = base * base if n else base  # no square past the last bit
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        return IntegerRows.__eq__(self, other)

    __hash__ = IntegerRows.__hash__

    def __bool__(self):
        return bool(self.num)

    # -- calculus and substitution ---------------------------------------

    def evaluate(self, c: Scalar) -> Fraction:
        """p(c) by Horner's rule, homogeneous in c = p/q:
        sum num_i p^i q^(n-i) over den q^n."""
        p, q = _ratio(c)
        num = self.num
        if not num:
            return Fraction(0)
        acc = num[-1]
        qpow = 1
        for a in num[-2::-1]:
            qpow *= q
            acc = acc * p + a * qpow
        return Fraction(acc, self.den * qpow)

    def _affine(self, u: int, v: int, w: int) -> "Polynomial":
        """p((u*x + v) / w) by Horner's rule in the integer form u*x + v:
        sum num_i (u*x + v)^i w^(n-i) over den w^n."""
        num = self.num
        if not num:
            return self
        acc = [num[-1]]
        wpow = 1
        for a in num[-2::-1]:
            wpow *= w
            acc = [v * lo + u * hi for lo, hi in zip(acc + [0], [0] + acc)]
            acc[0] += a * wpow
        return Polynomial._of(acc, self.den * wpow)

    def shift(self, c: Scalar) -> "Polynomial":
        """p(x + c) by exact binomial expansion (Horner in x + c)."""
        p, q = _ratio(c)
        return self._affine(q, p, q)

    def compose_affine(self, a: Scalar, b: Scalar) -> "Polynomial":
        """p(a*x + b)."""
        (ap, aq), (bp, bq) = _ratio(a), _ratio(b)
        return self._affine(ap * bq, bp * aq, aq * bq)

    def quotient_by_x(self) -> "Polynomial":
        if self.num and self.num[0]:
            raise ValueError("polynomial has a nonzero constant term, not divisible by x")
        return Polynomial._of(list(self.num[1:]), self.den)

    # -- rendering --------------------------------------------------------

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                body = str(c)
            elif i == 1:
                body = f"{abs(c)}x"
            else:
                body = f"{abs(c)}x^{i}"
            if not parts:
                if i > 0 and c < 0:
                    body = "-" + body
                parts.append(body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)


# -- module-level operations ---------------------------------------------


def poly_eval(p: Polynomial, c: Scalar) -> Fraction:
    return p.evaluate(c)


def poly_shift(p: Polynomial, c: Scalar) -> Polynomial:
    return p.shift(c)


def poly_derivative(p: Polynomial) -> Polynomial:
    return p.derivative()


def rising_factorial(n: int) -> Polynomial:
    """x(x+1)...(x+n-1); the empty product for n = 0."""
    if n < 0:
        raise ValueError("rising_factorial needs n >= 0")
    result = Polynomial((1,))
    for i in range(n):
        result = result * Polynomial((i, 1))
    return result


def falling_factorial(n: int) -> Polynomial:
    """x(x-1)...(x-n+1); the empty product for n = 0."""
    if n < 0:
        raise ValueError("falling_factorial needs n >= 0")
    result = Polynomial((1,))
    for i in range(n):
        result = result * Polynomial((-i, 1))
    return result
