"""Identity verification harness.

Each registered identity owns an evaluator that produces one or more
(lhs, rhs) polynomial pairs per grid point.  The left side always comes
from the generating-function expansion of A_n^{(r,k)} (and shifts of it);
the right side is the combinatorial formula built from the other family
constructors.  A point passes iff every pair matches exactly.

Sub-results that depend on fewer coordinates than a grid point are
computed once per process and shared by every point, grid and identity
that needs them: the values A_l^{(r,k)}(c) and the shifts A_n^{(r,k)}(x+1),
the poly-Cauchy numbers, the a-numbers of Theorem 2 and of (32) and (34),
the weights of Theorems 3, 4 and 5, and the rising-factorial values and
polynomials.  Theorem 1 is a sum of n+1 polynomials memoized per order:
s(n, m) times the rows R_m(x) (`_thm1_row`), its sums over j and l folded
into R_m per (m, r, k).

Theorems 2 (with (32) and (34)), 6, 7 and 8 expand A_n^{(r,k)}(x) by the
Sheffer binomial identity: each right side is
R_n(x) = sum over l of C(n, l) v_l P_{n-l}(x), where v_l and P_j depend on
the point's other coordinates but not on n.  So each evaluator reads row n
of a table of R_0 .. R_N built once per parameter slab (`_binomial_rows`,
`_slab_row`): (r, k) for Theorems 2 and 8, (r, k, s) for Theorem 6 and
(r, k, s, lambda) for Theorem 7.  A table puts its values over one
denominator and its polynomials over another and convolves the integer
numerators.  It is kept whole in the family memo (`families._grown`) and
rebuilt at twice the order when a larger n asks for it.  The polynomials
are:

- Theorems 2 and 8: (-x)_j = (-1)^j <x>_j, since the sum over j of
  (-1)^j s(i, j) x^j is (-x)_i (`_minus_x_falling`);
- Theorems 6 and 7: the Stirling transform of the Bernoulli and the
  Frobenius-Euler polynomials (`_bernoulli_stirling`,
  `_frobenius_stirling`).

Theorem 7's value v_l, the sum over a of (-lam)^a C(s, a) A_l(s-a) times
(1 - lam)^(-s), is one integer dot product of A_l's numerators with a
moment vector kept per (s, lam) (`_thm7_moments`); every key of Theorem 7
holds lam = p/q as the two ints p and q.

The printed Theorem 5 and its variant share their left side and all of
their right side but the variant's lowered-k part (`_thm5_common`, per
(n, m, r, k)).  Each of these helpers is a pure module-level function,
memoized with ``functools.lru_cache`` or, for the slab tables, in the
family memo.  The sums run on integers: scalar sums are integer dot
products over one shared denominator (`_dot`), and every other polynomial
right side is one `Polynomial.linear_combination` (one lcm, one integer
accumulation, one gcd pass).

`report_text` writes a report as ``json.dumps(payload, indent=2)`` does,
byte for byte, but renders the pass, fail and skipped entries from cached
%-templates instead of through the stdlib's pure-Python encoder.

Theorems 4 and 5 are printed in the source with internal inconsistencies
against their own derivations; both the printed reading and the
derivation-faithful variant are registered, and verify_variants reports
which one holds.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from math import comb, factorial, lcm
from operator import mul as _times
from concurrent.futures import ThreadPoolExecutor

from .algebra import Polynomial, poly_shift, rising_factorial
from .families import (
    bernoulli_poly,
    bernoulli2,
    frobenius_euler,
    mixed_A,
    narumi,
    poly_cauchy,
    stirling_triangle,
    _grown,
)
from .series import Series
from .umbral import backward_delta, mixed_pair, sheffer_by_gf, transfer

__version__ = "0.1.0"

# printed identity -> its derivation-faithful variant
VARIANTS = {"THM4": "THM4_VARIANT", "THM5": "THM5_VARIANT"}
VARIANT_IDS = tuple(i for pair in VARIANTS.items() for i in pair)

_R_STD = (0, 1, 2, 3)
_R_EXT = (-2, -1, 0, 1, 2, 3)
_K_STD = (-2, -1, 0, 1, 2, 3)
_S_STD = (0, 1, 2, 3)
_LAMBDAS = (Fraction(2), Fraction(-1), Fraction(1, 2))

_X = Polynomial.x()


class _Record:
    """A plain record: equal to a record of the same class with equal
    fields, its ``__slots__``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        fields = zip(self.__slots__, self._fields())
        return f"{type(self).__name__}({', '.join(f'{name}={value!r}' for name, value in fields)})"


class _FrozenRecord(_Record):
    """An immutable, hashable record; __init__ sets the fields through
    ``_set``."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class GridSpec(_FrozenRecord):
    """Finite parameter grid; identities read only the axes they use."""

    __slots__ = ("n_values", "r_values", "k_values", "s_values", "m_values", "lambdas")

    def __init__(
        self, n_values=(), r_values=(), k_values=(), s_values=(), m_values=(), lambdas=()
    ):
        self._set(n_values, r_values, k_values, s_values, m_values, lambdas)

    def values_for(self, axis: str) -> tuple:
        return {
            "n": self.n_values,
            "r": self.r_values,
            "k": self.k_values,
            "s": self.s_values,
            "m": self.m_values,
            "lam": self.lambdas,
        }[axis]

    def to_dict(self) -> dict:
        out = {}
        for name in ("n", "r", "k", "s", "m"):
            vals = self.values_for(name)
            if vals:
                out[name] = list(vals)
        if self.lambdas:
            out["lam"] = [str(v) for v in self.lambdas]
        return out


# -- shared sub-results ----------------------------------------------------
#
# Each lru_cache'd helper here and among the evaluators is a pure function
# of fewer coordinates than a grid point, so it is memoized for the life of
# the process and shared by all points, grids and identities that ask for
# the same arguments.


@lru_cache(maxsize=None)
def _A_at(n, r, k, c) -> Fraction:
    """A_n^{(r,k)}(c)."""
    return mixed_A(n, r, k).evaluate(c)


@lru_cache(maxsize=None)
def _A_shift(n, r, k) -> Polynomial:
    """A_n^{(r,k)}(x + 1)."""
    return poly_shift(mixed_A(n, r, k), 1)


@lru_cache(maxsize=None)
def _pc_number(n, k) -> Fraction:
    return poly_cauchy(n, k).evaluate(0)


@lru_cache(maxsize=None)
def _pow_int(base: int, k: int) -> Fraction:
    # base**k with k possibly negative
    return Fraction(base) ** k


@lru_cache(maxsize=None)
def _rising(n: int) -> Polynomial:
    return rising_factorial(n)


@lru_cache(maxsize=None)
def _rising_at(n: int, y: int) -> int:
    """x(x+1)...(x+n-1) at the integer y."""
    return int(_rising(n).evaluate(y))


@lru_cache(maxsize=None)
def _bernoulli_reflected(n: int, alpha: int, b: int) -> Polynomial:
    """B_n^{(alpha)}(-x + b)."""
    return bernoulli_poly(n, alpha).compose_affine(-1, b)


def _mixed_sheffer_order(n: int) -> int:
    return max(n + 2, 10)


def _dot(weights, values) -> Fraction:
    """The sum of w * v over two equally long sequences of ints or
    Fractions, accumulated as one integer over the product of each
    sequence's lcm denominator."""
    wd = lcm(*(w.denominator for w in weights))
    vd = lcm(*(v.denominator for v in values))
    return Fraction(
        sum(
            w.numerator * (wd // w.denominator) * v.numerator * (vd // v.denominator)
            for w, v in zip(weights, values)
        ),
        wd * vd,
    )


def _binomial_rows(order: int, values, polys) -> tuple:
    """R_n(x) = sum over l of C(n, l) values[l] polys[n-l] for n = 0..order,
    the rows of one parameter slab.  The values are put over one
    denominator and the polynomials over another, so that each coefficient
    of a row is one integer dot product, and each row is reduced once;
    entries past order are ignored."""
    values, polys = values[: order + 1], polys[: order + 1]
    vden = lcm(*(v.denominator for v in values))
    a = [v.numerator * (vden // v.denominator) for v in values]
    pden = lcm(*(p.den for p in polys))
    # cols[i][j]: the numerator of [x^i] polys[j]
    cols = [
        [p.num[i] * (pden // p.den) if i < len(p.num) else 0 for p in polys]
        for i in range(max(len(p.num) for p in polys))
    ]
    widths = list(itertools.accumulate((len(p.num) for p in polys), max))
    rows = []
    for n in range(order + 1):
        w = [comb(n, j) * a[n - j] for j in range(n + 1)]  # the weight of polys[j]
        rows.append(Polynomial._of(
            [sum(map(_times, w, col)) for col in cols[: widths[n]]], vden * pden
        ))
    return tuple(rows)


def _slab_row(n: int, table, *slab) -> Polynomial:
    """Row n of table(order, *slab), whose rows 0..order are kept whole in
    the family memo and rebuilt at a larger order on demand."""
    return _grown((table, *slab), n, table, *slab)[n]


def _minus_x_falling(order: int) -> tuple:
    """(-x)_j = (-1)^j <x>_j = sum over i of (-1)^i s(j, i) x^i, j = 0..order;
    the polynomials of Theorems 2 and 8, kept once in the family memo."""
    return tuple(
        Polynomial._of([-c if i % 2 else c for i, c in enumerate(row)])
        for row in stirling_triangle(1, order)[: order + 1]
    )


# -- identity evaluators ---------------------------------------------------
#
# Each returns a list of (lhs, rhs) Polynomial pairs for one grid point.


@lru_cache(maxsize=None)
def _thm1_row(m, r, k) -> Polynomial:
    """R_m(x) = sum over j of (-1)^j c_j x^j, the part of Theorem 1's right
    side that is the same for every n >= m, with c_j the sum over l
    sum C(m,l) C(m-l,j) (l+1)^(-k) S(m-l-j+r, r) / C(m-l-j+r, r).

    The factors (l+1)^(-k) and S(q+r, r) / C(q+r, r), q = m-l-j, are put
    over one denominator each, so that every c_j is an integer sum."""
    powers = [_pow_int(l + 1, -k) for l in range(m + 1)]
    pden = lcm(*(v.denominator for v in powers))
    a = [v.numerator * (pden // v.denominator) for v in powers]
    s2 = stirling_triangle(2, m + r)
    combs = [comb(q + r, r) for q in range(m + 1)]
    qden = lcm(*combs)
    b = [s2[q + r][r] * (qden // c) for q, c in enumerate(combs)]
    coeffs = [
        (-1) ** j * sum(
            comb(m, l) * comb(m - l, j) * a[l] * b[m - l - j] for l in range(m - j + 1)
        )
        for j in range(m + 1)
    ]
    return Polynomial(coeffs) / (pden * qden)


def _thm1(p):
    # sum over m of s(n, m) R_m(x), the sums over j and l folded into R_m
    n, r, k = p["n"], p["r"], p["k"]
    s1 = stirling_triangle(1, n)[n]
    rhs = Polynomial.linear_combination((s1[m], _thm1_row(m, r, k)) for m in range(n + 1))
    return [(mixed_A(n, r, k), rhs)]


def _thm2_table(order, a_number, r, k) -> tuple:
    """Theorem 2's right sides for one (r, k), n = 0..order; THM2, EQ32 and
    EQ34 differ only in a_number.

    The sum over j of (-1)^j s(i, j) x^j is (-x)_i, so the right side is
    the sum over l of C(n, l) inner_l (-x)_{n-l}, with the innermost sum
    inner_t = sum over a of C(t, a) a_number(a, r) C_{t-a}^{(k)}."""
    inner = [
        _dot(
            [comb(t, a) * a_number(a, r) for a in range(t + 1)],
            [_pc_number(t - a, k) for a in range(t + 1)],
        )
        for t in range(order + 1)
    ]
    return _binomial_rows(order, inner, _grown((_minus_x_falling,), order, _minus_x_falling))


def _thm2_core(p, a_number):
    n, r, k = p["n"], p["r"], p["k"]
    return [(mixed_A(n, r, k), _slab_row(n, _thm2_table, a_number, r, k))]


@lru_cache(maxsize=None)
def _bernoulli_a(a, r) -> Fraction:
    return bernoulli_poly(a, a - r + 1).evaluate(1)


@lru_cache(maxsize=None)
def _narumi_a(a, r) -> Fraction:
    return narumi(a, -r).evaluate(0)


def _thm2(p):
    return _thm2_core(p, _bernoulli_a)


def _eq32(p):
    return _thm2_core(p, _narumi_a)


def _compositions(total: int, parts: int):
    """Ordered tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _b2_number(i) -> Fraction:
    return bernoulli2(i).evaluate(0)


@lru_cache(maxsize=None)
def _composition_a(a, r) -> Fraction:
    """The sum over compositions a_1 + ... + a_r = a of the multinomial
    a! / (a_1! ... a_r!) times b_{a_1} ... b_{a_r}, b_i the Bernoulli
    numbers of the second kind."""
    multinomials, products = [], []
    for parts in _compositions(a, r):
        multinom = factorial(a)
        prod = Fraction(1)
        for ai in parts:
            multinom //= factorial(ai)
            prod *= _b2_number(ai)
        multinomials.append(multinom)
        products.append(prod)
    return _dot(multinomials, products)


def _eq34(p):
    return _thm2_core(p, _composition_a)


def _eq35(p):
    n, r, k = p["n"], p["r"], p["k"]
    a = [mixed_A(j, r, k) for j in range(n + 1)]
    pairs = []
    for y in range(-2, n - 1):
        rhs = Polynomial.linear_combination(
            ((-1) ** (n - j) * comb(n, j) * _rising_at(n - j, y), a[j])
            for j in range(n + 1)
        )
        pairs.append((poly_shift(a[n], y), rhs))
    return pairs


def _eq36(p):
    n, r, k = p["n"], p["r"], p["k"]
    lhs = n * mixed_A(n - 1, r, k)
    a_n = mixed_A(n, r, k)
    rhs = poly_shift(a_n, -1) - a_n
    return [(lhs, rhs)]


@lru_cache(maxsize=None)
def _thm3_weights(n, k) -> tuple:
    """Theorem 3's weights, j = 0..n, of B_j^{(1-r)}(-x) in the middle sum
    and of B_j^{(-r)}(-x-1) in the last one; neither depends on r."""
    s1 = stirling_triangle(1, n)[n]
    mid, last = [], []
    for j in range(n + 1):
        # the middle sum's terms with m - l - a = j
        terms = [(m, l, m - l - j) for m in range(j, n + 1) for l in range(m - j + 1)]
        mid.append(_dot(
            [(-1) ** a * comb(m, l) * comb(m - l, a) * s1[m] for m, l, a in terms],
            [_pow_int(l + 1, -k) / ((a + 2) * (a + 1)) for m, l, a in terms],
        ))
        ms = range(j, n + 1)
        last.append(_dot(
            [comb(m, m - j) * s1[m] for m in ms],
            [_pow_int(m - j + 2, -k) for m in ms],
        ))
    return mid, last


def _thm3(p):
    n, r, k = p["n"], p["r"], p["k"]
    mid, last = _thm3_weights(n, k)
    rhs = Polynomial.linear_combination(
        [(-1, _X * _A_shift(n, r, k))]
        + [(r * w, _bernoulli_reflected(j, 1 - r, 0)) for j, w in enumerate(mid)]
        + [(w, _bernoulli_reflected(j, -r, -1)) for j, w in enumerate(last)]
    )
    return [(mixed_A(n + 1, r, k), rhs)]


@lru_cache(maxsize=None)
def _thm4_weights(n) -> tuple:
    """Theorem 4's weights, independent of r and k: of A_a^{(r+1,k)} in
    the double sum (a = 0..n-1), their total, and of A_l^{(r,k)} in the
    single sum (l = 0..n-1)."""
    dbl = []
    for a in range(n):
        ls = range(a, n)
        dbl.append(_dot(
            [
                (-1) ** (n - a) * factorial(n - 1 - l) * factorial(l - a)
                * comb(n - 1, l) * comb(l, a)
                for l in ls
            ],
            [Fraction(1, l - a + 2) for l in ls],
        ))
    single = [(-1) ** (n - l - 1) * factorial(n - l - 1) * comb(n - 1, l) for l in range(n)]
    return dbl, _dot([1] * n, dbl), single


def _thm4_core(p, printed: bool):
    n, r, k = p["n"], p["r"], p["k"]
    dbl, dbl_total, single = _thm4_weights(n)
    if printed:
        carried = [(r * dbl_total, mixed_A(n, r + 1, k))]
    else:
        carried = [(r * w, mixed_A(a, r + 1, k)) for a, w in enumerate(dbl)]
    rhs = Polynomial.linear_combination(
        [(-1, _X * _A_shift(n - 1, r, k))]
        + carried
        + [(r * w, mixed_A(l, r, k)) for l, w in enumerate(single)]
        + [
            (Fraction(1, n), _A_shift(n, r + 1, k - 1)),
            (Fraction(-1, n), _A_shift(n, r + 1, k)),
        ]
    )
    return [(mixed_A(n, r, k), rhs)]


def _thm4(p):
    return _thm4_core(p, printed=True)


def _thm4_variant(p):
    return _thm4_core(p, printed=False)


@lru_cache(maxsize=None)
def _thm5_weights(n, m) -> list:
    """Theorem 5's weight of r A_a^{(r+1,k)}(1) in its double sum,
    a = 0..n-m-1; independent of r and k."""
    s1 = stirling_triangle(1, n)
    out = []
    for a in range(n - m):
        ls = range(a, n - m)
        out.append(_dot(
            [
                (-1) ** (l - a + 1) * factorial(l - a) * comb(n - 1, l) * comb(l, a)
                * s1[n - 1 - l][m]
                for l in ls
            ],
            [Fraction(1, l - a + 2) for l in ls],
        ))
    return out


@lru_cache(maxsize=None)
def _thm5_common(n, m, r, k) -> tuple:
    """What Theorem 5's printed reading and its variant share: the left
    side, the first two sums of the right side, the weights of the last
    sum, and the last sum over A_l^{(r,k)}(1)."""
    s1 = stirling_triangle(1, n)
    lhs = _dot(
        [comb(n, l) * s1[n - l][m] for l in range(n - m + 1)],
        [_A_at(l, r, k, 0) for l in range(n - m + 1)],
    )
    at_one = [_A_at(l, r, k, 1) for l in range(n - m + 1)]
    rhs = r * _dot(_thm5_weights(n, m), [_A_at(a, r + 1, k, 1) for a in range(n - m)])
    rhs += r * _dot([comb(n - 1, l) * s1[n - l - 1][m] for l in range(n - m)], at_one[:-1])
    last = [comb(n - 1, l) * s1[n - l - 1][m - 1] for l in range(n - m + 1)]
    return lhs, rhs, last, _dot(last, at_one)


def _thm5_core(p, printed: bool):
    n, m, r, k = p["n"], p["m"], p["r"], p["k"]
    lhs, rhs, last, last_at_one = _thm5_common(n, m, r, k)
    # the last sum splits 1/m + (1 - 1/m); only the variant lowers k in
    # its first part
    if printed:
        rhs += last_at_one
    else:
        lowered = [_A_at(l, r, k - 1, 1) for l in range(n - m + 1)]
        part = Fraction(1, m)
        rhs += part * _dot(last, lowered) + (1 - part) * last_at_one
    return [(Polynomial.constant(lhs), Polynomial.constant(rhs))]


def _thm5(p):
    return _thm5_core(p, printed=True)


def _thm5_variant(p):
    return _thm5_core(p, printed=False)


def _eq52(p):
    n, r, k = p["n"], p["r"], p["k"]
    lhs = mixed_A(n, r, k).derivative()
    rhs = Polynomial.linear_combination(
        (Fraction((-1) ** (n + l) * factorial(n), (n - l) * factorial(l)), mixed_A(l, r, k))
        for l in range(n)
    )
    return [(lhs, rhs)]


@lru_cache(maxsize=None)
def _bernoulli_stirling(j: int, s: int) -> Polynomial:
    """P_j(x) = sum over m of (-1)^m s(j, m) B_m^{(s)}(x), the part of
    Theorem 6's right side that depends on neither n nor r nor k."""
    s1 = stirling_triangle(1, j)[j]
    return Polynomial.linear_combination(
        ((-1) ** m * s1[m], bernoulli_poly(m, s)) for m in range(j + 1)
    )


def _thm6_table(order, r, k, s) -> tuple:
    """Theorem 6's right sides for one (r, k, s), n = 0..order: the sum
    over l of C(n, l) A_l^{(r+s,k)}(s) P_{n-l}(x), the Stirling transform
    over m folded into P_j."""
    return _binomial_rows(
        order,
        [_A_at(l, r + s, k, s) for l in range(order + 1)],
        [_bernoulli_stirling(j, s) for j in range(order + 1)],
    )


def _thm6(p):
    n, r, k, s = p["n"], p["r"], p["k"], p["s"]
    return [(mixed_A(n, r, k), _slab_row(n, _thm6_table, r, k, s))]


@lru_cache(maxsize=None)
def _frobenius_stirling(j: int, s: int, p: int, q: int) -> Polynomial:
    """Q_j(x) = sum over m of (-1)^m s(j, m) H_m^{(s)}(x|p/q), the part of
    Theorem 7's right side that depends on neither n nor r nor k."""
    s1 = stirling_triangle(1, j)[j]
    lam = Fraction(p, q)
    return Polynomial.linear_combination(
        ((-1) ** m * s1[m], frobenius_euler(m, s, lam)) for m in range(j + 1)
    )


def _thm7_moments(order, s, p, q) -> tuple:
    """M_i = sum over a of (-p)^a q^(s-a) C(s, a) (s-a)^i, i = 0..order.

    For A(x) = sum c_i x^i, the sum over a of (-lam)^a C(s, a) A(s-a)
    with lam = p/q is sum c_i M_i / q^s."""
    w = [(-p) ** a * q ** (s - a) * comb(s, a) for a in range(s + 1)]
    return tuple(sum(wa * (s - a) ** i for a, wa in enumerate(w)) for i in range(order + 1))


def _thm7_table(order, r, k, s, p, q) -> tuple:
    """Theorem 7's right sides for one (r, k, s, lam = p/q), n = 0..order:
    the sum over l of C(n, l) inner_l Q_{n-l}(x), the Stirling transform
    over m folded into Q_j.

    inner_l = (1 - lam)^(-s) sum over a of (-lam)^a C(s, a) A_l^{(r,k)}(s-a)
    is one integer dot product of A_l's numerators with the moments M_i,
    over A_l's denominator times (q - p)^s, since (1 - lam)^(-s) =
    q^s / (q - p)^s.  The keys hold lam as the ints p and q, since hashing
    a Fraction costs ten times as much."""
    moments = _grown((_thm7_moments, s, p, q), order, _thm7_moments, s, p, q)
    scale = (q - p) ** s
    inner = []
    for l in range(order + 1):
        a_l = mixed_A(l, r, k)
        inner.append(Fraction(sum(map(_times, a_l.num, moments)), a_l.den * scale))
    return _binomial_rows(
        order, inner, [_frobenius_stirling(j, s, p, q) for j in range(order + 1)]
    )


def _thm7(p):
    n, r, k, s, lam = p["n"], p["r"], p["k"], p["s"], p["lam"]
    rhs = _slab_row(n, _thm7_table, r, k, s, lam.numerator, lam.denominator)
    return [(mixed_A(n, r, k), rhs)]


def _thm8_table(order, r, k) -> tuple:
    """Theorem 8's right sides for one (r, k), n = 0..order: the sum over l
    of C(n, l) A_l^{(r,k)}(0) (-x)_{n-l}."""
    return _binomial_rows(
        order,
        [_A_at(l, r, k, 0) for l in range(order + 1)],
        _grown((_minus_x_falling,), order, _minus_x_falling),
    )


def _thm8(p):
    n, r, k = p["n"], p["r"], p["k"]
    return [(mixed_A(n, r, k), _slab_row(n, _thm8_table, r, k))]


def _narumi_bernoulli(p):
    n, r = p["n"], p["r"]
    return [(narumi(n, r), poly_shift(bernoulli_poly(n, n + r + 1), 1))]


def _sheffer_pair_eq17(p):
    n, r, k = p["n"], p["r"], p["k"]
    pair = mixed_pair(r, k, _mixed_sheffer_order(n))
    return [(mixed_A(n, r, k), sheffer_by_gf(pair, n))]


def _assoc_eq25(p):
    n = p["n"]
    order = _mixed_sheffer_order(n)
    lhs = transfer(Series.t(order), backward_delta(order), n)
    return [(lhs, (-1) ** n * _rising(n))]


# -- domains ---------------------------------------------------------------


def _dom_r_nonneg(p):
    if p["r"] < 0:
        return "r < 0: formula uses Stirling-2 / composition structure"
    return None


def _dom_n_pos(p):
    if p["n"] < 1:
        return "n < 1: statement needs n >= 1"
    return None


def _dom_thm5(p):
    if not (1 <= p["m"] <= p["n"] - 1):
        return "out of domain: needs n-1 >= m >= 1"
    return None


def _dom_thm7(p):
    if p["lam"] == 1:
        return "lam = 1: Frobenius-Euler undefined"
    if p["s"] < 0:
        return "s < 0: the sum over a = 0..s needs s >= 0"
    return None


def _dom_none(p):
    return None


class IdentityDef(_FrozenRecord):
    __slots__ = ("axes", "domain", "pairs", "default_grid")

    def __init__(self, axes: tuple, domain, pairs, default_grid: GridSpec):
        self._set(axes, domain, pairs, default_grid)


_DEFS: dict[str, IdentityDef] = {
    "THM1": IdentityDef(
        ("n", "r", "k"),
        _dom_r_nonneg,
        _thm1,
        GridSpec(n_values=tuple(range(9)), r_values=_R_STD, k_values=_K_STD),
    ),
    "THM2": IdentityDef(
        ("n", "r", "k"),
        _dom_none,
        _thm2,
        GridSpec(n_values=tuple(range(9)), r_values=_R_STD, k_values=_K_STD),
    ),
    "EQ32": IdentityDef(
        ("n", "r", "k"),
        _dom_none,
        _eq32,
        GridSpec(n_values=tuple(range(9)), r_values=_R_STD, k_values=_K_STD),
    ),
    "EQ34": IdentityDef(
        ("n", "r", "k"),
        _dom_r_nonneg,
        _eq34,
        GridSpec(n_values=tuple(range(9)), r_values=_R_STD, k_values=_K_STD),
    ),
    "EQ35": IdentityDef(
        ("n", "r", "k"),
        _dom_none,
        _eq35,
        GridSpec(n_values=tuple(range(9)), r_values=_R_EXT, k_values=_K_STD),
    ),
    "EQ36": IdentityDef(
        ("n", "r", "k"),
        _dom_n_pos,
        _eq36,
        GridSpec(n_values=tuple(range(9)), r_values=_R_EXT, k_values=_K_STD),
    ),
    "THM3": IdentityDef(
        ("n", "r", "k"),
        _dom_none,
        _thm3,
        GridSpec(n_values=tuple(range(7)), r_values=_R_STD, k_values=_K_STD),
    ),
    "THM4": IdentityDef(
        ("n", "r", "k"),
        _dom_n_pos,
        _thm4,
        GridSpec(n_values=tuple(range(7)), r_values=_R_STD, k_values=_K_STD),
    ),
    "THM4_VARIANT": IdentityDef(
        ("n", "r", "k"),
        _dom_n_pos,
        _thm4_variant,
        GridSpec(n_values=tuple(range(7)), r_values=_R_STD, k_values=_K_STD),
    ),
    "THM5": IdentityDef(
        ("n", "m", "r", "k"),
        _dom_thm5,
        _thm5,
        GridSpec(
            n_values=tuple(range(7)),
            m_values=tuple(range(7)),
            r_values=_R_STD,
            k_values=_K_STD,
        ),
    ),
    "THM5_VARIANT": IdentityDef(
        ("n", "m", "r", "k"),
        _dom_thm5,
        _thm5_variant,
        GridSpec(
            n_values=tuple(range(7)),
            m_values=tuple(range(7)),
            r_values=_R_STD,
            k_values=_K_STD,
        ),
    ),
    "EQ52": IdentityDef(
        ("n", "r", "k"),
        _dom_none,
        _eq52,
        GridSpec(n_values=tuple(range(9)), r_values=_R_EXT, k_values=_K_STD),
    ),
    "THM6": IdentityDef(
        ("n", "r", "k", "s"),
        _dom_none,
        _thm6,
        GridSpec(
            n_values=tuple(range(9)),
            r_values=_R_EXT,
            k_values=_K_STD,
            s_values=_S_STD,
        ),
    ),
    "THM7": IdentityDef(
        ("n", "r", "k", "s", "lam"),
        _dom_thm7,
        _thm7,
        GridSpec(
            n_values=tuple(range(9)),
            r_values=_R_EXT,
            k_values=_K_STD,
            s_values=_S_STD,
            lambdas=_LAMBDAS,
        ),
    ),
    "THM8": IdentityDef(
        ("n", "r", "k"),
        _dom_none,
        _thm8,
        GridSpec(n_values=tuple(range(9)), r_values=_R_EXT, k_values=_K_STD),
    ),
    "NARUMI_BERNOULLI": IdentityDef(
        ("n", "r"),
        _dom_none,
        _narumi_bernoulli,
        GridSpec(n_values=tuple(range(11)), r_values=(-3, -2, -1, 0, 1, 2, 3)),
    ),
    "SHEFFER_PAIR_EQ17": IdentityDef(
        ("n", "r", "k"),
        _dom_none,
        _sheffer_pair_eq17,
        GridSpec(n_values=tuple(range(9)), r_values=_R_STD, k_values=(-1, 0, 1, 2)),
    ),
    "ASSOC_EQ25": IdentityDef(
        ("n",),
        _dom_none,
        _assoc_eq25,
        GridSpec(n_values=tuple(range(11))),
    ),
}

IDENTITY_IDS = tuple(_DEFS)


def default_grid(identity: str) -> GridSpec:
    return _DEFS[identity].default_grid


# -- the harness -----------------------------------------------------------


def _poly_strings(p: Polynomial) -> list:
    if p.is_zero:
        return ["0"]
    return [str(c) for c in p.coeffs]


# fixed: kept only so reports match perfbench/reports.json until ROADMAP item 2's re-record
_ENGINE = {"truncation": 32, "version": __version__}


class VerificationReport(_Record):
    __slots__ = ("identity", "grid", "results", "elapsed")

    def __init__(self, identity: str, grid: GridSpec, results: list | None = None,
                 elapsed: float = 0.0):
        self.identity = identity
        self.grid = grid
        self.results = [] if results is None else results
        self.elapsed = elapsed  # not serialized: reports must be byte-stable

    @property
    def totals(self) -> dict:
        t = {"pass": 0, "fail": 0, "skipped": 0}
        for r in self.results:
            t[r["verdict"]] += 1
        return t

    @property
    def all_passed(self) -> bool:
        return self.totals["fail"] == 0

    def to_document(self) -> dict:
        return {
            "identity": self.identity,
            "grid": self.grid.to_dict(),
            "engine": dict(_ENGINE),
            "results": self.results,
            "totals": self.totals,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document())


# -- the report text -------------------------------------------------------
#
# With `indent` set, json.dumps runs the stdlib's pure-Python encoder, which
# on a verify-all report costs more than most identities.  report_text
# writes the same bytes: each entry from one %-template per shape, its
# slots ints, strings and lists of strings (a fail entry's coefficients),
# and every other value with json.dumps, its continuation lines
# re-indented.  The re-indent is exact because JSON text never holds a raw
# newline inside a string.


def _newline(depth: int) -> str:
    return "\n" + "  " * depth


def _dumps_at(value, depth: int) -> str:
    """json.dumps(value, indent=2) as it reads `depth` levels deep."""
    return json.dumps(value, indent=2).replace("\n", _newline(depth))


@lru_cache(maxsize=None)
def _entry_template(depth: int, point_keys: tuple, keys: tuple):
    """The %-template of an entry {"point": {...}, key: ..., ...} `depth`
    levels deep, with one %s per point value and per later value; None
    unless every key is a string and the point comes first and is not
    empty."""
    if not point_keys or keys[0] != "point":
        return None
    if not all(type(key) is str for key in point_keys + keys):
        return None

    def field(key):
        return encode_basestring_ascii(key).replace("%", "%%") + ": "

    inner, outer = "," + _newline(depth + 2), "," + _newline(depth + 1)
    point = (
        field("point") + "{" + _newline(depth + 2)
        + inner.join(field(key) + "%s" for key in point_keys)
        + _newline(depth + 1) + "}"
    )
    return (
        "{" + _newline(depth + 1)
        + outer.join([point] + [field(key) + "%s" for key in keys[1:]])
        + _newline(depth) + "}"
    )


def _slot_text(value, depth: int):
    """One template slot `depth` levels deep: an int as it is, a string or
    a non-empty list of strings as json.dumps(indent=2) writes it; the
    encoder raises TypeError on any other value."""
    if type(value) is int:
        return value
    if type(value) is list and value:
        nl = _newline(depth + 1)
        items = ("," + nl).join([encode_basestring_ascii(v) for v in value])
        return "[" + nl + items + _newline(depth) + "]"
    return encode_basestring_ascii(value)


def _entry_text(entry, depth: int) -> str:
    """One result entry `depth` levels deep, from its template if it has one."""
    point = entry.get("point") if type(entry) is dict else None
    if type(point) is dict:
        template = _entry_template(depth, tuple(point), tuple(entry))
        if template is not None:
            try:
                # a slot takes an int, a string or a list of strings: any
                # other value raises and falls back to json.dumps
                return template % tuple(
                    [_slot_text(v, depth + 2) for v in point.values()]
                    + [_slot_text(v, depth + 1) for v in list(entry.values())[1:]]
                )
            except TypeError:
                pass
    return _dumps_at(entry, depth)


def _document_text(doc, depth: int) -> str:
    """One report document `depth` levels deep, its results entry by entry."""
    results = doc.get("results") if type(doc) is dict else None
    if type(results) is not list or not results or not all(type(key) is str for key in doc):
        return _dumps_at(doc, depth)
    nl = _newline(depth + 1)
    fields = []
    for key, value in doc.items():
        if key == "results":
            text = (
                "[" + _newline(depth + 2)
                + ("," + _newline(depth + 2)).join(
                    [_entry_text(entry, depth + 2) for entry in value]
                )
                + nl + "]"
            )
        else:
            text = _dumps_at(value, depth + 1)
        fields.append(encode_basestring_ascii(key) + ": " + text)
    return "{" + nl + ("," + nl).join(fields) + _newline(depth) + "}"


def report_text(payload) -> str:
    """json.dumps(payload, indent=2) + "\n", byte for byte, for one report
    document or a list of them, written without the pure-Python encoder
    for the result entries that make up most of a report."""
    if type(payload) is list and payload:
        docs = ",\n  ".join([_document_text(doc, 1) for doc in payload])
        return "[\n  " + docs + "\n]\n"
    return _document_text(payload, 0) + "\n"


def _point_entry(definition: IdentityDef, point: dict, shown: dict) -> dict:
    """The report entry of one point; `shown` is the point as the report
    writes it."""
    reason = definition.domain(point)
    if reason is not None:
        return {"point": shown, "verdict": "skipped", "reason": reason}
    for lhs, rhs in definition.pairs(point):
        if lhs != rhs:
            diff = lhs - rhs
            return {
                "point": shown,
                "verdict": "fail",
                "lhs": _poly_strings(lhs),
                "rhs": _poly_strings(rhs),
                "diff": _poly_strings(diff),
            }
    return {"point": shown, "verdict": "pass"}


def verify(identity: str, grid: GridSpec | None = None, jobs: int = 1) -> VerificationReport:
    """Check one identity over a grid; failures are recorded, not raised.

    The result list follows lexicographic grid order regardless of the
    worker count, so reports are byte-identical across jobs settings.
    """
    if identity not in _DEFS:
        raise ValueError(f"unknown identity {identity!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    definition = _DEFS[identity]
    if grid is None:
        grid = definition.default_grid
    axes = definition.axes
    value_lists = []
    for axis in axes:
        vals = grid.values_for(axis)
        if not vals:
            raise ValueError(f"grid provides no values for axis {axis!r}")
        value_lists.append(vals)
    # each point twice: as the evaluators read it, and as the report shows
    # it, with the Fraction lambdas as strings
    shown_lists = [
        [str(v) if isinstance(v, Fraction) else v for v in vals] for vals in value_lists
    ]
    points = list(zip(
        [dict(zip(axes, combo)) for combo in itertools.product(*value_lists)],
        [dict(zip(axes, combo)) for combo in itertools.product(*shown_lists)],
    ))
    start = time.monotonic()
    if jobs > 1:
        # the executor's own default ceiling, and no more threads than points
        workers = min(jobs, len(points), 32, (os.cpu_count() or 1) + 4)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda pt: _point_entry(definition, *pt), points))
    else:
        results = [_point_entry(definition, *pt) for pt in points]
    report = VerificationReport(identity=identity, grid=grid, results=results)
    report.elapsed = time.monotonic() - start
    return report


def verify_variants(identity: str, grid: GridSpec | None = None, jobs: int = 1) -> dict:
    """Run the printed statement and its derivation-faithful variant side
    by side; only the identities in VARIANTS have variants."""
    if identity not in VARIANTS:
        raise ValueError(f"verify_variants applies to {' and '.join(VARIANTS)} only")
    return {
        "printed": verify(identity, grid, jobs),
        "variant": verify(VARIANTS[identity], grid, jobs),
    }
