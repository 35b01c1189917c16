"""Identity verification harness.

Each registered identity owns an evaluator that produces one or more
(lhs, rhs) pairs of sides per grid point.  The left side always comes
from the generating-function expansion of A_n^{(r,k)} (and shifts of it);
the right side is the combinatorial formula built from the other family
constructors.  A side is a `Polynomial` or, unreduced, a pair
(numerators, den) of integers in ascending powers of x over one
denominator.  A point passes iff every pair matches exactly: the harness
cross-multiplies the two numerator lists by the other side's denominator
(`_same`) and builds reduced Polynomials only for the first pair that
differs, the lhs, rhs and diff of the point's fail entry.  A_n^{(r,k)}
itself is read as row n of its parameter slab (`_A_row`).

Sub-results that depend on fewer coordinates than a grid point are
computed once per process and shared by every point, grid and identity
that needs them.  Those that depend on n alone, or on n and one more
integer, are memoized with ``functools.lru_cache``: the weights of
Theorems 3, 4 and 5 and of (35) and (52), the binomial shift matrices
C(j, i) y^(j-i) per (n, y), Theorem 3's reflected Bernoulli polynomials
and the rising factorials.

Most right sides are fixed integer-weighted transforms of a few sequences
that depend on a parameter slab but not on n.  Each such sequence is kept
for l = 0..N as one tuple of integer numerators over one denominator, in
the family memo (`_slab`, through `families._grown`, rebuilt at twice the
order when a larger n asks for it):

- A_0^{(r,k)} .. A_N^{(r,k)}, as rows and as columns, per (r, k)
  (`_A_rows`), and their values at an integer c per (r, k, c)
  (`_A_values`);
- the a-numbers of Theorem 2 and of (32) and (34) per r, and the
  poly-Cauchy numbers per k (`_numbers`);
- the polynomials P_j of a Sheffer binomial sum, as columns over one
  denominator (`_stirling_side`): the Stirling transform
  sum over m of (-1)^m s(j, m) p_m(x) of x^m, which is (-x)_j
  (Theorems 2 and 8), of the Bernoulli polynomials per s (Theorem 6) and
  of the Frobenius-Euler polynomials per (s, lambda) (Theorem 7).

The right sides that read them are integer dot products, left
unreduced.  A shift A_n(x + y) is row n's dot product with the columns of
a shift matrix (`_shifted`), so (52) builds both sides from A's rows and
columns over their one denominator, and Theorem 4 sums its right side as
integers over the rows of the slabs (r, k), (r+1, k) and (r+1, k-1);
Theorem 3 adds its shifted row to the reflected Bernoulli polynomials in
one `Polynomial.linear_combination`, and (36) compares a row of A's slab
with one `poly_shift`.  (35) is checked once
per (n, r, k) as an identity in x and y (`_eq35_sides`): both sides have
degree at most n in y, so it holds iff it holds at the n + 1 points
y = -2..n-2; only when it fails are the sides specialized at each y, so
that the report shows the first y that fails.  Theorem 5's sides are
constants, integer dot products with A's values at 0 and 1.

Theorem 1's right side is the sum over m of s(n, m) R_m(x), each R_m a
row of integers over one denominator.  Theorems 2 (with (32) and (34)),
6, 7 and 8 expand A_n^{(r,k)}(x) by the Sheffer binomial identity: each
right side is R_n(x) = sum over l of C(n, l) v_l P_{n-l}(x).  So each of
these evaluators, and Theorem 1's, reads row n of a table of right sides
for n = 0..N, each row a side (numerators, den), built once per
parameter slab (`_slab_row`; `_binomial_rows` for the Sheffer sums):
(r, k) for Theorems 1, 2 and 8, (r, k, s) for Theorem 6 and
(r, k, s, lambda) for Theorem 7.  Theorem 7's value v_l,
the sum over a of (-lam)^a C(s, a) A_l(s-a) times (1 - lam)^(-s), is one
integer dot product of row l of A with a moment vector kept per (s, lam)
(`_thm7_moments`); every key of Theorem 7 holds lam = p/q as the two ints
p and q.  `verify` evaluates a grid's points largest n first, so that each
slab is built once, at its largest order.

`report_text` writes a report as ``json.dumps(payload, indent=2)`` does,
byte for byte, but renders the pass, fail and skipped entries from cached
%-templates instead of through the stdlib's pure-Python encoder: one
template lookup per run of same-shape entries, and each string slot
encoded once per document.

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
from itertools import repeat
from json.encoder import encode_basestring_ascii
from math import comb, factorial, gcd, lcm
from operator import mul as _times

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
    _lif_weights,
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
def _rising(n: int) -> Polynomial:
    return rising_factorial(n)


@lru_cache(maxsize=None)
def _shift_matrix(n: int, y: int) -> tuple:
    """Columns i = 0..n of C(j, i) y^(j-i), j = 0..n (0 for j < i): [x^i]
    p(x + y) is column i's dot product with the coefficients of p."""
    return tuple(
        tuple([comb(j, i) * y ** (j - i) if j >= i else 0 for j in range(n + 1)])
        for i in range(n + 1)
    )


def _shifted(row, y: int) -> list:
    """The numerators of p(x + y) for the numerators `row` of p."""
    return [sum(map(_times, row, col)) for col in _shift_matrix(len(row) - 1, y)]


@lru_cache(maxsize=None)
def _bernoulli_reflected(n: int, alpha: int, b: int) -> Polynomial:
    """B_n^{(alpha)}(-x + b)."""
    return bernoulli_poly(n, alpha).compose_affine(-1, b)


def _mixed_sheffer_order(n: int) -> int:
    """10, doubled until it reaches n + 2: any order >= n + 2 gives row n."""
    order = 10
    while order < n + 2:
        order *= 2
    return order


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


def _common(values) -> tuple:
    """(nums, den): the ints or Fractions values as a tuple of integer
    numerators over their lcm denominator."""
    den = lcm(*(v.denominator for v in values))
    return tuple([v.numerator * (den // v.denominator) for v in values]), den


def _slab(build, order: int, *args):
    """build(m, *args) for some m >= order, a sequence of one parameter
    slab kept whole in the family memo and rebuilt at a larger order on
    demand."""
    return _grown((build, *args), order, build, *args)


def _slab_row(n: int, table, *slab) -> tuple:
    """Row n of the table of R_0 .. R_m of one parameter slab, a side
    (numerators, den)."""
    return _slab(table, n, *slab)[n]


def _numbers(order: int, number, *args) -> tuple:
    """number(i, *args), i = 0..order, as numerators over one denominator."""
    return _common([number(i, *args) for i in range(order + 1)])


def _A_rows(order: int, r: int, k: int) -> tuple:
    """(rows, columns, den): A_l^{(r,k)}, l = 0..order, over one
    denominator, rows[l][i] = columns[i][l] the numerator of [x^i] A_l,
    the columns zero-padded to length order + 1."""
    polys = [mixed_A(l, r, k) for l in range(order + 1)]
    den = lcm(*(a.den for a in polys))
    rows = tuple([tuple([c * (den // a.den) for c in a.num]) for a in polys])
    cols = tuple(zip(*(row + (0,) * (order + 1 - len(row)) for row in rows)))
    return rows, cols, den


def _A_row(n: int, r: int, k: int) -> tuple:
    """A_n^{(r,k)}(x) as the side (numerators, den): row n of the (r, k)
    slab of `_A_rows`."""
    rows, _, den = _slab(_A_rows, n, r, k)
    return rows[n], den


def _A_values(order: int, r: int, k: int, c: int) -> tuple:
    """A_l^{(r,k)}(c) at the integer c, l = 0..order, as numerators over
    one denominator."""
    rows, _, den = _slab(_A_rows, order, r, k)
    powers = [c**i for i in range(order + 1)]
    return tuple([sum(map(_times, row, powers)) for row in rows[: order + 1]]), den


def _stirling_side(order: int, family, *args) -> tuple:
    """(columns, widths, den) of P_j = sum over m of (-1)^m s(j, m)
    family(m, *args), j = 0..order: columns[i][j] the numerator of
    [x^i] P_j over the one denominator den, and widths[j] the longest
    numerator among P_0 .. P_j."""
    polys = [family(m, *args) for m in range(order + 1)]
    den = lcm(*(p.den for p in polys))
    # signed[i][m]: the numerator of (-1)^m [x^i] family(m)
    signed = [
        [(-1) ** m * p.num[i] * (den // p.den) if i < len(p.num) else 0
         for m, p in enumerate(polys)]
        for i in range(max(len(p.num) for p in polys))
    ]
    s1 = stirling_triangle(1, order)
    cols = tuple([
        tuple([sum(map(_times, s1[j], row)) for j in range(order + 1)]) for row in signed
    ])
    return cols, tuple(itertools.accumulate((len(p.num) for p in polys), max)), den


def _binomial_rows(order: int, values, vden: int, side) -> tuple:
    """R_n(x) = sum over l of C(n, l) v_l P_{n-l}(x) for n = 0..order, the
    rows of one parameter slab as sides (numerators, den), with
    v_l = values[l] / vden and P_j read from side, a `_stirling_side`:
    each coefficient of a row is one integer dot product, and no row is
    reduced; entries past order are ignored."""
    cols, widths, pden = side
    den = vden * pden
    rows = []
    for n in range(order + 1):
        w = [comb(n, j) * values[n - j] for j in range(n + 1)]  # the weight of P_j
        rows.append((tuple([sum(map(_times, w, col)) for col in cols[: widths[n]]]), den))
    return tuple(rows)


# -- identity evaluators ---------------------------------------------------
#
# Each returns a list of (lhs, rhs) pairs for one grid point.  A side is a
# `Polynomial` or an unreduced (numerators, den): integer numerators in
# ascending powers of x, trailing zeros allowed, over one nonzero integer.


def _thm1_table(order, r, k) -> tuple:
    """Theorem 1's right sides for one (r, k), n = 0..order: the sum over m
    of s(n, m) R_m(x), R_m(x) = sum over j of (-1)^j c_j x^j, with c_j the
    sum over l of C(m,l) C(m-l,j) (l+1)^(-k) S(q+r, r) / C(q+r, r),
    q = m-l-j.  (l+1)^(-k) is w_l / d with the weights of `_lif_weights`
    and S(q+r, r) / C(q+r, r) is b_q / lcm C(q+r, r), so every R_m and
    every right side is a row of integers over one denominator."""
    w, d = _lif_weights(order, k)
    s2 = stirling_triangle(2, order + r)
    combs = [comb(q + r, r) for q in range(order + 1)]
    qden = lcm(*combs)
    b = [s2[q + r][r] * (qden // c) for q, c in enumerate(combs)]
    R = [
        [(-1) ** j * sum([
            comb(m, l) * comb(m - l, j) * w[l] * b[m - l - j] for l in range(m - j + 1)
        ]) for j in range(m + 1)]
        for m in range(order + 1)
    ]
    s1 = stirling_triangle(1, order)
    return tuple([
        (
            tuple([sum([s1[n][m] * R[m][j] for m in range(j, n + 1)]) for j in range(n + 1)]),
            d * qden,
        )
        for n in range(order + 1)
    ])


def _thm1(p):
    n, r, k = p["n"], p["r"], p["k"]
    return [(_A_row(n, r, k), _slab_row(n, _thm1_table, r, k))]


def _thm2_table(order, a_number, r, k) -> tuple:
    """Theorem 2's right sides for one (r, k), n = 0..order; THM2, EQ32 and
    EQ34 differ only in a_number.

    The sum over j of (-1)^j s(i, j) x^j is (-x)_i, so the right side is
    the sum over l of C(n, l) inner_l (-x)_{n-l}, with the innermost sum
    inner_t = sum over a of C(t, a) a_number(a, r) C_{t-a}^{(k)}, an
    integer convolution of the a-numbers with the poly-Cauchy numbers."""
    an, aden = _slab(_numbers, order, a_number, r)
    pc, pden = _slab(_numbers, order, _pc_number, k)
    inner = [sum([comb(t, a) * an[a] * pc[t - a] for a in range(t + 1)]) for t in range(order + 1)]
    side = _slab(_stirling_side, order, Polynomial.monomial)  # (-x)_j
    return _binomial_rows(order, inner, aden * pden, side)


def _thm2_core(p, a_number):
    n, r, k = p["n"], p["r"], p["k"]
    return [(_A_row(n, r, k), _slab_row(n, _thm2_table, a_number, r, k))]


def _pc_number(n, k) -> Fraction:
    return poly_cauchy(n, k).evaluate(0)


def _bernoulli_a(a, r) -> Fraction:
    return bernoulli_poly(a, a - r + 1).evaluate(1)


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


@lru_cache(maxsize=None)
def _eq35_weights(n) -> tuple:
    """(binomials, weights) of (35) by powers of y, j = 0..n: binomials[i]
    lists C(i+j, i) for i + j <= n, and weights[j][l], l = 0..n-j, is
    [y^j] of the weight (-1)^(n-l) C(n, l) y(y+1)...(y+n-l-1) of A_l,
    which is (-1)^j C(n, l) s(n-l, j)."""
    s1 = stirling_triangle(1, n)
    return (
        tuple([tuple([comb(i + j, i) for j in range(n - i + 1)]) for i in range(n + 1)]),
        tuple([
            tuple([(-1) ** j * comb(n, l) * s1[n - l][j] for l in range(n - j + 1)])
            for j in range(n + 1)
        ]),
    )


def _eq35_sides(n, r, k) -> tuple:
    """(lhs, rhs, den): both sides of (35) as polynomials in x and y,
    side[i][j] the numerator of [x^i y^j] over den for i + j <= n:
    [x^i y^j] A_n(x+y) is C(i+j, i) [x^(i+j)] A_n, and the right side's is
    the dot product of weights[j] with column i of A's slab; A_l has
    degree l, so no coefficient of either side lies past i + j = n.  Both
    sides have degree at most n in y, so they agree as polynomials iff
    they agree at the n + 1 points y = -2..n-2."""
    rows, cols, den = _slab(_A_rows, n, r, k)
    binomials, weights = _eq35_weights(n)
    a = rows[n]
    lhs = [list(map(_times, b, a[i:])) for i, b in enumerate(binomials)]
    rhs = [[sum(map(_times, w, cols[i])) for w in weights[: n - i + 1]] for i in range(n + 1)]
    return lhs, rhs, den


def _eq35_at(n, lhs, rhs, den) -> list:
    """The pairs of sides of (35) at y = -2..n-2, as polynomials in x,
    from the bivariate sides of `_eq35_sides`."""
    def at(side, y):
        return [sum([c * y**j for j, c in enumerate(row)]) for row in side]

    return [((at(lhs, y), den), (at(rhs, y), den)) for y in range(-2, n - 1)]


def _eq35(p):
    """No pair when the two sides agree in x and y; else the pairs at each
    y, so that the report shows the first y where they differ."""
    n = p["n"]
    lhs, rhs, den = _eq35_sides(n, p["r"], p["k"])
    if lhs == rhs:
        return []
    return _eq35_at(n, lhs, rhs, den)


def _eq36(p):
    """n A_{n-1}(x) = A_n(x-1) - A_n(x).  The left side is row n-1 of A's
    slab; the right side stays one `poly_shift`, the Polynomial shift that
    the benchmark's tracer test counts in a traced `verify EQ36`."""
    n, r, k = p["n"], p["r"], p["k"]
    rows, _, den = _slab(_A_rows, n, r, k)
    a_n = mixed_A(n, r, k)
    return [(([n * c for c in rows[n - 1]], den), poly_shift(a_n, -1) - a_n)]


@lru_cache(maxsize=None)
def _thm3_weights(n, k) -> tuple:
    """Theorem 3's weights, j = 0..n, of B_j^{(1-r)}(-x) in the middle sum
    and of B_j^{(-r)}(-x-1) in the last one, neither dependent on r, as
    numerators over the denominator that follows them: (l+1)^(-k) is
    w_l / d with the weights of `_lif_weights`, and 1/((a+2)(a+1)) is e_a
    over their lcm."""
    s1 = stirling_triangle(1, n)[n]
    w, d = _lif_weights(n + 1, k)
    eden = lcm(*((a + 2) * (a + 1) for a in range(n + 1)))
    e = [eden // ((a + 2) * (a + 1)) for a in range(n + 1)]
    # the middle sum's terms with m - l - a = j, and C(m-l, a) = C(m-l, j)
    mid = [
        sum([
            (-1) ** (m - l - j) * comb(m, l) * comb(m - l, j) * s1[m] * w[l] * e[m - l - j]
            for m in range(j, n + 1) for l in range(m - j + 1)
        ])
        for j in range(n + 1)
    ]
    last = [
        eden * sum([comb(m, j) * s1[m] * w[m - j + 1] for m in range(j, n + 1)])
        for j in range(n + 1)
    ]
    return mid, last, d * eden


def _thm3(p):
    n, r, k = p["n"], p["r"], p["k"]
    mid, last, wden = _thm3_weights(n, k)
    rows, _, den = _slab(_A_rows, n, r, k)
    rhs = Polynomial.linear_combination(
        [(-wden, Polynomial._of([0] + _shifted(rows[n], 1), den))]  # x A_n(x+1)
        + [(r * w, _bernoulli_reflected(j, 1 - r, 0)) for j, w in enumerate(mid)]
        + [(w, _bernoulli_reflected(j, -r, -1)) for j, w in enumerate(last)],
        wden,
    )
    return [(_A_row(n + 1, r, k), rhs)]


@lru_cache(maxsize=None)
def _thm4_weights(n) -> tuple:
    """Theorem 4's weights, independent of r and k: of A_a^{(r+1,k)} in
    the double sum (a = 0..n-1), as numerators over the denominator that
    follows them, lcm(2..n+1); and of A_l^{(r,k)} in the single sum
    (l = 0..n-1)."""
    dden = lcm(*range(2, n + 2))
    dbl = [
        sum([
            (-1) ** (n - a) * factorial(n - 1 - l) * factorial(l - a)
            * comb(n - 1, l) * comb(l, a) * (dden // (l - a + 2))
            for l in range(a, n)
        ])
        for a in range(n)
    ]
    single = [(-1) ** (n - l - 1) * factorial(n - l - 1) * comb(n - 1, l) for l in range(n)]
    return dbl, dden, single


def _thm4_core(p, printed: bool):
    """-x A_{n-1}(x+1) + r (the double sum) + r (the single sum)
    + (A_n^{(r+1,k-1)}(x+1) - A_n^{(r+1,k)}(x+1)) / n, summed as integers
    over the rows of the slabs (r, k), (r+1, k) and (r+1, k-1); the
    printed reading carries the double sum's total to A_n^{(r+1,k)}."""
    n, r, k = p["n"], p["r"], p["k"]
    dbl, dden, single = _thm4_weights(n)
    rows, cols, den = _slab(_A_rows, n, r, k)
    raised_rows, raised_cols, rden = _slab(_A_rows, n, r + 1, k)
    lowered_rows, _, lden = _slab(_A_rows, n, r + 1, k - 1)
    common = lcm(den, rden, lden)
    # common / d for each slab's denominator d, times n dden for the (r, k) slab
    f, g, h = common // den * n * dden, common // rden, common // lden
    x_shifted = [0] + _shifted(rows[n - 1], 1)
    raised, lowered = _shifted(raised_rows[n], 1), _shifted(lowered_rows[n], 1)
    if printed:
        total = sum(dbl)
        carried = [total * c for c in raised_rows[n]]
    else:
        carried = [sum(map(_times, dbl, col)) for col in raised_cols[: n + 1]]
    rhs = [
        f * (r * sum(map(_times, single, cols[i])) - x_shifted[i])
        + n * r * g * carried[i]
        + dden * (h * lowered[i] - g * raised[i])
        for i in range(n + 1)
    ]
    return [((rows[n], den), (rhs, n * dden * common))]


def _thm4(p):
    return _thm4_core(p, printed=True)


def _thm4_variant(p):
    return _thm4_core(p, printed=False)


@lru_cache(maxsize=None)
def _thm5_weights(n, m) -> tuple:
    """Theorem 5's integer weights, independent of r and k: of
    A_l^{(r,k)}(0) on the left side; of r A_a^{(r+1,k)}(1) in the double
    sum (a = 0..n-m-1), as numerators over the denominator that follows
    them; of r A_l^{(r,k)}(1) in the second sum; and of A_l^{(r,k)}(1) in
    the last one."""
    s1 = stirling_triangle(1, n)
    double = _common([
        _dot(
            [
                (-1) ** (l - a + 1) * factorial(l - a) * comb(n - 1, l) * comb(l, a)
                * s1[n - 1 - l][m]
                for l in range(a, n - m)
            ],
            [Fraction(1, l - a + 2) for l in range(a, n - m)],
        )
        for a in range(n - m)
    ])
    return (
        [comb(n, l) * s1[n - l][m] for l in range(n - m + 1)],
        *double,
        [comb(n - 1, l) * s1[n - l - 1][m] for l in range(n - m)],
        [comb(n - 1, l) * s1[n - l - 1][m - 1] for l in range(n - m + 1)],
    )


def _thm5_core(p, printed: bool):
    n, m, r, k = p["n"], p["m"], p["r"], p["k"]
    left, double, dden, second, last = _thm5_weights(n, m)
    zero, zden = _slab(_A_values, n, r, k, 0)
    one, oden = _slab(_A_values, n, r, k, 1)
    raised, rden = _slab(_A_values, n, r + 1, k, 1)
    # r (the double sum) over dden rden, then the sums over A^{(r,k)}(1)
    # over oden
    carried = r * sum(map(_times, double, raised))
    inner = r * sum(map(_times, second, one))
    last_at_one = sum(map(_times, last, one))
    # the last sum splits 1/m + (1 - 1/m); only the variant lowers k in
    # its first part
    if printed:
        rhs = carried * oden + (inner + last_at_one) * dden * rden
        den = dden * rden * oden
    else:
        lowered, lden = _slab(_A_values, n, r, k - 1, 1)
        rhs = (
            (m * carried * oden + (m * inner + (m - 1) * last_at_one) * dden * rden) * lden
            + sum(map(_times, last, lowered)) * dden * rden * oden
        )
        den = m * dden * rden * oden * lden
    return [(([sum(map(_times, left, zero))], zden), ([rhs], den))]


def _thm5(p):
    return _thm5_core(p, printed=True)


def _thm5_variant(p):
    return _thm5_core(p, printed=False)


@lru_cache(maxsize=None)
def _eq52_weights(n) -> tuple:
    """The weights (-1)^(n+l) n! / ((n-l) l!) = (-1)^(n+l) C(n, l) (n-l-1)!
    of A_l in (52), l = 0..n-1, all integers."""
    return tuple([(-1) ** (n + l) * comb(n, l) * factorial(n - l - 1) for l in range(n)])


def _eq52(p):
    n, r, k = p["n"], p["r"], p["k"]
    rows, cols, den = _slab(_A_rows, n, r, k)
    w = _eq52_weights(n)
    lhs = [i * c for i, c in enumerate(rows[n]) if i]
    return [((lhs, den), ([sum(map(_times, w, col)) for col in cols[:n]], den))]


def _thm6_table(order, r, k, s) -> tuple:
    """Theorem 6's right sides for one (r, k, s), n = 0..order: the sum
    over l of C(n, l) A_l^{(r+s,k)}(s) P_{n-l}(x), with P_j the sum over m
    of (-1)^m s(j, m) B_m^{(s)}(x)."""
    values, vden = _slab(_A_values, order, r + s, k, s)
    return _binomial_rows(order, values, vden, _slab(_stirling_side, order, bernoulli_poly, s))


def _thm6(p):
    n, r, k, s = p["n"], p["r"], p["k"], p["s"]
    return [(_A_row(n, r, k), _slab_row(n, _thm6_table, r, k, s))]


def _thm7_moments(order, s, p, q) -> tuple:
    """M_i = sum over a of (-p)^a q^(s-a) C(s, a) (s-a)^i, i = 0..order.

    For A(x) = sum c_i x^i, the sum over a of (-lam)^a C(s, a) A(s-a)
    with lam = p/q is sum c_i M_i / q^s."""
    w = [(-p) ** a * q ** (s - a) * comb(s, a) for a in range(s + 1)]
    return tuple(sum(wa * (s - a) ** i for a, wa in enumerate(w)) for i in range(order + 1))


def _thm7_table(order, r, k, s, p, q) -> tuple:
    """Theorem 7's right sides for one (r, k, s, lam = p/q), n = 0..order:
    the sum over l of C(n, l) inner_l Q_{n-l}(x), with Q_j the sum over m
    of (-1)^m s(j, m) H_m^{(s)}(x|lam).

    inner_l = (1 - lam)^(-s) sum over a of (-lam)^a C(s, a) A_l^{(r,k)}(s-a)
    is one integer dot product of row l of A's numerators with the moments
    M_i, over A's denominator times (q - p)^s, since (1 - lam)^(-s) =
    q^s / (q - p)^s.  The keys hold lam as the ints p and q, since hashing
    a Fraction costs ten times as much."""
    moments = _slab(_thm7_moments, order, s, p, q)
    rows, _, den = _slab(_A_rows, order, r, k)
    inner = [sum(map(_times, row, moments)) for row in rows[: order + 1]]
    side = _slab(_stirling_side, order, frobenius_euler, s, Fraction(p, q))
    return _binomial_rows(order, inner, den * (q - p) ** s, side)


def _thm7(p):
    n, r, k, s, lam = p["n"], p["r"], p["k"], p["s"], p["lam"]
    rhs = _slab_row(n, _thm7_table, r, k, s, lam.numerator, lam.denominator)
    return [(_A_row(n, r, k), rhs)]


def _thm8_table(order, r, k) -> tuple:
    """Theorem 8's right sides for one (r, k), n = 0..order: the sum over l
    of C(n, l) A_l^{(r,k)}(0) (-x)_{n-l}."""
    values, vden = _slab(_A_values, order, r, k, 0)
    return _binomial_rows(order, values, vden, _slab(_stirling_side, order, Polynomial.monomial))


def _thm8(p):
    n, r, k = p["n"], p["r"], p["k"]
    return [(_A_row(n, r, k), _slab_row(n, _thm8_table, r, k))]


def _narumi_bernoulli(p):
    n, r = p["n"], p["r"]
    return [(narumi(n, r), poly_shift(bernoulli_poly(n, n + r + 1), 1))]


def _sheffer_pair_eq17(p):
    n, r, k = p["n"], p["r"], p["k"]
    pair = mixed_pair(r, k, _mixed_sheffer_order(n))
    return [(_A_row(n, r, k), sheffer_by_gf(pair, n))]


def _assoc_eq25(p):
    n = p["n"]
    order = max(n + 2, 10)
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
    """The coefficients of p as `str` writes them as Fractions ("-3/4",
    "5", "0"), from its integers: one gcd per coefficient."""
    if not p.num:
        return ["0"]
    den = p.den
    if den == 1:
        return [str(c) for c in p.num]
    out = []
    for c in p.num:
        g = gcd(c, den)
        out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
    return out


def _polynomial(side) -> Polynomial:
    """A side as a reduced Polynomial."""
    if isinstance(side, Polynomial):
        return side
    num, den = side
    return Polynomial._of(list(num), den)


def _polynomial_pairs(pairs) -> list:
    """An evaluator's pairs with each side a reduced Polynomial."""
    return [(_polynomial(lhs), _polynomial(rhs)) for lhs, rhs in pairs]


def _same(lhs, rhs) -> bool:
    """Whether two sides are one polynomial: a/da = b/db iff a db = b da,
    each numerator list multiplied through at C speed, the shorter padded
    with zeros."""
    a, da = (lhs.num, lhs.den) if isinstance(lhs, Polynomial) else lhs
    b, db = (rhs.num, rhs.den) if isinstance(rhs, Polynomial) else rhs
    if len(a) != len(b):
        width = max(len(a), len(b))
        a, b = list(a) + [0] * (width - len(a)), list(b) + [0] * (width - len(b))
    return list(map(_times, a, repeat(db))) == list(map(_times, b, repeat(da)))


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
    """A template slot `depth` levels deep that is neither an int nor a
    string: a non-empty list of strings as json.dumps(indent=2) writes it;
    the encoder raises TypeError on any other value."""
    if type(value) is list and value:
        nl = _newline(depth + 1)
        items = ("," + nl).join([encode_basestring_ascii(v) for v in value])
        return "[" + nl + items + _newline(depth) + "]"
    return encode_basestring_ascii(value)


class _Encoded(dict):
    """The JSON text of each string slot, encoded on first use."""

    def __missing__(self, value):
        text = self[value] = encode_basestring_ascii(value)
        return text


def _entries_text(entries, depth: int, encoded: _Encoded) -> list:
    """The result entries `depth` levels deep, each from its template if
    it has one: the template is looked up once per run of entries of one
    shape, ints fill their slots as they are and each string is encoded
    once per `encoded`."""
    texts, shape, template = [], None, None
    for entry in entries:
        point = entry.get("point") if type(entry) is dict else None
        if type(point) is dict:
            # tuples, not keys() views: views compare as sets, and a
            # template fixes the order of the keys
            keys = tuple(point), tuple(entry)
            if keys != shape:
                shape, template = keys, _entry_template(depth, *keys)
            if template is not None:
                try:
                    # a slot takes an int, a string or a list of strings:
                    # any other value raises and falls back to json.dumps
                    texts.append(template % tuple(
                        [v if type(v) is int else encoded[v] if type(v) is str
                         else _slot_text(v, depth + 2) for v in point.values()]
                        + [v if type(v) is int else encoded[v] if type(v) is str
                           else _slot_text(v, depth + 1) for v in list(entry.values())[1:]]
                    ))
                    continue
                except TypeError:
                    pass
        texts.append(_dumps_at(entry, depth))
    return texts


def _entry_text(entry, depth: int) -> str:
    """One result entry `depth` levels deep, from its template if it has one."""
    return _entries_text([entry], depth, _Encoded())[0]


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
                + ("," + _newline(depth + 2)).join(_entries_text(value, depth + 2, _Encoded()))
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
        if not _same(lhs, rhs):
            lhs, rhs = _polynomial(lhs), _polynomial(rhs)
            diff = lhs - rhs
            return {
                "point": shown,
                "verdict": "fail",
                "lhs": _poly_strings(lhs),
                "rhs": _poly_strings(rhs),
                "diff": _poly_strings(diff),
            }
    return {"point": shown, "verdict": "pass"}


def ThreadPoolExecutor(max_workers: int):
    """concurrent.futures.ThreadPoolExecutor, imported on first use, so
    that a request without --jobs > 1 never loads the pool."""
    from concurrent.futures import ThreadPoolExecutor as pool

    return pool(max_workers=max_workers)


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
    points = [dict(zip(axes, combo)) for combo in itertools.product(*value_lists)]
    # a second dict per point only where the report shows a value, a
    # Fraction lambda, as a string
    shown = points
    if any(isinstance(v, Fraction) for vals in value_lists for v in vals):
        shown_lists = [
            [str(v) if isinstance(v, Fraction) else v for v in vals] for vals in value_lists
        ]
        shown = [dict(zip(axes, combo)) for combo in itertools.product(*shown_lists)]
    # largest n first, so that each slab is built once, at its largest
    # order; each entry goes straight to its grid slot
    order = sorted(range(len(points)), key=lambda i: points[i]["n"], reverse=True)
    results = [None] * len(points)
    start = time.monotonic()
    if jobs > 1:

        def run(i):
            results[i] = _point_entry(definition, points[i], shown[i])

        # the executor's own default ceiling, and no more threads than points
        workers = min(jobs, len(points), 32, (os.cpu_count() or 1) + 4)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for _ in pool.map(run, order):
                pass
    else:
        for i in order:
            results[i] = _point_entry(definition, points[i], shown[i])
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
