"""Identity verification harness.

Each registered identity owns an evaluator that produces one or more
(lhs, rhs) pairs of sides per grid point.  The left side always comes
from the generating-function expansion of A_n^{(r,k)} (and shifts of it);
the right side is the combinatorial formula built from the other family
constructors.  A side is a `Polynomial` or, unreduced, a pair
(numerators, den) of integers in ascending powers of x over one
denominator.  A point passes iff every pair matches exactly: the harness
cross-multiplies the two numerator lists by the other side's denominator
(`_same_rows`), and writes the lhs, rhs and diff of the first pair that
differs, the point's fail entry, as reduced fractions.  A_n^{(r,k)}
itself is read as row n of its parameter slab (`_A_row`).

`verify`'s unit of work is a parameter slab, one value on every axis but
n (`_slab_entries`).  An identity whose sides are A_n and row n of a table
decides a slab's points at once, its rows in one comparison (`_table`);
any other identity, and a slab that fails, is evaluated point by point,
largest n first, so that each slab is built once, at its largest order.

Sub-results that depend on fewer coordinates than a grid point are
computed once per process and shared by every point, grid and identity
that needs them, in the family memo (`families._memo`, the package's one
process-wide cache).  Those that depend on n alone, or on n and one or
two more integers, are kept per exact arguments (`families._memoized`):
the weights of Theorems 3, 4 and 5 and of (35) and (52), and Theorem 3's
reflected Bernoulli polynomials.  The binomial shift matrix C(j, i)
y^(j-i) is kept per y and regrown with n, as the slab tables below are.

Most right sides are fixed integer-weighted transforms of a few sequences
that depend on a parameter slab but not on n.  Each such sequence is kept
for l = 0..N as one tuple of integer numerators over one denominator, in
the family memo (`_slab`, which is `families._grown`, rebuilt at twice
the order when a larger n asks for it):

- A_0^{(r,k)} .. A_N^{(r,k)}, as rows and as columns, per (r, k) (`_A_rows`);
- values read by `families._values`, l! [t^l] of a series: A_l(c) per
  (r, k, c) from g(t) (1+t)^(-c) (`_A_values`), the poly-Cauchy numbers
  from Lif_k(log(1+t)), and the a-numbers of Theorem 2, (32) and (34)
  per r (`_bernoulli_values`, `_cauchy_values`, `_composition_values`);
- the polynomials P_j of a Sheffer binomial sum, as columns over one
  denominator: (-x)_j, the family rows' own columns (Theorems 2 and 8),
  and the Stirling transform sum over m of (-1)^m s(j, m) p_m(x)
  (`_stirling_side`) of the Bernoulli polynomials per s (Theorem 6) and
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
parameter slab (`_table`; the Sheffer sums by `families.sheffer_rows`,
the package's one Sheffer-row kernel): (r, k) for Theorems 1, 2 and 8,
(r, k, s) for Theorem 6 and (r, k, s, lambda) for Theorem 7.  Theorem 7's value v_l,
the sum over a of (-lam)^a C(s, a) A_l(s-a) times (1 - lam)^(-s), is one
integer dot product of row l of A with a moment vector kept per (s, lam)
(`_thm7_moments`); every key of Theorem 7 holds lam = p/q as the two ints
p and q.  The left sides of the transfer formula (25) are one table too,
the powers of its ratio built one at a time (`_eq25_lhs`).

`report_text` writes a document from `verify`, or a list of them, as
``json.dumps(payload, indent=2)`` does, byte for byte: its result entries
from %-templates that json.dumps lays out once per entry shape, each
mapped over a run of entries of its shape, and a list report document by
document (`_report_chunks`).  It assumes what `verify`
makes: int or str point values, and str or list-of-str entry values (see
"the report text" below); `verify` refuses a point value of another type.

The registry `_DEFS` is one table, one row per identity in report order:
its axes (the order in which a report writes a point's keys), its domain,
its default grid, its evaluator and, if it has one, its slab decider
slab(p, ns): whether every point of the slab p with n in ns passes.  Each
default grid that rows share is named once (`_GRID_R4` .. `_GRID_THM7`).
Theorems 4 and 5 are printed in the source with internal inconsistencies
against their own derivations; both the printed reading and the
derivation-faithful variant are registered, as one evaluator that takes
`printed=`, and verify_variants reports which one holds.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import accumulate, repeat, zip_longest
from json.encoder import encode_basestring_ascii
from math import comb, factorial, gcd, lcm
from operator import mul as _times

from .algebra import Polynomial, poly_shift, rising_factorial
from .families import (
    bernoulli_poly,
    mixed_A,
    narumi,
    sheffer_rows,
    stirling_triangle,
    _associated,
    _bernoulli_g,
    _family_rows,
    _frobenius_g,
    _grown as _slab,
    _lif_log,
    _lif_weights,
    _memoized,
    _mixed_g,
    _narumi_g,
    _values,
)
from .series import Series, div, mul
from .umbral import apply_series, backward_delta, mixed_pair, sheffer_by_gf

__version__ = "0.1.0"

# printed identity -> its derivation-faithful variant
VARIANTS = {"THM4": "THM4_VARIANT", "THM5": "THM5_VARIANT"}
VARIANT_IDS = tuple(i for pair in VARIANTS.items() for i in pair)

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


class GridSpec(namedtuple("GridSpec", "n_values r_values k_values s_values m_values lambdas",
                          defaults=((),) * 6)):
    """Finite parameter grid; identities read only the axes they use."""

    __slots__ = ()

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
# Each helper here and among the evaluators that is kept in the family
# memo, through `_slab` or `_memoized`, is a pure function of fewer
# coordinates than a grid point, so it is built once per process and
# shared by all points, grids and identities that ask for the same
# arguments.


def _shift_matrix(order: int, y: int) -> tuple:
    """Columns i = 0..order of C(j, i) y^(j-i), j = 0..order (0 for j < i):
    [x^i] p(x + y) is column i's dot product with the coefficients of p,
    and a longer matrix's columns start with a shorter one's."""
    return tuple(
        tuple([comb(j, i) * y ** (j - i) if j >= i else 0 for j in range(order + 1)])
        for i in range(order + 1)
    )


def _shifted(row, y: int) -> list:
    """The numerators of p(x + y) for the numerators `row` of p."""
    cols = _slab(_shift_matrix, len(row) - 1, y)
    return [sum(map(_times, row, col)) for col in cols[: len(row)]]


@_memoized
def _bernoulli_reflected(n: int, alpha: int, b: int) -> Polynomial:
    """B_n^{(alpha)}(-x + b)."""
    return bernoulli_poly(n, alpha).compose_affine(-1, b)


def _mixed_sheffer_order(n: int) -> int:
    """10, doubled until it reaches n + 2: any order >= n + 2 gives row n."""
    order = 10
    while order < n + 2:
        order *= 2
    return order


def _A_rows(order: int, r: int, k: int) -> tuple:
    """(rows, columns, den): A_l^{(r,k)}, l = 0..order, over one
    denominator, rows[l][i] = columns[i][l] the numerator of [x^i] A_l,
    the columns zero-padded to length order + 1; the rows are `mixed_A`'s
    over g's own denominator, all from one `families._family_rows` call."""
    rows, den = _family_rows(range(order + 1), "-log", _mixed_g, r, k)
    cols = tuple(zip(*(row + [0] * (order - len(row) + 1) for row in rows)))
    return tuple(map(tuple, rows)), cols, den


def _A_row(n: int, r: int, k: int) -> tuple:
    """A_n^{(r,k)}(x) as the side (numerators, den): row n of the (r, k)
    slab of `_A_rows`."""
    rows, _, den = _slab(_A_rows, n, r, k)
    return rows[n], den


def _A_values(order: int, r: int, k: int, c: int) -> tuple:
    """A_l^{(r,k)}(c) at the integer c, l = 0..order, as numerators over
    one denominator: the `_values` of g(t) (1+t)^(-c), g A's own factor."""
    # b_j = C(-c, j) = b_(j-1) (1-c-j) / j, the integer binomials of (1+t)^(-c)
    b = list(accumulate(range(1, order + 1), lambda prev, j: prev * (1 - c - j) // j, initial=1))
    return _values(mul(_slab(_mixed_g, order, r, k).truncate(order), Series._of(b)), order)


def _stirling_side(order: int, g, *params) -> tuple:
    """(columns, den) of P_j = sum over m of (-1)^m s(j, m) p_m(x),
    j = 0..order, with p_m = m! [t^m] g(t) e^{xt} (g(order, *params) the
    Bernoulli or Frobenius-Euler factor), for `families.sheffer_rows`:
    columns[i][j] the numerator of [x^i] P_j over g's denominator den."""
    rows, den = _family_rows(range(order + 1), "t", g, *params)
    # signed[i][m]: the numerator of (-1)^m [x^i] p_m
    signed = [
        [(-1) ** m * row[i] if i < len(row) else 0 for m, row in enumerate(rows)]
        for i in range(order + 1)
    ]
    s1 = stirling_triangle(1, order)
    cols = tuple([
        tuple([sum(map(_times, s1[j], row)) for j in range(order + 1)]) for row in signed
    ])
    return cols, den


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


def _thm2_table(order, a_values, r, k) -> tuple:
    """Theorem 2's right sides for one (r, k), n = 0..order; THM2, EQ32 and
    EQ34 differ only in a_values, the builder of their a-numbers a_l.

    The sum over j of (-1)^j s(i, j) x^j is (-x)_i, so the right side is
    the sum over l of C(n, l) inner_l (-x)_{n-l}, with the innermost sum
    inner_t = sum over a of C(t, a) a_a C_{t-a}^{(k)}, an integer
    convolution of the a-numbers with the poly-Cauchy numbers."""
    an, aden = _slab(a_values, order, r)
    pc, pden = _values(_slab(_lif_log, order, k), order)
    inner = [sum([comb(t, a) * an[a] * pc[t - a] for a in range(t + 1)]) for t in range(order + 1)]
    rows = sheffer_rows(inner, _slab(_associated, order, "-log"), range(order + 1))
    return tuple(zip(rows, repeat(aden * pden)))


def _bernoulli_values(order, r) -> tuple:
    """Theorem 2's a-numbers B_a^{(a-r+1)}(1), a = 0..order, over one
    denominator: B_a^{(alpha)}(1) is the sum over j of C(a, j) v_j, v the
    `_values` of (t/(e^t-1))^alpha."""
    vals = [_values(_slab(_bernoulli_g, a, a - r + 1), a) for a in range(order + 1)]
    sums = [sum([comb(a, j) * c for j, c in enumerate(v)]) for a, (v, _) in enumerate(vals)]
    den = lcm(*(d for _, d in vals))
    return tuple([s * (den // d) for s, (_, d) in zip(sums, vals)]), den


def _cauchy_values(order, r) -> tuple:
    """(32)'s a-numbers, the Cauchy numbers a! [t^a] (t/log(1+t))^r."""
    return _values(_slab(_narumi_g, order, -r), order)


def _composition_values(order, r) -> tuple:
    """(34)'s a-numbers, a = 0..order, over one denominator: the sum over
    the compositions of a into r parts of a! b_{a_1} ... b_{a_r} /
    (a_1! ... a_r!), b_i the Cauchy numbers, is a! [t^a] (sum_i b_i t^i /
    i!)^r, so all of them are r binomial convolutions at full length, in
    O(r order^2) products."""
    b, bden = _cauchy_values(order, 1)
    c = [1] + [0] * order
    for _ in range(r):
        c = [sum([comb(m, i) * c[i] * b[m - i] for i in range(m + 1)]) for m in range(order + 1)]
    return tuple(c), bden**r


@_memoized
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


@_memoized
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


@_memoized
def _thm4_weights(n) -> tuple:
    """Theorem 4's weights, independent of r and k: of A_a^{(r+1,k)} in
    the double sum (a = 0..n-1), as numerators over the denominator that
    follows them, lcm(2..n+1); and of A_l^{(r,k)} in the single sum
    (l = 0..n-1)."""
    dden = lcm(*range(2, n + 2))
    # (n-1-l)! C(n-1, l) (l-a)! C(l, a) = (n-1)!/a!, so the double sum's
    # weight is (-1)^(n-a) (n-1)!/a! h_(n-1-a), h_i the sum of dden/(j+2)
    # over j = 0..i
    h = list(accumulate(dden // (j + 2) for j in range(n)))
    ratio = [factorial(n - 1) // factorial(a) for a in range(n)]
    dbl = [(-1) ** (n - a) * ratio[a] * h[n - 1 - a] for a in range(n)]
    single = [(-1) ** (n - l - 1) * ratio[l] for l in range(n)]
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


@_memoized
def _thm5_weights(n, m) -> tuple:
    """Theorem 5's integer weights, independent of r and k: of
    A_l^{(r,k)}(0) on the left side; of r A_a^{(r+1,k)}(1) in the double
    sum (a = 0..n-m-1), as numerators over the denominator that follows
    them, lcm(2..n-m+1); of r A_l^{(r,k)}(1) in the second sum; and of
    A_l^{(r,k)}(1) in the last one."""
    s1 = stirling_triangle(1, n)
    dden = lcm(*range(2, n - m + 2))
    # the double sum's term (-1)^(l-a+1) (l-a)! C(n-1, l) C(l, a) s(n-1-l, m)
    # / (l-a+2) is L_l e_(l-a) / a!, since (l-a)! C(l, a) = l! / a!
    L = [factorial(l) * comb(n - 1, l) * s1[n - 1 - l][m] for l in range(n - m)]
    e = [(-1) ** (j + 1) * (dden // (j + 2)) for j in range(n - m)]
    double = [sum(map(_times, L[a:], e)) // factorial(a) for a in range(n - m)]
    return (
        [comb(n, l) * s1[n - l][m] for l in range(n - m + 1)],
        double,
        dden,
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


@_memoized
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
    cols, pden = _slab(_stirling_side, order, _bernoulli_g, s)
    return tuple(zip(sheffer_rows(values, cols, range(order + 1)), repeat(vden * pden)))


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
    cols, pden = _slab(_stirling_side, order, _frobenius_g, s, Fraction(p, q))
    rows = sheffer_rows(inner, cols, range(order + 1))
    return tuple(zip(rows, repeat(den * (q - p) ** s * pden)))


def _thm8_table(order, r, k) -> tuple:
    """Theorem 8's right sides for one (r, k), n = 0..order: the sum over l
    of C(n, l) A_l^{(r,k)}(0) (-x)_{n-l}."""
    values, vden = _slab(_A_values, order, r, k, 0)
    rows = sheffer_rows(values, _slab(_associated, order, "-log"), range(order + 1))
    return tuple(zip(rows, repeat(vden)))


def _table_slab(key, p, ns) -> bool:
    """Whether A_n^{(r,k)} is row n of the table key(p) = (table, *slab) for
    every n in ns: A's rows and the table's, which share one denominator,
    each read once at max(ns) and all compared at once."""
    table, *slab = key(p)
    order = max(ns)
    rows, _, da = _slab(_A_rows, order, p["r"], p["k"])
    sides = _slab(table, order, *slab)
    return _same_rows([(rows[n], sides[n][0]) for n in ns], da, sides[0][1])


def _table(key) -> tuple:
    """The evaluator and the slab decider of an identity whose sides are
    A_n^{(r,k)} and row n of the table key(p) = (table, *slab), a side
    (numerators, den); key looks the table up when it is called."""
    def pairs(p):
        n = p["n"]
        table, *slab = key(p)
        return [(_A_row(n, p["r"], p["k"]), _slab(table, n, *slab)[n])]

    return pairs, partial(_table_slab, key)


def _narumi_bernoulli(p):
    n, r = p["n"], p["r"]
    return [(narumi(n, r), poly_shift(bernoulli_poly(n, n + r + 1), 1))]


def _sheffer_pair_eq17(p):
    n, r, k = p["n"], p["r"], p["k"]
    pair = mixed_pair(r, k, _mixed_sheffer_order(n))
    return [(_A_row(n, r, k), sheffer_by_gf(pair, n))]


def _eq25_lhs(order) -> list:
    """x (t/f)^n x^(n-1), n = 0..order: `umbral.transfer` from t to f =
    e^{-t} - 1, with the powers of t/f built one at a time."""
    ratio = div(Series.t(order + 2), backward_delta(order + 2))
    powers = accumulate(repeat(ratio, order - 1), mul, initial=ratio)  # (t/f)^1 .. (t/f)^order
    sides = [Polynomial.x() * apply_series(q, Polynomial.monomial(n)) for n, q in enumerate(powers)]
    return [Polynomial((1,)), *sides]


def _assoc_eq25(p):
    n = p["n"]
    return [(_slab(_eq25_lhs, n)[n], (-1) ** n * rising_factorial(n))]


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


IdentityDef = namedtuple("IdentityDef", "axes domain pairs default_grid slab", defaults=(None,))

# the default grids that more than one identity shares
_GRID_R4 = GridSpec(tuple(range(9)), (0, 1, 2, 3), (-2, -1, 0, 1, 2, 3))
_GRID_R6 = _GRID_R4._replace(r_values=(-2, -1, 0, 1, 2, 3))
_GRID_N6 = _GRID_R4._replace(n_values=tuple(range(7)))
_GRID_THM5 = _GRID_N6._replace(m_values=tuple(range(7)))
_GRID_THM6 = _GRID_R6._replace(s_values=(0, 1, 2, 3))
_GRID_THM7 = _GRID_THM6._replace(lambdas=_LAMBDAS)

_NRK = ("n", "r", "k")
_NMRK = ("n", "m", "r", "k")  # the order of THM5's point keys in a report

# one row per identity, in report order: id, axes, domain, default grid,
# evaluator and, for an identity with a table (`_table`), slab decider
_DEFS: dict[str, IdentityDef] = {
    identity: IdentityDef(axes, domain, pairs, grid, *slab)
    for identity, axes, domain, grid, pairs, *slab in (
        ("THM1", _NRK, _dom_r_nonneg, _GRID_R4, *_table(lambda p: (_thm1_table, p["r"], p["k"]))),
        ("THM2", _NRK, _dom_none, _GRID_R4,
         *_table(lambda p: (_thm2_table, _bernoulli_values, p["r"], p["k"]))),
        ("EQ32", _NRK, _dom_none, _GRID_R4,
         *_table(lambda p: (_thm2_table, _cauchy_values, p["r"], p["k"]))),
        ("EQ34", _NRK, _dom_r_nonneg, _GRID_R4,
         *_table(lambda p: (_thm2_table, _composition_values, p["r"], p["k"]))),
        ("EQ35", _NRK, _dom_none, _GRID_R6, _eq35),
        ("EQ36", _NRK, _dom_n_pos, _GRID_R6, _eq36),
        ("THM3", _NRK, _dom_none, _GRID_N6, _thm3),
        ("THM4", _NRK, _dom_n_pos, _GRID_N6, partial(_thm4_core, printed=True)),
        ("THM4_VARIANT", _NRK, _dom_n_pos, _GRID_N6, partial(_thm4_core, printed=False)),
        ("THM5", _NMRK, _dom_thm5, _GRID_THM5, partial(_thm5_core, printed=True)),
        ("THM5_VARIANT", _NMRK, _dom_thm5, _GRID_THM5, partial(_thm5_core, printed=False)),
        ("EQ52", _NRK, _dom_none, _GRID_R6, _eq52),
        ("THM6", ("n", "r", "k", "s"), _dom_none, _GRID_THM6,
         *_table(lambda p: (_thm6_table, p["r"], p["k"], p["s"]))),
        ("THM7", ("n", "r", "k", "s", "lam"), _dom_thm7, _GRID_THM7, *_table(lambda p: (
            _thm7_table, p["r"], p["k"], p["s"], p["lam"].numerator, p["lam"].denominator))),
        ("THM8", _NRK, _dom_none, _GRID_R6, *_table(lambda p: (_thm8_table, p["r"], p["k"]))),
        ("NARUMI_BERNOULLI", ("n", "r"), _dom_none,
         GridSpec(tuple(range(11)), (-3, -2, -1, 0, 1, 2, 3)), _narumi_bernoulli),
        ("SHEFFER_PAIR_EQ17", _NRK, _dom_none, _GRID_R4._replace(k_values=(-1, 0, 1, 2)),
         _sheffer_pair_eq17),
        ("ASSOC_EQ25", ("n",), _dom_none, GridSpec(tuple(range(11))), _assoc_eq25),
    )
}

IDENTITY_IDS = tuple(_DEFS)


def default_grid(identity: str) -> GridSpec:
    return _DEFS[identity].default_grid


# -- the harness -----------------------------------------------------------
#
# The unit of work is a parameter slab: `verify` hands each one, with all of
# the grid's n, to `_slab_entries`, which decides it with the identity's slab
# decider or point by point (`_point_entry`).


def _side(side) -> tuple:
    """A side as (numerators, den)."""
    return (side.num, side.den) if isinstance(side, Polynomial) else side


def _poly_strings(side) -> list:
    """The coefficients of a side as `str` writes them as Fractions ("-3/4",
    "5", "0"), trailing zeros dropped, from its integers: one gcd per
    coefficient, none per reduced Polynomial."""
    num, den = _side(side)
    num = list(num) if den > 0 else [-c for c in num]
    den = abs(den)
    while num and not num[-1]:
        num.pop()
    return [str(c // g) if (g := gcd(c, den)) == den else f"{c // g}/{den // g}"
            for c in num] or ["0"]


def _same_rows(pairs, da: int, db: int) -> bool:
    """Whether a/da = b/db, i.e. a db = b da, for every pair (a, b) of
    numerator lists, all at once at C speed, each pair's shorter list
    padded with zeros so that no row runs into the next."""
    left, right = [], []
    for a, b in pairs:
        if len(a) != len(b):
            width = max(len(a), len(b))
            a, b = [*a, *[0] * (width - len(a))], [*b, *[0] * (width - len(b))]
        left += a
        right += b
    return list(map(_times, left, repeat(db))) == list(map(_times, right, repeat(da)))


def _same(lhs, rhs) -> bool:
    """Whether two sides are one polynomial: `_same_rows` of one pair, with
    nothing to pad when the numerator lists are of one length."""
    (a, da), (b, db) = _side(lhs), _side(rhs)
    if len(a) != len(b):
        return _same_rows([(a, b)], da, db)
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
# json.dumps with `indent` runs the stdlib's pure-Python encoder, which on a
# verify-all report costs more than most identities.  report_text writes the
# same bytes for the documents `verify` makes, each result entry from a
# %-template that json.dumps lays out once per entry shape from a sample
# entry with the sentinel _SLOT in every slot.  It takes what `verify` makes:
# the point first, keys that are axis names or fixed words, ints or strs in
# the point, and strs or non-empty lists of strs after it, each slot of one
# type in all entries of one shape, with the same point keys throughout.

_SLOT = "\x00"
_SLOT_JSON = json.dumps(_SLOT)  # "\u0000", quotes included


def _dumps_at(value, depth: int) -> str:
    """json.dumps(value, indent=2) as it reads `depth` levels deep."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _column(values: tuple, nl: str):
    """A run's values of one slot as json.dumps(indent=2) writes them; `nl` starts list items."""
    kind = type(values[0])
    if kind is int:
        return values
    if kind is str:
        return map(encode_basestring_ascii, values)
    return ["[" + nl + ("," + nl).join(map(encode_basestring_ascii, v)) + nl[:-2] + "]"
            for v in values]


def _document_text(doc, depth: int) -> str:
    """One document from `verify`, `depth` levels deep: each run of entries
    of one shape (its keys, in order) from that shape's template, mapped
    over the run's columns of slot values."""
    head, tail = _dumps_at({**doc, "results": _SLOT}, depth).split(_SLOT_JSON)
    nl, item_nl = "\n" + "  " * (depth + 2), "\n" + "  " * (depth + 4)
    templates, texts = {}, []
    for shape, run in itertools.groupby(doc["results"], tuple):
        points, *values = zip(*map(dict.values, run))
        if shape not in templates:
            sample = dict.fromkeys(shape, _SLOT)
            sample["point"] = dict.fromkeys(points[0], _SLOT)
            templates[shape] = _dumps_at(sample, depth + 2).replace(_SLOT_JSON, "%s")
        columns = [*zip(*map(dict.values, points)), *values]
        texts += map(templates[shape].__mod__, zip(*[_column(c, item_nl) for c in columns]))
    return head + "[" + nl + ("," + nl).join(texts) + nl[:-2] + "]" + tail


def _report_chunks(documents) -> list:
    """json.dumps(list(documents), indent=2) + "\n" in pieces, holding one
    document at a time: the next is taken once the one before is rendered."""
    chunks = ["[\n  "]
    # map drops each document once its text is made; a loop variable would not
    for text in map(_document_text, documents, repeat(1)):
        chunks += (text, ",\n  ")
    chunks[-1] = "\n]\n"
    return chunks


def report_text(payload) -> str:
    """json.dumps(payload, indent=2) + "\n", byte for byte, for one document
    from `verify` or a non-empty list of them."""
    if type(payload) is list:
        return "".join(_report_chunks(payload))
    return _document_text(payload, 0) + "\n"


def _point_entry(definition: IdentityDef, point: dict, shown: dict) -> dict:
    """The report entry of one point in the domain; `shown` is the point as
    the report writes it."""
    for lhs, rhs in definition.pairs(point):
        if not _same(lhs, rhs):
            (a, da), (b, db) = _side(lhs), _side(rhs)
            diff = [x * db - y * da for x, y in zip_longest(a, b, fillvalue=0)]
            return {
                "point": shown,
                "verdict": "fail",
                "lhs": _poly_strings(lhs),
                "rhs": _poly_strings(rhs),
                "diff": _poly_strings((diff, da * db)),
            }
    return {"point": shown, "verdict": "pass"}


def _slab_entries(definition: IdentityDef, slab: dict, shown: dict, n_values) -> list:
    """The entries of one parameter slab's points, one per n of n_values in
    that order; `shown` is the slab as the report writes it.  The points in
    the domain are decided at once, or, with no decider or one that finds
    a failure, one by one, largest n first."""
    points = [{"n": n, **slab} for n in n_values]
    written = points if shown is slab else [{"n": n, **shown} for n in n_values]
    reasons = list(map(definition.domain, points))
    entries = [
        {"point": point, "verdict": "pass"} if reason is None
        else {"point": point, "verdict": "skipped", "reason": reason}
        for point, reason in zip(written, reasons)
    ]
    live = [i for i, reason in enumerate(reasons) if reason is None]
    if live and (definition.slab is None or not definition.slab(slab, [n_values[i] for i in live])):
        for i in sorted(live, key=n_values.__getitem__, reverse=True):
            entries[i] = _point_entry(definition, points[i], entries[i]["point"])
    return entries


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
    if type(jobs) is not int:
        raise ValueError(f"jobs must be an int, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    definition = _DEFS[identity]
    grid = definition.default_grid if grid is None else grid
    axes = definition.axes
    value_lists = []
    for axis in axes:
        vals = grid.values_for(axis)
        if not vals:
            raise ValueError(f"grid provides no values for axis {axis!r}")
        # not bool either, which a report would write as true
        if axis != "lam" and not all(type(v) is int for v in vals):
            raise ValueError(f"{axis} must be ints, got {list(vals)!r}")
        if axis == "n" and min(vals) < 0:
            raise ValueError(f"n must be >= 0, got {min(vals)}")
        if axis == "lam" and not all(isinstance(v, (int, Fraction)) for v in vals):
            raise ValueError(f"lam must be ints or Fractions, got {list(vals)!r}")
        # an int lambda becomes the Fraction it stands for, shown as a string
        vals = [Fraction(v) for v in vals] if axis == "lam" else vals
        # a repeated value would verify and report its points twice
        if len(set(vals)) < len(vals):
            raise ValueError(f"{axis} values must differ, got {', '.join(map(str, vals))}")
        value_lists.append(vals)
    # n is every identity's first axis: a slab is one value on each of the others
    n_values, *slab_lists = value_lists
    slabs = [dict(zip(axes[1:], combo)) for combo in itertools.product(*slab_lists)]
    # the slabs as the report writes them: a Fraction lambda as a string
    shown = slabs if "lam" not in axes else [
        {axis: str(v) if type(v) is Fraction else v for axis, v in slab.items()} for slab in slabs]
    width = len(slabs)
    results = [None] * (len(n_values) * width)

    def run(j):
        # in grid order, the slab's entries are every width-th from j
        results[j::width] = _slab_entries(definition, slabs[j], shown[j], n_values)

    start = time.monotonic()
    if jobs > 1:
        # the executor's own default ceiling, and no more threads than slabs
        workers = min(jobs, width, 32, (os.cpu_count() or 1) + 4)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for _ in pool.map(run, range(width)):
                pass
    else:
        for j in range(width):
            run(j)
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
