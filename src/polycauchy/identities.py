"""Identity verification harness.

Each registered identity compares two sides at every point of a finite
grid: the expansion of A_n^{(r,k)} (or of shifts of it) from its
generating function, and a formula built from the other family
constructors.  A side is unreduced, integer numerators in ascending powers
of x over one denominator; a point passes iff its sides a/da and b/db
match exactly, a db = b da, and its fail entry writes the lhs, rhs and
diff as reduced fractions.

`verify`'s unit of work and of bookkeeping is a parameter slab, one value
on every axis but n.  A slab's domain answers once for all its n (the
first n inside it, and why the n below are skipped), and every identity
reads the slab's rows from one table per slab (`_table`), built once per
process for n = 0..max(n): the row (a, da, b, db), or `_AGREED`, 0 = 0,
where the table has already found that the row holds.  The rows are
handed over side by side and compared at once (`_same_rows`), and the
slab's result is one
run (`_slab_entries`): the slab as the report writes it, its domain's
answer, and fail entries only if the slab fails.  A report keeps the
runs; its `results` are built from them on each read.  (36)'s right side
A_n(x-1) - A_n(x) is still one `poly_shift` of `mixed_A`, the module's one
shift, not a Sheffer sum of A's values at -1: the benchmark's tracer test
counts that Polynomial shift in a traced `verify EQ36` until ROADMAP item
1 moves the test.

Whatever depends on fewer coordinates than a grid point is kept in the
family memo (`families._memo`, the package's one cache): weights per
exact arguments (`_memoized`), and the sequences of a slab for l = 0..N,
regrown at twice the order when a larger n asks for more (`_slab`, which
is `families._grown`): the row sets of the Sheffer sums, the values
l! [t^l] of a series (`families._values`: A_l(c) and B_l^{(alpha)}(c) at
an integer c, the poly-Cauchy numbers, the a-numbers of Theorem 2, (32)
and (34)).  Each right side is an integer dot product or a Sheffer sum
over l of C(n, l) v_l P_{n-l}(x) (`families.sheffer_rows`, the package's
one Sheffer-row kernel, whose weight rows are the sum itself over x^j);
B at x + c is the Sheffer sum of its values at c (`_reflected_bernoulli`).
(35) is checked per n as an identity in x and y: both sides have
y-degree at most n, so they agree iff they agree at y = -2..n-2, and a
failing row holds the pair at the first y that fails.

Theorems 1, 2, 6, 7 and 8, (32) and (34) hold A_n against a Sheffer sum
s_n = sum over j of C(n, j) v_(n-j) P_j.  Every row set they read, A's
rows, A at x + 1 (Theorems 3 and 4 too) and the P_j, is one source
(rows, columns, den) from one builder, `_sheffer_source`: the `-log`
family n! [t^n] g(t) (1+t)^(-x) of a series g.  Their tables decide each
row through its image at x = 2^B (`_sheffer_table`): a row of integers c_i
becomes the integer sum of c_i 2^(B i).  With da and db the two sides'
denominators, A_n db - s_n da has coefficients below 2^(a + bits(db)) +
2^(n + v + p + bits(da)), a, v and p the bit lengths of the largest
|coefficient| of A's rows, |v_l| and |[x^i] P_j| (the C(n, j) add up to
2^n); B, the smallest power of two, at least 64, that exceeds that bound
by 2 bits, makes the comparison of the images exact.  A slab runs in one
of two modes.  Where one row's image fits the budget, B (order + 1) <=
_BUDGET, whole rows are packed, and `sheffer_rows`, fed the images of the
P_j as one column, forms row n's right side with one dot product.  A
deep slab, whose row image would pass _BUDGET, and a slab whose images
differ are decided by `sheffer_rows` on the coefficient columns
(`_coefficient_rows`), so a fail entry is the one the coefficients give.
Theorems 4 and 5 are printed in the source with internal
inconsistencies against their own derivations; both the printed reading
and the derivation-faithful variant are registered, each row of their
tables holds both, and verify_variants reports which one holds.

`report_text` writes a report from `verify`, or a list of them, as
``json.dumps(document, indent=2)`` writes its `to_document()`, byte for
byte, from the runs: json.dumps lays out one %-template per entry shape
and depth once per process (`_template`, kept in the family memo), a run
fills in its slab's values once, and each point costs
one % of its n (see "the report text" below).  A list is written report
by report (`_report_chunks`).

The registry `_DEFS` has one row per identity in report order: its axes
(the order in which a report writes a point's keys), domain, default
grid (each shared grid named once, `_GRID_R4` .. `_GRID_THM7`) and, from
its table, slab rows rows(p, ns).
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, chain, repeat, zip_longest
from json.encoder import encode_basestring_ascii
from math import comb, factorial, gcd, lcm
from operator import eq, itemgetter, mul as _times

from .algebra import Polynomial, poly_shift
from .families import (
    mixed_A,
    sheffer_rows,
    stirling_triangle,
    _associated,
    _bernoulli_g,
    _binomial_weights,
    _binomial_rows,
    _family_rows,
    _frobenius_g,
    _grown as _slab,
    _lif_log,
    _lif_weights,
    _memoized,
    _mixed_g,
    _narumi_g,
    _over_factorials,
    _values,
)
from .series import Series, div, int_pow, log_one_plus_t, mul
from .umbral import apply_series, backward_delta, mixed_pair, sheffer_by_gf

__version__ = "0.1.0"

# printed identity -> its derivation-faithful variant
VARIANTS = {"THM4": "THM4_VARIANT", "THM5": "THM5_VARIANT"}
VARIANT_IDS = tuple(i for pair in VARIANTS.items() for i in pair)

_LAMBDAS = (Fraction(2), Fraction(-1), Fraction(1, 2))


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
# Each helper kept in the family memo, through `_slab` or `_memoized`, is a
# pure function of fewer coordinates than a grid point, shared by all
# points, grids and identities that ask for the same arguments.


def _sheffer_source(order: int, g, *params) -> tuple:
    """(rows, columns, den): the `-log` family n! [t^n] g(t) (1+t)^(-x),
    n = 0..order, of the series g(order, *params), from one
    `families._family_rows` call: rows[n][i] = columns[i][n] the numerator
    of [x^i] over den, the columns zero-padded to length order + 1; A's
    slab, A at x + c (`_mixed_at`), (-x)_j (g = 1) or the P_j (`_stirling_g`)."""
    rows, den = _family_rows(range(order + 1), "-log", g, *params)
    cols = tuple(zip(*(row + [0] * (order - len(row) + 1) for row in rows)))
    return tuple(map(tuple, rows)), cols, den


def _A_rows(order: int, r: int, k: int) -> tuple:
    """A_l^{(r,k)}, l = 0..order, as `_sheffer_source` of A's own factor."""
    return _sheffer_source(order, _mixed_g, r, k)


def _mixed_at(order: int, r: int, k: int, c: int) -> Series:
    """g(t) (1+t)^(-c), g A's own factor: its `-log` family is A_n(x + c),
    and its `_values` are A_l(c)."""
    # b_j = C(-c, j) = b_(j-1) (1-c-j) / j, the integer binomials of (1+t)^(-c)
    b = list(accumulate(range(1, order + 1), lambda prev, j: prev * (1 - c - j) // j, initial=1))
    return mul(_slab(_mixed_g, order, r, k).truncate(order), Series._of(b))


def _A_values(order: int, r: int, k: int, c: int) -> tuple:
    """A_l^{(r,k)}(c) at the integer c, l = 0..order, as numerators over
    one denominator: the `_values` of `_mixed_at`."""
    return _values(_slab(_mixed_at, order, r, k, c), order)


def _B_values(order: int, alpha: int, c: int) -> tuple:
    """B_l^{(alpha)}(c) at the integer c, l = 0..order, as numerators over
    one denominator: the `_values` of (t/(e^t-1))^alpha e^{ct}."""
    exp_ct = _over_factorials([c**j for j in range(order + 1)], 1)
    return _values(mul(_slab(_bernoulli_g, order, alpha).truncate(order), exp_ct), order)


def _stirling_g(order: int, g, *params) -> Series:
    """g(-log(1+t)) for the series g(order, *params): l! [t^l] of it is
    the sum over m of s(l, m) (-1)^m m! [t^m] g, the Stirling matrix
    applied to g's signed values as `families._lif_log` composes Lif_k.
    Its `-log` family is P_j = sum over m of (-1)^m s(j, m) p_m(x), with
    p_m = m! [t^m] g(t) e^{xt}."""
    values, den = _values(_slab(g, order, *params), order)
    signed = [(-1) ** m * v for m, v in enumerate(values)]
    s1 = stirling_triangle(1, order)
    return _over_factorials([sum(map(_times, s1[l], signed)) for l in range(order + 1)], den)


# -- slab tables -------------------------------------------------------------
#
# Each returns the rows n = 0..order of one parameter slab (see `_table`).
# A side is unreduced: integer numerators in ascending powers of x, trailing
# zeros allowed, over one nonzero integer.


def _thm1_table(order, r, k) -> tuple:
    """Theorem 1's rows for one (r, k), n = 0..order: A_n against the sum
    over m of s(n, m) R_m(x), R_m(x) = sum over j of (-1)^j c_j x^j, with c_j the
    sum over l of C(m,l) C(m-l,j) (l+1)^(-k) S(q+r, r) / C(q+r, r),
    q = m-l-j.  (l+1)^(-k) is w_l / d with the weights of `_lif_weights`
    and S(q+r, r) / C(q+r, r) is b_q / lcm C(q+r, r).  Since C(m,l)
    C(m-l,j) = C(m,j) C(m-j,l), c_j is C(m,j) u_(m-j), u the binomial
    convolution of w and b, so the right side is n! [t^n] U(log(1+t))
    (1+t)^(-x), U(t) the sum of u_m t^m / m!: the Sheffer sum over (-x)_j
    of v_n = sum over m of s(n, m) u_m."""
    w, d = _lif_weights(order, k)
    # h_q = S(q+r, r), the complete homogeneous sums of degree q in 1..r
    h = [1] + [0] * order
    for i in range(1, r + 1):
        h = list(accumulate(h[1:], lambda prev, c: c + i * prev, initial=1))
    combs = [comb(q + r, r) for q in range(order + 1)]
    qden = lcm(*combs)
    b = [s * (qden // c) for s, c in zip(h, combs)]
    u = [sum([comb(t, l) * w[l] * b[t - l] for l in range(t + 1)]) for t in range(order + 1)]
    s1 = stirling_triangle(1, order)
    v = [sum(map(_times, s1[n], u)) for n in range(order + 1)]
    return _sheffer_table(order, r, k, v, d * qden, _sheffer_source, Series.one)


# -- Sheffer sums, decided on row images -------------------------------------
#
# A row of integers c_i read at x = 2^B is one integer, the sum of c_i
# 2^(B i) (Kronecker substitution: Kronecker 1882; D. Harvey, J. Symb.
# Comp. 2009).  While every |c_i| < 2^(B-1), the image is 0 only for the
# zero row, so rows a and b over da and db are equal iff the images of
# a db and b da are, once B bounds every coefficient of a db - b da with
# 2 bits to spare.  The right side s_n = sum over j of C(n, j) v_(n-j) P_j
# has coefficients below 2^n max|v| max|P|, since the C(n, j) add up to
# 2^n.  A slab picks B, the smallest power of two, at least 64, that holds
# both bounds and the 2 bits.  Where one row's image fits the budget, B
# (order + 1) <= _BUDGET, the slab packs whole rows, so that `sheffer_rows`,
# fed the images of the P_j as one column, forms row n's right side with
# one dot product.  A slab whose images differ, or whose row image would
# pass the budget, is decided on the coefficient columns
# (`_coefficient_rows`).

_BUDGET = 16384  # bits in one row image


def _pack(row, width: int) -> int:
    """The image of a row of integers at x = 2^width."""
    image = 0
    for c in reversed(row):
        image = (image << width) + c
    return image


def _bits(rows) -> int:
    """The bit length of the largest |entry| of some rows of integers."""
    return max(map(abs, chain.from_iterable(rows)), default=0).bit_length()


def _top(order, build, *args) -> tuple:
    """(bits, den) of the rows of _slab(build, order, *args), a source
    (rows, columns, den) such as `_sheffer_source`'s."""
    rows, _, den = _slab(build, order, *args)
    return _bits(rows), den


def _row_images(order, width, build, *args) -> tuple:
    """(images, bits, den): rows 0..order of the source _slab(build,
    order, *args) as their images at x = 2^width (`_pack`), their largest
    bit length and their denominator."""
    rows, _, den = _slab(build, order, *args)
    rows = rows[: order + 1]
    return tuple([_pack(row, width) for row in rows]), _bits(rows), den


def _width(order, v_bits, vden, a_bits, a_den, p_bits, p_den) -> int:
    """B for the rows of A against s_n over vden p_den, n <= order."""
    need = max(a_bits + (vden * p_den).bit_length(), order + v_bits + p_bits + a_den.bit_length())
    return max(64, 1 << (need + 2).bit_length())


def _coefficient_rows(order, r, k, values, vden, build, *args) -> tuple:
    """The rows (a, da, b, db), n = 0..order, of A's slab (r, k) against
    s_n = the sum over j of C(n, j) v_(n-j) P_j, v_l = values[l] / vden:
    `sheffer_rows` over the coefficient columns P_j of the source
    _slab(build, order, *args), (rows, columns, pden), and db = vden pden."""
    rows, _, den = _slab(_A_rows, order, r, k)
    _, cols, pden = _slab(build, order, *args)
    rights = sheffer_rows(values, cols, range(order + 1))
    return tuple([(a, den, b, vden * pden) for a, b in zip(rows, rights)])


def _sheffer_table(order, r, k, values, vden, build, *args) -> tuple:
    """The rows n = 0..order of A_n^{(r,k)} against the Sheffer sum s_n of
    `_coefficient_rows`: all `_AGREED` where the slab agrees, else the
    coefficient rows, each `_AGREED` where it agrees.  The slab is decided
    on its whole-row images at x = 2^width where one fits _BUDGET bits,
    else on its coefficients.  The width comes from the bit lengths the
    memo's `_top` found; where the rows packed, which a regrown memo may
    have lengthened, need a wider one, the slab goes to its coefficients."""
    v_bits = max(map(abs, values[: order + 1])).bit_length()
    found = (*_slab(_top, order, _A_rows, r, k), *_slab(_top, order, build, *args))
    if (width := _width(order, v_bits, vden, *found)) * (order + 1) <= _BUDGET:
        lefts, *a = _slab(_row_images, order, width, _A_rows, r, k)
        images, *p = _slab(_row_images, order, width, build, *args)
        if _width(order, v_bits, vden, *a, *p) <= width:
            # the slab's images as one row: one dot product per right side
            rights = [image for image, in sheffer_rows(values, (images,), range(order + 1))]
            if _same_rows((lefts[: order + 1],), (a[1],), (rights,), (vden * p[1],)):
                return (_AGREED,) * (order + 1)
    rows = _coefficient_rows(order, r, k, values, vden, build, *args)
    if _same_rows(*zip(*rows)):
        return (_AGREED,) * (order + 1)
    return tuple([_AGREED if _same_rows(*zip(row)) else row for row in rows])


def _thm2_table(order, a_values, r, k) -> tuple:
    """Theorem 2's rows for one (r, k), n = 0..order; THM2, EQ32 and EQ34
    differ only in a_values, the builder of their a-numbers a_l.

    The sum over j of (-1)^j s(i, j) x^j is (-x)_i, so the right side is
    the sum over l of C(n, l) inner_l (-x)_{n-l}, with the innermost sum
    inner_t = sum over a of C(t, a) a_a C_{t-a}^{(k)}, an integer
    convolution of the a-numbers with the poly-Cauchy numbers."""
    an, aden = _slab(a_values, order, r)
    pc, pden = _values(_slab(_lif_log, order, k), order)
    pascal = _slab(_binomial_rows, order)
    inner = [sum(map(_times, map(_times, pascal[t], an), pc[t::-1])) for t in range(order + 1)]
    return _sheffer_table(order, r, k, inner, aden * pden, _sheffer_source, Series.one)


def _bernoulli_values(order, r) -> tuple:
    """Theorem 2's a-numbers B_a^{(a-r+1)}(1), a = 0..order, over one
    denominator, each the last of its order's `_B_values` at 1."""
    vals = [_B_values(a, a - r + 1, 1) for a in range(order + 1)]
    den = lcm(*(d for _, d in vals))
    return tuple([v[a] * (den // d) for a, (v, d) in enumerate(vals)]), den


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


_AGREED = ((), 1, (), 1)  # the row 0 = 0, for a point that holds inside its table


def _eq35_table(order, r, k) -> tuple:
    """(35)'s rows for one (r, k), n = 0..order: `_AGREED` where the two
    sides agree in x and y, else the row at the first y where they differ,
    the one the report shows."""
    rows = []
    for n in range(order + 1):
        lhs, rhs, den = _eq35_sides(n, r, k)
        at_y = [(*a, *b) for a, b in _eq35_at(n, lhs, rhs, den)] if lhs != rhs else []
        rows.append(next((row for row in at_y if not _same_rows(*zip(row))), _AGREED))
    return tuple(rows)


def _eq36_table(order, r, k) -> tuple:
    """(36)'s rows for one (r, k), n = 0..order (n = 0 lies outside the
    domain): n A_{n-1}(x), row n-1 of A's slab, against A_n(x-1) - A_n(x),
    one `poly_shift` of `mixed_A` for the tracer test the module names."""
    rows, _, den = _slab(_A_rows, order, r, k)
    table = [_AGREED]
    for n in range(1, order + 1):
        a_n = mixed_A(n, r, k)
        table.append(([n * c for c in rows[n - 1]], den, *_side(poly_shift(a_n, -1) - a_n)))
    return tuple(table)


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
    # the middle sum's terms with m - l - a = j: C(m,l) C(m-l,j) = C(m,j)
    # C(m-j,l), so the sum over l is v_(m-j), v a binomial convolution
    v = [sum([comb(t, l) * w[l] * (-1) ** (t - l) * e[t - l] for l in range(t + 1)])
         for t in range(n + 1)]
    mid = [sum([comb(m, j) * s1[m] * v[m - j] for m in range(j, n + 1)]) for j in range(n + 1)]
    last = [
        eden * sum([comb(m, j) * s1[m] * w[m - j + 1] for m in range(j, n + 1)])
        for j in range(n + 1)
    ]
    return mid, last, d * eden


def _reflected_bernoulli(order, alpha, b) -> tuple:
    """(columns, den) of B_j^{(alpha)}(-x + b), j = 0..order: columns[i][j]
    the numerator of [x^i], zero-padded; the rows of B_j(x + b), Sheffer
    sums of B's values at b (`_B_values`) over x^j, which are their weight
    rows (`_binomial_weights`), with x set to -x."""
    values, den = _B_values(order, alpha, b)
    rows = _binomial_weights(values, range(order + 1))
    cols = zip(*(row + [0] * (order - j) for j, row in enumerate(rows)))
    return tuple([tuple([-c for c in col]) if i % 2 else col for i, col in enumerate(cols)]), den


def _thm3_table(order, r, k) -> tuple:
    """Theorem 3's rows for one (r, k), n = 0..order-2: A_{n+1} against
    -x A_n(x+1) + r (the middle sum) + the last sum, the two sums integer
    dot products of `_thm3_weights` with the columns of B_j^{(1-r)}(-x)
    and of B_j^{(-r)}(-x-1)."""
    rows, _, den = _slab(_A_rows, order, r, k)
    shifted, _, sden = _slab(_sheffer_source, order, _mixed_at, r, k, 1)
    mid_cols, mden = _slab(_reflected_bernoulli, order, 1 - r, 0)
    last_cols, lden = _slab(_reflected_bernoulli, order, -r, -1)
    common = lcm(sden, mden, lden)
    f, g, h = common // sden, r * (common // mden), common // lden
    table = []
    for n in range(order - 1):
        mid, last, wden = _thm3_weights(n, k)
        rhs = tuple([
            g * sum(map(_times, mid, mc)) + h * sum(map(_times, last, lc)) - wden * f * c
            for c, mc, lc in zip((0, *shifted[n]), mid_cols, last_cols)  # x A_n(x+1)
        ])
        table.append((rows[n + 1], den, rhs, wden * common))
    return tuple(table)


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


def _thm4_table(order, r, k) -> tuple:
    """Theorem 4's rows for one (r, k), n = 1..order-2 (n = 0 lies outside
    the domain): A_n against -x A_{n-1}(x+1) + r (the double sum) + r (the
    single sum) + (A_n^{(r+1,k-1)}(x+1) - A_n^{(r+1,k)}(x+1)) / n, summed
    as integers over the rows of the slabs (r, k), (r+1, k) and (r+1, k-1)
    and their shifts; a row for each reading, the printed one carrying the
    double sum's total to A_n^{(r+1,k)}, the variant not."""
    rows, cols, den = _slab(_A_rows, order, r, k)
    raised_rows, raised_cols, rden = _slab(_A_rows, order, r + 1, k)
    xs, _, xden = _slab(_sheffer_source, order, _mixed_at, r, k, 1)
    up, _, uden = _slab(_sheffer_source, order, _mixed_at, r + 1, k, 1)
    down, _, lden = _slab(_sheffer_source, order, _mixed_at, r + 1, k - 1, 1)
    common = lcm(den, rden, xden, uden, lden)
    a, g, x, u, d = common // den, common // rden, common // xden, common // uden, common // lden
    table = [None]
    for n in range(1, order - 1):
        dbl, dden, single = _thm4_weights(n)
        base = [
            n * dden * (a * r * sum(map(_times, single, col)) - x * c) + dden * (d * lo - u * hi)
            for col, c, lo, hi in zip(cols, (0, *xs[n - 1]), down[n], up[n])
        ]
        total, w = sum(dbl), n * r * g
        printed = tuple([b + w * total * c for b, c in zip(base, raised_rows[n])])
        variant = tuple([b + w * sum(map(_times, dbl, col)) for b, col in zip(base, raised_cols)])
        rhs_den = n * dden * common
        table.append(((rows[n], den, printed, rhs_den), (rows[n], den, variant, rhs_den)))
    return tuple(table)


def _thm5_series(order, m) -> tuple:
    """(e, L): e_i = i! c_i / m! as integers over L = lcm(1..order+2),
    i = 0..order, c_i the coefficients of log(1+t)^m (log(1+t) - t) / t^2:
    i! [t^i] log(1+t)^m / m! is s(i, m), and the other factor's
    denominators are 2..i+2."""
    log = log_one_plus_t(order + 2)
    # (log(1+t) - t) / t^2 has log(1+t)'s coefficients from t^2 on
    f = mul(int_pow(log.truncate(order), m), Series._of(list(log.num[2:]), log.den))
    values, vden = _values(f, order)
    den, scale = lcm(*range(1, order + 3)), factorial(m) * vden
    return tuple([v * den // scale for v in values]), den


@_memoized
def _thm5_weights(n, m) -> tuple:
    """Theorem 5's integer weights, independent of r and k: of
    A_l^{(r,k)}(0) on the left side; of r A_a^{(r+1,k)}(1) in the double
    sum (a = 0..n-m-1), as numerators over the denominator that follows
    them, lcm(2..n-m+1); of r A_l^{(r,k)}(1) in the second sum; and of
    A_l^{(r,k)}(1) in the last one."""
    s1 = stirling_triangle(1, n)
    dden = lcm(*range(2, n - m + 2))
    # the double sum's weight, the sum over l of (-1)^(l-a+1) (l-a)!
    # C(n-1, l) C(l, a) s(n-1-l, m) / (l-a+2), is (n-1)!/(a! m!) c_i with
    # i = n-1-a, c_i from `_thm5_series` (s(i, m) = i! [t^i] log(1+t)^m /
    # m!, and the sum over j of (-1)^(j+1) t^j / (j+2) is (log(1+t) - t) /
    # t^2), and (n-1)!/a! = i! C(n-1, i): so it is C(n-1, i) e_i / L
    e, den = _slab(_thm5_series, n - 1, m)
    pascal = _slab(_binomial_rows, n)
    below = pascal[n - 1]
    return (
        [pascal[n][l] * s1[n - l][m] for l in range(n - m + 1)],
        [dden * below[i] * e[i] // den for i in range(n - 1, m - 1, -1)],
        dden,
        [below[l] * s1[n - l - 1][m] for l in range(n - m)],
        [below[l] * s1[n - l - 1][m - 1] for l in range(n - m + 1)],
    )


def _thm5_table(order, m, r, k) -> tuple:
    """Theorem 5's rows for one (m, r, k), n = 0..order-2 (None outside
    the domain), a row for the printed reading and one for the variant:
    constants from integer dot products of `_thm5_weights` with A's values
    at 0 and 1, each vector read once."""
    zero, zden = _slab(_A_values, order, r, k, 0)
    one, oden = _slab(_A_values, order, r, k, 1)
    raised, rden = _slab(_A_values, order, r + 1, k, 1)
    lowered, lden = _slab(_A_values, order, r, k - 1, 1)
    _slab(_thm5_series, order, m)  # built once, at the table's order
    rows = [None] * (m + 1)
    for n in range(m + 1, order - 1):
        left, double, dden, second, last = _thm5_weights(n, m)
        # r (the double sum) over dden rden, then the sums over A^{(r,k)}(1)
        # over oden
        carried = r * sum(map(_times, double, raised))
        inner = r * sum(map(_times, second, one))
        last_at_one = sum(map(_times, last, one))
        # the last sum splits 1/m + (1 - 1/m); only the variant lowers k in
        # its first part
        printed = carried * oden + (inner + last_at_one) * dden * rden
        variant = (
            (m * carried * oden + (m * inner + (m - 1) * last_at_one) * dden * rden) * lden
            + sum(map(_times, last, lowered)) * dden * rden * oden
        )
        lhs, den = (sum(map(_times, left, zero)),), dden * rden * oden
        rows.append(((lhs, zden, (printed,), den), (lhs, zden, (variant,), m * den * lden)))
    return tuple(rows)


@_memoized
def _eq52_weights(n) -> tuple:
    """The weights (-1)^(n+l) n! / ((n-l) l!) = (-1)^(n+l) C(n, l) (n-l-1)!
    of A_l in (52), l = 0..n-1, all integers."""
    return tuple([(-1) ** (n + l) * comb(n, l) * factorial(n - l - 1) for l in range(n)])


def _eq52_table(order, r, k) -> tuple:
    """(52)'s rows for one (r, k), n = 0..order: A_n' against the weights'
    dot products with A's columns, over A's denominator."""
    rows, cols, den = _slab(_A_rows, order, r, k)
    table = []
    for n in range(order + 1):
        w = _eq52_weights(n)
        lhs = tuple(map(_times, range(1, n + 1), rows[n][1:]))
        table.append((lhs, den, tuple([sum(map(_times, w, col)) for col in cols[:n]]), den))
    return tuple(table)


def _thm6_table(order, r, k, s) -> tuple:
    """Theorem 6's rows for one (r, k, s), n = 0..order: A_n against the
    sum over l of C(n, l) A_l^{(r+s,k)}(s) P_{n-l}(x), with P_j the sum
    over m of (-1)^m s(j, m) B_m^{(s)}(x)."""
    values, vden = _slab(_A_values, order, r + s, k, s)
    return _sheffer_table(
        order, r, k, values, vden, _sheffer_source, _stirling_g, _bernoulli_g, s)


def _thm7_moments(order, s, p, q) -> tuple:
    """M_i = sum over a of (-p)^a q^(s-a) C(s, a) (s-a)^i, i = 0..order.

    For A(x) = sum c_i x^i, the sum over a of (-lam)^a C(s, a) A(s-a)
    with lam = p/q is sum c_i M_i / q^s."""
    w = [(-p) ** a * q ** (s - a) * comb(s, a) for a in range(s + 1)]
    return tuple(sum(wa * (s - a) ** i for a, wa in enumerate(w)) for i in range(order + 1))


def _thm7_table(order, r, k, s, p, q) -> tuple:
    """Theorem 7's rows for one (r, k, s, lam = p/q), n = 0..order: A_n
    against the sum over l of C(n, l) inner_l Q_{n-l}(x), with Q_j the sum
    over m of (-1)^m s(j, m) H_m^{(s)}(x|lam).

    inner_l = (1 - lam)^(-s) sum over a of (-lam)^a C(s, a) A_l^{(r,k)}(s-a)
    is one integer dot product of row l of A's numerators with the moments
    M_i, over A's denominator times (q - p)^s, since (1 - lam)^(-s) =
    q^s / (q - p)^s.  The keys hold lam as the ints p and q, since hashing
    a Fraction costs ten times as much."""
    moments = _slab(_thm7_moments, order, s, p, q)
    rows, _, den = _slab(_A_rows, order, r, k)
    inner = [sum(map(_times, row, moments)) for row in rows[: order + 1]]
    return _sheffer_table(
        order, r, k, inner, den * (q - p) ** s, _sheffer_source, _stirling_g, _frobenius_g, s, p, q)


def _thm8_table(order, r, k) -> tuple:
    """Theorem 8's rows for one (r, k), n = 0..order: A_n against the sum
    over l of C(n, l) A_l^{(r,k)}(0) (-x)_{n-l}."""
    values, vden = _slab(_A_values, order, r, k, 0)
    return _sheffer_table(order, r, k, values, vden, _sheffer_source, Series.one)


def _table(key, lead=0, reading=None):
    """rows(p, ns), every identity's one evaluator: the rows of slab p's
    points n in ns side by side, (lefts, left dens, rights, right dens),
    point n's sides a/da and b/db from row n = (a, da, b, db) of the table
    key(p) = (table, *slab).  A row of Theorem 4 or 5 holds one such row
    per reading, printed first, and an identity reads its own.  rows reads
    the slab's table once, at max(ns) + lead; key looks the table up when
    it is called.  The tables of Theorems 3 to 5 hold rows to order - 2
    (lead 2): their default grids end at n = 6, so their first tables, at
    `_slab`'s first order 8, hold no row past the grid."""
    def rows(p, ns):
        table, *slab = key(p)
        picked = map(_slab(table, max(ns) + lead, *slab).__getitem__, ns)
        return tuple(zip(*(picked if reading is None else map(itemgetter(reading), picked))))

    return rows


def _narumi_bernoulli_table(order, r) -> tuple:
    """N_n^{(r)}(x) against B_n^{(n+r+1)}(x+1), n = 0..order: the Narumi
    rows from one family call, each Bernoulli row the Sheffer sum of its
    own order's values at 1 (`_B_values`) over x^j, its weight row."""
    rows, den = _family_rows(range(order + 1), "log", _narumi_g, r)
    table = []
    for n, row in enumerate(rows):
        values, bden = _B_values(n, n + r + 1, 1)
        (b,) = _binomial_weights(values, (n,))
        table.append((tuple(row), den, tuple(b), bden))
    return tuple(table)


def _eq17_table(order, r, k) -> tuple:
    """(17)'s rows for one (r, k), n = 0..order: A_n against S_n,
    `umbral.sheffer_by_gf`'s rows for the mixed pair (r, k) at the table's
    order, exact through it."""
    rows, _, den = _slab(_A_rows, order, r, k)
    pair = mixed_pair(r, k, order)
    return tuple([(rows[n], den, *_side(sheffer_by_gf(pair, n))) for n in range(order + 1)])


def _eq25_table(order) -> tuple:
    """(25)'s rows, n = 0..order: x (t/f)^n x^(n-1), `umbral.transfer`
    from t to f = e^{-t} - 1 with the powers of t/f built one at a time,
    against (-1)^n x(x+1)...(x+n-1) = (-x)_n, a column of `_associated`."""
    ratio = div(Series.t(order + 2), backward_delta(order + 2))
    powers = accumulate(repeat(ratio, order - 1), mul, initial=ratio)  # (t/f)^1 .. (t/f)^order
    lhs = [Polynomial((1,))]
    lhs += [Polynomial.x() * apply_series(q, Polynomial.monomial(n)) for n, q in enumerate(powers)]
    cols = _slab(_associated, order, "-log")
    return tuple([
        (*_side(side), tuple([col[n] for col in cols[: n + 1]]), 1) for n, side in enumerate(lhs)
    ])


# -- domains ---------------------------------------------------------------
#
# A domain answers once per parameter slab, with (first, reason): the
# slab's points n >= first lie in the domain and the others are skipped
# for reason; first is _NEVER where no n does.

_NEVER = float("inf")
_EVERY = (0, None)


def _dom_r_nonneg(slab):
    if slab["r"] < 0:
        return _NEVER, "r < 0: formula uses Stirling-2 / composition structure"
    return _EVERY


def _dom_n_pos(slab):
    return 1, "n < 1: statement needs n >= 1"


def _dom_thm5(slab):
    return slab["m"] + 1 if slab["m"] >= 1 else _NEVER, "out of domain: needs n-1 >= m >= 1"


def _dom_thm7(slab):
    if slab["lam"] == 1:
        return _NEVER, "lam = 1: Frobenius-Euler undefined"
    if slab["s"] < 0:
        return _NEVER, "s < 0: the sum over a = 0..s needs s >= 0"
    return _EVERY


def _dom_none(slab):
    return _EVERY


IdentityDef = namedtuple("IdentityDef", "axes domain default_grid rows")

# the default grids that more than one identity shares
_GRID_R4 = GridSpec(tuple(range(9)), (0, 1, 2, 3), (-2, -1, 0, 1, 2, 3))
_GRID_R6 = _GRID_R4._replace(r_values=(-2, -1, 0, 1, 2, 3))
_GRID_N6 = _GRID_R4._replace(n_values=tuple(range(7)))
_GRID_THM5 = _GRID_N6._replace(m_values=tuple(range(7)))
_GRID_THM6 = _GRID_R6._replace(s_values=(0, 1, 2, 3))
_GRID_THM7 = _GRID_THM6._replace(lambdas=_LAMBDAS)

_NRK = ("n", "r", "k")
_NMRK = ("n", "m", "r", "k")  # the order of THM5's point keys in a report

# one row per identity, in report order: id, axes, domain, default grid
# and the slab rows of its table (`_table`)
_DEFS: dict[str, IdentityDef] = {
    identity: IdentityDef(axes, domain, grid, rows)
    for identity, axes, domain, grid, rows in (
        ("THM1", _NRK, _dom_r_nonneg, _GRID_R4, _table(lambda p: (_thm1_table, p["r"], p["k"]))),
        ("THM2", _NRK, _dom_none, _GRID_R4,
         _table(lambda p: (_thm2_table, _bernoulli_values, p["r"], p["k"]))),
        ("EQ32", _NRK, _dom_none, _GRID_R4,
         _table(lambda p: (_thm2_table, _cauchy_values, p["r"], p["k"]))),
        ("EQ34", _NRK, _dom_r_nonneg, _GRID_R4,
         _table(lambda p: (_thm2_table, _composition_values, p["r"], p["k"]))),
        ("EQ35", _NRK, _dom_none, _GRID_R6,
         _table(lambda p: (_eq35_table, p["r"], p["k"]))),
        ("EQ36", _NRK, _dom_n_pos, _GRID_R6,
         _table(lambda p: (_eq36_table, p["r"], p["k"]))),
        ("THM3", _NRK, _dom_none, _GRID_N6,
         _table(lambda p: (_thm3_table, p["r"], p["k"]), lead=2)),
        ("THM4", _NRK, _dom_n_pos, _GRID_N6,
         _table(lambda p: (_thm4_table, p["r"], p["k"]), lead=2, reading=0)),
        ("THM4_VARIANT", _NRK, _dom_n_pos, _GRID_N6,
         _table(lambda p: (_thm4_table, p["r"], p["k"]), lead=2, reading=1)),
        ("THM5", _NMRK, _dom_thm5, _GRID_THM5,
         _table(lambda p: (_thm5_table, p["m"], p["r"], p["k"]), lead=2, reading=0)),
        ("THM5_VARIANT", _NMRK, _dom_thm5, _GRID_THM5,
         _table(lambda p: (_thm5_table, p["m"], p["r"], p["k"]), lead=2, reading=1)),
        ("EQ52", _NRK, _dom_none, _GRID_R6,
         _table(lambda p: (_eq52_table, p["r"], p["k"]))),
        ("THM6", ("n", "r", "k", "s"), _dom_none, _GRID_THM6,
         _table(lambda p: (_thm6_table, p["r"], p["k"], p["s"]))),
        ("THM7", ("n", "r", "k", "s", "lam"), _dom_thm7, _GRID_THM7, _table(lambda p: (
            _thm7_table, p["r"], p["k"], p["s"], p["lam"].numerator, p["lam"].denominator))),
        ("THM8", _NRK, _dom_none, _GRID_R6, _table(lambda p: (_thm8_table, p["r"], p["k"]))),
        ("NARUMI_BERNOULLI", ("n", "r"), _dom_none,
         GridSpec(tuple(range(11)), (-3, -2, -1, 0, 1, 2, 3)),
         _table(lambda p: (_narumi_bernoulli_table, p["r"]))),
        ("SHEFFER_PAIR_EQ17", _NRK, _dom_none, _GRID_R4._replace(k_values=(-1, 0, 1, 2)),
         _table(lambda p: (_eq17_table, p["r"], p["k"]))),
        ("ASSOC_EQ25", ("n",), _dom_none, GridSpec(tuple(range(11))),
         _table(lambda p: (_eq25_table,))),
    )
}

IDENTITY_IDS = tuple(_DEFS)


def default_grid(identity: str) -> GridSpec:
    return _DEFS[identity].default_grid


# -- the harness -----------------------------------------------------------
#
# The unit of work and of bookkeeping is a parameter slab: `verify` hands
# each one, with all of the grid's n, to `_slab_entries`, which compares
# the rows of its table at once and returns the slab's run.


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


def _same_rows(lefts, left_dens, rights, right_dens) -> bool:
    """Whether a/da = b/db, i.e. a db = b da, for every row of two sides
    given side by side (`_table`).  Sides equal as given, such as the
    0 = 0 rows of `_AGREED`, agree at once.  Where each a is as long as
    its b, the rows' concatenations are compared in one pass at C speed,
    each coefficient times its own row's other denominator (or, with one
    denominator a side, all of them times it), up to the first that
    differs; else row by row, the shorter list padded with zeros, so that
    no row runs into the next."""
    if lefts == rights and left_dens == right_dens:
        return True
    widths = list(map(len, lefts))
    if widths != list(map(len, rights)):
        return all(x * db == y * da for a, da, b, db in zip(lefts, left_dens, rights, right_dens)
                   for x, y in zip_longest(a, b, fillvalue=0))
    if len(set(left_dens)) == len(set(right_dens)) == 1:
        left_dens, right_dens = repeat(left_dens[0]), repeat(right_dens[0])
    else:
        left_dens, right_dens = [chain.from_iterable(map(repeat, dens, widths))
                                 for dens in (left_dens, right_dens)]
    return all(map(eq, map(_times, chain.from_iterable(lefts), right_dens),
                   map(_times, chain.from_iterable(rights), left_dens)))


# fixed: kept only so reports match perfbench/reports.json until ROADMAP item 2's re-record
_ENGINE = {"truncation": 32, "version": __version__}


class VerificationReport:
    """A plain, unhashable record: equal to a report with equal fields, its
    ``__slots__``, `elapsed` included.

    `runs` holds one run per parameter slab, in the grid order of the
    slabs (`_slab_entries`): the slab as the report writes it, the first n
    in its domain, the reason for the n below it, and its fail entries by
    n.  `results` is a read view that builds the entries in grid order on
    each read and keeps nothing; `totals` counts from the runs."""

    __slots__ = ("identity", "grid", "runs", "elapsed")

    def __init__(self, identity: str, grid: GridSpec, runs: list | None = None,
                 elapsed: float = 0.0):
        self.identity = identity
        self.grid = grid
        self.runs = [] if runs is None else runs
        self.elapsed = elapsed  # not serialized: reports must be byte-stable

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    @property
    def results(self) -> list:
        ns, width = self.grid.n_values, len(self.runs)
        results = [None] * (len(ns) * width)
        for j, (shown, first, reason, fails) in enumerate(self.runs):
            # in grid order, the slab's entries are every width-th from j
            results[j::width] = [
                {**fails[n], "point": {"n": n, **shown}} if n in fails
                else {"point": {"n": n, **shown}, "verdict": "pass"} if n >= first
                else {"point": {"n": n, **shown}, "verdict": "skipped", "reason": reason}
                for n in ns
            ]
        return results

    @property
    def totals(self) -> dict:
        ns = self.grid.n_values
        live = sum([len(ns) if first <= 0 else sum(map(first.__le__, ns))
                    for _, first, _, _ in self.runs])
        fail = sum([len(fails) for *_, fails in self.runs])
        return {"pass": live - fail, "fail": fail, "skipped": len(ns) * len(self.runs) - live}

    @property
    def all_passed(self) -> bool:
        return self.totals["fail"] == 0

    def _document(self, results) -> dict:
        return {
            "identity": self.identity,
            "grid": self.grid.to_dict(),
            "engine": dict(_ENGINE),
            "results": results,
            "totals": self.totals,
        }

    def to_document(self) -> dict:
        return self._document(self.results)

    def to_json(self) -> str:
        return json.dumps(self.to_document())


# -- the report text -------------------------------------------------------
#
# json.dumps with `indent` runs the stdlib's pure-Python encoder, which on a
# verify-all report costs more than most identities.  report_text writes the
# same bytes from a report's runs: json.dumps lays out the document's frame
# and, once per process, one %-template per entry shape (pass, skipped,
# fail), point keys and depth from a sample entry with the sentinel _SLOT
# in every slot; a run fills the point's slab values (and a skip's reason)
# once, leaving n, so that a point costs one % of its n.  It takes what `verify` makes: n first in the point, the
# other point values ints or strs, the same point keys throughout.

_SLOT = "\x00"
_SLOT_JSON = json.dumps(_SLOT)  # "\u0000", quotes included


def _dumps_at(value, depth: int) -> str:
    """json.dumps(value, indent=2) as it reads `depth` levels deep."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _escaped(text: str) -> str:
    """A str as json.dumps writes it, each % doubled for a second fill."""
    return encode_basestring_ascii(text).replace("%", "%%")


def _json_list(strings, nl: str) -> str:
    """A non-empty list of strs as json.dumps(indent=2) writes it; `nl` starts its items."""
    return "[" + nl + ("," + nl).join(map(encode_basestring_ascii, strings)) + nl[:-2] + "]"


@_memoized
def _template(depth: int, point_keys: tuple, verdict: str, *keys) -> str:
    """The %-template of an entry `depth` levels deep, laid out once per
    process: json.dumps(indent=2) of a sample entry with %s in every slot."""
    sample = {"point": dict.fromkeys(point_keys, _SLOT), "verdict": verdict,
              **dict.fromkeys(keys, _SLOT)}
    return _dumps_at(sample, depth).replace(_SLOT_JSON, "%s")


def _document_text(report, depth: int) -> str:
    """One report from `verify`, `depth` levels deep, written from its runs:
    each run's entries, every width-th in grid order, from the templates
    of its entry shapes filled with the run's slab."""
    head, tail = _dumps_at(report._document(_SLOT), depth).split(_SLOT_JSON)
    if not report.runs:
        return head + "[]" + tail
    nl, item_nl = "\n" + "  " * (depth + 2), "\n" + "  " * (depth + 4)
    ns, width = report.grid.n_values, len(report.runs)
    point_keys = ("n", *report.runs[0][0])

    def template(verdict, *keys):
        return _template(depth + 2, point_keys, verdict, *keys)

    texts = [None] * (len(ns) * width)
    for j, (shown, first, reason, fails) in enumerate(report.runs):
        # n's slot, then the slab's values with each % doubled
        slab = ("%s", *[_escaped(v) if type(v) is str else v for v in shown.values()])
        passed = template("pass") % slab
        if first <= 0:
            run = list(map(passed.__mod__, ns))
        else:
            skipped = template("skipped", "reason") % (*slab, _escaped(reason))
            run = [(passed if n >= first else skipped) % n for n in ns]
        for n, entry in fails.items():
            lists = [_json_list(entry[key], item_nl) for key in ("lhs", "rhs", "diff")]
            text = template("fail", "lhs", "rhs", "diff") % (*slab, "%s", "%s", "%s")
            run[ns.index(n)] = text % (n, *lists)
        texts[j::width] = run
    return head + "[" + nl + ("," + nl).join(texts) + nl[:-2] + "]" + tail


def _report_chunks(reports) -> list:
    """json.dumps([report.to_document() for report in reports], indent=2) +
    "\n" in pieces, holding one report at a time: the next is taken once
    the one before is rendered."""
    chunks = ["[\n  "]
    # map drops each report once its text is made; a loop variable would not
    for text in map(_document_text, reports, repeat(1)):
        chunks += (text, ",\n  ")
    chunks[-1] = "\n]\n"
    return chunks


def report_text(payload) -> str:
    """json.dumps(payload.to_document(), indent=2) + "\n", byte for byte, for
    one report from `verify`, or the same of the list of their documents
    for a non-empty list of reports."""
    if type(payload) is list:
        return "".join(_report_chunks(payload))
    return _document_text(payload, 0) + "\n"


def _entry(a, da, b, db, shown: dict) -> dict:
    """The report entry of a point in the domain whose sides are a/da and
    b/db; `shown` is the point as the report writes it."""
    diff = [x * db - y * da for x, y in zip_longest(a, b, fillvalue=0)]
    if not any(diff):
        return {"point": shown, "verdict": "pass"}
    return {
        "point": shown,
        "verdict": "fail",
        "lhs": _poly_strings((a, da)),
        "rhs": _poly_strings((b, db)),
        "diff": _poly_strings((diff, da * db)),
    }


def _slab_entries(definition: IdentityDef, slab: dict, shown: dict, n_values) -> tuple:
    """One parameter slab's run (shown, first, reason, fails), `shown` the
    slab as the report writes it: its points n >= first pass and the
    others are skipped for reason (its domain's one answer), but for the
    fail entries in fails, by n.  The rows of the points in the domain are
    read from the slab's table and compared at once; only a slab that
    fails writes entries, from the same rows."""
    first, reason = definition.domain(slab)
    live = n_values if first <= 0 else [n for n in n_values if n >= first]
    fails = {}
    if live:
        rows = definition.rows(slab, live)
        if not _same_rows(*rows):
            entries = [_entry(*row, {"n": n, **shown}) for n, *row in zip(live, *rows)]
            fails = {e["point"]["n"]: e for e in entries if e["verdict"] == "fail"}
    return shown, first, reason, fails


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

    def run(j):
        return _slab_entries(definition, slabs[j], shown[j], n_values)

    # one run per slab, in the slabs' order whatever the worker count
    start = time.monotonic()
    if jobs > 1:
        # the executor's own default ceiling, and no more threads than slabs
        workers = min(jobs, len(slabs), 32, (os.cpu_count() or 1) + 4)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(run, range(len(slabs))))
    else:
        runs = list(map(run, range(len(slabs))))
    report = VerificationReport(identity=identity, grid=grid, runs=runs)
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
