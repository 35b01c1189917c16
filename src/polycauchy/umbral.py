"""Umbral-calculus layer: linear functionals, operator action of a series
on polynomials, Sheffer sequences by several routes, connection constants
and the transfer formula.

A series f acts on a polynomial p as sum_k c_k p^(k)(x) where c_k is the
plain t^k coefficient of f; pairing a series with a polynomial gives
<f | p> = sum_i p_i i! c_i.  Everything below is a direct consequence of
those two rules plus series algebra.  Each route computes on the integer
numerators ``num`` over one ``den`` of its series and polynomials, one
integer dot product or row per result, and builds a `Fraction` only for
a scalar it returns.

What a Sheffer route needs of the delta series f alone, its compositional
inverse fbar, the powers of fbar and its associated sequence (as integer
columns over one denominator), is kept per f (`_delta_data`), so pairs
that share f share it: every mixed pair has f = e^{-t}-1.  The
g-dependent part, 1/g(fbar) (g(fbar) read as one integer combination of
those powers) and the rows S_0 .. S_N, is kept per pair; the rows come
from `families.sheffer_rows`, the package's one Sheffer-row kernel.
Both, and each mixed pair, are kept in `families._memo`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial, lcm, perm

from .algebra import Polynomial
from .series import (
    Series,
    SeriesError,
    comp_inverse,
    compose,
    div,
    exp_t,
    int_pow,
    mul,
    reciprocal,
)
from .families import _memoized, _values, bernoulli_ratio, lif_neg_t, sheffer_rows

_X = Polynomial.x()

# One guard coefficient beyond the operator degree keeps the f'-inverse
# and g'/g quotients exact through the needed order.
GUARD = 2


class ShefferPair(namedtuple("ShefferPair", "g f")):
    """An (invertible g, delta f) pair defining a Sheffer sequence;
    immutable, and equal to (and hashed as) any pair with equal g and f."""

    __slots__ = ()

    def __new__(cls, g: Series, f: Series):
        if g.order != f.order:
            raise SeriesError("g and f must share a truncation order")
        if not g.is_unit():
            raise SeriesError("g must be invertible (nonzero constant coefficient)")
        if f.valuation() != 1:
            raise SeriesError("f must be a delta series (order 1)")
        return super().__new__(cls, g, f)

    @property
    def order(self) -> int:
        return self.g.order


def identity_pair(order: int) -> ShefferPair:
    """(1, t): the monomials x^n."""
    return ShefferPair(Series.one(order), Series.t(order))


def bernoulli_pair(order: int) -> ShefferPair:
    """((e^t-1)/t, t): the classical Bernoulli polynomials."""
    g = div(exp_t(order + 1) - 1, Series.t(order + 1))
    return ShefferPair(g, Series.t(order))


def exp_minus_t(order: int) -> Series:
    return Series(
        Fraction((-1) ** i, factorial(i)) for i in range(order + 1)
    )


def backward_delta(order: int) -> Series:
    """e^{-t} - 1, the delta series of the mixed-type family."""
    return exp_minus_t(order) - 1


@_memoized
def mixed_pair(r: int, k: int, order: int) -> ShefferPair:
    """The pair ((t e^t/(e^t-1))^r / Lif_k(-t), e^{-t}-1) whose Sheffer
    sequence is A_n^{(r,k)}(x)."""
    # t e^t/(e^t-1) = (-t)/(e^{-t}-1), the Bernoulli ratio at -t
    b = bernoulli_ratio(order)
    u = Series._of([-c if i % 2 else c for i, c in enumerate(b.num)], b.den)
    g = mul(int_pow(u, r), reciprocal(lif_neg_t(k, order)))
    return ShefferPair(g, backward_delta(order))


# -- functional and operator action ---------------------------------------


def functional(f: Series, p: Polynomial) -> Fraction:
    """<f(t) | p(x)> = sum_i p_i i! [t^i]f."""
    if p.degree > f.order:
        raise SeriesError(
            f"functional needs series order >= deg p ({p.degree}), have {f.order}"
        )
    acc = sum([factorial(i) * c * a for i, (c, a) in enumerate(zip(p.num, f.num))])
    return Fraction(acc, p.den * f.den)


def apply_series(op: Series, p: Polynomial) -> Polynomial:
    """Operator action: (sum c_k t^k) p = sum c_k p^(k)(x), one row with
    [x^j] = sum_k c_k (j+k)!/j! p_{j+k}."""
    c, a = op.num, p.num
    return Polynomial._of([
        sum([c[k] * perm(j + k, k) * a[j + k] for k in range(min(op.order, len(a) - 1 - j) + 1)])
        for j in range(len(a))
    ], op.den * p.den)


# -- Sheffer construction routes ------------------------------------------


@_memoized
def _delta_data(f: Series) -> tuple:
    """(fbar, fbar^0 .. fbar^N, (cols, den)) for a delta series f of order
    N: its compositional inverse, the powers of that inverse and its
    associated sequence p_0 .. p_N, p_j(x) = sum_k (j!/k!) [t^j] fbar^k x^k,
    as integer columns over one denominator, cols[k][j] / den = [x^k] p_j.
    They depend on f alone, so every pair with this f (the mixed pairs all
    share e^{-t}-1) builds them once."""
    fbar = comp_inverse(f)
    powers = [Series.one(f.order)]
    for _ in range(f.order):
        powers.append(mul(powers[-1], fbar))
    fact = [factorial(j) for j in range(f.order + 1)]
    dens = [fk * pw.den for fk, pw in zip(fact, powers)]
    den = lcm(*dens)
    cols = tuple(
        tuple([fj * c * u for fj, c in zip(fact, pw.num)])
        for pw, u in zip(powers, [den // d for d in dens])
    )
    return fbar, tuple(powers), (cols, den)


@_memoized
def _inverse_data(pair: ShefferPair):
    """(fbar, 1/g(fbar)) shared by the gf and conjugate routes.

    g(fbar) = sum_m g_m fbar^m is one integer combination of the powers of
    fbar that `_delta_data` keeps, over the lcm of their denominators."""
    fbar, powers, _ = _delta_data(pair.f)
    g = pair.g
    den = lcm(*(pw.den for pw in powers))
    acc = [0] * (g.order + 1)
    for c, pw in zip(g.num, powers):
        if c:
            w = c * (den // pw.den)
            for i, x in enumerate(pw.num):
                acc[i] += w * x
    return fbar, reciprocal(Series._of(acc, g.den * den))


@_memoized
def _gf_rows(pair: ShefferPair) -> tuple:
    """S_0 .. S_N of the pair, N its order; see sheffer_by_gf."""
    _, ginv = _inverse_data(pair)
    _, _, (cols, den) = _delta_data(pair.f)
    values, vden = _values(ginv, pair.order)
    rows = sheffer_rows(values, cols, range(pair.order + 1))
    return tuple(Polynomial._of(row, vden * den) for row in rows)


def sheffer_by_gf(pair: ShefferPair, n: int) -> Polynomial:
    """S_n = n! [t^n] of (1/g(fbar)) e^{x fbar(t)}.

    The generating function is read through the Sheffer identity
    S_n(x) = sum_j C(n, j) S_{n-j}(0) p_j(x), from univariate series only:
    S_m(0) = m! [t^m] 1/g(fbar), and the associated sequence of f is
    p_j(x) = sum_k (j!/k!) [t^j] fbar^k x^k, from the powers of fbar.
    Rows 0..N, N the pair's order, are built once per pair.
    """
    if n > pair.order:
        raise SeriesError(f"pair order {pair.order} too small for degree {n}")
    return _gf_rows(pair)[n]


def sheffer_by_conjugate(pair: ShefferPair, n: int) -> Polynomial:
    """S_n = sum_j (1/j!) <g(fbar)^{-1} fbar^j | x^n> x^j, an independent
    route to the same polynomial."""
    if n > pair.order:
        raise SeriesError(f"pair order {pair.order} too small for degree {n}")
    fbar, ginv = _inverse_data(pair)
    nums, dens = [], []
    pw = ginv
    for j in range(n + 1):
        nums.append(perm(n, n - j) * pw.num[n])
        dens.append(pw.den)
        pw = mul(pw, fbar)
    den = lcm(*dens)
    return Polynomial._of([c * (den // d) for c, d in zip(nums, dens)], den)


def sheffer_sequence(pair: ShefferPair, n: int) -> list[Polynomial]:
    """S_0 .. S_n by the generating-function route."""
    return [sheffer_by_gf(pair, i) for i in range(n + 1)]


def sheffer_next(pair: ShefferPair, s_n: Polynomial, n: int) -> Polynomial:
    """S_{n+1} = (x - g'(t)/g(t)) (1/f'(t)) S_n."""
    if n + 1 > pair.order:
        raise SeriesError(f"pair order {pair.order} too small for degree {n + 1}")
    m = pair.order - 1
    g, f = pair.g, pair.f
    log_deriv = div(g.derivative(), g.truncate(m))
    f_prime_inv = reciprocal(f.derivative())
    u = apply_series(f_prime_inv, s_n)
    return _X * u - apply_series(log_deriv, u)


def sheffer_derivative(pair: ShefferPair, n: int, lower: list[Polynomial]) -> Polynomial:
    """d/dx S_n = sum_{l<n} binom(n,l) <fbar | x^{n-l}> S_l, with lower
    holding S_0 .. S_{n-1}."""
    if len(lower) < n:
        raise ValueError("lower must hold S_0 .. S_{n-1}")
    fbar, _ = _inverse_data(pair)
    return Polynomial.linear_combination(
        [(perm(n, n - l) * fbar.num[n - l], lower[l]) for l in range(n)], fbar.den
    )


# -- connection constants and transfer ------------------------------------


def connection_constants(src: ShefferPair, dst: ShefferPair, n: int) -> list[list[Fraction]]:
    """Lower-triangular matrix C with src_i(x) = sum_m C[i][m] dst_m(x),
    rows i = 0..n.

    C[i][m] = (1/m!) i! [t^i] of (h(fbar)/g(fbar)) l(fbar)^m for the
    source pair (g, f) and destination pair (h, l).
    """
    if n > src.order or n > dst.order:
        raise SeriesError("pair order too small for the requested matrix")
    fbar, ginv = _inverse_data(src)
    base = mul(compose(dst.g.truncate(src.order), fbar), ginv)
    lcomp = compose(dst.f.truncate(src.order), fbar)
    rows = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    pw = base
    for m in range(n + 1):
        for i in range(m, n + 1):
            rows[i][m] = Fraction(perm(i, i - m) * pw.num[i], pw.den)
        pw = mul(pw, lcomp)
    return rows


def transfer(f: Series, g: Series, n: int) -> Polynomial:
    """Carry the associated sequence of (1, f) to (1, g):
    q_n = x (f/g)^n x^{-1} p_n."""
    if f.valuation() != 1 or g.valuation() != 1:
        raise SeriesError("transfer needs two delta series")
    if n == 0:
        return Polynomial((1,))
    if f == Series.t(f.order):
        p_n = Polynomial.monomial(n)
    else:
        p_n = sheffer_by_gf(ShefferPair(Series.one(f.order), f), n)
    ratio = int_pow(div(f, g), n)
    inner = p_n.quotient_by_x()
    return _X * apply_series(ratio, inner)
