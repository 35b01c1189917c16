"""Umbral-calculus layer: linear functionals, operator action of a series
on polynomials, Sheffer sequences by several routes, connection constants
and the transfer formula.

A series f acts on a polynomial p as sum_k c_k p^(k)(x) where c_k is the
plain t^k coefficient of f; pairing a series with a polynomial gives
<f | p> = sum_i p_i i! c_i.  Everything below is a direct consequence of
those two rules plus series algebra.

What a Sheffer route needs of the delta series f alone, its compositional
inverse fbar, the powers of fbar and its associated sequence, is memoized
per f (`_delta_data`), so pairs that share f share it: every mixed pair
has f = e^{-t}-1.  The g-dependent part, 1/g(fbar) (g(fbar) read as one
integer combination of those powers) and the rows S_0 .. S_N, is
memoized per pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

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
from .families import bernoulli_ratio, lif_neg_t

_X = Polynomial.x()

# One guard coefficient beyond the operator degree keeps the f'-inverse
# and g'/g quotients exact through the needed order.
GUARD = 2


class ShefferPair:
    """An (invertible g, delta f) pair defining a Sheffer sequence;
    immutable, and equal to (and hashed as) any pair with equal g and f."""

    __slots__ = ("g", "f")

    def __init__(self, g: Series, f: Series):
        if g.order != f.order:
            raise SeriesError("g and f must share a truncation order")
        if not g.is_unit():
            raise SeriesError("g must be invertible (nonzero constant coefficient)")
        if f.valuation() != 1:
            raise SeriesError("f must be a delta series (order 1)")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "f", f)

    def __setattr__(self, name, value):
        raise AttributeError("ShefferPair is immutable")

    def __delattr__(self, name):
        raise AttributeError("ShefferPair is immutable")

    def __eq__(self, other):
        if other.__class__ is not ShefferPair:
            return NotImplemented
        return self.g == other.g and self.f == other.f

    def __hash__(self):
        return hash((self.g, self.f))

    def __repr__(self):
        return f"ShefferPair(g={self.g!r}, f={self.f!r})"

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


@lru_cache(maxsize=None)
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
    acc = Fraction(0)
    for i, c in enumerate(p.coeffs):
        if c:
            acc += c * factorial(i) * f.coeffs[i]
    return acc


def apply_series(op: Series, p: Polynomial) -> Polynomial:
    """Operator action: (sum c_k t^k) p = sum c_k p^(k)(x)."""
    result = Polynomial()
    deriv = p
    for k in range(min(op.order, p.degree) + 1 if p.degree >= 0 else 1):
        c = op.coeffs[k]
        if c:
            result = result + c * deriv
        deriv = deriv.derivative()
    return result


# -- Sheffer construction routes ------------------------------------------


@lru_cache(maxsize=None)
def _delta_data(f: Series) -> tuple:
    """(fbar, fbar^0 .. fbar^N, p_0 .. p_N) for a delta series f of order
    N: its compositional inverse, the powers of that inverse and its
    associated sequence, p_j(x) = sum_k (j!/k!) [t^j] fbar^k x^k.  They
    depend on f alone, so every pair with this f (the mixed pairs all
    share e^{-t}-1) builds them once."""
    fbar = comp_inverse(f)
    powers = [Series.one(f.order)]
    for _ in range(f.order):
        powers.append(mul(powers[-1], fbar))
    assoc = tuple(
        Polynomial(Fraction(factorial(j) * pw.num[j], factorial(k) * pw.den)
                   for k, pw in enumerate(powers[: j + 1]))
        for j in range(f.order + 1)
    )
    return fbar, tuple(powers), assoc


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _gf_rows(pair: ShefferPair) -> tuple:
    """S_0 .. S_N of the pair, N its order; see sheffer_by_gf."""
    _, ginv = _inverse_data(pair)
    _, _, assoc = _delta_data(pair.f)
    # with 1/g(fbar) = G / D, C(n, j) S_{n-j}(0) = (n!/j!) G_{n-j} / D
    g_num = ginv.num
    return tuple(
        Polynomial.linear_combination(
            ((factorial(n) // factorial(j) * g_num[n - j], assoc[j]) for j in range(n + 1)),
            ginv.den,
        )
        for n in range(pair.order + 1)
    )


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
    acc = Polynomial()
    pw = ginv
    for j in range(n + 1):
        coeff = Fraction(factorial(n), factorial(j)) * pw.coeffs[n]
        if coeff:
            acc = acc + Polynomial.monomial(j, coeff)
        pw = mul(pw, fbar)
    return acc


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
    acc = Polynomial()
    for l in range(n):
        w = comb(n, l) * factorial(n - l) * fbar.coeffs[n - l]
        if w:
            acc = acc + w * lower[l]
    return acc


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
            rows[i][m] = Fraction(factorial(i), factorial(m)) * pw.coeffs[i]
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
