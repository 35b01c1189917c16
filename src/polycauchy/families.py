"""Named number and polynomial families, each built from its generating
function through the series layer.

Every Cauchy-number constructor and every polynomial family's own factor
g(t) is expanded from its defining generating function.  Each polynomial
family is a Sheffer sequence n! [t^n] g(t) e^{x f(t)} with f one of t,
log(1+t) and -log(1+t).  The coefficients of e^{x f(t)} are read in
closed form, through the Sheffer identity: the associated sequence of f
is x^j, the falling factorial (x)_j or (-x)_j, whose coefficients are
Stirling numbers of the first kind.  So every row is built from the
univariate series g and a Stirling row.  Composition with log(1+t) reads
the same Stirling matrix: log(1+t)^m / m! = sum_n s(n, m) t^n / n!, so
the factor Lif_k(log(1+t)) of the poly-Cauchy and mixed g is that matrix
applied to Lif_k's coefficients (the test suite checks it against series
composition).  The Stirling triangles come from their two-term
recurrences and are kept as rows of ints (their cross-checks live in the
test suite).  The required truncation order is derived from the
requested degree, so callers never pass one.

Every expansion is kept in one memo, `_memo`: each g series and each
Stirling triangle keyed per parameter set and regrown on demand, and
each polynomial row by itself.  Its values are immutable and each entry
is replaced whole by one dict assignment, so it needs no lock: threads
that race on a key only build the same value twice.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import mul as _times

from .algebra import Polynomial
from .series import (
    Series,
    div,
    exp_t,
    int_pow,
    log_one_plus_t,
    mul,
    reciprocal,
)


# -- Lif_k and its composition with log(1+t) -------------------------------


def _lif_weights(order: int, k: int) -> tuple[list, int]:
    """Integer weights w_m = d / (m+1)^k for m = 0..order, with
    d = lcm(1..order+1)^k for k > 0 and d = 1 otherwise."""
    if k <= 0:
        return [(m + 1) ** -k for m in range(order + 1)], 1
    d = lcm(*range(1, order + 2)) ** k
    return [d // (m + 1) ** k for m in range(order + 1)], d


def _over_factorials(num: list, d: int) -> Series:
    """The series sum_n num[n] t^n / (d n!); num is modified."""
    order = len(num) - 1
    scale = 1  # order! / n!
    for n in range(order, 0, -1):
        num[n] *= scale
        scale *= n
    num[0] *= scale
    return Series._of(num, d * scale)


def lif(k: int, order: int) -> Series:
    """Polylogarithm factorial Lif_k(t) = sum t^n / (n! (n+1)^k)."""
    return _over_factorials(*_lif_weights(order, k))


def lif_neg_t(k: int, order: int) -> Series:
    """Lif_k(-t), the invertible factor of the mixed-type Sheffer pair."""
    w, d = _lif_weights(order, k)
    w[1::2] = [-c for c in w[1::2]]
    return _over_factorials(w, d)


def _lif_log(order: int, k: int) -> Series:
    """Lif_k(log(1+t)) = sum_n (t^n/n!) sum_{m<=n} s(n, m) / (m+1)^k.

    log(1+t)^m / m! = sum_n s(n, m) t^n / n!: the signed Stirling matrix of
    the first kind is the exponential Riordan array of log(1+t) (Comtet,
    Advanced Combinatorics, 1974, ch. 5), so the composition is one
    integer product of that matrix with Lif_k's weights.
    """
    w, d = _lif_weights(order, k)
    rows = stirling_triangle(1, order)
    return _over_factorials([sum(map(_times, rows[n], w)) for n in range(order + 1)], d)


# -- one memo -------------------------------------------------------------
#
# _memo maps a key to (order, value): the widest value built so far and
# the order it is exact through.  Two threads racing on a key may also put
# a narrower entry back over a wider one; every stored value is still
# exact through the order stored with it.  A row's key starts with "row"
# and its order is its degree; every other key is a string or a tuple
# that starts with a function or "stirling", so the two never collide.
# `identities` keeps its slab tables here too, keyed by their builders.

_memo: dict = {}


def _grown(key, order: int, build, *args):
    """The memo value for key, exact through at least `order`; a short or
    missing one is rebuilt as build(m, *args) at m = max(order, 8, twice
    the old order)."""
    hit = _memo.get(key)
    if hit is not None and hit[0] >= order:
        return hit[1]
    order = max(order, 8, 2 * hit[0] if hit else 0)
    value = build(order, *args)
    _memo[key] = (order, value)
    return value


def _cauchy_ratio(order: int) -> Series:
    return div(Series.t(order + 1), log_one_plus_t(order + 1))


def _bernoulli_ratio(order: int) -> Series:
    return div(Series.t(order + 1), exp_t(order + 1) - 1)


def cauchy_ratio(order: int) -> Series:
    """t/log(1+t), the Cauchy-number generating function, at the given order."""
    return _grown("cauchy_ratio", order, _cauchy_ratio).truncate(order)


def bernoulli_ratio(order: int) -> Series:
    """t/(e^t - 1), the Bernoulli generating function, at the given order."""
    return _grown("bernoulli_ratio", order, _bernoulli_ratio).truncate(order)


def _sheffer_row(n: int, delta: str, g, *params) -> Polynomial:
    """The Sheffer polynomial n! [t^n] g(t) e^{x f(t)}, where g(order,
    *params) expands the family's own factor and delta names f: "t",
    "log" for log(1+t), or "-log" for -log(1+t).

    By the Sheffer identity s_n(x) = sum_j C(n, j) s_{n-j}(0) p_j(x), with
    s_m(0) = m! [t^m] g and p_j the associated sequence of f: x^j for t,
    the falling factorial (x)_j = sum_i s(j, i) x^i for log(1+t) and
    (-x)_j for -log(1+t).  So with g = G / D the x^i coefficient of row n
    is sum_j (n!/j!) G_{n-j} [x^i] p_j / D, summed in integers.
    """
    key = ("row", g, n, *params)
    hit = _memo.get(key)
    if hit is not None:
        return hit[1]
    gs = _grown((g, *params), n, g, *params)
    w = [factorial(n) // factorial(j) * gs.num[n - j] for j in range(n + 1)]
    if delta == "t":
        row = w
    else:
        row = [0] * (n + 1)
        for wj, sj in zip(w, stirling_triangle(1, n)):
            for i, s in enumerate(sj):
                row[i] += wj * s
        if delta == "-log":
            row[1::2] = [-c for c in row[1::2]]
    value = Polynomial._of(row, gs.den)
    _memo[key] = (n, value)
    return value


# -- Stirling triangles ----------------------------------------------------


def _stirling_rows(order: int, kind: int) -> list:
    """Rows 0..order of the signed first (kind 1) or the second (kind 2)
    Stirling triangle, from T(m, j) = T(m-1, j-1) + w T(m-1, j) with
    w = -(m-1) for the first kind and w = j for the second."""
    rows = [[1]]
    for m in range(1, order + 1):
        prev = rows[-1] + [0]
        rows.append([
            (prev[j - 1] if j else 0) + (j if kind == 2 else 1 - m) * prev[j]
            for j in range(m + 1)
        ])
    return [tuple(row) for row in rows]


def stirling_triangle(kind: int, n: int) -> list:
    """Rows 0..n (or more) of the signed first (kind 1) or the second
    (kind 2) Stirling triangle, each a tuple of ints."""
    return _grown(("stirling", kind), n, _stirling_rows, kind)


def stirling1(n: int, m: int) -> Fraction:
    """Signed Stirling number of the first kind, from the two-term
    recurrence s(n, m) = s(n-1, m-1) - (n-1) s(n-1, m)."""
    if n < 0 or m < 0 or m > n:
        raise ValueError(f"stirling1 needs 0 <= m <= n, got n={n}, m={m}")
    return Fraction(stirling_triangle(1, n)[n][m])


def stirling2(n: int, m: int) -> Fraction:
    """Stirling number of the second kind, from the two-term recurrence
    S(n, m) = S(n-1, m-1) + m S(n-1, m)."""
    if n < 0 or m < 0 or m > n:
        raise ValueError(f"stirling2 needs 0 <= m <= n, got n={n}, m={m}")
    return Fraction(stirling_triangle(2, n)[n][m])


# -- Cauchy and poly-Cauchy ------------------------------------------------


def cauchy_number(n: int) -> Fraction:
    """C_n = n! [t^n] t/log(1+t)."""
    return higher_cauchy(n, 1)


def higher_cauchy(n: int, r: int) -> Fraction:
    """Cauchy numbers of order r: n! [t^n] (t/log(1+t))^r; r may be negative."""
    if n < 0:
        raise ValueError("higher_cauchy needs n >= 0")
    gs = _grown((_narumi_g, -r), n, _narumi_g, -r)  # shared with narumi(n, -r)
    return Fraction(factorial(n) * gs.num[n], gs.den)


def poly_cauchy(n: int, k: int) -> Polynomial:
    """Poly-Cauchy polynomial C_n^{(k)}(x) from Lif_k(log(1+t)) (1+t)^{-x}."""
    if n < 0:
        raise ValueError("poly_cauchy needs n >= 0")
    return _sheffer_row(n, "-log", _lif_log, k)


def _mixed_g(order: int, r: int, k: int) -> Series:
    return mul(int_pow(cauchy_ratio(order), r), _lif_log(order, k))


def mixed_A(n: int, r: int, k: int) -> Polynomial:
    """Mixed-type polynomial A_n^{(r,k)}(x): n! [t^n] of
    (t/log(1+t))^r Lif_k(log(1+t)) (1+t)^{-x}.

    This expansion is the reference value every identity is checked
    against.
    """
    if n < 0:
        raise ValueError("mixed_A needs n >= 0")
    return _sheffer_row(n, "-log", _mixed_g, r, k)


# -- Bernoulli-type families ----------------------------------------------


def _bernoulli_g(order: int, alpha: int) -> Series:
    return int_pow(bernoulli_ratio(order), alpha)


def bernoulli_poly(n: int, alpha: int) -> Polynomial:
    """Bernoulli polynomial of order alpha: n! [t^n] (t/(e^t-1))^alpha e^{xt}."""
    if n < 0:
        raise ValueError("bernoulli_poly needs n >= 0")
    return _sheffer_row(n, "t", _bernoulli_g, alpha)


def _frobenius_g(order: int, s: int, lam: Fraction) -> Series:
    base = (exp_t(order) - lam).scale(Fraction(1) / (1 - lam))
    return int_pow(reciprocal(base), s)


def frobenius_euler(n: int, s: int, lam) -> Polynomial:
    """Frobenius-Euler polynomial H_n^{(s)}(x|lam) for lam != 1."""
    lam = Fraction(lam)
    if lam == 1:
        raise ValueError("frobenius_euler needs lam != 1")
    if n < 0 or s < 0:
        raise ValueError("frobenius_euler needs n >= 0 and s >= 0")
    return _sheffer_row(n, "t", _frobenius_g, s, lam)


def _narumi_g(order: int, r: int) -> Series:
    return int_pow(cauchy_ratio(order), -r)  # (log(1+t)/t)^r


def narumi(n: int, r: int) -> Polynomial:
    """Narumi polynomial N_n^{(r)}(x): n! [t^n] (log(1+t)/t)^r (1+t)^x."""
    if n < 0:
        raise ValueError("narumi needs n >= 0")
    return _sheffer_row(n, "log", _narumi_g, r)


def bernoulli2(n: int) -> Polynomial:
    """Bernoulli polynomial of the second kind: n! [t^n] (t/log(1+t)) (1+t)^x."""
    if n < 0:
        raise ValueError("bernoulli2 needs n >= 0")
    return _sheffer_row(n, "log", cauchy_ratio)
