"""Named number and polynomial families, each built from its generating
function through the series layer.

Every polynomial and Cauchy-number constructor expands the defining
generating function; closed-form shortcuts exist only in the test suite as
cross-checks.  The Stirling triangles come from their two-term
recurrences (the first kind cross-checked against the falling-factorial
expansion; the generating-function check of the second kind lives in the
test suite).  The required
truncation order is derived from the requested degree, so callers never
pass one.  Expanded series are cached per parameter set and regrown on
demand; the caches are write-once per key and safe to share.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import factorial

from .algebra import Polynomial
from .series import (
    Series,
    compose,
    div,
    exp_series,
    exp_t,
    int_pow,
    log_one_plus_t,
    mul,
    reciprocal,
)

_X = Polynomial.x()


def lif(k: int, order: int) -> Series:
    """Polylogarithm factorial Lif_k(t) = sum t^n / (n! (n+1)^k)."""
    return Series(
        Fraction(1, factorial(n)) * Fraction(n + 1) ** (-k) for n in range(order + 1)
    )


def lif_neg_t(k: int, order: int) -> Series:
    """Lif_k(-t), the invertible factor of the mixed-type Sheffer pair."""
    return Series(
        Fraction((-1) ** n, factorial(n)) * Fraction(n + 1) ** (-k)
        for n in range(order + 1)
    )


# -- cached generating-function expansions --------------------------------
#
# Each cache maps a parameter key to the widest series computed so far;
# lookups needing more terms recompute and replace the entry.

_ratio_cache: dict[str, Series] = {}
_poly_series_cache: dict[tuple, list] = {}


def cauchy_ratio(order: int) -> Series:
    """t/log(1+t), the Cauchy-number generating function, at the given order."""
    best = _ratio_cache.get("ratio")
    if best is None or best.order < order:
        best = div(Series.t(order + 1), log_one_plus_t(order + 1))
        _ratio_cache["ratio"] = best
    return best.truncate(order)


def bernoulli_ratio(order: int) -> Series:
    """t/(e^t - 1), the Bernoulli generating function, at the given order."""
    best = _ratio_cache.get("bernoulli")
    if best is None or best.order < order:
        best = div(Series.t(order + 1), exp_t(order + 1) - 1)
        _ratio_cache["bernoulli"] = best
    return best.truncate(order)


def _family_polys(key: tuple, n: int, builder) -> Polynomial:
    """n-th member of a cached polynomial family; builder(order) returns the
    generating Series, and row i is i! times its t^i coefficient, read
    straight from the series' integer columns."""
    entry = _poly_series_cache.get(key)
    if entry is None or len(entry) <= n:
        order = max(n, 8, 2 * (len(entry) - 1) if entry else 0)
        f = builder(order)
        entry = [
            Polynomial._of([factorial(i) * col[i] for col in f.num], f.den)
            for i in range(order + 1)
        ]
        _poly_series_cache[key] = entry
    return entry[n]


# -- Stirling triangles ----------------------------------------------------
#
# Rows are appended under one lock: without it, two threads that both see
# a row missing append it twice and shift every later row.

_s1_rows: list[list[Fraction]] = []
_s2_rows: list[list[Fraction]] = [[Fraction(1)]]
_stirling_lock = threading.Lock()


def _extend_stirling1(n: int):
    from .algebra import falling_factorial

    with _stirling_lock:
        while len(_s1_rows) <= n:
            m = len(_s1_rows)
            ff = falling_factorial(m)
            row = [ff.coefficient(l) for l in range(m + 1)]
            if m == 0:
                rec = [Fraction(1)]
            else:
                prev = _s1_rows[m - 1]
                rec = [
                    (prev[l - 1] if l >= 1 else Fraction(0))
                    - (m - 1) * (prev[l] if l < m else Fraction(0))
                    for l in range(m + 1)
                ]
            if row != rec:
                raise AssertionError(f"Stirling-1 row {m}: expansion and recurrence disagree")
            _s1_rows.append(row)


def _extend_stirling2(n: int):
    with _stirling_lock:
        while len(_s2_rows) <= n:
            prev = _s2_rows[-1]
            m = len(prev)
            _s2_rows.append([
                (prev[j - 1] if j else 0) + j * (prev[j] if j < m else 0)
                for j in range(m + 1)
            ])


def stirling1(n: int, m: int) -> Fraction:
    """Signed Stirling number of the first kind, from the falling-factorial
    expansion (cross-checked against the two-term recurrence)."""
    if n < 0 or m < 0 or m > n:
        raise ValueError(f"stirling1 needs 0 <= m <= n, got n={n}, m={m}")
    _extend_stirling1(n)
    return _s1_rows[n][m]


def stirling2(n: int, m: int) -> Fraction:
    """Stirling number of the second kind, from the two-term recurrence
    S(n, m) = S(n-1, m-1) + m S(n-1, m)."""
    if n < 0 or m < 0 or m > n:
        raise ValueError(f"stirling2 needs 0 <= m <= n, got n={n}, m={m}")
    _extend_stirling2(n)
    return _s2_rows[n][m]


# -- Cauchy and poly-Cauchy ------------------------------------------------


def cauchy_number(n: int) -> Fraction:
    """C_n = n! [t^n] t/log(1+t)."""
    return higher_cauchy(n, 1)


def higher_cauchy(n: int, r: int) -> Fraction:
    """Cauchy numbers of order r: n! [t^n] (t/log(1+t))^r; r may be negative."""
    if n < 0:
        raise ValueError("higher_cauchy needs n >= 0")
    u = int_pow(cauchy_ratio(n), r)
    return factorial(n) * u.coeffs[n]


def _poly_cauchy_builder(k: int):
    def build(order: int) -> Series:
        ell = log_one_plus_t(order)
        lifk = compose(lif(k, order), ell)
        inv_pow = exp_series(ell.scale(-_X))  # (1+t)^{-x}
        return mul(lifk, inv_pow)

    return build


def poly_cauchy(n: int, k: int) -> Polynomial:
    """Poly-Cauchy polynomial C_n^{(k)}(x) from Lif_k(log(1+t)) (1+t)^{-x}."""
    if n < 0:
        raise ValueError("poly_cauchy needs n >= 0")
    return _family_polys(("poly_cauchy", k), n, _poly_cauchy_builder(k))


def _mixed_builder(r: int, k: int):
    def build(order: int) -> Series:
        ell = log_one_plus_t(order)
        u = int_pow(cauchy_ratio(order), r)
        lifk = compose(lif(k, order), ell)
        inv_pow = exp_series(ell.scale(-_X))
        return mul(mul(u, lifk), inv_pow)

    return build


def mixed_A(n: int, r: int, k: int) -> Polynomial:
    """Mixed-type polynomial A_n^{(r,k)}(x): n! [t^n] of
    (t/log(1+t))^r Lif_k(log(1+t)) (1+t)^{-x}.

    This expansion is the reference value every identity is checked
    against.
    """
    if n < 0:
        raise ValueError("mixed_A needs n >= 0")
    return _family_polys(("mixed", r, k), n, _mixed_builder(r, k))


# -- Bernoulli-type families ----------------------------------------------


def _bernoulli_builder(alpha: int):
    def build(order: int) -> Series:
        base = int_pow(bernoulli_ratio(order), alpha)
        ext = exp_series(Series.t(order).scale(_X))  # e^{xt}
        return mul(base, ext)

    return build


def bernoulli_poly(n: int, alpha: int) -> Polynomial:
    """Bernoulli polynomial of order alpha: n! [t^n] (t/(e^t-1))^alpha e^{xt}."""
    if n < 0:
        raise ValueError("bernoulli_poly needs n >= 0")
    return _family_polys(("bernoulli", alpha), n, _bernoulli_builder(alpha))


def _frobenius_builder(s: int, lam: Fraction):
    def build(order: int) -> Series:
        base = (exp_t(order) - lam).scale(Fraction(1) / (1 - lam))
        ext = exp_series(Series.t(order).scale(_X))
        return mul(int_pow(reciprocal(base), s), ext)

    return build


def frobenius_euler(n: int, s: int, lam) -> Polynomial:
    """Frobenius-Euler polynomial H_n^{(s)}(x|lam) for lam != 1."""
    lam = Fraction(lam)
    if lam == 1:
        raise ValueError("frobenius_euler needs lam != 1")
    if n < 0 or s < 0:
        raise ValueError("frobenius_euler needs n >= 0 and s >= 0")
    return _family_polys(("frobenius", s, lam), n, _frobenius_builder(s, lam))


def _narumi_builder(r: int):
    def build(order: int) -> Series:
        base = int_pow(cauchy_ratio(order), -r)  # (log(1+t)/t)^r
        ext = exp_series(log_one_plus_t(order).scale(_X))  # (1+t)^x
        return mul(base, ext)

    return build


def narumi(n: int, r: int) -> Polynomial:
    """Narumi polynomial N_n^{(r)}(x): n! [t^n] (log(1+t)/t)^r (1+t)^x."""
    if n < 0:
        raise ValueError("narumi needs n >= 0")
    return _family_polys(("narumi", r), n, _narumi_builder(r))


def _bernoulli2_builder():
    def build(order: int) -> Series:
        ext = exp_series(log_one_plus_t(order).scale(_X))
        return mul(cauchy_ratio(order), ext)

    return build


def bernoulli2(n: int) -> Polynomial:
    """Bernoulli polynomial of the second kind: n! [t^n] (t/log(1+t)) (1+t)^x."""
    if n < 0:
        raise ValueError("bernoulli2 needs n >= 0")
    return _family_polys(("bernoulli2",), n, _bernoulli2_builder())
