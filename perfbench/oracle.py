"""Exact checks of the benchmark's outputs, written with plain `Fraction`
arithmetic and independent of polycauchy's series layer.

Every polynomial family the benchmark expands has a generating function
A(t) * B(x, t), where A(t) is free of x and B is one of three kernels:

- ``neg``: (1+t)^{-x}, so A_n(x-1) - A_n(x) = n A_{n-1}(x) (EQ36);
- ``pos``: (1+t)^{x},  so A_n(x+1) - A_n(x) = n A_{n-1}(x);
- ``exp``: e^{xt},     so A_n'(x) = n A_{n-1}(x).

Those relations pin every coefficient of A_n except its constant term,
and the constant term is n! [t^n] A(t), which `family_numbers` computes
here with its own power-series code.  Together they check a whole row
exactly.  Polynomials are tuples of Fractions in ascending powers with
trailing zeros stripped.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

KERNELS = {
    "mixed": "neg",
    "poly-cauchy": "neg",
    "narumi": "pos",
    "bernoulli2": "pos",
    "bernoulli": "exp",
    "frobenius-euler": "exp",
}


def _strip(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _mul(f: list, g: list, order: int) -> list:
    return [sum(f[j] * g[i - j] for j in range(i + 1)) for i in range(order + 1)]


def _power(f: list, alpha: int, order: int) -> list:
    """f^alpha for f[0] = 1 and any integer alpha, by the J. C. P. Miller
    recurrence n f_0 g_n = sum_{k=1..n} ((alpha+1) k - n) f_k g_{n-k}."""
    if f[0] != 1:
        raise ValueError("power series must start with 1")
    g = [Fraction(1)]
    for n in range(1, order + 1):
        acc = sum(((alpha + 1) * k - n) * f[k] * g[n - k] for k in range(1, n + 1))
        g.append(acc / n)
    return g


def stirling1_rows(n_max: int) -> list:
    """Signed Stirling numbers of the first kind by the two-term recurrence."""
    rows = [[Fraction(1)]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append(
            [
                (prev[m - 1] if m >= 1 else 0) - (n - 1) * (prev[m] if m < n else 0)
                for m in range(n + 1)
            ]
        )
    return rows


def _log_ratio(order: int) -> list:
    """log(1+t)/t."""
    return [Fraction((-1) ** i, i + 1) for i in range(order + 1)]


def family_numbers(family: str, params: dict, order: int) -> list:
    """n! [t^n] A(t) for n = 0..order, the x-free factor of the family's
    generating function."""
    if family in ("mixed", "poly-cauchy"):
        r = params.get("r", 0)
        k = params["k"]
        s1 = stirling1_rows(order)
        # Lif_k(log(1+t)) = sum_n t^n/n! sum_m s1(n, m) (m+1)^{-k}
        lif = [
            sum(s1[n][m] * Fraction(m + 1) ** (-k) for m in range(n + 1)) / factorial(n)
            for n in range(order + 1)
        ]
        a = _mul(_power(_log_ratio(order), -r, order), lif, order)
    elif family == "narumi":
        a = _power(_log_ratio(order), params["r"], order)
    elif family == "bernoulli2":
        a = _power(_log_ratio(order), -1, order)
    elif family == "bernoulli":
        # ((e^t - 1)/t)^{-alpha}
        e = [Fraction(1, factorial(i + 1)) for i in range(order + 1)]
        a = _power(e, -params["s"], order)
    elif family == "frobenius-euler":
        lam = Fraction(params["lam"])
        # ((e^t - lam)/(1 - lam))^{-s}
        e = [Fraction(1)] + [1 / (factorial(i) * (1 - lam)) for i in range(1, order + 1)]
        a = _power(e, -params["s"], order)
    else:
        raise ValueError(f"no oracle for family {family!r}")
    return [factorial(n) * a[n] for n in range(order + 1)]


def _shift(p: tuple, c: int) -> tuple:
    """p(x + c) by the binomial expansion."""
    return _strip(
        sum(p[j] * comb(j, i) * c ** (j - i) for j in range(i, len(p)))
        for i in range(len(p))
    )


def _sub(p: tuple, q: tuple) -> tuple:
    n = max(len(p), len(q))
    pad = lambda v: list(v) + [0] * (n - len(v))
    return _strip(a - b for a, b in zip(pad(p), pad(q)))


def _difference(kernel: str, p: tuple) -> tuple:
    if kernel == "neg":
        return _sub(_shift(p, -1), p)
    if kernel == "pos":
        return _sub(_shift(p, 1), p)
    return _strip(i * c for i, c in enumerate(p) if i > 0)


def check_family_rows(family: str, params: dict, rows: list) -> str | None:
    """None if rows 0..N are exactly the family's polynomials, else the
    first mismatch."""
    kernel = KERNELS[family]
    numbers = family_numbers(family, params, len(rows) - 1)
    rows = [_strip(r) for r in rows]
    for n, row in enumerate(rows):
        if (row[0] if row else 0) != numbers[n]:
            return f"{family} row {n}: constant term {row[:1]} != {numbers[n]}"
        if n == 0:
            if len(row) != 1:
                return f"{family} row 0 is not constant"
            continue
        expected = _strip(n * c for c in rows[n - 1])
        if _difference(kernel, row) != expected:
            return f"{family} row {n}: difference relation fails"
    return None


def check_stirling2_rows(rows: list) -> str | None:
    """None if rows 0..N are the Stirling numbers of the second kind, by
    S(n, j) = S(n-1, j-1) + j S(n-1, j) from S(0, 0) = 1."""
    if [list(r) for r in rows[:1]] != [[1]]:
        return "stirling2 row 0 != [1]"
    for n in range(1, len(rows)):
        prev, row = rows[n - 1], rows[n]
        expected = [
            (prev[j - 1] if j >= 1 else 0) + j * (prev[j] if j < n else 0)
            for j in range(n + 1)
        ]
        if list(row) != expected:
            return f"stirling2 row {n}: recurrence fails"
    return None
