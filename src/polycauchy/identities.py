"""Identity verification harness.

Each registered identity owns an evaluator that produces one or more
(lhs, rhs) polynomial pairs per grid point.  The left side always comes
from the generating-function expansion of A_n^{(r,k)} (and shifts of it);
the right side is the combinatorial formula built from the other family
constructors.  A point passes iff every pair matches exactly.

Theorems 4 and 5 are printed in the source with internal inconsistencies
against their own derivations; both the printed reading and the
derivation-faithful variant are registered, and verify_variants reports
which one holds.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from concurrent.futures import ThreadPoolExecutor

from .algebra import Polynomial, poly_shift, rising_factorial
from .families import (
    bernoulli_poly,
    bernoulli2,
    frobenius_euler,
    mixed_A,
    narumi,
    poly_cauchy,
    stirling1,
)
from .series import Series
from .umbral import backward_delta, mixed_pair, sheffer_by_gf, transfer

__version__ = "0.1.0"

DEFAULT_TRUNCATION = 32

VARIANT_IDS = ("THM4", "THM4_VARIANT", "THM5", "THM5_VARIANT")

_R_STD = (0, 1, 2, 3)
_R_EXT = (-2, -1, 0, 1, 2, 3)
_K_STD = (-2, -1, 0, 1, 2, 3)
_S_STD = (0, 1, 2, 3)
_LAMBDAS = (Fraction(2), Fraction(-1), Fraction(1, 2))


@dataclass(frozen=True)
class GridSpec:
    """Finite parameter grid; identities read only the axes they use."""

    n_values: tuple = ()
    r_values: tuple = ()
    k_values: tuple = ()
    s_values: tuple = ()
    m_values: tuple = ()
    lambdas: tuple = ()

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


# -- shared shorthands -----------------------------------------------------


def _A(n, r, k) -> Polynomial:
    return mixed_A(n, r, k)


def _A0(n, r, k) -> Fraction:
    return mixed_A(n, r, k).evaluate(0)


def _A_at(n, r, k, c) -> Fraction:
    return mixed_A(n, r, k).evaluate(c)


def _pc_number(n, k) -> Fraction:
    return poly_cauchy(n, k).evaluate(0)


def _pow_int(base: int, k: int) -> Fraction:
    # base**k with k possibly negative
    return Fraction(base) ** k


def _const(c) -> Polynomial:
    return Polynomial((c,))


def _mixed_sheffer_order(n: int) -> int:
    return max(n + 2, 10)


# -- identity evaluators ---------------------------------------------------
#
# Each returns a list of (lhs, rhs) Polynomial pairs for one grid point.


def _thm1(p):
    n, r, k = p["n"], p["r"], p["k"]
    rhs = Polynomial()
    for j in range(n + 1):
        s = Fraction(0)
        for m in range(j, n + 1):
            s1 = stirling1(n, m)
            if s1 == 0:
                continue
            for l in range(m - j + 1):
                from .families import stirling2

                s += (
                    Fraction(comb(m, l) * comb(m - l, j), comb(m - l - j + r, r))
                    * _pow_int(l + 1, -k)
                    * s1
                    * stirling2(m - l - j + r, r)
                )
        if s:
            rhs = rhs + Polynomial.monomial(j, Fraction((-1) ** j) * s)
    return [(_A(n, r, k), rhs)]


def _thm2_core(p, a_number):
    """Theorem 2's triple sum over Stirling-1, a_number(a, r) and
    poly-Cauchy numbers; THM2, EQ32 and EQ34 differ only in a_number."""
    n, r, k = p["n"], p["r"], p["k"]
    a_vals = [a_number(a, r) for a in range(n + 1)]
    pcs = [_pc_number(i, k) for i in range(n + 1)]
    # the innermost sum over a depends on t = n - l - j alone
    inner = [
        sum(comb(t, a) * a_vals[a] * pcs[t - a] for a in range(t + 1))
        for t in range(n + 1)
    ]
    rhs = Polynomial()
    for j in range(n + 1):
        s = Fraction(0)
        for l in range(n - j + 1):
            s += comb(n, l + j) * stirling1(l + j, j) * inner[n - l - j]
        if s:
            rhs = rhs + Polynomial.monomial(j, (-1) ** j * s)
    return [(_A(n, r, k), rhs)]


def _thm2(p):
    return _thm2_core(p, lambda a, r: bernoulli_poly(a, a - r + 1).evaluate(1))


def _eq32(p):
    return _thm2_core(p, lambda a, r: narumi(a, -r).evaluate(0))


def _compositions(total: int, parts: int):
    """Ordered tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _eq34(p):
    b = [bernoulli2(i).evaluate(0) for i in range(p["n"] + 1)]

    def composition_sum(a, r):
        total = Fraction(0)
        for parts in _compositions(a, r):
            multinom = factorial(a)
            prod = Fraction(1)
            for ai in parts:
                multinom //= factorial(ai)
                prod *= b[ai]
            total += multinom * prod
        return total

    return _thm2_core(p, composition_sum)


def _eq35(p):
    n, r, k = p["n"], p["r"], p["k"]
    a_n = _A(n, r, k)
    pairs = []
    for y in (Fraction(i) for i in range(-2, n - 1)):
        lhs = poly_shift(a_n, y)
        rhs = Polynomial()
        for j in range(n + 1):
            w = (
                Fraction((-1) ** (n - j))
                * comb(n, j)
                * rising_factorial(n - j).evaluate(y)
            )
            if w:
                rhs = rhs + w * _A(j, r, k)
        pairs.append((lhs, rhs))
    return pairs


def _eq36(p):
    n, r, k = p["n"], p["r"], p["k"]
    lhs = n * _A(n - 1, r, k)
    a_n = _A(n, r, k)
    rhs = poly_shift(a_n, -1) - a_n
    return [(lhs, rhs)]


def _thm3(p):
    n, r, k = p["n"], p["r"], p["k"]
    x = Polynomial.x()
    rhs = -x * poly_shift(_A(n, r, k), 1)
    mid = Polynomial()
    for m in range(n + 1):
        s1 = stirling1(n, m)
        if s1 == 0:
            continue
        for l in range(m + 1):
            for a in range(m - l + 1):
                w = (
                    Fraction((-1) ** a * comb(m, l) * comb(m - l, a), (a + 2) * (a + 1))
                    * _pow_int(l + 1, -k)
                    * s1
                )
                if w:
                    mid = mid + w * bernoulli_poly(m - l - a, 1 - r).compose_affine(-1, 0)
    rhs = rhs + r * mid
    last = Polynomial()
    for m in range(n + 1):
        s1 = stirling1(n, m)
        if s1 == 0:
            continue
        for a in range(m + 1):
            w = comb(m, a) * s1 * _pow_int(a + 2, -k)
            if w:
                last = last + w * bernoulli_poly(m - a, -r).compose_affine(-1, -1)
    rhs = rhs + last
    return [(_A(n + 1, r, k), rhs)]


def _thm4_core(p, printed: bool):
    n, r, k = p["n"], p["r"], p["k"]
    x = Polynomial.x()
    rhs = -x * poly_shift(_A(n - 1, r, k), 1)
    dbl = Polynomial()
    for l in range(n):
        for a in range(l + 1):
            w = Fraction(
                (-1) ** (n - a) * factorial(n - 1 - l) * factorial(l - a), l - a + 2
            ) * comb(n - 1, l) * comb(l, a)
            carrier = _A(n, r + 1, k) if printed else _A(a, r + 1, k)
            dbl = dbl + w * carrier
    rhs = rhs + r * dbl
    single = Polynomial()
    for l in range(n):
        w = Fraction((-1) ** (n - l - 1) * factorial(n - l - 1)) * comb(n - 1, l)
        single = single + w * _A(l, r, k)
    rhs = rhs + r * single
    rhs = rhs + Fraction(1, n) * (
        poly_shift(_A(n, r + 1, k - 1), 1) - poly_shift(_A(n, r + 1, k), 1)
    )
    return [(_A(n, r, k), rhs)]


def _thm4(p):
    return _thm4_core(p, printed=True)


def _thm4_variant(p):
    return _thm4_core(p, printed=False)


def _thm5_core(p, printed: bool):
    n, m, r, k = p["n"], p["m"], p["r"], p["k"]
    lhs = Fraction(0)
    for l in range(n - m + 1):
        lhs += comb(n, l) * stirling1(n - l, m) * _A0(l, r, k)
    rhs = Fraction(0)
    for l in range(n - m):
        for a in range(l + 1):
            rhs += (
                r
                * Fraction((-1) ** (l - a + 1) * factorial(l - a), l - a + 2)
                * comb(n - 1, l)
                * comb(l, a)
                * stirling1(n - 1 - l, m)
                * _A_at(a, r + 1, k, 1)
            )
    for l in range(n - m):
        rhs += r * comb(n - 1, l) * stirling1(n - l - 1, m) * _A_at(l, r, k, 1)
    for l in range(n - m + 1):
        s1 = stirling1(n - l - 1, m - 1) if m - 1 <= n - l - 1 else Fraction(0)
        if s1 == 0:
            continue
        if printed:
            rhs += Fraction(1, m) * comb(n - 1, l) * s1 * _A_at(l, r, k, 1)
            rhs += (1 - Fraction(1, m)) * comb(n - 1, l) * s1 * _A_at(l, r, k, 1)
        else:
            rhs += Fraction(1, m) * comb(n - 1, l) * s1 * _A_at(l, r, k - 1, 1)
            rhs += (1 - Fraction(1, m)) * comb(n - 1, l) * s1 * _A_at(l, r, k, 1)
    return [(_const(lhs), _const(rhs))]


def _thm5(p):
    return _thm5_core(p, printed=True)


def _thm5_variant(p):
    return _thm5_core(p, printed=False)


def _eq52(p):
    n, r, k = p["n"], p["r"], p["k"]
    lhs = _A(n, r, k).derivative()
    rhs = Polynomial()
    for l in range(n):
        w = (
            Fraction((-1) ** (n + 1) * factorial(n))
            * Fraction((-1) ** (l + 1), (n - l) * factorial(l))
        )
        rhs = rhs + w * _A(l, r, k)
    return [(lhs, rhs)]


def _thm6(p):
    n, r, k, s = p["n"], p["r"], p["k"], p["s"]
    rhs = Polynomial()
    for m in range(n + 1):
        c = Fraction(0)
        for l in range(n - m + 1):
            c += comb(n, l) * stirling1(n - l, m) * _A_at(l, r + s, k, s)
        c *= Fraction((-1) ** m)
        if c:
            rhs = rhs + c * bernoulli_poly(m, s)
    return [(_A(n, r, k), rhs)]


def _thm7(p):
    n, r, k, s, lam = p["n"], p["r"], p["k"], p["s"], p["lam"]
    scale = Fraction(1) / (1 - lam) ** s
    # the sum over a does not depend on m: one value per l
    inner = [
        sum((-lam) ** a * comb(s, a) * _A_at(l, r, k, s - a) for a in range(s + 1))
        for l in range(n + 1)
    ]
    rhs = Polynomial()
    for m in range(n + 1):
        c = Fraction(0)
        for l in range(n - m + 1):
            c += comb(n, l) * stirling1(n - l, m) * inner[l]
        c *= Fraction((-1) ** m) * scale
        if c:
            rhs = rhs + c * frobenius_euler(m, s, lam)
    return [(_A(n, r, k), rhs)]


def _thm8(p):
    n, r, k = p["n"], p["r"], p["k"]
    rhs = Polynomial()
    for m in range(n + 1):
        w = Fraction((-1) ** m) * comb(n, m) * _A0(n - m, r, k)
        if w:
            rhs = rhs + w * rising_factorial(m)
    return [(_A(n, r, k), rhs)]


def _narumi_bernoulli(p):
    n, r = p["n"], p["r"]
    return [(narumi(n, r), poly_shift(bernoulli_poly(n, n + r + 1), 1))]


def _sheffer_pair_eq17(p):
    n, r, k = p["n"], p["r"], p["k"]
    pair = mixed_pair(r, k, _mixed_sheffer_order(n))
    return [(_A(n, r, k), sheffer_by_gf(pair, n))]


def _assoc_eq25(p):
    n = p["n"]
    order = _mixed_sheffer_order(n)
    lhs = transfer(Series.t(order), backward_delta(order), n)
    rhs = Fraction((-1) ** n) * rising_factorial(n)
    return [(lhs, Polynomial._coerce(rhs))]


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


def _dom_lambda(p):
    if p["lam"] == 1:
        return "lam = 1: Frobenius-Euler undefined"
    return None


def _dom_none(p):
    return None


@dataclass(frozen=True)
class IdentityDef:
    axes: tuple
    domain: object
    pairs: object
    default_grid: GridSpec


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
        _dom_lambda,
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


@dataclass
class VerificationReport:
    identity: str
    grid: GridSpec
    results: list = field(default_factory=list)
    truncation: int = DEFAULT_TRUNCATION
    version: str = __version__
    elapsed: float = 0.0  # not serialized: reports must be byte-stable

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
            "engine": {"truncation": self.truncation, "version": self.version},
            "results": self.results,
            "totals": self.totals,
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_document(), indent=indent)


def _point_entry(definition: IdentityDef, point: dict) -> dict:
    shown = {k: (str(v) if isinstance(v, Fraction) else v) for k, v in point.items()}
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
    start = time.monotonic()
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda pt: _point_entry(definition, pt), points))
    else:
        results = [_point_entry(definition, pt) for pt in points]
    report = VerificationReport(identity=identity, grid=grid, results=results)
    report.elapsed = time.monotonic() - start
    return report


def verify_variants(identity: str, grid: GridSpec | None = None, jobs: int = 1) -> dict:
    """Run the printed statement and its derivation-faithful variant side
    by side; only THM4 and THM5 have variants."""
    if identity not in ("THM4", "THM5"):
        raise ValueError("verify_variants applies to THM4 and THM5 only")
    return {
        "printed": verify(identity, grid, jobs),
        "variant": verify(identity + "_VARIANT", grid, jobs),
    }
