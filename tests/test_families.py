import hashlib
import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from math import comb, factorial
from operator import mul as times

import pytest

from polycauchy.algebra import Polynomial, falling_factorial, poly_shift
from polycauchy.series import (
    Series,
    compose,
    exp_t,
    int_pow,
    log_one_plus_t,
    mul,
    reciprocal,
)
from polycauchy import families as fam
from polycauchy import identities as idn

X = Polynomial.x()


# -- lif -------------------------------------------------------------------


def test_lif_zero_index_is_exp():
    assert fam.lif(0, 8) == exp_t(8)


def test_lif_positive_index():
    assert fam.lif(1, 3) == Series([1, F(1, 2), F(1, 6), F(1, 24)])


def test_lif_negative_index():
    # c_n = (n+1)/n!
    got = fam.lif(-1, 2)
    assert list(got.coeffs) == [F(1), F(2), F(3, 2)]


@pytest.mark.parametrize("order", [0, 1, 2, 7, 8, 33])
def test_lif_and_lif_neg_t_match_termwise_fractions(order):
    for k in range(-3, 4):
        want = [F(1, factorial(n)) * F(n + 1) ** -k for n in range(order + 1)]
        assert fam.lif(k, order) == Series(want)
        assert fam.lif_neg_t(k, order) == Series(c * (-1) ** n for n, c in enumerate(want))


@pytest.mark.parametrize("order", [1, 2, 7, 8, 33, 64])
def test_lif_log_matches_composition(order):
    ell = log_one_plus_t(order)
    for k in range(-3, 4):
        assert fam._lif_log(order, k) == compose(fam.lif(k, order), ell), k


# -- stirling --------------------------------------------------------------


def test_stirling1_values():
    assert fam.stirling1(3, 1) == 2
    assert fam.stirling1(3, 2) == -3
    for n in range(10):
        assert fam.stirling1(n, n) == 1


def test_stirling2_values():
    assert fam.stirling2(4, 2) == 7
    assert fam.stirling2(3, 1) == 1
    assert fam.stirling2(3, 2) == 3


def test_stirling_argument_validation():
    with pytest.raises(ValueError):
        fam.stirling1(2, 3)
    with pytest.raises(ValueError):
        fam.stirling2(-1, 0)


def test_stirling_triangles_deep():
    # both triangles come from their two-term recurrences; their cross-checks
    # are the falling-factorial test and the generating-function test below,
    # each out to n = 20
    assert fam.stirling1(20, 10) is not None
    assert fam.stirling2(20, 10) is not None


def test_stirling2_rows_match_generating_function():
    # S(n, j) = n!/j! [t^n] (e^t - 1)^j; the rows themselves come from the
    # two-term recurrence
    for n in range(21):
        em1 = exp_t(n) - 1
        pw = Series.one(n)
        for j in range(n + 1):
            assert fam.stirling2(n, j) == F(factorial(n), factorial(j)) * pw.coeffs[n]
            pw = mul(pw, em1)


def test_stirling_inverse_triangles():
    for n in range(13):
        for l in range(13):
            total = sum(
                fam.stirling1(n, m) * fam.stirling2(m, l)
                for m in range(min(n, l), n + 1)
                if m >= l
            )
            assert total == (1 if n == l else 0)


def test_falling_factorial_coefficients_are_stirling1():
    for n in range(21):
        ff = falling_factorial(n)
        for l in range(n + 1):
            assert ff.coefficient(l) == fam.stirling1(n, l)


# -- cauchy ----------------------------------------------------------------


def test_cauchy_numbers():
    assert [fam.cauchy_number(n) for n in range(5)] == [
        F(1),
        F(1, 2),
        F(-1, 6),
        F(1, 4),
        F(-19, 30),
    ]


def test_higher_cauchy_order_zero():
    for n in range(6):
        assert fam.higher_cauchy(n, 0) == (1 if n == 0 else 0)


def test_higher_cauchy_small():
    assert fam.higher_cauchy(1, 2) == 1
    assert fam.higher_cauchy(2, 2) == F(1, 6)


def test_higher_cauchy_negative_order():
    # (log(1+t)/t)^1: 1! [t^1] = -1/2
    assert fam.higher_cauchy(1, -1) == F(-1, 2)


# -- poly-cauchy -----------------------------------------------------------


def test_poly_cauchy_degree_zero():
    for k in (-2, 0, 1, 3):
        assert fam.poly_cauchy(0, k) == Polynomial((1,))


def test_poly_cauchy_number_closed_form():
    # independent oracle: C_n^{(k)} = sum_m S1(n,m)/(m+1)^k
    for n in range(10):
        for k in (-2, -1, 0, 1, 2, 3):
            oracle = sum(
                fam.stirling1(n, m) * F(m + 1) ** (-k) for m in range(n + 1)
            )
            assert fam.poly_cauchy(n, k).evaluate(0) == oracle


def test_poly_cauchy_c22():
    assert fam.poly_cauchy(2, 2).evaluate(0) == F(-5, 36)


def test_poly_cauchy_index_one_gives_cauchy():
    for n in range(13):
        assert fam.poly_cauchy(n, 1).evaluate(0) == fam.cauchy_number(n)


# -- mixed_A ---------------------------------------------------------------


def test_mixed_A_degree_one():
    for r in (-2, 0, 1, 3):
        for k in (-2, 0, 2):
            expect = Polynomial((F(r, 2) + F(2) ** (-k), -1))
            assert fam.mixed_A(1, r, k) == expect


def test_mixed_A_2_1_1():
    # by hand: (t/log(1+t))^2 (1+t)^{-x}, 2![t^2] = x^2 - x + 1/6
    assert fam.mixed_A(2, 1, 1) == Polynomial((F(1, 6), -1, 1))


def test_mixed_A_reduces_to_poly_cauchy():
    for n in range(13):
        for k in (-2, -1, 0, 1, 2, 3):
            assert fam.mixed_A(n, 0, k) == fam.poly_cauchy(n, k)


def test_mixed_A_numbers_are_higher_cauchy():
    for n in range(13):
        for r in range(5):
            assert fam.mixed_A(n, r, 1).evaluate(0) == fam.higher_cauchy(n, r + 1)


def test_mixed_A_degree_and_leading_coefficient():
    for n in range(9):
        for r in (-2, 0, 2):
            for k in (-1, 1):
                p = fam.mixed_A(n, r, k)
                assert p.degree == n
                assert p.coefficient(n) == F((-1) ** n)


# -- bernoulli-type families -----------------------------------------------


def test_bernoulli_poly_degree_one():
    for alpha in (-3, -1, 0, 1, 4):
        assert fam.bernoulli_poly(1, alpha) == Polynomial((F(-alpha, 2), 1))


def test_bernoulli_poly_classical_b2():
    assert fam.bernoulli_poly(2, 1) == Polynomial((F(1, 6), -1, 1))


def test_frobenius_euler_degree_one():
    for lam in (F(2), F(-1), F(1, 2)):
        assert fam.frobenius_euler(1, 1, lam) == Polynomial((-1 / (1 - lam), 1))


def test_frobenius_euler_rejects_lambda_one():
    with pytest.raises(ValueError):
        fam.frobenius_euler(2, 1, 1)


def test_frobenius_euler_order_zero():
    for n in range(5):
        assert fam.frobenius_euler(n, 0, F(1, 2)) == Polynomial.monomial(n)


def test_narumi_degree_one():
    for r in (-3, 0, 2):
        assert fam.narumi(1, r) == Polynomial((F(-r, 2), 1))


def test_narumi_bernoulli_identity():
    for n in range(11):
        for r in range(-3, 4):
            assert fam.narumi(n, r) == poly_shift(fam.bernoulli_poly(n, n + r + 1), 1)


def test_bernoulli2_at_zero_is_cauchy():
    for n in range(16):
        assert fam.bernoulli2(n).evaluate(0) == fam.cauchy_number(n)


def _reference_rows(g, f, n_max):
    """Rows 0..n_max of n! [t^n] g(t) e^{x f(t)}, with the x^k coefficient
    read as (n!/k!) [t^n] g(t) f(t)^k from univariate powers of f."""
    rows = [[] for _ in range(n_max + 1)]
    h = g
    for k in range(n_max + 1):
        for n in range(k, n_max + 1):
            rows[n].append(F(factorial(n), factorial(k)) * h.coeffs[n])
        h = mul(h, f)
    return [Polynomial(row) for row in rows]


def test_six_families_match_power_reference_to_64():
    n = 64
    ell = log_one_plus_t(n)
    t = Series.t(n)
    ratio = fam.cauchy_ratio(n)
    cases = [
        (fam.mixed_A, (2, -1), mul(int_pow(ratio, 2), compose(fam.lif(-1, n), ell)), -ell),
        (fam.poly_cauchy, (2,), compose(fam.lif(2, n), ell), -ell),
        (fam.bernoulli_poly, (3,), int_pow(fam.bernoulli_ratio(n), 3), t),
        (fam.frobenius_euler, (2, F(3)),
         int_pow(reciprocal((exp_t(n) - 3).scale(F(-1, 2))), 2), t),
        (fam.narumi, (2,), int_pow(ratio, -2), ell),
        (fam.bernoulli2, (), ratio, ell),
    ]
    fam._memo.clear()
    for family, params, g, f in cases:
        want = _reference_rows(g, f, n)
        # one row at a time from a cold memo, so g regrows on the way
        assert [family(m, *params) for m in range(n + 1)] == want, family.__name__


# sha256 of each row's coefficients as `str` writes them, one per line,
# as the sliced math.comb kernel (`_sliced_sheffer_rows` below) computed
# them; each row is built alone from a cold memo, so the kernel runs with
# ns = (64,)
DEEP_ROWS = [
    ("mixed_A", (64, 2, -1), "cafe06a3d36f6ae2c9a93481221d35dd004a3e1411156ed3b793b3f7fa3e601e"),
    ("narumi", (64, 2), "05e6d769f9c41a2aa520cbea9ffb720ba54e70d03d498db54587e805b56effce"),
    ("bernoulli_poly", (64, 3), "b83c033ac066b576fd0b5fb0ee081d97e41bd229a9918b60cb35310757a677ef"),
]


@pytest.mark.parametrize("family, args, digest", DEEP_ROWS, ids=[row[0] for row in DEEP_ROWS])
def test_deep_single_rows_are_pinned(family, args, digest):
    fam._memo.clear()
    text = "\n".join(map(str, getattr(fam, family)(*args).coeffs))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_negative_degree_rejected():
    for func in (fam.poly_cauchy, fam.higher_cauchy):
        with pytest.raises(ValueError):
            func(-1, 0)
    with pytest.raises(ValueError):
        fam.mixed_A(-1, 0, 0)


# -- the Sheffer-row kernel -------------------------------------------------


def _sliced_sheffer_rows(values, cols, ns):
    """The kernel as it was first written, kept as its oracle: the weights
    from math.comb, and coefficient i the dot product of the weights and
    column i from j = i on."""
    rows = []
    for n in ns:
        w = [comb(n, j) * values[n - j] for j in range(n + 1)]
        rows.append([sum(map(times, w[i:], col[i:])) for i, col in enumerate(cols[: n + 1])])
    return rows


ORDER = 40

def xj_columns(order: int) -> tuple:
    """The columns of x^j, j = 0..order, each cut after its 1."""
    return tuple((0,) * i + (1,) for i in range(order + 1))


# the kernel's three column layouts: x^j with each column cut after its 1,
# (-x)_j at full length, and the dense columns of the Stirling sums P_j
# that Theorems 6 and 7 read (`identities._stirling_g`'s `-log` family,
# here of a Bernoulli and of a Frobenius-Euler factor)
LAYOUTS = {
    "t": lambda: xj_columns(ORDER),
    "-log": lambda: fam._associated(ORDER, "-log"),
    "stirling-side-bernoulli": lambda: idn._sheffer_source(
        ORDER, idn._stirling_g, fam._bernoulli_g, 3)[1],
    "stirling-side-frobenius": lambda: idn._sheffer_source(
        ORDER, idn._stirling_g, fam._frobenius_g, 2, -1, 3)[1],
}


@pytest.mark.parametrize("ns", [range(ORDER + 1), (17,), (0,), (ORDER, 3, 29, 0, 11, 12)],
                         ids=["all", "one", "zero", "unsorted"])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_sheffer_rows_match_the_sliced_formula(layout, ns):
    rng = random.Random(f"{layout} {ns}")
    # signed values from 1 to 400 bits
    values = [rng.choice((-1, 1)) * rng.getrandbits(rng.choice((1, 7, 64, 400)))
              for _ in range(ORDER + 1)]
    cols = LAYOUTS[layout]()
    fam._memo.clear()
    want = _sliced_sheffer_rows(values, cols, ns)
    # values as a tuple, as `families._values` gives them, and as a list,
    # as the perturbation tests of test_reassociated_sums pass them
    assert fam.sheffer_rows(tuple(values), cols, ns) == want
    assert fam.sheffer_rows(values, cols, ns) == want


@pytest.mark.parametrize("s, lam", [(2, F(1, 3)), (3, F(-1)), (0, F(2))])
def test_frobenius_euler_rows_are_the_kernel_over_xj(s, lam):
    # over x^j a row is the kernel's weight row itself, read without the
    # kernel; the kernel over explicit x^j columns must give the same rows
    fam._memo.clear()
    p, q = lam.numerator, lam.denominator
    values, den = fam._values(fam._grown(fam._frobenius_g, 64, s, p, q), 64)
    cols = xj_columns(64)
    for n in range(65):
        (row,) = fam.sheffer_rows(values, cols, (n,))
        assert fam.frobenius_euler(n, s, lam) == Polynomial._of(row, den), n


def test_binomial_triangle_matches_comb():
    fam._memo.clear()
    # built short, then regrown past its first doubling
    assert fam._grown(fam._binomial_rows, 3)[3] == (1, 3, 3, 1)
    rows = fam._grown(fam._binomial_rows, 64)
    assert len(rows) >= 65
    for n in range(65):
        assert rows[n] == tuple(comb(n, j) for j in range(n + 1)), n


# -- the shared memo -------------------------------------------------------


def _memo_requests():
    """Stirling rows to 30 and mixed_A / poly_cauchy / narumi /
    bernoulli_poly rows to 20, interleaved by degree."""
    reqs = []
    for n in range(31):
        reqs.append(("stirling1", n))
        reqs.append(("stirling2", n))
        if n <= 20:
            reqs += [("mixed_A", n), ("poly_cauchy", n), ("narumi", n), ("bernoulli_poly", n)]
    return reqs


def _memo_answer(req):
    kind, n = req
    if kind.startswith("stirling"):
        return [getattr(fam, kind)(n, m) for m in range(n + 1)]
    if kind == "mixed_A":
        return fam.mixed_A(n, 2, -1)
    if kind == "poly_cauchy":
        return fam.poly_cauchy(n, 2)
    if kind == "bernoulli_poly":
        return fam.bernoulli_poly(n, 3)
    return fam.narumi(n, 2)


def test_memo_is_safe_under_threads():
    reqs = _memo_requests()
    fam._memo.clear()
    serial = [_memo_answer(req) for req in reqs]
    for _ in range(5):
        fam._memo.clear()
        with ThreadPoolExecutor(8) as pool:
            assert list(pool.map(_memo_answer, reqs)) == serial
