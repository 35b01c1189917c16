"""Acceptance battery: exact end-to-end checks with time budgets.

Each criterion prints exactly one PASS/FAIL line.  Everything is exact
rational arithmetic; "equal" always means structural equality of reduced
fractions / polynomial coefficient tuples.
"""

import time
from fractions import Fraction as F
from math import comb, factorial

from polycauchy.algebra import Polynomial, poly_shift, rising_factorial
from polycauchy.series import Series, compose, div, exp_t, int_pow, log_one_plus_t, mul
from polycauchy import families as fam
from polycauchy import umbral as um
from polycauchy import identities as idn


class _Criterion:
    def __init__(self, label, budget=None):
        self.label = label
        self.budget = budget
        self.problems = []

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is not None:
            print(f"{self.label}: FAIL ({exc_type.__name__}) [{elapsed:.1f}s]")
            return False
        if self.budget is not None and elapsed >= self.budget:
            self.problems.append(
                f"took {elapsed:.1f}s, budget {self.budget}s"
            )
        verdict = "PASS" if not self.problems else "FAIL"
        print(f"{self.label}: {verdict} [{elapsed:.1f}s]")
        assert not self.problems, self.problems
        return False


def test_criterion_1_oracle_self_consistency():
    with _Criterion("criterion 1: oracle self-consistency", budget=10) as c:
        for n in range(13):
            for k in range(-2, 4):
                c.check(
                    fam.mixed_A(n, 0, k) == fam.poly_cauchy(n, k),
                    f"mixed(n={n},r=0,k={k}) != poly_cauchy",
                )
            for r in range(5):
                c.check(
                    fam.mixed_A(n, r, 1).evaluate(0) == fam.higher_cauchy(n, r + 1),
                    f"mixed number (n={n},r={r}) != higher_cauchy order {r + 1}",
                )


def test_criterion_2_sheffer_identification():
    with _Criterion("criterion 2: sheffer identification", budget=30) as c:
        for r in range(4):
            for k in range(-1, 3):
                pair = um.mixed_pair(r, k, 10)
                for n in range(9):
                    oracle = fam.mixed_A(n, r, k)
                    c.check(
                        um.sheffer_by_gf(pair, n) == oracle,
                        f"gf route (n={n},r={r},k={k})",
                    )
                    c.check(
                        um.sheffer_by_conjugate(pair, n) == oracle,
                        f"conjugate route (n={n},r={r},k={k})",
                    )


def test_criterion_3_expansion_identities_full_grids():
    ids = ("THM1", "THM2", "EQ32", "EQ34", "EQ35", "EQ36", "EQ52", "THM6", "THM7", "THM8")
    with _Criterion("criterion 3: expansion identities on full grids", budget=300) as c:
        for name in ids:
            rep = idn.verify(name)
            c.check(rep.all_passed, f"{name}: {rep.totals}")
            c.check(rep.totals["pass"] > 0, f"{name}: empty grid")


def test_criterion_4_recurrence_identities_and_variants():
    with _Criterion("criterion 4: recurrence identities, variant resolution") as c:
        rep3 = idn.verify("THM3")
        c.check(rep3.all_passed, f"THM3: {rep3.totals}")

        out4 = idn.verify_variants("THM4")
        out5 = idn.verify_variants("THM5")
        for name, out in (("THM4", out4), ("THM5", out5)):
            printed, variant = out["printed"], out["variant"]
            c.check(
                printed.all_passed or variant.all_passed,
                f"{name}: neither reading holds",
            )
            # pinned resolution: the printed statements fail, the
            # derivation-faithful variants hold on the full grid
            c.check(not printed.all_passed, f"{name}: printed reading now passes")
            c.check(variant.all_passed, f"{name} variant: {variant.totals}")
        # pinned first counterexamples of the printed readings
        first4 = next(e for e in out4["printed"].results if e["verdict"] == "fail")
        c.check(
            first4["point"] == {"n": 1, "r": 1, "k": -2},
            f"THM4 first counterexample moved: {first4['point']}",
        )
        first5 = next(e for e in out5["printed"].results if e["verdict"] == "fail")
        c.check(
            first5["point"] == {"n": 2, "m": 1, "r": 0, "k": -2},
            f"THM5 first counterexample moved: {first5['point']}",
        )


def test_criterion_5_umbral_layer_properties():
    with _Criterion("criterion 5: umbral layer properties", budget=60) as c:
        order = 12
        pairs = {
            "mixed(1,1)": um.mixed_pair(1, 1, order),
            "mixed(2,-1)": um.mixed_pair(2, -1, order),
            "identity": um.identity_pair(order),
            "bernoulli": um.ShefferPair(
                div(exp_t(order) - 1, Series.t(order)).truncate(order - 1),
                Series.t(order - 1),
            ),
        }
        for label, pair in pairs.items():
            seq = um.sheffer_sequence(pair, 8)
            for n in range(9):
                # lowering
                if n >= 1:
                    c.check(
                        um.apply_series(pair.f, seq[n]) == n * seq[n - 1],
                        f"{label}: lowering at n={n}",
                    )
                # biorthogonality
                for k in range(9):
                    val = um.functional(mul(pair.g, int_pow(pair.f, k)), seq[n])
                    c.check(
                        val == (factorial(n) if n == k else 0),
                        f"{label}: biorthogonality (n={n},k={k})",
                    )
                # binomial identity through the associated sequence
                assoc = [um.apply_series(pair.g, seq[j]) for j in range(n + 1)]
                for y in (F(-1), F(2)):
                    rhs = Polynomial()
                    for j in range(n + 1):
                        rhs = rhs + comb(n, j) * assoc[n - j].evaluate(y) * seq[j]
                    c.check(
                        poly_shift(seq[n], y) == rhs,
                        f"{label}: binomial identity (n={n},y={y})",
                    )
                # recurrence consistency
                if n < 8:
                    c.check(
                        um.sheffer_next(pair, seq[n], n) == seq[n + 1],
                        f"{label}: recurrence at n={n}",
                    )
                # derivative formula vs direct differentiation
                c.check(
                    um.sheffer_derivative(pair, n, seq[:n]) == seq[n].derivative(),
                    f"{label}: derivative formula at n={n}",
                )
        # transfer formula target value
        for n in range(9):
            got = um.transfer(Series.t(order), um.backward_delta(order), n)
            c.check(
                got == F((-1) ** n) * rising_factorial(n),
                f"transfer to backward delta at n={n}",
            )


def test_criterion_6_known_value_spot_checks():
    with _Criterion("criterion 6: known-value spot checks") as c:
        c.check(
            [fam.cauchy_number(n) for n in range(5)]
            == [F(1), F(1, 2), F(-1, 6), F(1, 4), F(-19, 30)],
            "Cauchy numbers C_0..C_4",
        )
        triangle = {
            (0, 0): 1,
            (1, 0): 0, (1, 1): 1,
            (2, 0): 0, (2, 1): -1, (2, 2): 1,
            (3, 0): 0, (3, 1): 2, (3, 2): -3, (3, 3): 1,
            (4, 0): 0, (4, 1): -6, (4, 2): 11, (4, 3): -6, (4, 4): 1,
        }
        for (n, m), want in triangle.items():
            c.check(fam.stirling1(n, m) == want, f"S1({n},{m})")
        c.check(fam.lif(0, 20) == exp_t(20), "Lif_0 = exp through order 20")
        # div cancels the shared factor of t, so build at order 21 and
        # compare both sides through order 20
        c.check(
            compose(fam.lif(1, 21), log_one_plus_t(21)).truncate(20)
            == div(Series.t(21), log_one_plus_t(21)),
            "Lif_1(log(1+t)) = t/log(1+t) through order 20",
        )


def test_criterion_7_determinism():
    with _Criterion("criterion 7: determinism") as c:
        grid = idn.GridSpec(
            n_values=tuple(range(6)), r_values=(0, 1, 2), k_values=(-1, 0, 1)
        )
        for name in ("THM8", "EQ35", "THM4"):
            docs = {idn.verify(name, grid, jobs=j).to_json() for j in (1, 2, 8)}
            c.check(len(docs) == 1, f"{name}: report varies with worker count")
