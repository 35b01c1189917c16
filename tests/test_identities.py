import json
from fractions import Fraction as F

import pytest

from polycauchy.algebra import Polynomial
from polycauchy.families import mixed_A
from polycauchy import identities as idn
from polycauchy.identities import GridSpec, verify, verify_variants

SMALL = GridSpec(
    n_values=(0, 1, 2, 3, 4),
    r_values=(0, 1, 2),
    k_values=(-1, 0, 1, 2),
    s_values=(0, 1, 2),
    m_values=(0, 1, 2, 3, 4),
    lambdas=idn._LAMBDAS,
)

NON_VARIANT = [i for i in idn.IDENTITY_IDS if i not in idn.VARIANT_IDS]


# -- rhs spot examples -----------------------------------------------------


def test_thm8_rhs_example():
    (lhs, rhs), = idn._thm8({"n": 2, "r": 1, "k": 1})
    # A_2 - 2 A_1 x^(1) + A_0 x^(2) with A_2 = 1/6, A_1 = 1, A_0 = 1
    assert rhs == Polynomial((F(1, 6), -1, 1))
    assert lhs == rhs


def test_eq36_rhs_example():
    (lhs, rhs), = idn._eq36({"n": 2, "r": 1, "k": 1})
    assert rhs == 2 * mixed_A(1, 1, 1)
    assert lhs == rhs


def test_thm1_degenerate_degree_zero():
    for r in (0, 1, 3):
        for k in (-2, 0, 2):
            (lhs, rhs), = idn._thm1({"n": 0, "r": r, "k": k})
            assert rhs == Polynomial((1,))
            assert lhs == rhs


# -- verification ----------------------------------------------------------


@pytest.mark.parametrize("identity", NON_VARIANT)
def test_non_variant_identities_pass(identity):
    rep = verify(identity, SMALL)
    assert rep.all_passed, rep.totals
    assert rep.totals["pass"] > 0


def test_thm4_printed_fails_variant_passes():
    out = verify_variants("THM4", SMALL)
    assert not out["printed"].all_passed
    assert out["variant"].all_passed
    # r = 0 kills the inconsistent double sum, so those points still pass
    for entry in out["printed"].results:
        if entry["verdict"] == "fail":
            assert entry["point"]["r"] != 0
        if entry["point"]["r"] == 0 and entry["verdict"] != "skipped":
            assert entry["verdict"] == "pass"


def test_thm5_printed_fails_variant_passes():
    out = verify_variants("THM5", SMALL)
    assert not out["printed"].all_passed
    assert out["variant"].all_passed


def test_thm5_domain_skips():
    rep = verify("THM5", SMALL)
    skipped = [e for e in rep.results if e["verdict"] == "skipped"]
    assert skipped
    assert all("m" in e["reason"] or "domain" in e["reason"] for e in skipped)
    assert all(
        not (1 <= e["point"]["m"] <= e["point"]["n"] - 1) for e in skipped
    )


def test_fail_entry_carries_polynomials():
    rep = verify("THM4", GridSpec(n_values=(1,), r_values=(1,), k_values=(-1,)))
    entry = rep.results[0]
    assert entry["verdict"] == "fail"
    assert set(entry) == {"point", "verdict", "lhs", "rhs", "diff"}
    # difference of coefficient strings reconstructs to a nonzero polynomial
    assert any(v != "0" for v in entry["diff"])


def test_verify_variants_rejects_other_ids():
    with pytest.raises(ValueError):
        verify_variants("THM1")


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        verify("THM9")


# -- report mechanics ------------------------------------------------------


def test_report_document_schema():
    rep = verify("THM8", GridSpec(n_values=(0, 1, 2), r_values=(0, 1), k_values=(0,)))
    doc = rep.to_document()
    assert set(doc) == {"identity", "grid", "engine", "results", "totals"}
    assert doc["engine"] == {"truncation": 32, "version": idn.__version__}
    assert doc["totals"] == {"pass": 6, "fail": 0, "skipped": 0}
    parsed = json.loads(rep.to_json())
    assert parsed == doc


def test_report_results_in_lexicographic_grid_order():
    grid = GridSpec(n_values=(0, 1), r_values=(0, 1), k_values=(0, 1))
    rep = verify("THM8", grid)
    points = [(e["point"]["n"], e["point"]["r"], e["point"]["k"]) for e in rep.results]
    assert points == sorted(points)


def test_report_byte_identical_across_jobs():
    grid = GridSpec(n_values=(0, 1, 2, 3), r_values=(0, 1), k_values=(-1, 0, 1))
    docs = [verify("EQ35", grid, jobs=j).to_json() for j in (1, 2, 8)]
    assert docs[0] == docs[1] == docs[2]


_TWELVE = GridSpec(n_values=(0, 1), r_values=(0, 1, 2), k_values=(0, 1))
_THIRTY_SIX = GridSpec(n_values=(0, 1, 2, 3), r_values=(0, 1, 2), k_values=(-1, 0, 1))


@pytest.mark.parametrize(
    "cpus, grid, workers",
    [
        (64, _TWELVE, 12),  # one thread per grid point at most
        (64, _THIRTY_SIX, 32),  # the executor's own ceiling
        (None, _THIRTY_SIX, 5),  # an unknown CPU count counts as 1, plus 4
        (2, _THIRTY_SIX, 6),
    ],
)
def test_verify_caps_worker_count(monkeypatch, cpus, grid, workers):
    seen = []

    class RecordingPool:
        """Records max_workers and maps in this thread; starts no thread."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(idn, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(idn.os, "cpu_count", lambda: cpus)
    report = verify("THM8", grid, jobs=10_000)
    assert seen == [workers]
    assert report.to_json() == verify("THM8", grid, jobs=1).to_json()


def test_lambda_one_skipped():
    grid = GridSpec(
        n_values=(0, 1, 2),
        r_values=(0,),
        k_values=(1,),
        s_values=(1,),
        lambdas=(F(1), F(2)),
    )
    rep = verify("THM7", grid)
    skips = [e for e in rep.results if e["verdict"] == "skipped"]
    assert len(skips) == 3
    assert all(e["point"]["lam"] == "1" for e in skips)
    assert rep.all_passed


def test_thm7_negative_s_skipped_thm6_kept():
    grid = GridSpec(
        n_values=(0, 1, 2), r_values=(0, 1), k_values=(1,), s_values=(-2, -1, 1),
        lambdas=(F(2),),
    )
    rep = verify("THM7", grid)
    for entry in rep.results:
        if entry["point"]["s"] < 0:
            assert entry == {
                "point": entry["point"],
                "verdict": "skipped",
                "reason": "s < 0: the sum over a = 0..s needs s >= 0",
            }
        else:
            assert entry["verdict"] == "pass"
    assert rep.totals == {"pass": 6, "fail": 0, "skipped": 12}
    # Theorem 6 holds for s < 0 as well
    assert verify("THM6", grid).totals == {"pass": 18, "fail": 0, "skipped": 0}


def test_default_grids_match_declared_ranges():
    g = idn.default_grid("THM6")
    assert g.n_values == tuple(range(9))
    assert g.r_values == (-2, -1, 0, 1, 2, 3)
    assert g.s_values == (0, 1, 2, 3)
    g4 = idn.default_grid("THM4")
    assert g4.n_values == tuple(range(7))
    assert g4.r_values == (0, 1, 2, 3)


# -- memo independence -----------------------------------------------------


def _clear_caches():
    """Empty the family memo and every lru_cache in identities and umbral."""
    from polycauchy import families, umbral

    families._memo.clear()
    for module in (idn, umbral):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


MEMO_GRIDS = {
    "THM7": GridSpec(
        n_values=(0, 1, 2, 3, 4), r_values=(-1, 1), k_values=(-1, 2),
        s_values=(1, 2), lambdas=(F(-1), F(1, 3)),
    ),
    "EQ34": GridSpec(n_values=(0, 1, 2, 3, 4, 5), r_values=(0, 2), k_values=(-2, 1)),
}
WARM_GRIDS = {
    "THM7": GridSpec(
        n_values=(2, 5), r_values=(1, 3), k_values=(2,), s_values=(2, 3),
        lambdas=(F(1, 3), F(2)),
    ),
    "EQ34": GridSpec(n_values=(3, 7), r_values=(1, 2), k_values=(1, 3)),
}


@pytest.mark.parametrize("identity", sorted(MEMO_GRIDS))
def test_reports_do_not_depend_on_memo_state(identity):
    grid = MEMO_GRIDS[identity]
    _clear_caches()
    assert idn._A_at.cache_info().currsize == 0
    cold = verify(identity, grid).to_json()
    assert json.loads(cold)["totals"]["pass"] > 0
    _clear_caches()
    verify(identity, WARM_GRIDS[identity])
    warmed = verify(identity, grid).to_json()
    _clear_caches()
    threaded = verify(identity, grid, jobs=4).to_json()
    assert cold == warmed == threaded
