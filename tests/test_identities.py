import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from polycauchy.algebra import Polynomial
from polycauchy.families import mixed_A
from polycauchy import families
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
    (lhs, rhs), = idn._polynomial_pairs(idn._thm8({"n": 2, "r": 1, "k": 1}))
    # A_2 - 2 A_1 x^(1) + A_0 x^(2) with A_2 = 1/6, A_1 = 1, A_0 = 1
    assert rhs == Polynomial((F(1, 6), -1, 1))
    assert lhs == rhs


def test_eq36_rhs_example():
    (lhs, rhs), = idn._polynomial_pairs(idn._eq36({"n": 2, "r": 1, "k": 1}))
    assert rhs == 2 * mixed_A(1, 1, 1)
    assert lhs == rhs


def test_thm1_degenerate_degree_zero():
    for r in (0, 1, 3):
        for k in (-2, 0, 2):
            (lhs, rhs), = idn._polynomial_pairs(idn._thm1({"n": 0, "r": r, "k": k}))
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


def test_grid_spec_is_an_immutable_value():
    grid = GridSpec(n_values=(0, 1), lambdas=(F(1, 2),))
    assert grid == GridSpec((0, 1), (), (), (), (), (F(1, 2),))
    assert hash(grid) == hash(GridSpec(n_values=(0, 1), lambdas=(F(1, 2),)))
    assert grid != GridSpec(n_values=(0, 1))
    assert GridSpec().values_for("m") == ()
    with pytest.raises(AttributeError):
        grid.n_values = (2,)
    with pytest.raises(TypeError):
        GridSpec(q_values=(1,))
    definition = idn._DEFS["THM8"]
    assert definition == idn.IdentityDef(*(getattr(definition, f) for f in definition.__slots__))
    assert hash(definition) == hash(idn.IdentityDef(*definition._fields()))
    with pytest.raises(AttributeError):
        definition.axes = ()


def test_report_is_a_mutable_record():
    grid = GridSpec(n_values=(0,), r_values=(0,), k_values=(0,))
    rep = idn.VerificationReport(identity="THM8", grid=grid)
    assert rep.results == [] and rep.elapsed == 0.0
    assert rep.results is not idn.VerificationReport("THM8", grid).results
    rep.elapsed = 1.5
    assert rep == idn.VerificationReport("THM8", grid, [], 1.5)
    assert rep != idn.VerificationReport("THM8", grid)
    with pytest.raises(TypeError):
        hash(rep)


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


_COLD_VERIFY = """
import contextlib, io, json, sys
from polycauchy import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = cli.main(sys.argv[1:])
print(json.dumps([rc, "concurrent.futures" in sys.modules, out.getvalue()]))
"""


@pytest.mark.parametrize("jobs, pooled", [("1", False), ("4", True)])
def test_cold_verify_loads_the_pool_only_for_jobs_above_one(jobs, pooled):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    argv = ["verify", "thm8", "--n-max", "2", "--jobs", jobs]
    out = subprocess.run(
        [sys.executable, "-c", _COLD_VERIFY, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    rc, loaded, text = json.loads(out.stdout)
    assert (rc, loaded) == (0, pooled)
    report = verify("THM8", GridSpec(**{**vars_of(idn.default_grid("THM8")), "n_values": (0, 1, 2)}))
    assert text == idn.report_text(report.to_document())


def test_report_text_keeps_each_entry_key_order():
    # the same keys in another order are another shape: each entry is
    # written in its own key order, as json.dumps writes it
    doc = {"results": [
        {"point": {"n": 1, "r": 2}, "verdict": "pass"},
        {"point": {"r": 2, "n": 1}, "verdict": "pass"},
        {"verdict": "pass", "point": {"n": 1, "r": 2}},
        {"point": {"n": 1, "r": 2}, "verdict": "pass"},
    ]}
    assert idn.report_text(doc) == json.dumps(doc, indent=2) + "\n"


def test_threaded_verify_writes_every_grid_slot():
    # more workers than cores and a short switch interval: each worker
    # writes its entries straight into the shared result list
    grid = GridSpec(n_values=tuple(range(9)), r_values=(0, 1, 2), k_values=(-1, 0, 1))
    serial = verify("EQ35", grid).to_json()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            _clear_caches()
            assert verify("EQ35", grid, jobs=8).to_json() == serial
    finally:
        sys.setswitchinterval(interval)


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
    from polycauchy import umbral

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
    "THM5": GridSpec(
        n_values=(2, 3, 4, 5, 6), m_values=(1, 2, 4), r_values=(-1, 2), k_values=(-1, 2),
    ),
}
MEMO_GRIDS["THM5_VARIANT"] = MEMO_GRIDS["THM5"]
WARM_GRIDS = {
    "THM7": GridSpec(
        n_values=(2, 5), r_values=(1, 3), k_values=(2,), s_values=(2, 3),
        lambdas=(F(1, 3), F(2)),
    ),
    "EQ34": GridSpec(n_values=(3, 7), r_values=(1, 2), k_values=(1, 3)),
    "THM5": GridSpec(n_values=(4, 9), m_values=(2, 3), r_values=(0, 2, 3), k_values=(2, 0)),
}
WARM_GRIDS["THM5_VARIANT"] = WARM_GRIDS["THM5"]


@pytest.mark.parametrize("identity", sorted(MEMO_GRIDS))
def test_reports_do_not_depend_on_memo_state(identity):
    grid = MEMO_GRIDS[identity]
    _clear_caches()
    assert not families._memo
    caches = [v for v in vars(idn).values() if hasattr(v, "cache_info")]
    assert caches and all(c.cache_info().currsize == 0 for c in caches)
    cold = verify(identity, grid).to_json()
    # the printed readings fail by design
    assert json.loads(cold)["totals"]["fail" if identity in idn.VARIANTS else "pass"] > 0
    _clear_caches()
    verify(identity, WARM_GRIDS[identity])
    warmed = verify(identity, grid).to_json()
    _clear_caches()
    threaded = verify(identity, grid, jobs=4).to_json()
    assert cold == warmed == threaded


def vars_of(grid):
    return {name: getattr(grid, name) for name in grid.__slots__}


def test_cold_verify_builds_each_slab_table_once(monkeypatch):
    # n past the tables' first order (8): evaluated in grid order, every
    # table would be built at 8 and again at 16
    grid = GridSpec(
        n_values=tuple(range(13)), r_values=(0, 1), k_values=(-1, 0), s_values=(1, 2),
        lambdas=(F(-1), F(1, 3)),
    )
    table, builds = idn._thm7_table, []

    def counted(order, *slab):
        builds.append(slab)
        return table(order, *slab)

    monkeypatch.setattr(idn, "_thm7_table", counted)
    _clear_caches()
    cold = verify("THM7", grid)
    assert len(builds) == len(set(builds)) == 2 * 2 * 2 * 2
    # n is the slowest axis, so the grid-order report is the one-n reports
    # one after another
    by_n = [
        entry
        for n in grid.n_values
        for entry in verify("THM7", GridSpec(**{**vars_of(grid), "n_values": (n,)})).results
    ]
    assert cold.results == by_n and cold.totals["pass"] == len(by_n)
    _clear_caches()
    assert verify("THM7", grid, jobs=4).to_json() == cold.to_json()


def test_cold_eq17_past_the_first_pair_order():
    from polycauchy import umbral

    _clear_caches()
    grid = idn.default_grid("SHEFFER_PAIR_EQ17")
    rep = verify("SHEFFER_PAIR_EQ17", GridSpec(**{**vars_of(grid), "n_values": tuple(range(17))}))
    assert rep.totals["fail"] == 0 and rep.totals["pass"] == 17 * 4 * 4
    # pair orders 10 (n <= 8) and 20 (n 9..16)
    assert umbral._delta_data.cache_info().misses <= 2
