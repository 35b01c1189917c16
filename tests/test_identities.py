import itertools
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


def reduced(pairs) -> list:
    """An evaluator's pairs with each side a reduced Polynomial."""
    return [tuple(side if isinstance(side, Polynomial) else Polynomial._of(list(side[0]), side[1])
                  for side in pair) for pair in pairs]


def test_thm8_rhs_example():
    (lhs, rhs), = reduced(idn._DEFS["THM8"].pairs({"n": 2, "r": 1, "k": 1}))
    # A_2 - 2 A_1 x^(1) + A_0 x^(2) with A_2 = 1/6, A_1 = 1, A_0 = 1
    assert rhs == Polynomial((F(1, 6), -1, 1))
    assert lhs == rhs


def test_eq36_rhs_example():
    (lhs, rhs), = reduced(idn._eq36({"n": 2, "r": 1, "k": 1}))
    assert rhs == 2 * mixed_A(1, 1, 1)
    assert lhs == rhs


def test_thm1_degenerate_degree_zero():
    for r in (0, 1, 3):
        for k in (-2, 0, 2):
            (lhs, rhs), = reduced(idn._DEFS["THM1"].pairs({"n": 0, "r": r, "k": k}))
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


def refuse_points(monkeypatch):
    """Fail the test if verify evaluates a point, on its own or with the
    rest of its slab."""
    for name in ("_point_entry", "_slab_entries"):
        monkeypatch.setattr(idn, name, lambda *args: pytest.fail("a point was evaluated"))


@pytest.mark.parametrize("identity", idn.IDENTITY_IDS)
def test_negative_n_rejected_before_any_point(identity, monkeypatch):
    # n = -1 would read the last row of a slab
    refuse_points(monkeypatch)
    grid = GridSpec(n_values=(2, -1), r_values=(1,), k_values=(1,), s_values=(1,),
                    m_values=(1,), lambdas=(F(2),))
    with pytest.raises(ValueError, match="n must be >= 0"):
        verify(identity, grid)


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
    fields = [getattr(definition, name) for name in definition._fields]
    assert definition == idn.IdentityDef(*fields)
    assert hash(definition) == hash(idn.IdentityDef(*fields))
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


# twelve and thirty-six slabs (r, k), the units that verify maps over its threads
_TWELVE = GridSpec(n_values=(0, 1), r_values=(0, 1, 2), k_values=(-1, 0, 1, 2))
_THIRTY_SIX = GridSpec(n_values=(0, 1), r_values=tuple(range(6)), k_values=tuple(range(-3, 3)))


@pytest.mark.parametrize(
    "cpus, grid, workers",
    [
        (64, _TWELVE, 12),  # one thread per slab at most
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


def test_threaded_verify_writes_every_grid_slot():
    # more workers than cores and a short switch interval: each worker
    # writes its entries straight into the shared result list
    grid = GridSpec(n_values=tuple(range(9)), r_values=(0, 1, 2), k_values=(-1, 0, 1))
    serial = verify("EQ35", grid).to_json()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            families._memo.clear()
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


def test_int_lambda_is_shown_as_its_fraction():
    grid = GridSpec(n_values=(0, 1, 2), r_values=(0,), k_values=(1,), s_values=(1,),
                    lambdas=(2, -1))
    rep = verify("THM7", grid)
    assert [e["point"]["lam"] for e in rep.results] == ["2", "-1"] * 3
    assert rep.to_json() == verify("THM7", grid._replace(lambdas=(F(2), F(-1)))).to_json()


@pytest.mark.parametrize("lam", [2.0, "2", None])
def test_lambda_neither_int_nor_fraction_rejected_before_any_point(lam, monkeypatch):
    refuse_points(monkeypatch)
    grid = GridSpec(n_values=(2,), r_values=(1,), k_values=(1,), s_values=(1,),
                    lambdas=(F(2), lam))
    with pytest.raises(ValueError, match="lam must be ints or Fractions"):
        verify("THM7", grid)


@pytest.mark.parametrize("value", [0.5, "1", True, None])
@pytest.mark.parametrize("axis", ["n", "r", "k", "s", "m"])
def test_non_int_axis_value_rejected_before_any_point(axis, value, monkeypatch):
    # a bool too: a report would write it as true
    refuse_points(monkeypatch)
    values = {"n_values": (2,), "r_values": (1,), "k_values": (1,), "s_values": (1,),
              "m_values": (1,)}
    values[f"{axis}_values"] = (2, value)
    with pytest.raises(ValueError, match=f"{axis} must be ints"):
        verify("THM6" if axis == "s" else "THM5", GridSpec(**values))


@pytest.mark.parametrize("jobs", ["2", 2.5, None])
def test_non_int_jobs_rejected_before_any_point(jobs, monkeypatch):
    refuse_points(monkeypatch)
    with pytest.raises(ValueError, match="jobs must be an int"):
        verify("THM8", jobs=jobs)


@pytest.mark.parametrize(
    "identity, field, values",
    [
        ("THM8", "n_values", (1, 1)),
        ("ASSOC_EQ25", "n_values", (3, 0, 3)),
        ("THM8", "r_values", (0, 1, 0)),
        ("THM8", "k_values", (2, 2)),
        ("THM6", "s_values", (1, 1)),
        ("THM5", "m_values", (1, 1)),
        # an int lambda is the Fraction it stands for
        ("THM7", "lambdas", (2, F(2))),
    ],
)
def test_repeated_axis_value_rejected_before_any_point(identity, field, values, monkeypatch):
    # verify would evaluate and report each point of a repeated value twice
    refuse_points(monkeypatch)
    grid = GridSpec(n_values=(2,), r_values=(1,), k_values=(1,), s_values=(1,), m_values=(1,),
                    lambdas=(F(2),))._replace(**{field: values})
    axis = "lam" if field == "lambdas" else field[0]
    with pytest.raises(ValueError, match=f"{axis} values must differ"):
        verify(identity, grid)


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


_GRID_FIELDS = {"n": "n_values", "r": "r_values", "k": "k_values", "s": "s_values",
                "m": "m_values", "lam": "lambdas"}
DECLARED_RANGES = {
    "THM6": {"n_values": tuple(range(9)), "r_values": (-2, -1, 0, 1, 2, 3),
             "s_values": (0, 1, 2, 3)},
    "THM4": {"n_values": tuple(range(7)), "r_values": (0, 1, 2, 3)},
}


@pytest.mark.parametrize("identity", idn.IDENTITY_IDS)
def test_default_grids_match_declared_ranges(identity):
    definition = idn._DEFS[identity]
    grid = definition.default_grid
    for name, values in DECLARED_RANGES.get(identity, {}).items():
        assert getattr(grid, name) == values
    # a registry row that points at the wrong shared grid, or loses an
    # axis, fills an axis the identity does not read or leaves one empty
    filled = {axis for axis in _GRID_FIELDS if grid.values_for(axis)}
    assert filled == set(definition.axes)
    # the last in-domain point of the grid, as a one-point grid
    axes = definition.axes
    points = [dict(zip(axes, combo))
              for combo in itertools.product(*(grid.values_for(axis) for axis in axes))]
    point = [p for p in points if definition.domain(p) is None][-1]
    rep = verify(identity, GridSpec(**{_GRID_FIELDS[axis]: (v,) for axis, v in point.items()}))
    (entry,) = rep.results
    assert list(entry["point"]) == list(axes)
    assert entry["verdict"] == ("fail" if identity in idn.VARIANTS else "pass")


# -- memo independence -----------------------------------------------------


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
    families._memo.clear()
    assert not families._memo
    cold = verify(identity, grid).to_json()
    # the printed readings fail by design
    assert json.loads(cold)["totals"]["fail" if identity in idn.VARIANTS else "pass"] > 0
    families._memo.clear()
    verify(identity, WARM_GRIDS[identity])
    warmed = verify(identity, grid).to_json()
    families._memo.clear()
    threaded = verify(identity, grid, jobs=4).to_json()
    assert cold == warmed == threaded


def vars_of(grid):
    return grid._asdict()


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
    families._memo.clear()
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
    families._memo.clear()
    assert verify("THM7", grid, jobs=4).to_json() == cold.to_json()


def test_cold_eq17_past_the_first_pair_order():
    from polycauchy import umbral

    families._memo.clear()
    grid = idn.default_grid("SHEFFER_PAIR_EQ17")
    rep = verify("SHEFFER_PAIR_EQ17", GridSpec(**{**vars_of(grid), "n_values": tuple(range(17))}))
    assert rep.totals["fail"] == 0 and rep.totals["pass"] == 17 * 4 * 4
    # pair orders 10 (n <= 8) and 20 (n 9..16)
    assert sum(key[0] is umbral._delta_data.__wrapped__ for key in families._memo) <= 2


# -- value vectors -----------------------------------------------------------


def _memo_keys(build):
    return sorted(key[1:] for key in families._memo if key[0] is build)


def test_value_vectors_are_read_from_their_series():
    # A_l(c) is read from g(t) (1+t)^(-c), not from a slab of A's rows
    families._memo.clear()
    verify("THM5", GridSpec(n_values=(6,), m_values=(2,), r_values=(1,), k_values=(0,)))
    assert _memo_keys(idn._A_rows) == []
    # THM6 at (r, s) reads A^{(r+s,k)}(s), and only its left side reads rows
    families._memo.clear()
    verify("THM6", GridSpec(n_values=(6,), r_values=(1,), k_values=(0,), s_values=(2,)))
    assert _memo_keys(idn._A_rows) == [(1, 0)]
    # the poly-Cauchy numbers are read from Lif_k(log(1+t)), not from its rows
    families._memo.clear()
    verify("THM2", GridSpec(n_values=(6,), r_values=(1,), k_values=(0,)))
    assert not [key for key in families._memo if families._lif_log in key[1:]]


# -- slab deciders -----------------------------------------------------------


@pytest.fixture
def cold_memo():
    # slabs built from a patched builder must not outlive the test
    families._memo.clear()
    yield
    families._memo.clear()


def bumped_table(build):
    """_thm8_table with row 3 of the slab (1, -1) raised by 1."""
    def bumped(order, r, k):
        sides = list(build(order, r, k))
        if (r, k) == (1, -1):
            (c, *rest), den = sides[3]
            sides[3] = ((c + den, *rest), den)
        return tuple(sides)
    return bumped


def bumped_rows(build):
    """_A_rows with A_3 of the slab (1, -1) raised by 1."""
    def bumped(order, r, k):
        rows, cols, den = build(order, r, k)
        if (r, k) == (1, -1):
            rows = list(rows)
            rows[3] = (rows[3][0] + den, *rows[3][1:])
        return tuple(rows), cols, den
    return bumped


@pytest.mark.parametrize("builder, bump", [("_thm8_table", bumped_table), ("_A_rows", bumped_rows)])
def test_perturbed_slab_row_fails_only_its_point(builder, bump, monkeypatch, cold_memo):
    # the deciders look both builders up when they are called, so a
    # patched one reaches them
    monkeypatch.setattr(idn, builder, bump(getattr(idn, builder)))
    grid = GridSpec(n_values=tuple(range(6)), r_values=(0, 1), k_values=(-1, 0))
    report = verify("THM8", grid)
    point = {"n": 3, "r": 1, "k": -1}
    assert [e["point"] for e in report.results if e["verdict"] != "pass"] == [point]
    entry = next(e for e in report.results if e["point"] == point)
    assert entry["verdict"] == "fail"
    assert entry == idn._point_entry(idn._DEFS["THM8"], point, point)


def test_slab_rows_are_padded_row_by_row():
    a, b, c = 5, -3, 7
    assert idn._same_rows([((a, b, 0), (2 * a, 2 * b)), ((c,), (2 * c, 0, 0))], 1, 2)
    # [a, b], [c] against [a], [b, c]: one list once flattened, not row by row
    assert not idn._same_rows([((a, b), (a,)), ((c,), (b, c))], 1, 1)


_THM8_SLAB = GridSpec(n_values=(0, 1, 2, 3), r_values=(1,), k_values=(1,))


def test_table_rows_with_trailing_zeros_pass_by_slab(monkeypatch, cold_memo):
    table = idn._thm8_table
    monkeypatch.setattr(idn, "_thm8_table", lambda order, r, k: tuple(
        ((*num, 0, 0), den) for num, den in table(order, r, k)))
    monkeypatch.setattr(idn, "_point_entry", lambda *args: pytest.fail("a point was evaluated"))
    assert verify("THM8", _THM8_SLAB).totals == {"pass": 4, "fail": 0, "skipped": 0}


def test_table_rows_equal_only_once_flattened_fail(monkeypatch, cold_memo):
    # A_1 and A_2's rows, split as [a], [b, c, d, e] instead of [a, b], [c, d, e]
    def resplit(order, r, k):
        rows, _, den = idn._A_rows(order, r, k)
        sides = [(row, den) for row in rows]
        sides[1], sides[2] = (rows[1][:1], den), ((rows[1][1], *rows[2]), den)
        return tuple(sides)

    monkeypatch.setattr(idn, "_thm8_table", resplit)
    verdicts = [e["verdict"] for e in verify("THM8", _THM8_SLAB).results]
    assert verdicts == ["pass", "fail", "fail", "pass"]


@pytest.mark.parametrize("identity, table", [("THM1", "_thm1_table"), ("EQ34", "_thm2_table")])
def test_slab_outside_the_domain_builds_no_table(identity, table, monkeypatch, cold_memo):
    # the tables of both need r >= 0
    build, slabs = getattr(idn, table), []

    def recorded(order, *slab):
        slabs.append(slab)
        return build(order, *slab)

    monkeypatch.setattr(idn, table, recorded)
    report = verify(identity, GridSpec(n_values=(0, 1, 2), r_values=(-1, 1), k_values=(0,)))
    assert report.totals == {"pass": 3, "fail": 0, "skipped": 3}
    assert [slab[-2:] for slab in slabs] == [(1, 0)]
