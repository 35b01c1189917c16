import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest

from polycauchy import cli
from polycauchy import families as fam
from polycauchy.algebra import Polynomial
from polycauchy import identities as idn
from polycauchy.identities import GridSpec


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- table -----------------------------------------------------------------


def test_table_cauchy_csv(capsys):
    code, out, _ = run(capsys, "table", "--family", "cauchy", "--n-max", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,v0"
    assert lines[1:] == ["0,1", "1,1/2", "2,-1/6", "3,1/4", "4,-19/30"]


def test_table_stirling1_triangle(capsys):
    code, out, _ = run(capsys, "table", "--family", "stirling1", "--n-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,v0,v1,v2,v3"
    assert lines[1] == "0,1,,,"
    assert lines[3] == "2,0,-1,1,"
    assert lines[4] == "3,0,2,-3,1"


def test_table_mixed_r0_matches_poly_cauchy(capsys):
    code, mixed_out, _ = run(
        capsys, "table", "--family", "mixed", "--r", "0", "--k", "1", "--n-max", "5"
    )
    assert code == 0
    code, pc_out, _ = run(
        capsys, "table", "--family", "poly-cauchy", "--k", "1", "--n-max", "5"
    )
    assert code == 0
    assert mixed_out == pc_out


def test_table_json_roundtrip(capsys):
    code, out, _ = run(
        capsys,
        "table", "--family", "mixed", "--r", "1", "--k", "1",
        "--n-max", "2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "mixed"
    assert doc["params"] == {"r": 1, "k": 1}
    assert doc["rows"][2] == {"n": 2, "values": ["1/6", "-1", "1"]}


def test_table_latex(capsys):
    code, out, _ = run(
        capsys, "table", "--family", "cauchy", "--n-max", "2", "--format", "latex"
    )
    assert code == 0
    assert out.splitlines() == ["0 & 1 \\\\", "1 & 1/2 \\\\", "2 & -1/6 \\\\"]


def test_table_negative_k_value(capsys):
    code, out, _ = run(
        capsys, "table", "--family", "poly-cauchy", "--k", "-1", "--n-max", "1"
    )
    assert code == 0
    assert out.strip().splitlines()[1:] == ["0,1,", "1,2,-1"]


def test_table_missing_param_is_usage_error(capsys):
    code, _, err = run(capsys, "table", "--family", "mixed", "--n-max", "2")
    assert code == 2
    assert "requires" in err


@pytest.mark.parametrize(
    "family, flags, message",
    [
        ("frobenius-euler", (), "family 'frobenius-euler' requires --lam"),
        ("frobenius-euler", ("--lam", "2,3"), "frobenius-euler takes a single --lam value"),
        ("frobenius-euler", ("--lam", "2"), "family 'frobenius-euler' requires --s"),
        ("frobenius-euler", ("--s", "1"), "family 'frobenius-euler' requires --lam"),
        ("mixed", (), "family 'mixed' requires --r"),
        ("mixed", ("--k", "1"), "family 'mixed' requires --r"),
        ("mixed", ("--r", "1"), "family 'mixed' requires --k"),
        # a flag the family does not take, which a table's params would record
        ("narumi", ("--r", "1", "--k", "3"), "family 'narumi' takes no --k"),
        ("bernoulli", ("--s", "2", "--lam", "1/2"), "family 'bernoulli' takes no --lam"),
    ],
)
def test_missing_flag_message(capsys, family, flags, message):
    for command in (("table", "--n-max", "2"), ("poly", "--n", "2")):
        code, out, err = run(capsys, *command, "--family", family, *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_family_functions_are_looked_up_when_called(capsys, monkeypatch):
    calls = []

    def fake(n, s, lam):
        calls.append((n, s, lam))
        return Polynomial((n, s))

    monkeypatch.setattr(cli.fam, "frobenius_euler", fake)
    code, out, _ = run(
        capsys, "table", "--family", "frobenius-euler", "--s", "3", "--lam", "1/2",
        "--n-max", "1",
    )
    assert (code, out) == (0, "n,v0,v1\n0,0,3\n1,1,3\n")
    # the largest row is built first, each row once
    assert calls == [(1, 3, Fraction(1, 2)), (0, 3, Fraction(1, 2))]


def test_cold_table_builds_g_once_at_n_max(capsys):
    # ascending rows would regrow g at orders 8, 16, 32 and 64
    fam._memo.clear()
    code, _, _ = run(capsys, "table", "--family", "mixed", "--r", "2", "--k", "-1", "--n-max", "40")
    assert code == 0
    assert fam._memo[(fam._mixed_g, 2, -1)][0] == 40


def test_every_table_family_has_a_function_and_row_kind():
    assert list(cli.TABLE_FAMILIES) == [
        "cauchy", "higher-cauchy", "poly-cauchy", "mixed", "stirling1", "stirling2",
        "bernoulli", "frobenius-euler", "narumi", "bernoulli2",
    ]
    for name, flags, kind in cli.TABLE_FAMILIES.values():
        assert callable(getattr(cli.fam, name))
        assert set(flags) <= set(cli._FLAG_ORDER)
        assert kind in ("number", "triangle", "poly")


def test_table_output_file(tmp_path, capsys):
    dest = tmp_path / "cauchy.csv"
    code, out, _ = run(
        capsys, "table", "--family", "cauchy", "--n-max", "2", "--output", str(dest)
    )
    assert code == 0
    assert out == ""
    assert dest.read_text().splitlines()[2] == "1,1/2"


# -- poly ------------------------------------------------------------------


def test_poly_mixed_string(capsys):
    code, out, _ = run(
        capsys, "poly", "--family", "mixed", "--n", "2", "--r", "1", "--k", "1"
    )
    assert code == 0
    assert out.strip() == "1/6 - 1x + 1x^2"


def test_poly_bernoulli_degree_one(capsys):
    code, out, _ = run(capsys, "poly", "--family", "bernoulli", "--n", "1", "--s", "2")
    assert code == 0
    assert out.strip() == "-1 + 1x"


def test_poly_degree_zero(capsys):
    code, out, _ = run(
        capsys, "poly", "--family", "mixed", "--n", "0", "--r", "3", "--k", "-2"
    )
    assert code == 0
    assert out.strip() == "1"


def test_poly_scalar_family(capsys):
    code, out, _ = run(capsys, "poly", "--family", "higher-cauchy", "--n", "2", "--r", "2")
    assert code == 0
    assert out.strip() == "1/6"


def test_poly_frobenius_euler(capsys):
    code, out, _ = run(
        capsys, "poly", "--family", "frobenius-euler", "--n", "1", "--s", "1",
        "--lam", "1/2",
    )
    assert code == 0
    assert out.strip() == "-2 + 1x"


# -- verify ----------------------------------------------------------------


def test_verify_thm8_small_grid(capsys):
    code, out, err = run(
        capsys, "verify", "thm8", "--n-max", "4", "--r", "0..2", "--k", "-1..1"
    )
    assert code == 0
    assert "THM8: pass=45 fail=0 skipped=0" in err
    doc = json.loads(out)
    assert doc["identity"] == "THM8"
    assert doc["totals"] == {"pass": 45, "fail": 0, "skipped": 0}
    assert doc["grid"]["k"] == [-1, 0, 1]


def test_verify_alias(capsys):
    code, out, _ = run(capsys, "verify", "eq25", "--n-max", "5")
    assert code == 0
    assert json.loads(out)["identity"] == "ASSOC_EQ25"


def test_verify_thm5_includes_variant_and_exits_zero(capsys):
    code, out, err = run(
        capsys, "verify", "thm5", "--n-max", "3", "--r", "0..1", "--k", "0..1",
        "--m", "0..3",
    )
    assert code == 0
    docs = json.loads(out)
    assert [d["identity"] for d in docs] == ["THM5", "THM5_VARIANT"]
    assert docs[0]["totals"]["fail"] > 0
    assert docs[1]["totals"]["fail"] == 0
    assert "THM5:" in err and "THM5_VARIANT:" in err


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "thm9")
    assert code == 2
    assert "unknown identity" in err


def test_verify_unwritable_report(tmp_path, capsys):
    dest = tmp_path / "missing" / "report.json"
    code, _, err = run(
        capsys, "verify", "thm8", "--n-max", "1", "--r", "0", "--k", "0",
        "--report", str(dest),
    )
    assert code == 3
    assert "cannot write report" in err


def test_verify_negative_n_max_is_parameter_error(capsys):
    code, out, err = run(capsys, "verify", "thm1", "--n-max", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    # the message `table` gives
    assert err == "error: --n-max must be >= 0\n"
    assert run(capsys, "table", "--family", "cauchy", "--n-max", "-1") == (2, "", err)


@pytest.mark.parametrize(
    "argv",
    [
        # argparse would read --n as --n-max, --rep as --report, --j as --jobs
        # and --he as --help
        ("verify", "eq36", "--n", "3"),
        ("verify", "thm8", "--n-max", "1", "--rep", "report.json"),
        ("verify", "thm8", "--n-max", "1", "--j", "2"),
        ("table", "--fam", "cauchy", "--n-max", "2"),
        ("poly", "--fam", "cauchy", "--n", "2"),
        ("--he",),
    ],
)
def test_abbreviated_option_is_usage_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err or "required" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("thm8", "--r", "3..1"), "error: range '3..1' is empty: a..b needs a <= b\n"),
        (("thm8", "--r", "abc"), "error: bad range 'abc': expected INT or INT..INT\n"),
        (("thm7", "--lam", "1/0"), "error: bad lambda list '1/0'\n"),
        (("thm8", "--jobs", "0"), "error: jobs must be >= 1, got 0\n"),
        (("thm8", "--jobs", "-2"), "error: jobs must be >= 1, got -2\n"),
        # 4/2 is 2: every point would be verified and reported twice
        (("thm7", "--lam", "2,4/2"), "error: bad lambda list '2,4/2': a value repeats\n"),
    ],
)
def test_verify_malformed_parameter_is_parameter_error(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv, "--n-max", "1")
    assert code == 2
    assert out == ""
    assert err == message


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "thm1", "--k", "99999999999999999999"),
         "bad range '99999999999999999999': values must lie in -1000..1000"),
        (("verify", "thm8", "--r", "-1001..0"), "bad range '-1001..0': values must lie in -1000..1000"),
        (("verify", "thm5", "--m", "0..1001"), "bad range '0..1001': values must lie in -1000..1000"),
        (("verify", "thm6", "--s", "2000"), "bad range '2000': values must lie in -1000..1000"),
        (("verify", "thm1", "--n-max", "1001"), "--n-max must lie in -1000..1000, got 1001"),
        (("table", "--family", "mixed", "--r", "1", "--k", "1", "--n-max", "100000000"),
         "--n-max must lie in -1000..1000, got 100000000"),
        (("table", "--family", "mixed", "--r", "1001", "--k", "1", "--n-max", "2"),
         "--r must lie in -1000..1000, got 1001"),
        (("poly", "--family", "poly-cauchy", "--n", "2", "--k", "-1001"),
         "--k must lie in -1000..1000, got -1001"),
        (("poly", "--family", "bernoulli", "--n", "1001", "--s", "1"),
         "--n must lie in -1000..1000, got 1001"),
        (("table", "--family", "frobenius-euler", "--s", "1", "--lam", "1001/2", "--n-max", "2"),
         "--lam values must be p/q with |p|, q <= 1000, got 1001/2"),
        (("poly", "--family", "frobenius-euler", "--s", "1", "--lam", "1e20000", "--n", "1"),
         "--lam values must be p/q with |p|, q <= 1000, got 1e20000"),
        (("verify", "thm7", "--n-max", "1", "--lam", "2,1e-20000"),
         "--lam values must be p/q with |p|, q <= 1000, got 1e-20000"),
        (("verify", "thm7", "--n-max", "1", "--lam", "-1/1001"),
         "--lam values must be p/q with |p|, q <= 1000, got -1/1001"),
    ],
)
def test_parameter_past_the_limit_is_parameter_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_parameters_at_the_limit_are_accepted(capsys):
    code, out, _ = run(capsys, "poly", "--family", "mixed", "--n", "1", "--r", "1000", "--k", "-1000")
    assert code == 0 and out
    code, _, err = run(capsys, "verify", "thm8", "--n-max", "0", "--r", "-1000..1000", "--k", "0")
    assert code == 0
    assert err == "THM8: pass=2001 fail=0 skipped=0\n"


def test_lambdas_at_the_limit_are_accepted(capsys):
    code, out, _ = run(
        capsys, "poly", "--family", "frobenius-euler", "--s", "1", "--lam", "1000/999", "--n", "1"
    )
    assert code == 0
    assert out == "999 + 1x\n"
    code, _, err = run(capsys, "verify", "thm7", "--n-max", "1", "--lam", "1000/999,-1/1000,0.001")
    assert code == 0
    assert err == "THM7: pass=864 fail=0 skipped=0\n"


def test_verify_thm7_negative_s_is_skipped(capsys):
    code, out, err = run(capsys, "verify", "thm7", "--n-max", "1", "--s", "-1..0")
    assert code == 0
    results = json.loads(out)["results"]
    for entry in results:
        if entry["point"]["s"] < 0 or entry["point"]["lam"] == "1":
            assert entry["verdict"] == "skipped"
        else:
            assert entry["verdict"] == "pass"
    assert {e["verdict"] for e in results} == {"pass", "skipped"}
    code, out, err = run(capsys, "verify", "all", "--n-max", "2", "--s", "-1")
    assert code == 0
    assert "THM6: pass=108 fail=0 skipped=0" in err
    assert "THM7: pass=0 fail=0 skipped=324" in err


def test_table_frobenius_euler_lam_one_is_parameter_error(capsys):
    code, _, err = run(
        capsys, "table", "--family", "frobenius-euler", "--lam", "1", "--s", "1",
        "--n-max", "3",
    )
    assert code == 2
    assert "lam != 1" in err


def test_table_frobenius_euler_negative_s_is_parameter_error(capsys):
    code, _, err = run(
        capsys, "table", "--family", "frobenius-euler", "--s", "-1", "--lam", "2",
        "--n-max", "3",
    )
    assert code == 2
    assert err.startswith("error: ")


def test_table_unwritable_output(tmp_path, capsys):
    dest = tmp_path / "missing" / "x.csv"
    code, out, err = run(
        capsys, "table", "--family", "cauchy", "--n-max", "3", "--output", str(dest)
    )
    assert code == 3
    assert out == ""
    assert "cannot write output" in err


def test_verify_report_file_and_jobs_identical(tmp_path, capsys):
    texts = []
    for jobs in ("1", "4"):
        dest = tmp_path / f"rep{jobs}.json"
        code, _, _ = run(
            capsys, "verify", "eq35", "--n-max", "3", "--r", "0..1",
            "--k", "-1..1", "--jobs", jobs, "--report", str(dest),
        )
        assert code == 0
        texts.append(dest.read_bytes())
    assert texts[0] == texts[1]


def test_verify_failure_exits_one(capsys, monkeypatch):
    # every point's sides are 1 and 2
    broken = idn.IdentityDef(
        ("n",), lambda slab: (0, None), GridSpec(n_values=(0, 1)),
        # side by side: the left sides, their denominators, the right sides, theirs
        lambda p, ns: ([(1,)] * len(ns), [1] * len(ns), [(2,)] * len(ns), [1] * len(ns)),
    )
    monkeypatch.setitem(idn._DEFS, "THM8", broken)
    code, out, err = run(capsys, "verify", "thm8")
    assert code == 1
    assert "fail=2" in err
    doc = json.loads(out)
    assert doc["results"][0]["verdict"] == "fail"
    assert doc["results"][0]["diff"] == ["-1"]
    # a failing printed reading is reported beside its variant but never
    # sets the exit code
    monkeypatch.setitem(idn._DEFS, "THM4", broken)
    code, out, err = run(capsys, "verify", "thm4", "--n-max", "2")
    assert code == 0
    assert [d["identity"] for d in json.loads(out)] == ["THM4", "THM4_VARIANT"]
    assert err.startswith("THM4: pass=0 fail=3 skipped=0\nTHM4_VARIANT: pass=")


def test_verify_internal_error_exits_four(capsys, monkeypatch):
    def broken_rows(p, ns):
        raise RuntimeError("evaluator blew up")

    broken = idn.IdentityDef(("n",), lambda slab: (0, None), GridSpec(n_values=(0,)), broken_rows)
    monkeypatch.setitem(idn._DEFS, "THM8", broken)
    code, out, err = run(capsys, "verify", "thm8")
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: evaluator blew up\n"


@pytest.mark.parametrize(
    "selector, broken_id", [("all", "THM8"), ("thm4", "THM4_VARIANT")]
)
@pytest.mark.parametrize("to_file", [False, True])
def test_verify_error_in_a_later_identity_writes_nothing(
    capsys, monkeypatch, tmp_path, selector, broken_id, to_file
):
    # the identities before the broken one are verified and rendered, but
    # the report is written only after the last one
    def broken_rows(p, ns):
        raise RuntimeError("evaluator blew up")

    broken = idn.IdentityDef(("n",), lambda slab: (0, None), GridSpec(n_values=(0,)), broken_rows)
    monkeypatch.setitem(idn._DEFS, broken_id, broken)
    dest = tmp_path / "report.json"
    argv = ["verify", selector, "--n-max", "2"] + (["--report", str(dest)] if to_file else [])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert not dest.exists()
    lines = err.splitlines()
    assert lines[-1] == "internal error: RuntimeError: evaluator blew up"
    done = list(idn.IDENTITY_IDS if selector == "all" else ("THM4", "THM4_VARIANT"))
    done = done[: done.index(broken_id)]
    assert [line.split(":")[0] for line in lines[:-1]] == done


def test_verify_all_renders_each_identity_before_verifying_the_next(capsys, monkeypatch):
    # each identity's runs are rendered, then dropped, before the next
    # identity is verified: a weakly referenced copy of its run list must
    # be gone by then
    class Runs(list):
        pass

    events, kept = [], []
    real_verify, real_render = idn.verify, idn._document_text

    def verify(identity, *args, **kwargs):
        # with the number of earlier run lists still alive
        events.append(("verify", identity, sum(ref() is not None for ref in kept)))
        rep = real_verify(identity, *args, **kwargs)
        rep.runs = Runs(rep.runs)
        kept.append(weakref.ref(rep.runs))
        return rep

    def render(report, *args):
        events.append(("render", report.identity))
        return real_render(report, *args)

    monkeypatch.setattr(idn, "verify", verify)
    monkeypatch.setattr(idn, "_document_text", render)
    code, out, _ = run(capsys, "verify", "all", "--n-max", "2")
    assert code == 0
    assert events == [
        event for i in idn.IDENTITY_IDS for event in (("verify", i, 0), ("render", i))
    ]
    assert all(ref() is None for ref in kept)
    assert [d["identity"] for d in json.loads(out)] == list(idn.IDENTITY_IDS)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "thm8", "--n-max", "3"),
        ("table", "--family", "cauchy", "--n-max", "3"),
        ("poly", "--family", "cauchy", "--n", "3"),
    ],
)
def test_trunc_is_not_an_option(capsys, argv):
    code, out, err = run(capsys, *argv, "--trunc", "40")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --trunc 40" in err


def test_table_has_no_degree_ceiling(capsys):
    code, out, _ = run(capsys, "table", "--family", "cauchy", "--n-max", "40")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows == [[str(n), str(fam.cauchy_number(n))] for n in range(41)]


# -- parsing / plumbing ----------------------------------------------------


def test_parse_range_errors():
    with pytest.raises(cli.UsageError):
        cli._parse_range("2..1")
    with pytest.raises(cli.UsageError):
        cli._parse_range("abc")
    assert cli._parse_range("-2..1") == (-2, -1, 0, 1)
    assert cli._parse_range("3") == (3,)


def test_normalize_argv_joins_negative_values():
    got = cli._normalize_argv(["verify", "thm8", "--k", "-1..2", "--r", "0..1"])
    assert got == ["verify", "thm8", "--k=-1..2", "--r", "0..1"]


def test_no_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "table" in out and "verify" in out


def _failing_thm8_values(order, r, k, c):
    """A's values all 2 in Theorem 8's right sides, which then differ from
    A_0 = 1 at n = 0."""
    return (2,) * (order + 1), 1


def _raising_thm8_values(order, r, k, c):
    raise RuntimeError("values blew up")


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("argv, values, code", [
    (["verify", "thm8", "--n-max", "3"], None, 0),
    # THM8 is no variant id, so its failure sets the exit code
    (["verify", "thm8", "--n-max", "3"], _failing_thm8_values, 1),
    (["verify", "thm1", "--r", "3..1"], None, 2),
    (["verify", "thm8", "--n-max", "3"], _raising_thm8_values, 4),
], ids=["exit-0", "exit-1", "exit-2", "exit-4"])
def test_main_pauses_the_collector_and_restores_the_callers_state(
    capsys, monkeypatch, enabled, argv, values, code
):
    if values is not None:
        # an empty memo, so that Theorem 8's tables are built from these values
        monkeypatch.setattr(fam, "_memo", {})
        monkeypatch.setattr(idn, "_A_values", values)
    seen, verify = [], idn.verify

    def recording_verify(*args, **kwargs):
        seen.append(gc.isenabled())
        return verify(*args, **kwargs)

    monkeypatch.setattr(idn, "verify", recording_verify)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    # the command ran with the collector paused (a parse error runs none)
    assert seen == ([] if code == 2 else [False])


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cold_verify(*argv):
    """`polycauchy verify ...` in a fresh interpreter, so every cache
    starts empty."""
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-m", "polycauchy.cli", "verify", *argv],
        capture_output=True, env=env, timeout=300,
    )


def test_verify_jobs_from_a_cold_process():
    # a fresh interpreter has empty caches, so the worker threads race to
    # fill them; the report must still be byte-identical to the serial one
    for argv in (("thm1",), ("thm7", "--n-max", "5")):
        serial = cold_verify(*argv, "--jobs", "1")
        assert serial.returncode == 0, serial.stderr.decode()
        # the race does not show on every run; three runs catch most of them
        for _ in range(3):
            threaded = cold_verify(*argv, "--jobs", "4")
            assert threaded.returncode == 0, threaded.stderr.decode()
            assert threaded.stdout == serial.stdout


def test_verify_all_matches_the_recorded_default_report():
    with open(os.path.join(ROOT, "perfbench", "reports.json")) as fh:
        recorded = json.load(fh)["default"]
    out = cold_verify("all", "--jobs", "1")
    assert out.returncode == 0, out.stderr.decode()
    assert hashlib.sha256(out.stdout).hexdigest() == recorded


def test_verify_all_to_n_16_matches_its_recorded_report():
    # n to 16 takes Theorems 2, 6, 7 and 8 and (32) and (34) from one chunk
    # image per row at order 8 to several at order 16; the sha256 is that of
    # the report written when every coefficient had its own dot product
    out = cold_verify("all", "--n-max", "16")
    assert out.returncode == 0, out.stderr.decode()
    assert hashlib.sha256(out.stdout).hexdigest() == (
        "d9c84a54d65698d6ffcec19292334bf06fef0452e25d466f66fbb464f021314d")
