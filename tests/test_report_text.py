"""The report writer: `identities.report_text` must give the bytes of
``json.dumps(report.to_document(), indent=2) + "\\n"`` for every report
`verify` makes, and the same of the list of their documents for every
list of them."""

import hashlib
import json
import os
from fractions import Fraction as F

import pytest

from polycauchy import cli
from polycauchy import families
from polycauchy import identities as idn
from polycauchy.identities import IDENTITY_IDS, GridSpec, VerificationReport, report_text, verify

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GRIDS = {
    # pass, fail (the printed reading) and skipped (n < 1) entries
    "THM4": GridSpec(n_values=(0, 1, 2), r_values=(0, 1), k_values=(-1, 1)),
    # pass, fail and skipped (out of the m domain) entries, four point keys
    "THM5": GridSpec(
        n_values=(1, 2, 3), m_values=(0, 1, 2), r_values=(0, 1), k_values=(0, 1)
    ),
    # skipped entries from the n >= 1 domain
    "EQ36": GridSpec(n_values=(0, 1, 2), r_values=(-1, 1), k_values=(0,)),
    # points with Fraction lambda, shown as strings, and lambda = 1 skipped
    "THM7": GridSpec(
        n_values=(0, 2), r_values=(1,), k_values=(-1, 2), s_values=(0, 2),
        lambdas=(F(1, 2), F(-1, 3), F(1)),
    ),
}


def reference(payload) -> str:
    """json.dumps(indent=2) of a report's document, or of a list of them."""
    if type(payload) is list:
        return json.dumps([report.to_document() for report in payload], indent=2) + "\n"
    return json.dumps(payload.to_document(), indent=2) + "\n"


def reports() -> list:
    return [verify(name, grid) for name, grid in GRIDS.items()]


def test_grids_cover_every_verdict_and_a_fraction_lambda():
    reps = reports()
    verdicts = {name: {e["verdict"] for e in r.results} for name, r in zip(GRIDS, reps)}
    assert verdicts["THM4"] == verdicts["THM5"] == {"pass", "fail", "skipped"}
    assert "skipped" in verdicts["EQ36"]
    assert {e["point"]["lam"] for e in reps[-1].results} == {"1/2", "-1/3", "1"}


@pytest.mark.parametrize(
    "name, grid",
    [pytest.param(name, GRIDS[name], id=name) for name in sorted(GRIDS)]
    # and each identity's default grid
    + [pytest.param(name, None, id=f"{name}-default") for name in IDENTITY_IDS],
)
def test_single_document(name, grid):
    report = verify(name, grid)
    assert report_text(report) == reference(report)


def test_list_of_documents():
    reps = reports()
    assert report_text(reps) == reference(reps)
    assert report_text(reps[:1]) == reference(reps[:1])


FAIL_ENTRY = {
    "point": {"n": 2, "m": 1, "r": 0, "k": -1},
    "verdict": "fail",
    "lhs": ["1", "-1/2", "7/3"],
    "rhs": ["0"],
    "diff": ["\u00e9\"q\"", "back\\slash\n", "%s %d", "\u20ac"],
}


def hand_built(entry) -> VerificationReport:
    """A report of one slab whose point n = 3 passes and whose point
    entry["point"] fails with `entry`."""
    point = entry["point"]
    slab = {axis: v for axis, v in point.items() if axis != "n"}
    return VerificationReport("X", GridSpec(n_values=(point["n"], 3)),
                              [(slab, 0, None, {point["n"]: entry})])


@pytest.mark.parametrize(
    "entry",
    [
        FAIL_ENTRY,
        {"point": {"n": 0}, "verdict": "fail", "lhs": ["0"], "rhs": ["1"], "diff": ["-1"]},
    ],
)
def test_fail_entries_at_two_depths(entry):
    report = hand_built(entry)
    assert [e["verdict"] for e in report.results] == ["fail", "pass"]
    assert report_text(report) == reference(report)
    assert report_text([report, report]) == reference([report, report])


def test_slab_values_and_reasons_are_filled_once_and_escaped():
    # a slab's strs are filled into its templates before n: a % in them,
    # or a character json.dumps escapes, must come out as json.dumps writes it
    fail = {"point": {"n": 1, "lam": "-1/3"}, "verdict": "fail",
            "lhs": ["1"], "rhs": ["0"], "diff": ["1"]}
    report = VerificationReport("X", GridSpec(n_values=(0, 2, 1)), [
        ({"lam": "%s \u00e9"}, 1, "needs 100% of \"n\" %d", {}),
        ({"lam": "-1/3"}, 0, None, {1: fail}),
        ({"lam": "%%"}, idn._NEVER, "none\u20ac %", {}),
    ])
    assert report.totals == {"pass": 4, "fail": 1, "skipped": 4}
    assert report_text(report) == reference(report)
    assert report_text([report]) == reference([report])


def test_an_empty_report():
    report = VerificationReport("THM8", GridSpec(n_values=(0,), r_values=(0,), k_values=(0,)))
    assert report.results == [] and report_text(report) == reference(report)


def test_one_template_per_entry_shape(monkeypatch):
    # json.dumps lays out each document's frame, and one template per entry
    # shape (pass, fail and skipped) and depth once per process; every
    # entry is written from its template
    real_dumps_at, dumped = idn._dumps_at, []

    def dumps_at(value, depth):
        dumped.append(value)
        return real_dumps_at(value, depth)

    report = verify("THM4", GRIDS["THM4"])
    # the templates live in the family memo: an empty one lays them out anew
    monkeypatch.setattr(families, "_memo", {})
    monkeypatch.setattr(idn, "_dumps_at", dumps_at)
    assert report_text(report) == reference(report)
    assert len(dumped) == 4 and dumped[0]["results"] == idn._SLOT
    assert {tuple(value) for value in dumped[1:]} == {tuple(e) for e in report.results}
    # the same document again lays out its frame alone; a list, one level
    # deeper, its three templates once and a frame per document
    dumped.clear()
    assert report_text(report) == reference(report) and len(dumped) == 1
    dumped.clear()
    assert report_text([report, report]) == reference([report, report]) and len(dumped) == 5


def test_passing_grids_write_no_entry_alone(monkeypatch):
    # a passing slab is verified and written from its run: `_entry` makes
    # the entries of a failing slab only
    reps = [verify(name, GRIDS.get(name)) for name in IDENTITY_IDS if name not in idn.VARIANTS]
    monkeypatch.setattr(idn, "_entry", lambda *args: pytest.fail("an entry was written alone"))
    again = [verify(report.identity, report.grid) for report in reps]
    assert all(report.all_passed for report in again)
    assert report_text(again) == reference(reps)


# -- every recorded report --------------------------------------------------


with open(os.path.join(ROOT, "perfbench", "reports.json")) as fh:
    RECORDED = json.load(fh)


def window_argv(key: str) -> list:
    """`verify all` arguments of a reports.json key such as
    "r-1..2,k-3..0,s1..3"; "default" takes the default grids."""
    argv = ["verify", "all", "--jobs", "1"]
    if key != "default":
        for part in key.split(","):
            argv += [f"--{part[0]}", part[1:]]
    return argv


def test_window_argv():
    assert window_argv("r-1..2,k-3..0,s2..4") == [
        "verify", "all", "--jobs", "1", "--r", "-1..2", "--k", "-3..0", "--s", "2..4",
    ]


@pytest.mark.parametrize("key", sorted(RECORDED))
def test_verify_all_matches_every_recorded_report(key, capsys, tmp_path):
    assert cli.main(window_argv(key)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == RECORDED[key]
    # the same bytes through --report, and nothing on stdout
    path = tmp_path / "report.json"
    assert cli.main(window_argv(key) + ["--report", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RECORDED[key]
