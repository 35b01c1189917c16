"""The report writer: `identities.report_text` must give the bytes of
``json.dumps(payload, indent=2) + "\\n"`` for every document `verify`
makes and every list of them."""

import hashlib
import json
import os
from fractions import Fraction as F

import pytest

from polycauchy import cli
from polycauchy import identities as idn
from polycauchy.identities import IDENTITY_IDS, GridSpec, report_text, verify

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
    return json.dumps(payload, indent=2) + "\n"


def documents() -> list:
    return [verify(name, grid).to_document() for name, grid in GRIDS.items()]


def test_grids_cover_every_verdict_and_a_fraction_lambda():
    docs = documents()
    verdicts = {name: {e["verdict"] for e in d["results"]} for name, d in zip(GRIDS, docs)}
    assert verdicts["THM4"] == verdicts["THM5"] == {"pass", "fail", "skipped"}
    assert "skipped" in verdicts["EQ36"]
    assert {e["point"]["lam"] for e in docs[-1]["results"]} == {"1/2", "-1/3", "1"}


@pytest.mark.parametrize(
    "name, grid",
    [pytest.param(name, GRIDS[name], id=name) for name in sorted(GRIDS)]
    # and each identity's default grid
    + [pytest.param(name, None, id=f"{name}-default") for name in IDENTITY_IDS],
)
def test_single_document(name, grid):
    doc = verify(name, grid).to_document()
    assert report_text(doc) == reference(doc)


def test_list_of_documents():
    docs = documents()
    assert report_text(docs) == reference(docs)
    assert report_text(docs[:1]) == reference(docs[:1])


FAIL_ENTRY = {
    "point": {"n": 2, "m": 1, "r": 0, "k": -1},
    "verdict": "fail",
    "lhs": ["1", "-1/2", "7/3"],
    "rhs": ["0"],
    "diff": ["\u00e9\"q\"", "back\\slash\n", "%s %d", "\u20ac"],
}


@pytest.mark.parametrize(
    "entry",
    [
        FAIL_ENTRY,
        {"point": {"n": 0}, "verdict": "fail", "lhs": ["0"], "rhs": ["1"], "diff": ["-1"]},
    ],
)
def test_fail_entries_at_two_depths(entry):
    passed = {"point": {**entry["point"], "n": 3}, "verdict": "pass"}
    doc = {"identity": "X", "results": [entry, passed]}
    assert report_text(doc) == reference(doc)
    assert report_text([doc, doc]) == reference([doc, doc])


def test_one_template_per_entry_shape(monkeypatch):
    # json.dumps lays out the document's frame and one template per shape
    # (pass, fail and skipped); every entry is written from its template
    real_dumps_at, dumped = idn._dumps_at, []

    def dumps_at(value, depth):
        dumped.append(value)
        return real_dumps_at(value, depth)

    doc = verify("THM4", GRIDS["THM4"]).to_document()
    monkeypatch.setattr(idn, "_dumps_at", dumps_at)
    assert report_text(doc) == reference(doc)
    assert len(dumped) == 4 and dumped[0]["results"] == idn._SLOT
    assert {tuple(value) for value in dumped[1:]} == {tuple(e) for e in doc["results"]}


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
