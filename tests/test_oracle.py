"""A_n^{(r,k)}(x) against an expansion that shares no code with
polycauchy.series: sympy's own ring-series arithmetic over ℚ[t, x], for
`mixed_A` and, through the slabs of A's rows, for the whole registry."""

import hashlib
import json
import os

import pytest

pytest.importorskip("sympy")

from polycauchy import cli, families  # noqa: E402
from polycauchy import identities as idn  # noqa: E402
from polycauchy.families import mixed_A  # noqa: E402
from sympy_oracle import sympy_A_rows, sympy_mixed_A  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "n, r, k",
    [
        (4, 0, 2), (5, 1, 1), (6, -2, 3), (7, 3, -2), (9, -1, -3), (12, 2, -1), (14, -3, -2),
        # past degree 32: g is regrown, Lif_k(log(1+t)) read off the Stirling matrix
        (33, 2, -1), (34, -2, 3), (40, 0, 2),
    ],
)
def test_mixed_A_matches_sympy_expansion(n, r, k):
    want = sympy_mixed_A(n, r, k)
    assert len(want) == n + 1  # degree n, leading coefficient (-1)^n
    assert list(mixed_A(n, r, k).coeffs) == want


@pytest.fixture
def sympy_rows(monkeypatch):
    """Every left side A_n, and every other read of A's rows, from sympy:
    `identities._A_rows` patched, in a cold memo that is cleared again
    afterwards, since the slab tables built here may hold mutated rows.
    The shifted rows A_n(x + 1) of Theorems 3 and 4 are no such read: they
    come from the engine's series, as the `-log` family of g(t) (1+t)^(-1)."""
    monkeypatch.setattr(idn, "_A_rows", sympy_A_rows)
    families._memo.clear()
    yield
    families._memo.clear()


def test_verify_all_with_sympy_rows_reproduces_the_recorded_report(sympy_rows, capsys):
    with open(os.path.join(ROOT, "perfbench", "reports.json")) as fh:
        recorded = json.load(fh)["default"]
    assert cli.main(["verify", "all", "--jobs", "1"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == recorded


def test_swapped_associated_columns_fail_thm8(sympy_rows, monkeypatch):
    # (x)_j for (-x)_j: the engine's A and THM8's right side both read these
    # columns, so only a left side from sympy can tell
    original = families._associated

    def swapped(order, delta):
        return original(order, "log" if delta == "-log" else delta)

    monkeypatch.setattr(families, "_associated", swapped)
    monkeypatch.setattr(idn, "_associated", swapped)
    assert not idn.verify("THM8").all_passed
