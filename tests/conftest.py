import pytest

from polycauchy import families
from polycauchy import identities as idn


@pytest.fixture
def written_out(monkeypatch):
    """Every row of the Sheffer-sum tables (Theorems 2, 6, 7 and 8, (32)
    and (34)) written out, agreeing or not: A's row against the right side
    that `_coefficient_rows` forms on the coefficient columns, so that a
    test sees the right side, not `_AGREED`.  The memo starts empty and is
    put back afterwards.

    The fixture is decided(identity, p, ns): the rows of slab p at the
    points ns from the unpatched tables, which decide them on whole-row
    images or on their coefficients, in a memo of their own."""
    monkeypatch.setattr(families, "_memo", {})
    image_table, image_memo = idn._sheffer_table, {}
    monkeypatch.setattr(idn, "_sheffer_table", idn._coefficient_rows)

    def decided(identity, p, ns) -> list:
        with monkeypatch.context() as patch:
            patch.setattr(families, "_memo", image_memo)
            patch.setattr(idn, "_sheffer_table", image_table)
            return list(zip(*idn._DEFS[identity].rows(p, ns)))

    return decided
