import pytest

from polycauchy import families
from polycauchy import identities as idn


@pytest.fixture
def written_out(monkeypatch):
    """Every row of the Sheffer-sum tables (Theorems 2, 6, 7 and 8, (32)
    and (34)) written out, agreeing or not: A's row against the right side
    read back from the chunk images that the engine compares, so that a
    test sees the right side, not `_AGREED`.  The memo starts empty and is
    put back afterwards."""
    monkeypatch.setattr(families, "_memo", {})
    monkeypatch.setattr(idn, "_sheffer_table", lambda order, r, k, *sum_args: tuple(
        idn._decoded(order, r, k, idn._sheffer_images(order, r, k, *sum_args))))
