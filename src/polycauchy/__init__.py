"""Exact-arithmetic engine for mixed-type Cauchy / poly-Cauchy polynomial
families and their umbral-calculus identities.

Everything is computed over arbitrary-precision rationals; identity
verification is exact polynomial equality over finite parameter grids.

`import polycauchy` loads `algebra`, `series` and `families`.  Each public
name is read from its submodule on each access (PEP 562), never stored
here, so `umbral` and `identities` load only when first asked for.
"""

from importlib import import_module

from . import algebra, families, series

_EXPORTS = {
    "algebra": "Polynomial falling_factorial poly_derivative poly_eval poly_shift "
    "rising_factorial",
    "series": "Series SeriesError coefficient comp_inverse compose div exp_series exp_t "
    "factorial_coefficient int_pow log_one_plus_t log_series mul reciprocal",
    "families": "bernoulli2 bernoulli_poly cauchy_number frobenius_euler higher_cauchy "
    "lif mixed_A narumi poly_cauchy stirling1 stirling2",
    "umbral": "ShefferPair apply_series bernoulli_pair connection_constants functional "
    "identity_pair mixed_pair sheffer_by_conjugate sheffer_by_gf sheffer_derivative "
    "sheffer_next sheffer_sequence transfer",
    "identities": "IDENTITY_IDS GridSpec VerificationReport __version__ default_grid "
    "verify verify_variants",
}
# public name -> the submodule that defines it
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name in _ORIGIN:
        return getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
