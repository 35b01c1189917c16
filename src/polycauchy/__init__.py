"""Exact-arithmetic engine for mixed-type Cauchy / poly-Cauchy polynomial
families and their umbral-calculus identities.

Everything is computed over arbitrary-precision rationals; identity
verification is exact polynomial equality over finite parameter grids.
"""

from .algebra import (
    Polynomial,
    falling_factorial,
    poly_derivative,
    poly_eval,
    poly_shift,
    rising_factorial,
)
from .series import (
    Series,
    SeriesError,
    coefficient,
    comp_inverse,
    compose,
    div,
    exp_series,
    exp_t,
    factorial_coefficient,
    int_pow,
    log_one_plus_t,
    log_series,
    mul,
    reciprocal,
)
from .families import (
    bernoulli2,
    bernoulli_poly,
    cauchy_number,
    frobenius_euler,
    higher_cauchy,
    lif,
    mixed_A,
    narumi,
    poly_cauchy,
    stirling1,
    stirling2,
)
from .umbral import (
    ShefferPair,
    apply_series,
    bernoulli_pair,
    connection_constants,
    functional,
    identity_pair,
    mixed_pair,
    sheffer_by_conjugate,
    sheffer_by_gf,
    sheffer_derivative,
    sheffer_next,
    sheffer_sequence,
    transfer,
)
from .identities import (
    IDENTITY_IDS,
    GridSpec,
    VerificationReport,
    __version__,
    default_grid,
    verify,
    verify_variants,
)
