"""Exact and high-precision evaluation of Bell-polynomial, Stirling-number
and harmonic-number series for the Riemann and Hurwitz zeta functions.

The package has three layers:

* exact rational machinery -- partitions, complete Bell polynomials,
  Stirling numbers of the first kind, generalized (shifted) harmonic
  numbers, alternating binomial sums, and the binomial/Bell identity that
  ties them together (``combinatorics``, ``harmonic``, ``gamma_tools``);
* floating series evaluators with analytic tail estimates for the zeta,
  eta, polylogarithm, Catalan and digamma series families
  (``numerics``, ``zeta_series``);
* an identity registry with structured pass/fail reports and a CLI
  (``verify``, ``cli``).
"""

__version__ = "0.1.0"

from .numerics import (  # noqa: F401
    DomainError,
    Mode,
    NumericError,
    PrecisionContext,
    SeriesResult,
    const_catalan,
    const_gamma,
    const_pi,
    const_zeta,
)
