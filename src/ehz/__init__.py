"""Exact and high-precision evaluation of Bell-polynomial, Stirling-number
and harmonic-number series for the Riemann and Hurwitz zeta functions.

The package has three layers:

* exact rational machinery -- complete Bell polynomials, Stirling numbers
  of the first kind, generalized (shifted) harmonic numbers, alternating
  binomial sums, gamma ratios, and the binomial/Bell identity that ties
  them together (``combinatorics``, ``harmonic``, ``gamma_tools``);
* series evaluators with analytic tail estimates for the zeta, eta,
  polylogarithm, Catalan and digamma series families, which sum integers
  at a binary scale and round once, except the FAST gamma-ratio kernels
  (``numerics``, ``zeta_series``);
* an identity registry with structured pass/fail reports and a CLI
  (``verify``, ``cli``).

The package holds what the CLI runs.  The independent routes that only
the tests run -- partition sums, the determinant bracket, the derivatives
of Gamma at 1 and 1/2 and the series built on them -- are labelled
oracles in ``tests/oracles.py``.
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
