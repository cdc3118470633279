from fractions import Fraction

import mpmath
import pytest

from ehz.numerics import Mode, PrecisionContext, working_precision


@pytest.fixture(scope="session")
def high30() -> PrecisionContext:
    return PrecisionContext(30, Mode.HIGH)


@pytest.fixture(scope="session")
def fast30() -> PrecisionContext:
    return PrecisionContext(30, Mode.FAST)


def mp_literal(text: str, dps: int = 60) -> mpmath.mpf:
    """Parse a decimal literal at high precision (not the global default)."""
    with working_precision(dps):
        return mpmath.mpf(text)


def mp_abs_diff(a, b, dps: int = 60) -> float:
    with working_precision(dps):
        return float(abs(mpmath.mpf(a) - mpmath.mpf(b)))


def frac(s: str) -> Fraction:
    return Fraction(s)


class NeumaierSum:
    """ORACLE: a streaming compensated sum, one ``add`` call per term.  From
    a float zero, Neumaier's step with its abs() compare; from an mpf zero,
    exact adds whose :attr:`total` is rounded once.  The package's summing
    loops are held to it bit for bit."""

    __slots__ = ("_sum", "_comp")

    def __new__(cls, zero=0.0):
        if cls is NeumaierSum and isinstance(zero, mpmath.mpf):
            cls = _ExactSum
        return super().__new__(cls)

    def __init__(self, zero=0.0):
        self._sum = zero
        self._comp = zero * 0

    def add(self, term) -> None:
        t = self._sum + term
        if abs(self._sum) >= abs(term):
            self._comp += (self._sum - t) + term
        else:
            self._comp += (term - t) + self._sum
        self._sum = t

    @property
    def total(self):
        return self._sum + self._comp


class _ExactSum(NeumaierSum):
    """ORACLE: the mpf path of :class:`NeumaierSum`, exact adds rounded once."""

    __slots__ = ()

    def add(self, term) -> None:
        self._sum = mpmath.fadd(self._sum, term, exact=True)

    @property
    def total(self):
        return +self._sum
