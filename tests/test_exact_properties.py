"""Property tests of the integer routes of the exact layer at random shifts."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ehz import harmonic as ha
from oracles import coppo_rhs_rows


@settings(max_examples=80, deadline=None)
@given(
    p=st.integers(-60, 60),
    d=st.integers(1, 12),
    n_max=st.integers(0, 14),
    q_max=st.integers(1, 5),
)
def test_sweep_matches_literal_sums_off_the_poles(p, d, n_max, q_max):
    x = Fraction(p, d)
    assume(not (x.denominator == 1 and -n_max <= x <= 0))
    rows = list(ha.coppo_sweep(n_max, q_max, x))
    assert len(rows) == (n_max + 1) * q_max
    rhs_rows = list(coppo_rhs_rows(q_max, x, n_max))
    for n, q, lhs, rhs in rows:
        assert lhs == rhs == ha.coppo_lhs(n, q, x) == rhs_rows[n][q - 1]
    D, prefixes = ha.scaled_harmonics(n_max + 1, q_max, x)
    for i, row in enumerate(prefixes):
        assert [Fraction(a, D**j) for j, a in enumerate(row, 1)] == [
            ha.Hx(i, j, x) for j in range(1, q_max + 1)
        ]
