"""Tests of the benchmark's own machinery (not part of the tier-1 suite).

    python3 -m pytest bench/tests -q
"""

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_operations(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_same_shapes(name):
    a, b = workloads.generate(name, 1), workloads.generate(name, 2)
    # the (formula, order, N) multiset does not depend on the seed
    assert sorted(op.request.key for op in a) == sorted(op.request.key for op in b)
    assert [op.argv for op in a] != [op.argv for op in b]


def test_seeds_draw_different_shifts():
    shifts = {tuple(sorted(op.name for op in workloads.generate("eval", s))) for s in range(10)}
    assert len(shifts) > 1


def test_shifts_come_from_the_fixed_sets():
    for seed in range(20):
        for op in workloads.generate("eval", seed):
            if op.x is not None:
                assert op.x in op.request.shifts
                assert "--x" in op.argv


def test_verify_ids_match_the_registry():
    from ehz.verify import identity_ids

    assert list(workloads.VERIFY_IDS) == identity_ids()


def test_unknown_workload():
    with pytest.raises(KeyError):
        workloads.generate("nope", 1)


def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 3] and [2, 6] (overlapping) and [8, 12]
    # (clipped to 10); grandchild [2, 4] inside the second child
    starts = [0.0, 1.0, 2.0, 8.0, 2.0]
    ends = [10.0, 3.0, 6.0, 12.0, 4.0]
    parents = [-1, 0, 0, 0, 2]
    st = spans.self_times(starts, ends, parents)
    assert st[0] == pytest.approx(10 - (6 - 1) - (10 - 8))
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(4 - 2)
    assert st[3] == pytest.approx(4.0)
    assert st[4] == pytest.approx(2.0)


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_span_log_records_nesting_and_self_time(tmp_path):
    log = spans.SpanLog(clock=_fake_clock([0.0, 1.0, 4.0, 5.0, 6.0, 10.0]))
    outer = log.open("outer")
    a = log.open("inner")
    log.close(a)
    b = log.open("inner")
    log.close(b)
    log.close(outer)
    m = spans.layer_metrics(log)
    assert m["outer.calls"] == 1 and m["inner.calls"] == 2
    assert m["inner.s"] == pytest.approx(3.0 + 1.0)
    assert m["outer.self_s"] == pytest.approx(10.0 - 4.0)
    path = tmp_path / "spans.bin"
    log.write(str(path))
    assert spans.read_spans(str(path)) == [
        ("outer", 0.0, 10.0, -1, 0, 0),
        ("inner", 1.0, 4.0, 0, 0, 0),
        ("inner", 5.0, 6.0, 0, 0, 0),
    ]


def test_formula_time_counts_outermost_evaluator_once():
    log = spans.SpanLog(clock=_fake_clock([0.0, 1.0, 3.0, 4.0]))
    outer = log.open("zeta_series.hasse.high", terms=100)
    inner = log.open("zeta_series.hasse.high", terms=100)
    log.close(inner)
    log.close(outer)
    m = spans.layer_metrics(log)
    assert m["zeta_series.hasse.high.us_per_term"] == pytest.approx(1e6 * 4.0 / 100)


def test_install_wraps_every_namespace_and_keeps_results():
    from fractions import Fraction

    import ehz.cli  # noqa: F401  (loads every ehz module)
    from ehz import gamma_tools, harmonic, numerics, zeta_series

    before = {
        (mod, attr): getattr(mod, attr)
        for mod, attr in [
            (numerics, "working_precision"),
            (zeta_series, "working_precision"),
            (gamma_tools, "Hx"),
            (harmonic, "coppo_sweep"),
        ]
    }
    expect_h = harmonic.H(5, 2)
    expect_sweep = list(harmonic.coppo_sweep(3, 2, Fraction(1, 2)))
    log = spans.SpanLog()
    replaced = spans.install(log)
    try:
        for (mod, attr), fn in before.items():
            assert getattr(mod, attr) is not fn
        assert harmonic.H(5, 2) == expect_h
        assert list(harmonic.coppo_sweep(3, 2, Fraction(1, 2))) == expect_sweep
        with zeta_series.working_precision(40):
            pass
    finally:
        for mod, attr, fn in replaced:
            setattr(mod, attr, fn)
    for (mod, attr), fn in before.items():
        assert getattr(mod, attr) is fn
    m = spans.layer_metrics(log)
    assert m["harmonic.H.calls"] >= 1
    assert m["numerics.working_precision.enters"] >= 1
    assert m["harmonic.coppo_sweep.calls"] == len(expect_sweep) + 1
