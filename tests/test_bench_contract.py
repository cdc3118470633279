"""The names the benchmark's span tracer (bench/spans.py) wraps must exist,
a traced verify run must reach them through their modules, and a traced
FAST eval must sum its series inside the traced evaluator."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from collections import Counter

import pytest

import ehz
from ehz import cli

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "spans.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(spans, capsys, *argv):
    """The span log of a ``cli.main(argv)`` run under the tracer; the run
    must exit 0."""
    for mod_name, _, _ in spans.TRACED:
        importlib.import_module(f"ehz.{mod_name}")
    log = spans.SpanLog()
    replaced = spans.install(log)
    try:
        assert cli.main(list(argv)) == 0
    finally:
        for module, attr, original in replaced:
            setattr(module, attr, original)
    capsys.readouterr()
    return log


def test_traced_functions_exist(spans):
    for mod_name, fn_name, _ in spans.TRACED:
        module = importlib.import_module(f"ehz.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"ehz.{mod_name}.{fn_name}"


def test_importing_the_cli_imports_every_traced_module(spans):
    # bench/worker.py imports ehz.cli alone, then spans.install reads
    # sys.modules["ehz.<mod>"]: a module that ehz.cli imports lazily breaks
    # the traced run, which _traced above cannot see (it imports each one)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(os.path.dirname(SPANS_PATH)), "src"))
    code = "import sys, ehz.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {f"ehz.{mod}" for mod, _, _ in spans.TRACED} <= loaded


def test_every_exported_name_exists():
    for info in pkgutil.iter_modules(ehz.__path__):
        module = importlib.import_module(f"ehz.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"ehz.{info.name}.{name}"


@pytest.mark.parametrize(
    "ident, span",
    [
        ("g_derivative", "gamma_tools.gamma_ratio_derivative_sides"),
        ("e44_3", "gamma_tools.pochhammer_ratio_coeffs"),
        ("fs_4_general", "harmonic.alt_binom_sum"),
        ("coppo_30", "harmonic.coppo_sweep"),
        ("e44_7", "combinatorics.stirling1_row"),
    ],
)
def test_traced_verify_records_spans(spans, capsys, ident, span):
    log = _traced(spans, capsys, "verify", "--id", ident, "--profile", "quick")
    counts = Counter(log.names[i] for i in log.name_id)
    assert counts[span] >= 1, sorted(counts)
    # the per-layer metric reads the span's self time, which must not read 0
    assert spans.layer_metrics(log)[f"{span}.self_s"] > 0


@pytest.mark.parametrize(
    "formula, param",
    [
        ("euler-hurwitz", ("--q", "3", "--x", "3/4")),
        ("stirling-route", ("--q", "3", "--x", "3/4")),
        ("mixed-q", ("--q", "4", "--x", "3/4")),
        ("catalan-ramanujan", ()),
        ("catalan-central", ()),
        ("zeta2-dup", ()),
        ("digamma-half-sum", ("--q", "2")),
    ],
)
def test_traced_fast_eval_sums_inside_the_evaluator(spans, capsys, formula, param):
    # us_per_term divides the outermost formula span (evaluate's) by N; the
    # evaluator's own span, nested in it, must hold the summation too.
    log = _traced(spans, capsys, "eval", "--formula", formula, *param, "--terms", "20000", "--mode", "fast")
    name = f"zeta_series.{formula}.fast"
    found = [i for i, n in enumerate(log.name_id) if log.names[n] == name]
    assert len(found) == 2, sorted(set(log.names))  # evaluate, then the evaluator
    inner = next(i for i in found if log.parent[i] in found)
    outer = log.parent[inner]
    inner_s = log.end[inner] - log.start[inner]
    assert 0 < log.end[outer] - log.start[outer] < 2 * inner_s
    assert spans.layer_metrics(log)[f"{name}.us_per_term"] > 0


def test_traced_verify_times_the_identity_inside_its_span(spans, capsys):
    # run_identity is a generator function, so the tracer times each report
    # it yields: the identity's span holds its sweep, and the encoding of the
    # reports, done between them, falls to cli's self time
    log = _traced(spans, capsys, "verify", "--id", "coppo_30", "--profile", "quick")
    metrics = spans.layer_metrics(log)
    assert metrics["verify.coppo_30.s"] >= metrics["harmonic.coppo_sweep.s"] > 0
