"""Span recording for the traced benchmark run.

The benchmark wraps public functions of the ``ehz`` modules from outside
the package: every module namespace that holds a traced function gets a
wrapper in its place, so ``zeta_series.working_precision`` is traced as
well as ``numerics.working_precision``.  Each wrapped call records a span
(name, start, end, parent, run id, terms); spans stay in memory in
parallel arrays and are written out once, when the run ends.

Self time is a span's duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, int, int, int]  # name, start, end, parent, run id, terms

_CATALAN_FORMULA = {
    "RAMANUJAN_38": "catalan-ramanujan",
    "CENTRAL_38_1": "catalan-central",
    "ZETA2_37": "zeta2-dup",
    "ZETA3_HALF_45_6": "zeta3-half",
}
_COLUMNS = ("name_id", "start", "end", "parent", "run", "terms")


class SpanLog:
    """Spans kept in memory as parallel arrays; index -1 means no parent."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self.terms = array("q")
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, terms: int = 0) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.terms.append(terms)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def write(self, path: str) -> None:
        """Write the spans: a JSON header line, then each column's raw array."""
        header = {
            "names": self.names,
            "count": len(self),
            "columns": [[c, getattr(self, c).typecode] for c in _COLUMNS],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for c in _COLUMNS:
                getattr(self, c).tofile(fh)


def read_spans(path: str) -> List[Span]:
    """Load the spans that :meth:`SpanLog.write` wrote."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = []
        for _name, code in header["columns"]:
            col = array(code)
            col.fromfile(fh, header["count"])
            cols.append(col)
    names = header["names"]
    return [(names[n], s, e, p, r, t) for n, s, e, p, r, t in zip(*cols)]


def self_times(starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]) -> List[float]:
    """Duration of each span minus the union of its children's intervals,
    each child clipped to its parent's interval."""
    children: Dict[int, List[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        cur_s = cur_e = None
        for k in sorted(kids, key=starts.__getitem__):
            s, e = max(starts[k], lo), min(ends[k], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


# ----------------------------------------------------------------------
# Wrappers.
# ----------------------------------------------------------------------


def _span_wrapper(log: SpanLog, fn: Callable, namer: Callable) -> Callable:
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            name, terms = namer(args, kwargs)
            it = fn(*args, **kwargs)
            while True:
                idx = log.open(name, terms)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    log.close(idx)
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name, terms = namer(args, kwargs)
        idx = log.open(name, terms)
        try:
            return fn(*args, **kwargs)
        finally:
            log.close(idx)

    return wrapper


def _count_wrapper(log: SpanLog, fn: Callable, name: str) -> Callable:
    counts = log.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _fixed(name: str) -> Callable:
    return lambda args, kwargs: (name, 0)


def _mode(ctx) -> str:
    return ctx.mode.value.lower()


def _series(formula: Optional[str], n_pos: int, ctx_pos: int, kind_map: Optional[dict] = None) -> Callable:
    """Namer for an evaluator: zeta_series.<formula>.<mode>, terms = N.

    With ``kind_map`` the formula comes from the enum in the first argument.
    """

    def namer(args, kwargs):
        f = kind_map[args[0].value] if kind_map else formula
        n = kwargs["N"] if "N" in kwargs else args[n_pos]
        ctx = kwargs["ctx"] if "ctx" in kwargs else args[ctx_pos]
        return f"zeta_series.{f}.{_mode(ctx)}", n

    return namer


def _evaluate_namer(args, kwargs):
    req = args[0] if args else kwargs["req"]
    f = req.formula.value
    if f == "hasse-hurwitz":
        f = "hasse"
    return f"zeta_series.{f}.{_mode(req.ctx)}", req.N


def _verify_namer(args, kwargs):
    return f"verify.{args[0] if args else kwargs['ident']}", 0


# (module, function, namer); a namer of None makes a count-only wrapper.
TRACED: Sequence[Tuple[str, str, Optional[Callable]]] = (
    ("cli", "main", _fixed("cli")),
    ("verify", "run_identity", _verify_namer),
    ("zeta_series", "evaluate", _evaluate_namer),
    ("zeta_series", "hasse_hurwitz", _series("hasse", 2, 3)),
    ("zeta_series", "sondow_alt", _series("sondow-alt", 1, 2)),
    ("zeta_series", "alt_hurwitz", _series("alt-hurwitz", 2, 3)),
    ("zeta_series", "euler_hurwitz", _series("euler-hurwitz", 2, 3)),
    ("zeta_series", "stirling_route", _series("stirling-route", 2, 3)),
    ("zeta_series", "shen_series", _series("shen", 1, 2)),
    ("zeta_series", "mixed_q", _series("mixed-q", 2, 3)),
    ("zeta_series", "catalan_series", _series(None, 1, 2, _CATALAN_FORMULA)),
    ("zeta_series", "digamma_half_sum", _series("digamma-half-sum", 1, 2)),
    ("zeta_series", "euler_sum_partial", _series("euler-sum", 1, 2)),
    ("zeta_series", "reference_value", _fixed("zeta_series.reference_value")),
    ("zeta_series", "convergence_table", _fixed("zeta_series.convergence_table")),
    ("combinatorics", "bell_eval", _fixed("combinatorics.bell_eval")),
    ("combinatorics", "bell_eval_all", _fixed("combinatorics.bell_eval_all")),
    ("combinatorics", "stirling1_row", _fixed("combinatorics.stirling1_row")),
    ("combinatorics", "stirling1_bell", _fixed("combinatorics.stirling1_bell")),
    ("harmonic", "H", _fixed("harmonic.H")),
    ("harmonic", "Hx", _fixed("harmonic.Hx")),
    ("harmonic", "alt_binom_sum", _fixed("harmonic.alt_binom_sum")),
    ("harmonic", "coppo_lhs", _fixed("harmonic.coppo_lhs")),
    ("harmonic", "coppo_sweep", _fixed("harmonic.coppo_sweep")),
    ("harmonic", "adamchik_check", _fixed("harmonic.adamchik_check")),
    ("gamma_tools", "gamma_ratio_derivative_sides", _fixed("gamma_tools.gamma_ratio_derivative_sides")),
    ("gamma_tools", "pochhammer_ratio_coeffs", _fixed("gamma_tools.pochhammer_ratio_coeffs")),
    ("numerics", "working_precision", None),
    ("numerics", "const_zeta", _fixed("numerics.const")),
    ("numerics", "const_gamma", _fixed("numerics.const")),
    ("numerics", "const_pi", _fixed("numerics.const")),
    ("numerics", "const_catalan", _fixed("numerics.const")),
    ("numerics", "const_log2", _fixed("numerics.const")),
    ("numerics", "hurwitz_zeta_em", _fixed("numerics.hurwitz_zeta_em")),
)


def install(log: SpanLog, package: str = "ehz") -> List[Tuple[object, str, Callable]]:
    """Replace each traced function in every loaded module of ``package``
    that refers to it; return the (module, attribute, original) replaced."""
    modules = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    replaced = []
    for mod_name, fn_name, namer in TRACED:
        original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
        if namer is None:
            wrapper = _count_wrapper(log, original, f"{mod_name}.{fn_name}.enters")
        else:
            wrapper = _span_wrapper(log, original, namer)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    replaced.append((mod, attr, original))
    return replaced


# ----------------------------------------------------------------------
# Per-layer metrics.
# ----------------------------------------------------------------------


def _is_formula(name: str) -> bool:
    return name.startswith("zeta_series.") and name.endswith((".fast", ".high"))


def layer_metrics(log: SpanLog) -> Dict[str, float]:
    """Aggregate the spans into per-layer metrics.

    ``<name>.calls`` counts spans, ``<name>.self_s`` sums self time, and
    ``<name>.s`` sums the duration of spans with no ancestor of the same
    name.  ``zeta_series.<formula>.<mode>.us_per_term`` divides the time of
    outermost evaluator spans by their term budgets, so ``evaluate`` and
    the evaluator it dispatches to count once.
    """
    names = [log.names[n] for n in log.name_id]
    starts, ends, parents = log.start, log.end, log.parent
    selfs = self_times(starts, ends, parents)
    calls: Counter = Counter(names)
    self_s: Counter = Counter()
    incl: Counter = Counter()
    f_time: Counter = Counter()
    f_terms: Counter = Counter()
    for i, name in enumerate(names):
        self_s[name] += selfs[i]
        dur = ends[i] - starts[i]
        p = parents[i]
        nested = formula_nested = False
        while p >= 0:
            pname = names[p]
            nested = nested or pname == name
            formula_nested = formula_nested or _is_formula(pname)
            p = parents[p]
        if not nested:
            incl[name] += dur
        if _is_formula(name) and not formula_nested:
            f_time[name] += dur
            f_terms[name] += log.terms[i]
    out: Dict[str, float] = {}
    for name in calls:
        if _is_formula(name):
            if f_terms[name]:
                out[f"{name}.us_per_term"] = 1e6 * f_time[name] / f_terms[name]
            continue
        out[f"{name}.calls"] = float(calls[name])
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.s"] = incl[name]
    for name, n in log.counts.items():
        out[name] = float(n)
    return out
