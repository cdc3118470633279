"""Checks on the package's source text."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ehz"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so a check written as one vanishes
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


def _references(node, module, imports):
    """The (module, name) pairs the code under node names: its own module's
    top-level names, names imported from sibling modules, and module.name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield imports.get(sub.id, (module, sub.id))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            target = imports.get(sub.value.id)
            if target is not None and target[1] is None:  # a sibling module
                yield target[0], sub.attr


def _reachable_functions():
    """(every top-level function, those reachable from cli.main and from the
    module-level code of each module, such as its tables), as (module, name)."""
    functions, roots, edges = {}, [("cli", "main")], {}
    for path in sorted(SRC.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text(), filename=str(path))
        imports = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    name = alias.asname or alias.name
                    imports[name] = (node.module, alias.name) if node.module else (alias.name, None)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[module, node.name] = node
                edges[module, node.name] = set(_references(node, module, imports))
            else:
                roots.extend(_references(node, module, imports))
    seen, stack = set(), [r for r in roots if r in functions]
    while stack:
        fn = stack.pop()
        if fn not in seen:
            seen.add(fn)
            stack.extend(r for r in edges[fn] if r in functions)
    return set(functions), seen


#: the functions that only the tests reach, each with the reason it stays in
#: src; the independent routes that only the tests run live in tests/oracles.py
UNREACHED_FROM_CLI = {
    ("combinatorics", "bell_eval"): "bench/spans.py traces it and test_bench_contract requires it",
    ("numerics", "clear_caches"): "a test hook over the private caches",
    ("verify", "identity_ids"): "bench/tests/test_bench.py reads it",
}


def test_src_holds_no_new_code_the_cli_cannot_reach():
    functions, reached = _reachable_functions()
    assert ("zeta_series", "_gamma_ratio_result") in reached  # the scan follows calls
    unreached = functions - reached
    # equality: a new unreached function fails, and so does a stale entry
    assert unreached == set(UNREACHED_FROM_CLI), (
        sorted(unreached - set(UNREACHED_FROM_CLI)),
        sorted(set(UNREACHED_FROM_CLI) - unreached),
    )


#: the enum classes src defines, each with the reason it stays: a second name
#: for a series must justify itself here
ENUMS = {
    ("numerics", "Mode"): "the precision mode of a context",
    ("zeta_series", "Formula"): "the one name of each series, the CLI's --formula",
    ("zeta_series", "CatalanKind"): "bench/spans.py names catalan_series's spans by its values",
    ("verify", "Kind"): "how an identity compares its two sides",
    ("verify", "Profile"): "the sweep sizes, the CLI's --profile",
}


ENUM_BASES = {"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"}


def test_src_defines_only_the_listed_enums():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(
                ast.unparse(base).split(".")[-1] in ENUM_BASES for base in node.bases
            ):
                found.add((path.stem, node.name))
    assert found == set(ENUMS), (sorted(found - set(ENUMS)), sorted(set(ENUMS) - found))


def _builtin_name(func):
    """The name a call's target gives a builtin: ``f`` or ``builtins.f``
    (``re.compile`` is not the builtin)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "builtins":
        return func.attr
    return None


def test_code_is_compiled_only_by_the_kernel_builder():
    # the builder's source comes from an integer order and fixed snippets;
    # no other code may run exec, eval or compile
    calls = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:  # a top-level statement and the function it may define
            for sub in ast.walk(node):
                name = _builtin_name(sub.func) if isinstance(sub, ast.Call) else None
                if name in ("exec", "eval", "compile"):
                    calls.add((path.stem, getattr(node, "name", None), name))
    builder = ("zeta_series", "_kernel")
    assert calls == {builder + ("exec",), builder + ("compile",)}


#: names of the mpf summation that every HIGH series loop has left behind:
#: each is now an integer sum at scale 2^P, rounded once
RETIRED_NAMES = {"compensated_sum", "_ramanujan_terms", "fadd", "fdot"}


def _identifiers(tree):
    """(line, name) for every name, attribute, definition and import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _named_in_src(names):
    """(file, line, name) for every definition or use of one of names in src."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, line, n) for line, n in _identifiers(tree) if n in names]
    return found


def test_high_sums_name_no_mpf_summation():
    assert not _named_in_src(RETIRED_NAMES)


#: the hand-built engines for gamma (Euler--Maclaurin), pi (Machin),
#: Catalan's G and Li_s(y) (the integer loop's term count): these are only
#: targets and scale factors of the paper's series, never routes of it, so
#: mpmath's values serve, as for log 2
RETIRED_CONSTANT_ENGINES = {
    "_gamma_em", "_pi_machin", "_pi_fixed", "_catalan_series", "_polylog_terms",
}


def test_constants_come_from_mpmath_not_a_hand_rolled_engine():
    assert not _named_in_src(RETIRED_CONSTANT_ENGINES)


#: the hand-rolled memos that ``functools.cache`` and ``lru_cache`` replaced:
#: the constants' dict and lock, the Bernoulli table's resumable tangent
#: triangle and its lock, and the compiled-kernel dict
RETIRED_CACHES = {
    "_CONST_CACHE", "_CONST_LOCK", "_cached",
    "_BERNOULLI_CACHE", "_BERNOULLI_LOCK", "_TANGENTS", "_TANGENT_COLUMN",
    "_KERNELS",
}


def test_no_hand_rolled_memo_is_left():
    assert not _named_in_src(RETIRED_CACHES)


#: the per-command copies of an evaluation record that
#: ``zeta_series.Evaluation`` replaced: converge's row type, the result's
#: copy of the request's N and converge's timing field
RETIRED_RECORD_FIELDS = {"ConvergenceRow", "terms_used", "elapsed_seconds"}


def test_one_evaluation_record():
    assert not _named_in_src(RETIRED_RECORD_FIELDS)


#: the module-level threading locks in src, each with the reason it stays: a
#: value that is a pure function of its key is a functools cache, not a lock
LOCKS = {
    ("numerics", "_MP_LOCK"): "mpmath's working precision is process-global",
    ("harmonic", "_H_LOCK"): "guards the harmonic-number prefix columns grown in place",
    ("harmonic", "_ADAMCHIK_LOCK"): "guards the Adamchik prefix sums grown in place",
    ("combinatorics", "_STIRLING_LOCK"): "guards the Stirling rows grown in place",
}


def test_src_holds_only_the_listed_locks():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if (
                isinstance(node, (ast.Assign, ast.AnnAssign))
                and isinstance(node.value, ast.Call)
                and ast.unparse(node.value.func).startswith("threading.")
            ):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found |= {(path.stem, t.id) for t in targets if isinstance(t, ast.Name)}
    assert found == set(LOCKS), (sorted(found - set(LOCKS)), sorted(set(LOCKS) - found))


def test_precision_scopes_are_entered_only_by_numerics():
    # elsewhere a precision scope comes from PrecisionContext.scope()
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "working_precision":
                    callers.add(path.stem)
    assert callers <= {"numerics"}, sorted(callers)


def test_ctx_scopes_are_entered_only_by_zeta_series():
    # the exact modules need no precision scope, numerics holds
    # working_precision itself, and the CLI reads its errors from
    # zeta_series.evaluate_against_reference
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "scope":
                callers.add(path.stem)
    assert callers <= {"zeta_series"}, sorted(callers)


#: the zeta_series functions that may read the precision mode: the mode's
#: own helpers, the gamma-ratio series (whose FAST float kernels stay) and
#: the one place where a reference is rounded into the mode.  Every other
#: series runs one loop in both modes; deleting a name here is free, adding
#: one is not.
MODE_READERS = {
    "_high",  # the HIGH context a loop is sized for
    "_from_fixed",  # the integer sum rounded into the mode's type
    "_gamma_ratio_series",
    "_kernel",  # the kernel builder
    "reference_value",  # a HIGH reference rounded once for a FAST request
}


def test_only_named_zeta_series_functions_read_the_mode():
    # a read is any ``.mode`` attribute (ctx.mode) or ``Mode.FAST``
    path = SRC / "zeta_series.py"
    found = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and (
                sub.attr == "mode"
                or (sub.attr == "FAST" and isinstance(sub.value, ast.Name) and sub.value.id == "Mode")
            ):
                found.add((getattr(node, "name", None), sub.lineno))
    forks = sorted(((name, line) for name, line in found if name not in MODE_READERS), key=str)
    assert not forks and found, forks


#: the round's line budget for src/ehz, set in ROADMAP.md ("Line budget"):
#: the same outputs from the least code, so src may not grow past it
SRC_LINE_BUDGET = 3332


def test_src_stays_within_the_line_budget():
    lines = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py"))
    assert lines <= SRC_LINE_BUDGET, f"src/ehz has {lines} lines, the budget is {SRC_LINE_BUDGET}"
