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


#: functions that only the tests reach: routes kept as test-side oracles
#: until they move out of src.  Deleting a name here is free; adding one is not.
UNREACHED_FROM_CLI = {
    ("combinatorics", "enumerate_partitions"),
    ("combinatorics", "partition_count"),
    ("combinatorics", "bell_coefficients"),
    ("combinatorics", "bell_eval"),
    ("combinatorics", "bell_from_partitions"),
    ("combinatorics", "stirling1_closed"),
    ("combinatorics", "log_power_coeffs"),
    ("combinatorics", "series_pow_alpha"),
    ("combinatorics", "det_bracket"),
    ("combinatorics", "_bracket_matrix"),
    ("combinatorics", "_det_pivoted"),
    ("gamma_tools", "_zeta1_bracket_args"),
    ("gamma_tools", "gamma_deriv_at_1"),
    ("gamma_tools", "gamma_deriv_at_1_det"),
    ("gamma_tools", "gamma_deriv_at_half"),
    ("gamma_tools", "recip_gamma_lambda"),
    ("gamma_tools", "wilf_asymptotic"),
    ("gamma_tools", "loggamma_taylor"),
    ("harmonic", "coppo_rhs_rows"),
    ("numerics", "clear_caches"),
    ("verify", "identity_ids"),
}


def test_src_holds_no_new_code_the_cli_cannot_reach():
    functions, reached = _reachable_functions()
    assert ("zeta_series", "_gamma_ratio_result") in reached  # the scan follows calls
    unreached = functions - reached
    assert unreached <= UNREACHED_FROM_CLI, sorted(unreached - UNREACHED_FROM_CLI)
