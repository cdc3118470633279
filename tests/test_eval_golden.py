"""Golden-output regression test: ``ehz eval --format json`` and
``ehz verify --format json`` stdout, pinned.

One small request per formula (N <= 200), in FAST and in HIGH mode, and the
quick profile of every NUMERIC identity, with the exact stdout each must
print stored in ``eval_golden.txt`` (one ``<argv>\\t<stdout>`` line per
request).  Any change to an evaluator, the dispatch table, the precision
scopes, a verify gate or the output formatting that moves a printed digit
shows up here.

Regenerate the file (only when a change of output is intended, and say so
in the change's notes) with

    PYTHONPATH=src python tests/test_eval_golden.py > tests/eval_golden.txt
"""

import contextlib
import io
import json
import os
import sys

import pytest

from ehz import cli
from ehz.verify import _REGISTRY, Kind

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "eval_golden.txt")

#: formula and parameter flags; each runs with --mode fast and --mode high
REQUESTS = (
    "hasse --s 2 --x 1/4 --terms 200",
    "hasse --s 3 --terms 100",
    "hasse --s 2.5 --x 1/2 --terms 40",
    "hasse --s 0.5 --terms 30",
    "hasse --s -2 --x 1/2 --terms 10",
    "hasse-hurwitz --s 4 --x 3/4 --terms 150",
    "sondow-alt --s 1 --terms 60",
    "sondow-alt --s 3 --terms 60",
    "sondow-alt --s 2.5 --terms 40",
    "alt-hurwitz --s 2 --x 3/4 --terms 60",
    "alt-hurwitz --s 1.5 --x 1/2 --terms 50",
    "euler-hurwitz --q 1 --x 1/4 --terms 200",
    "euler-hurwitz --q 4 --x 7/4 --terms 200",
    "euler-hurwitz --q 7 --x 1/2 --terms 100",
    "stirling-route --q 1 --x 1/2 --terms 200",
    "stirling-route --q 3 --x 3/4 --terms 200",
    "stirling-route --q 6 --x 1/3 --terms 100",
    "shen --q 2 --terms 200",
    "mixed-q --q 4 --x 1/2 --terms 200",
    "mixed-q --q 5 --x 5/4 --terms 200",
    "mixed-q --q 6 --x 1 --terms 200",
    "catalan-ramanujan --terms 200",
    "catalan-central --terms 200",
    "zeta2-dup --terms 200",
    "zeta3-half --terms 200",
    "polylog-14-3 --s 2 --x 1/3 --terms 100",
    "polylog-14-4 --s 1 --x 1/2 --terms 100",
    "polylog-14-4 --s 2 --x 3/7 --terms 200",
    "polylog-14-4 --s 1 --x 1/3 --terms 200",
    "digamma-half-sum --q 2 --terms 200",
    "digamma-half-sum --q 4 --terms 200",
    "euler-sum-45-8 --terms 200",
    "euler-sum-45-10 --terms 200",
)

#: the NUMERIC identities of the verify registry, each run at --profile quick
NUMERIC_IDS = tuple(i.id for i in _REGISTRY if i.kind is Kind.NUMERIC)


def _argvs():
    for req in REQUESTS:
        formula, *rest = req.split()
        for mode in ("fast", "high"):
            yield ["eval", "--formula", formula, *rest, "--mode", mode, "--format", "json"]
    for ident in NUMERIC_IDS:
        yield ["verify", "--id", ident, "--profile", "quick", "--format", "json"]


def _test_id(argv) -> str:
    """``<formula and flags> <mode>`` for eval, ``verify <id>`` for verify."""
    if argv[0] == "verify":
        return f"verify {argv[2]}"
    return " ".join(argv[2:-4]) + f" {argv[-3]}"


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0, argv
    return buf.getvalue()


def _golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("\t", 1) for line in fh if line.strip())


GOLDEN = _golden() if os.path.exists(GOLDEN_PATH) else {}


def test_golden_covers_every_formula():
    from ehz.zeta_series import Formula

    assert {r.split()[0] for r in REQUESTS} == {f.value for f in Formula}
    assert sorted(GOLDEN) == sorted(" ".join(a) for a in _argvs())


def _leaves(value, path: str = ""):
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _leaves(item, f"{path}.{key}" if path else str(key))
    else:
        yield path, value


def _fields(line: str) -> dict:
    """The JSON line's leaves, keyed by dotted path (``result.value``,
    ``reports.0.lhs``)."""
    return dict(_leaves(json.loads(line)))


def _changed_fields(old: str, new: str) -> str:
    """One ``field: old -> new`` line per JSON field that differs."""
    try:
        a, b = _fields(old), _fields(new)
    except ValueError:
        return f"stdout is not one JSON line: {new!r}"
    return "\n".join(
        f"{k}: {a.get(k, '<absent>')} -> {b.get(k, '<absent>')}"
        for k in sorted(set(a) | set(b))
        if a.get(k) != b.get(k)
    ) or "the JSON fields are equal; the text differs"


@pytest.mark.parametrize("argv", list(_argvs()), ids=_test_id)
def test_eval_stdout_matches_golden(argv):
    want = GOLDEN[" ".join(argv)] + "\n"
    got = _stdout(argv)
    assert got == want, "changed fields (golden -> now):\n" + _changed_fields(want, got)


def test_changed_fields_lists_each_difference():
    old = '{"result": {"value": "1.5", "tail_estimate": "0.1"}, "version": "0.1.0"}'
    new = '{"result": {"value": "1.25", "tail_estimate": "0.1"}, "version": "0.2.0"}'
    assert _changed_fields(old, new) == "result.value: 1.5 -> 1.25\nversion: 0.1.0 -> 0.2.0"
    assert _changed_fields(old, old.replace(", ", ",")) == (
        "the JSON fields are equal; the text differs"
    )


if __name__ == "__main__":
    for argv in _argvs():
        sys.stdout.write(" ".join(argv) + "\t" + _stdout(argv))
