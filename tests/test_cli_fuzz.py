"""Fuzzing of the command line: every argv exits 0, 1, 2 or 3, prints a
message when it fails, never a traceback, and prints the same stdout twice.

``cli.main`` runs in process.  Budgets stay small (terms <= 200, sweep
overrides <= 30, verify at its quick profile) so the whole fuzz takes a few
seconds.
"""

import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from ehz import cli, verify
from ehz.zeta_series import FORMULAS, Formula

from test_cli import strip_seconds_csv

#: shifts inside and outside the double range, poles, and malformed text
SHIFTS = ["1", "1/3", "7/4", "10/3", "0", "-1/2", "1/0", "0.5", "abc", f"1/{2**1022}", f"{10**400}"]
VALUES = {
    "s": ["2", "3", "5", "2.5", "0.5", "1", "0", "-2", "-2.5", "101", "1e300", "nan", "x"],
    "q": [str(q) for q in range(1, 10)] + ["0", "-2", "101", "x"],
    "x": SHIFTS,
}


def _rarely(draw) -> bool:
    # one draw in ten; hypothesis draws the simplest value, 0, the most often
    return draw(st.integers(0, 9)) == 9


def _flag(draw, name, values, takes):
    # a flag the command takes, else one time in ten; written "--flag=value",
    # so that argparse reads a negative value as the value
    if takes or _rarely(draw):
        return [f"--{name}={draw(st.sampled_from(values))}"]
    return []


def _terms(draw) -> int:
    return draw(st.sampled_from([0, -1])) if _rarely(draw) else draw(st.integers(1, 200))


@st.composite
def eval_argv(draw, command):
    formula = draw(st.sampled_from([*Formula, None]))
    if formula is None:
        argv, wanted = [command, "--formula", "no-such"], set()
    else:
        spec = FORMULAS[formula]
        wanted = {spec.param} | ({"x"} if spec.takes_x else set())
        argv = [command, "--formula", formula.value]
    for name, values in VALUES.items():
        argv += _flag(draw, name, values, name in wanted)
    budgets = [_terms(draw) for _ in range(draw(st.integers(1, 4)) if command == "converge" else 1)]
    if not _rarely(draw):
        budgets = sorted(set(budgets))
    argv += [f"--terms={','.join(map(str, budgets))}"]
    argv += _flag(draw, "precision", ["30", "15", "60", "14", "301"], draw(st.booleans()))
    argv += _flag(draw, "mode", ["auto", "fast", "high"], draw(st.booleans()))
    argv += _flag(draw, "format", ["json"], draw(st.booleans()))
    return argv


@st.composite
def verify_argv(draw):
    ident = draw(st.sampled_from([*verify.identity_ids(), "no_such"]))
    sweep = verify._BY_ID[ident].quick if ident in verify._BY_ID else {}
    argv = ["verify", "--id", ident, "--profile", "quick"]
    for key in ("n_max", "q_max", "m_max", "terms"):
        values = [str(v) for v in range(1, 31)] + ["0", "-1"]
        argv += _flag(draw, key.replace("_", "-"), values, key in sweep and draw(st.booleans()))
    argv += _flag(draw, "x", SHIFTS[:7], "xs" in sweep and draw(st.booleans()))
    argv += _flag(draw, "format", ["json"], draw(st.booleans()))
    return argv


@st.composite
def constants_argv(draw):
    return ["constants", "--digits", draw(st.sampled_from(["20", "1", "300", "0", "-1", "301", "x"]))]


def _run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _without_seconds(argv, out):
    if argv[0] != "converge":
        return out
    if "--format=json" in argv:
        return re.sub(r'"seconds": "[^"]*"', "", out)
    return strip_seconds_csv(out)


@pytest.mark.parametrize(
    "argv_strategy",
    [eval_argv("eval"), eval_argv("converge"), verify_argv(), constants_argv()],
    ids=["eval", "converge", "verify", "constants"],
)
def test_every_argv_meets_the_exit_code_contract(argv_strategy, capsys):
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(argv=argv_strategy)
    def check(argv):
        code, out, err = _run(argv, capsys)
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        if code == 1:
            assert "fail=" in out.splitlines()[-1], argv
        elif code:
            assert err.strip(), argv
        again = _run(argv, capsys)
        assert again[0] == code, argv
        assert _without_seconds(argv, again[1]) == _without_seconds(argv, out), argv

    check()
