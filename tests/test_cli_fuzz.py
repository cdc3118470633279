"""Fuzzing of the command line: every argv exits 0, 1, 2 or 3, prints a
message and no stdout when it exits 2 or 3 (one stderr line, "error: " for 2
and "numeric error: " for 3, when main itself returns), never a traceback,
and prints the same stdout twice, the second time with each "--flag value"
written "--flag=value".

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
    # a flag the command takes, else one time in ten; written "--flag=value"
    # or "--flag value", which must read a negative value as the value too
    if takes or _rarely(draw):
        value = draw(st.sampled_from(values))
        return [f"--{name}", value] if draw(st.booleans()) else [f"--{name}={value}"]
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
        code, by_main = cli.main(argv), True
    except SystemExit as exc:  # argparse's own usage errors
        code, by_main = exc.code, False
    captured = capsys.readouterr()
    if by_main and code in (2, 3):  # main's own message: one line, its prefix naming the code
        prefix = "error: " if code == 2 else "numeric error: "
        lines = captured.err.splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith(prefix), (argv, captured.err)
    return code, captured.out, captured.err


def _equals_form(argv):
    """argv with every "--flag value" written "--flag=value"."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _is_json(argv) -> bool:
    return re.search(r"--format[= ]json", " ".join(argv)) is not None


def _without_seconds(argv, out):
    if argv[0] != "converge":
        return out
    if _is_json(argv):
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
        if code == 1:  # a verify FAIL, in the JSON reports or the text summary
            failed = '"status": "FAIL"' in out if _is_json(argv) else "fail=" in out.splitlines()[-1]
            assert failed, argv
        elif code:  # a usage or numeric error prints its message and no output
            assert err.strip(), argv
            assert out == "", (argv, out[:200])
        again = _run(_equals_form(argv), capsys)  # the same argv, run again
        assert again[0] == code, argv
        assert _without_seconds(argv, again[1]) == _without_seconds(argv, out), argv

    check()
