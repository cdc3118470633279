import json
import os
import subprocess
import sys

import pytest

from ehz import cli, numerics


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: the range of normal doubles a nonzero shift x must lie in, as the error names it
DOUBLE_RANGE = f"{sys.float_info.min!r} <= |x| <= {sys.float_info.max!r}"


def strip_seconds_csv(text: str) -> str:
    lines = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("N,"):
            lines.append(line)
        else:
            lines.append(line.rsplit(",", 1)[0])
    return "\n".join(lines)


class TestEval:
    def test_python_dash_m(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ehz", "eval", "--formula", "shen", "--q", "2", "--terms", "50"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "formula=shen" in proc.stdout

    def test_euler_hurwitz_near_zeta5(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--formula", "euler-hurwitz", "--q", "4", "--x", "1",
            "--terms", "100000",
        )
        assert code == 0
        value = float(dict(l.split("=", 1) for l in out.splitlines())["value"])
        assert abs(value - 1.0369277551) < 5e-3

    def test_sondow_log2_digits(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--formula", "sondow-alt", "--s", "1", "--terms", "60"
        )
        assert code == 0
        fields = dict(l.split("=", 1) for l in out.splitlines())
        assert fields["value"].startswith("0.6931471805")

    def test_hasse_quarter_shift(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--formula", "hasse", "--s", "2", "--x", "1/4",
            "--terms", "10000",
        )
        assert code == 0
        fields = dict(l.split("=", 1) for l in out.splitlines())
        corrected = float(fields["value"]) + float(fields["tail_estimate"])
        assert abs(corrected - 17.1973) < 0.3
        assert float(fields["abs_error"]) <= 1.05 * float(fields["tail_estimate"])

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--formula", "shen", "--q", "2", "--terms", "500",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"command", "params", "result", "version"}
        assert payload["command"] == "eval"
        assert payload["version"] == "0.1.0"
        assert "value" in payload["result"]

    @pytest.mark.parametrize("mode", ["fast", "high"])
    @pytest.mark.parametrize("terms", [1, 2])
    @pytest.mark.parametrize(
        "argv",
        [
            ("mixed-q", "--q", "4", "--x", "1/3"),
            ("mixed-q", "--q", "5", "--x", "5/4"),
            ("mixed-q", "--q", "6"),
            ("zeta3-half",),
            ("euler-sum-45-8",),
            ("euler-sum-45-10",),
            ("shen", "--q", "3"),
        ],
        ids=" ".join,
    )
    def test_vanishing_first_terms_keep_a_positive_tail(self, capsys, argv, terms, mode):
        # these series' first terms are 0; a tail of 0 would claim N = 1 exact
        code, out, _ = run_cli(
            capsys, "eval", "--formula", *argv, "--terms", str(terms), "--mode", mode
        )
        assert code == 0
        fields = dict(l.split("=", 1) for l in out.splitlines())
        assert float(fields["tail_estimate"]) > 0.0

    def test_unknown_formula_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--formula", "nope", "--terms", "10")
        assert code == 2
        assert "unknown formula" in err

    def test_decimal_x_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--formula", "euler-hurwitz", "--q", "1", "--x", "0.5",
            "--terms", "10",
        )
        assert code == 2
        assert "decimals are rejected" in err

    def test_missing_parameter(self, capsys):
        code, _, _ = run_cli(
            capsys, "eval", "--formula", "euler-hurwitz", "--terms", "10"
        )
        assert code == 2

    def test_domain_error_exit_three(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--formula", "hasse", "--s", "1", "--terms", "10"
        )
        assert code == 3
        assert "pole" in err

    def test_byte_identical_repeats(self, capsys):
        args = (
            "eval", "--formula", "stirling-route", "--q", "2", "--x", "1/2",
            "--terms", "2000",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_env_precision_override(self, capsys, monkeypatch):
        monkeypatch.setenv("EHZ_PRECISION", "22")
        _, out, _ = run_cli(
            capsys, "eval", "--formula", "shen", "--q", "1", "--terms", "100"
        )
        assert "digits=22" in out

    @pytest.mark.parametrize("value", ["301", "100000"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--formula", "shen", "--q", "2", "--terms", "10"),
            ("converge", "--formula", "shen", "--q", "2", "--terms", "10,20"),
        ],
        ids=["eval", "converge"],
    )
    def test_precision_above_cap_usage_error(self, capsys, monkeypatch, argv, source, value):
        def no_work(*args, **kwargs):
            raise AssertionError("evaluated before the precision was checked")

        for name in ("evaluate", "reference_value", "convergence_table"):
            monkeypatch.setattr(cli, name, no_work)
        if source == "env":
            monkeypatch.setenv("EHZ_PRECISION", value)
        else:
            argv += ("--precision", value)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        flag = "EHZ_PRECISION" if source == "env" else "--precision"
        assert f"{flag} must be <= 300, got {value}" in err

    @pytest.mark.parametrize("value", ["14", "0", "-3", "10"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_precision_below_floor_names_its_source(self, capsys, monkeypatch, source, value):
        argv = ["eval", "--formula", "shen", "--q", "2", "--terms", "10"]
        if source == "env":
            monkeypatch.setenv("EHZ_PRECISION", value)
        else:
            argv.append(f"--precision={value}")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        flag = "EHZ_PRECISION" if source == "env" else "--precision"
        assert f"{flag} must be >= 15, got {value}" in err

    def test_non_integer_precision_names_its_source(self, capsys, monkeypatch):
        argv = ["eval", "--formula", "shen", "--q", "2", "--terms", "10"]
        monkeypatch.setenv("EHZ_PRECISION", "abc")
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "EHZ_PRECISION must be an integer, got 'abc'" in err
        with pytest.raises(SystemExit) as exc:  # argparse checks the flag's type
            cli.main(argv + ["--precision=abc"])
        assert exc.value.code == 2
        assert "argument --precision: invalid int value: 'abc'" in capsys.readouterr().err


    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_s_usage_error(self, capsys, value):
        code, _, err = run_cli(
            capsys, "eval", "--formula", "hasse", f"--s={value}", "--terms", "10"
        )
        assert code == 2
        assert "s must be finite" in err

    @pytest.mark.parametrize(
        "command, formula, param",
        [
            ("eval", "sondow-alt", ("--s", "1")),
            ("eval", "shen", ("--q", "2")),
            ("eval", "catalan-ramanujan", ()),
            ("eval", "catalan-central", ()),
            ("eval", "zeta2-dup", ()),
            ("eval", "zeta3-half", ()),
            ("eval", "digamma-half-sum", ("--q", "2")),
            ("converge", "shen", ("--q", "2")),
        ],
    )
    def test_shift_on_unshifted_formula(self, capsys, command, formula, param):
        terms = "10,20" if command == "converge" else "10"
        code, out, err = run_cli(
            capsys, command, "--formula", formula, *param, "--x", "1/2", "--terms", terms
        )
        assert code == 2
        assert out == ""
        assert f"{formula} takes no --x" in err

    def test_s_on_q_formula(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--formula", "euler-hurwitz", "--q", "2", "--s", "2",
            "--terms", "10",
        )
        assert code == 2
        assert "euler-hurwitz takes no --s" in err

    def test_q_on_s_formula(self, capsys):
        code, _, err = run_cli(
            capsys, "converge", "--formula", "sondow-alt", "--s", "2", "--q", "2",
            "--terms", "10,20",
        )
        assert code == 2
        assert "sondow-alt takes no --q" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--formula", "hasse", "--s", "1e300"),
            ("--formula", "hasse", "--s=-1e300"),
            ("--formula", "sondow-alt", "--s", "1e300"),
            ("--formula", "euler-hurwitz", "--q", "1000000000"),
            ("--formula", "euler-hurwitz", "--q", "200", "--mode", "fast"),
            ("--formula", "euler-hurwitz", "--q", "200", "--mode", "high"),
        ],
    )
    def test_order_beyond_limit_exit_three(self, capsys, argv):
        code, out, err = run_cli(capsys, "eval", *argv, "--terms", "10")
        assert code == 3
        assert out == ""
        assert "order limit" in err and "<= 100" in err

    @pytest.mark.parametrize("mode", ["fast", "high"])
    def test_order_at_limit_evaluates(self, capsys, mode):
        code, _, _ = run_cli(
            capsys, "eval", "--formula", "euler-hurwitz", "--q", "100", "--terms", "10",
            "--mode", mode,
        )
        assert code == 0

    @pytest.mark.parametrize(
        "formula, param, value, x",
        [
            ("euler-hurwitz", "q", "4", "1/1" + "0" * 120),  # x = 1/10^120
            ("stirling-route", "q", "4", "1/1" + "0" * 120),
            ("mixed-q", "q", "5", "1/1" + "0" * 120),
            ("euler-hurwitz", "q", "100", "1/64"),
            ("alt-hurwitz", "s", "4", "1/1" + "0" * 120),
        ],
        ids=["eh-x1e-120", "sr-x1e-120", "mixed-x1e-120", "eh-q100-x1/64", "alt-s4-x1e-120"],
    )
    def test_overflow_names_the_request_exit_three(self, capsys, formula, param, value, x):
        code, out, err = run_cli(
            capsys, "eval", "--formula", formula, f"--{param}", value, "--x", x, "--terms", "10",
            "--mode", "fast",
        )
        assert code == 3
        assert out == ""
        assert f"{formula} at {param} = {value}, x = {x}: " in err
        assert "overflowed a double" in err

    @pytest.mark.parametrize("mode", ["fast", "high"])
    @pytest.mark.parametrize(
        "formula, param, value, cause",
        [
            ("euler-hurwitz", "q", "3", "the tail estimate overflowed a double"),
            ("euler-hurwitz", "q", "7", "the tail estimate overflowed a double"),
            ("stirling-route", "q", "3", "the tail estimate overflowed a double"),
            ("mixed-q", "q", "5", "the tail estimate overflowed a double"),
            ("alt-hurwitz", "s", "3", "an inner row overflowed a double"),
            ("alt-hurwitz", "s", "7", "an inner row overflowed a double"),
        ],
    )
    def test_smallest_normal_shift_overflow_exit_three(self, capsys, formula, param, value, cause, mode):
        # x = 2^-1022 is inside the double range, but the FAST terms reach
        # inf (h_j of the 1/(i+x) for j >= 2) and the tails overflow
        x = f"1/{2**1022}"
        code, out, err = run_cli(
            capsys, "eval", "--formula", formula, f"--{param}", value, "--x", x, "--terms", "10",
            "--mode", mode,
        )
        assert (code, out) == (3, "")
        assert err == f"numeric error: {formula} at {param} = {value}, x = {x}: {cause}\n"

    @pytest.mark.parametrize("mode", ["fast", "high"])
    @pytest.mark.parametrize(
        "formula, param, value",
        [
            ("euler-hurwitz", "q", "2"),
            ("stirling-route", "q", "2"),
            ("mixed-q", "q", "4"),
            ("hasse", "s", "2"),
            ("alt-hurwitz", "s", "2"),
        ],
    )
    @pytest.mark.parametrize("x", ["1" + "0" * 400, "1/1" + "0" * 400], ids=["x1e400", "x1e-400"])
    def test_shift_beyond_double_range_exit_three(self, capsys, formula, param, value, x, mode):
        code, out, err = run_cli(
            capsys, "eval", "--formula", formula, f"--{param}", value, "--x", x, "--terms", "10",
            "--mode", mode,
        )
        assert code == 3
        assert out == ""
        assert err == f"numeric error: x = {x} is outside the double range {DOUBLE_RANGE}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--formula", "euler-hurwitz", "--q", "1", "--x", "1/0", "--terms", "10"),
            ("verify", "--id", "coppo_30", "--x", "1/0"),
        ],
    )
    def test_zero_denominator_shift_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "x must be p/q with q ≠ 0" in err


class TestConverge:
    def test_csv_header_and_exponent(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--formula", "euler-hurwitz", "--q", "1", "--x", "1",
            "--terms", "100,1000,10000", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,partial_sum,reference,abs_error,rel_error,seconds"
        assert len(lines) == 5
        assert lines[-1].startswith("# exponent,")
        expo = float(lines[-1].split(",")[1])
        assert abs(expo - (-1.0)) < 0.05

    def test_monotone_error_decrease(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--formula", "shen", "--q", "2",
            "--terms", "100,1000",
        )
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()[1:-1]]
        errs = [float(r[3]) for r in rows]
        assert errs[1] < errs[0]

    def test_geometric_formula(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--formula", "sondow-alt", "--s", "3",
            "--terms", "10,20,40",
        )
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()[1:-1]]
        errs = [float(r[3]) for r in rows]
        assert errs[1] < errs[0] / 100
        assert errs[2] <= errs[1]

    @pytest.mark.parametrize("x", ["1" + "0" * 400, "1/1" + "0" * 400], ids=["x1e400", "x1e-400"])
    def test_shift_beyond_double_range_exit_three(self, capsys, x):
        code, out, err = run_cli(
            capsys, "converge", "--formula", "euler-hurwitz", "--q", "2", "--x", x,
            "--terms", "10,20",
        )
        assert code == 3
        assert out == ""
        assert err == f"numeric error: x = {x} is outside the double range {DOUBLE_RANGE}\n"

    def test_byte_identical_excluding_seconds(self, capsys):
        args = (
            "converge", "--formula", "euler-hurwitz", "--q", "1", "--x", "1/2",
            "--terms", "100,1000",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert strip_seconds_csv(out1) == strip_seconds_csv(out2)

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--formula", "sondow-alt", "--s", "2",
            "--terms", "10,20", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"command", "params", "rows", "version"}
        assert payload["rows"][-1].keys() == {"exponent"}
        assert len(payload["rows"]) == 3


    @pytest.mark.parametrize("terms", ["0,10", "-5,10"])
    def test_budget_below_one_usage_error(self, capsys, terms):
        code, out, err = run_cli(
            capsys, "converge", "--formula", "catalan-central", f"--terms={terms}"
        )
        assert code == 2
        assert out == ""
        assert f"--terms budgets must be >= 1, got {terms}" in err

    @pytest.mark.parametrize("terms", ["100,10", "10,10"])
    def test_budgets_not_increasing_usage_error(self, capsys, terms):
        code, out, err = run_cli(
            capsys, "converge", "--formula", "euler-hurwitz", "--q", "1", f"--terms={terms}"
        )
        assert code == 2
        assert out == ""
        assert f"--terms budgets must be strictly increasing, got {terms}" in err

    @pytest.mark.parametrize("terms", ["10,abc", "1e3"])
    def test_budget_not_integer_usage_error(self, capsys, terms):
        code, out, err = run_cli(
            capsys, "converge", "--formula", "euler-hurwitz", "--q", "1", f"--terms={terms}"
        )
        assert code == 2
        assert out == ""
        assert f"--terms budgets must be integers, got '{terms}'" in err


class TestVerifyCommand:
    def test_single_identity_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--id", "coppo_30", "--n-max", "20", "--q-max", "3",
            "--x", "1/3",
        )
        assert code == 0
        assert "fail=0" in out.splitlines()[-1]

    def test_closed_pipe_exits_quietly(self):
        # the JSON (about 1.4 MB) outgrows the pipe buffer, so the write
        # after the reader has gone fails with EPIPE
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ehz", "verify", "--id", "coppo_30", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            head = proc.stdout.read(200)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert head.startswith(b'{"command": "verify"')
        assert err == b""
        assert code == cli.BROKEN_PIPE

    @pytest.mark.parametrize("x", ["-1", "0"])
    def test_pole_shift_skips_without_traceback(self, x):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ehz", "verify", "--id", "g_derivative", "--x", x],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        passing = 1 if x == "-1" else 0
        assert proc.stdout.splitlines()[-1] == (
            f"identities=1, reports=11, pass={passing}, fail=0, skip={11 - passing}"
        )

    def test_coppo_pole_skip_detail(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--id", "coppo_30", "--x", "0", "--n-max", "3")
        assert code == 0
        assert out.splitlines() == [
            "SKIP coppo_30 x=0  [pole at k = 0: x = 0 makes k + x vanish] lhs= rhs=",
            "identities=1, reports=1, pass=0, fail=0, skip=1",
        ]

    def test_m_max_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--id", "fs_4_general", "--n-max", "5", "--m-max", "3"
        )
        assert code == 0
        assert out.splitlines()[-1] == (
            "identities=1, reports=15, pass=15, fail=0, skip=0"
        )

    def test_unknown_identity(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--id", "no_such")
        assert code == 2

    def test_requires_mode(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--id", "fs_6_1", "--x", "1/2"), "fs_6_1 takes no --x"),
            (("--id", "fs_6_1", "--m-max", "3", "--q-max", "2"), "fs_6_1 takes no --q-max, --m-max"),
            (("--id", "e44_7", "--x", "1/2"), "e44_7 takes no --x"),
            (("--all", "--n-max", "1"), "--all takes no --n-max"),
            (("--id", "fs_6_1", "--all"), "--all or --id, not both"),
        ],
    )
    def test_inapplicable_flags_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "ident, flag, value",
        [
            ("e14_2", "--terms", "0"),
            ("e41", "--terms", "0"),
            ("zeta_3", "--terms", "0"),
            ("e14_1", "--terms", "0"),
            ("shen_45_2", "--terms", "0"),
            ("alt_2", "--terms", "0"),
            ("catalan_equiv", "--terms", "0"),
            ("digamma_48_1", "--terms", "-3"),
            ("fs_6_1", "--n-max", "0"),
            ("e44_7", "--n-max", "-2"),
            ("coppo_30", "--q-max", "0"),
            ("fs_4_general", "--m-max", "0"),
        ],
    )
    def test_sweep_override_below_one_usage_error(self, capsys, ident, flag, value):
        code, out, err = run_cli(capsys, "verify", "--id", ident, flag, value)
        assert code == 2
        assert out == ""
        assert f"{flag} must be >= 1, got {value}" in err

    def test_profile_honoured_with_id(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--id", "fs_6_1", "--profile", "quick")
        assert code == 0
        assert out.splitlines()[-1] == "identities=1, reports=50, pass=50, fail=0, skip=0"
        code, out, _ = run_cli(capsys, "verify", "--id", "fs_6_1", "--format", "json")
        payload = json.loads(out)
        assert payload["params"]["profile"] == "full"
        assert len(payload["reports"]) == 200

    def test_all_quick_summary(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all", "--profile", "quick")
        assert code == 0
        last = out.splitlines()[-1]
        assert last.startswith("identities=")
        assert "fail=0" in last

    def test_json_reports(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--id", "nH_identity", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"command", "params", "reports", "version"}
        assert all(r["status"] == "PASS" for r in payload["reports"])

    def test_sides_beyond_the_int_str_limit_print(self, capsys):
        # at n = 100, q = 8, x = 1/3 the sides pass 640 digits, the lowest
        # limit on int-to-str conversion that Python accepts
        argv = ["verify", "--id", "coppo_30", "--x", "1/3", "--n-max", "100", "--q-max", "8"]
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            code, out, err = run_cli(capsys, *argv)
            sys.set_int_max_str_digits(0)
            assert run_cli(capsys, *argv) == (code, out, err)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "identities=1, reports=808, pass=808, fail=0, skip=0"

    @pytest.mark.parametrize("argv", [("--id", "coppo_30", "--n-max", "5"), ("--all",)], ids=str)
    @pytest.mark.parametrize("error", [ValueError, ZeroDivisionError])
    def test_error_while_running_exits_three_naming_the_identity(
        self, capsys, monkeypatch, argv, error
    ):
        from ehz import harmonic

        real = harmonic.coppo_sweep

        def failing(n_max, q_max, x):
            for i, report in enumerate(real(n_max, q_max, x)):
                if i == 3:
                    raise error("boom")
                yield report

        monkeypatch.setattr(harmonic, "coppo_sweep", failing)
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out, err) == (3, "", "numeric error: coppo_30: boom\n")

    def test_failures_exit_one(self, capsys, monkeypatch):
        from ehz import combinatorics as co

        real = co.bell_eval_all

        def corrupted(xs):
            ys = real(xs)
            if len(ys) >= 3:
                ys[2] = ys[2] + 1
            return ys

        monkeypatch.setattr(co, "bell_eval_all", corrupted)
        code, out, _ = run_cli(
            capsys, "verify", "--id", "coppo_30", "--n-max", "5", "--q-max", "4",
            "--x", "1/2",
        )
        assert code == 1
        assert "FAIL" in out


class TestConstants:
    def test_twenty_digits(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--digits", "20")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "gamma=0.57721566490153286061"
        assert lines[1] == "pi=3.1415926535897932385"
        assert any(l.startswith("zeta10=") for l in lines)

    @pytest.mark.parametrize("digits", ["50", "300"])
    def test_one_euler_maclaurin_attempt_per_zeta(self, capsys, monkeypatch, digits):
        # every zeta(m), m = 2..10, reaches its accuracy at the first M tried
        calls = []
        em_once = numerics._em_once
        monkeypatch.setattr(numerics, "_em_once", lambda *a: calls.append(a[2]) or em_once(*a))
        numerics.clear_caches()
        code, _, _ = run_cli(capsys, "constants", "--digits", digits)
        assert code == 0
        assert len(calls) == 9, calls

    def test_five_digits_catalan(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--digits", "5")
        assert code == 0
        assert "catalan=0.91597" in out.splitlines()

    def test_over_cap(self, capsys):
        code, _, err = run_cli(capsys, "constants", "--digits", "1000000")
        assert code == 2
