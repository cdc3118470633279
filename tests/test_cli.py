import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

from ehz import cli, numerics, verify


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: sha256 of the stdout of `verify --all --profile quick --format <fmt>`
ALL_QUICK_SHA256 = {
    "text": "616e4bc0c91822a9695f0003db348939ce7f1f3bc90e5854f2cbb3683da3ae44",
    "json": "8d29d83b336e880a703e82327114957485a48ff909673e4bde96b20617ece5a9",
}

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

    @pytest.mark.parametrize(
        "flags, got",
        [((), "x = 1 (the default without --x)"), (("--x", "3/4"), "x = 3/4")],
        ids=["no-x", "x3/4"],
    )
    def test_polylog_shift_outside_its_range_names_the_flag_exit_three(self, capsys, flags, got):
        code, out, err = run_cli(
            capsys, "eval", "--formula", "polylog-14-4", "--s", "2", *flags, "--terms", "10"
        )
        assert (code, out) == (3, "")
        assert err == f"numeric error: the polylog identities take y = --x in (0, 1/2], got {got}\n"

    @pytest.mark.parametrize("q", ["1", "100"])
    def test_digamma_half_sum_power_names_the_formula_and_value_exit_three(self, capsys, q):
        code, out, err = run_cli(
            capsys, "eval", "--formula", "digamma-half-sum", "--q", q, "--terms", "10"
        )
        assert (code, out) == (3, "")
        assert err == f"numeric error: digamma-half-sum supports q in {{2, 4}}, got {q}\n"

    @pytest.mark.parametrize("q", ["0", "-2"])
    def test_shen_order_names_q_and_value_exit_three(self, capsys, q):
        code, out, err = run_cli(capsys, "eval", "--formula", "shen", "--q", q, "--terms", "10")
        assert (code, out) == (3, "")
        assert err == f"numeric error: shen requires an integer q >= 1, got {q}\n"

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

        for name in ("evaluate_against_reference", "convergence_table"):
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

    @pytest.mark.parametrize("command", ["eval", "converge"])
    @pytest.mark.parametrize("value", ["x", "1/2", ""])
    def test_non_numeric_s_names_the_flag(self, capsys, command, value):
        code, out, err = run_cli(
            capsys, command, "--formula", "hasse", f"--s={value}", "--terms", "10"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --s must be a number, got {value!r}\n"

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
            "euler-hurwitz --q 1 --x 200 --terms 1000 --mode fast",
            "euler-hurwitz --q 2 --x 150 --terms 1000 --mode high",
            "stirling-route --q 2 --x 120 --terms 1000",
            "mixed-q --q 4 --x 120 --terms 1000",
            "hasse --s 2 --x 300 --terms 100",
            "hasse --s 2.5 --x 300 --terms 300",
        ],
    )
    def test_large_shift_keeps_a_finite_tail(self, capsys, argv):
        # the tail's factors N^(1+a) and N^(-a), a = x, cancel; formed apart
        # they overflowed a double although the sum is finite
        code, out, err = run_cli(capsys, "eval", "--formula", *argv.split())
        assert (code, err) == (0, "")
        fields = dict(l.split("=", 1) for l in out.splitlines())
        tail, error = float(fields["tail_estimate"]), float(fields["abs_error"])
        assert 0.0 < tail < math.inf
        # the tail is far below the working precision, so what error is left
        # is the rounding of the value and of the reference
        eps = 2.0**-50 if fields["mode"] == "FAST" else 10.0 ** -int(fields["digits"])
        assert error <= tail + eps * abs(float(fields["reference"]))

    @pytest.mark.parametrize("terms", ["0", "-3"])
    def test_terms_below_one_names_the_flag_usage_error(self, capsys, terms):
        code, out, err = run_cli(
            capsys, "eval", "--formula", "euler-hurwitz", "--q", "1", "--terms", terms
        )
        assert (code, out) == (2, "")
        assert err == f"error: --terms must be >= 1, got {terms}\n"

    @pytest.mark.parametrize("terms", ["10000001", "1000000000000"])
    def test_terms_above_the_cap_usage_error(self, capsys, terms):
        code, out, err = run_cli(
            capsys, "eval", "--formula", "zeta2-dup", "--terms", terms, "--mode", "fast"
        )
        assert (code, out) == (2, "")
        assert err == f"error: --terms must be <= 10000000, got {terms}\n"

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

    @pytest.mark.parametrize(
        "formula, x", [("hasse", ("--x", "1/2")), ("alt-hurwitz", ("--x", "1/2")), ("sondow-alt", ())]
    )
    def test_no_reference_names_the_formula_and_s_exit_three(self, capsys, formula, x):
        code, out, err = run_cli(
            capsys, "converge", "--formula", formula, "--s", "0.5", *x, "--terms", "10,20"
        )
        assert (code, out) == (3, "")
        assert err == f"numeric error: {formula} has no reference value at s = 0.5\n"

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

    @pytest.mark.parametrize(
        "flags, s_or_q, x",
        [
            (("--formula", "zeta2-dup"), "", ""),
            (("--formula", "euler-hurwitz", "--q", "3", "--x", "1/2"), "3", "1/2"),
        ],
        ids=["parameterless", "parametered"],
    )
    def test_json_params(self, capsys, flags, s_or_q, x):
        # a parameterless formula prints "" for its parameter, as eval does
        code, out, _ = run_cli(capsys, "converge", *flags, "--terms", "10,20", "--format", "json")
        assert code == 0
        assert json.loads(out)["params"] == {
            "formula": flags[1], "s_or_q": s_or_q, "x": x,
            "terms": "10,20", "digits": "30", "mode": "HIGH",
        }

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

    @pytest.mark.parametrize("terms", ["10,10000001", "10,1000000000000"])
    def test_budget_above_the_cap_usage_error(self, capsys, terms):
        code, out, err = run_cli(
            capsys, "converge", "--formula", "zeta2-dup", f"--terms={terms}", "--mode", "fast"
        )
        assert (code, out) == (2, "")
        assert err == f"error: --terms must be <= 10000000, got {terms.split(',')[-1]}\n"

    @pytest.mark.parametrize("terms", ["10,abc", "1e3", "10,,20", "10,20,"])
    def test_budget_not_integer_usage_error(self, capsys, terms):
        code, out, err = run_cli(
            capsys, "converge", "--formula", "euler-hurwitz", "--q", "1", f"--terms={terms}"
        )
        assert code == 2
        assert out == ""
        assert f"--terms budgets must be integers, got '{terms}'" in err

    def test_empty_budget_list_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "converge", "--formula", "zeta2-dup", "--terms=")
        assert (code, out) == (2, "")
        assert err == "error: --terms requires N1,N2,...\n"


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
        assert err == "error: unknown identity: no_such\n"

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

    @pytest.mark.parametrize(
        "ident, flag, cap",
        [("spiess_15c", "--n-max", 800), ("coppo_30", "--n-max", 400), ("coppo_30", "--q-max", 8)],
    )
    def test_sweep_override_above_its_cap_usage_error(self, capsys, ident, flag, cap):
        code, out, err = run_cli(capsys, "verify", "--id", ident, flag, str(2 * cap))
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be <= {cap} for {ident}, got {2 * cap}\n"

    def test_sweep_override_at_its_cap_accepted(self):
        for ident, key, cap in (("spiess_15c", "n_max", 800), ("coppo_30", "n_max", 400)):
            identity = verify._BY_ID[ident]
            assert verify._merge_overrides(identity, identity.full, {key: cap})[key] == cap

    def test_coppo_caps_bound_the_overrides_together(self, capsys):
        # both at their caps is one sweep of about 5 s; (200, 16), as slow,
        # exceeds the q cap, and (400, 16) took 31 s before the caps were a pair
        identity = verify._BY_ID["coppo_30"]
        merged = verify._merge_overrides(identity, identity.full, {"n_max": 400, "q_max": 8})
        assert (merged["n_max"], merged["q_max"]) == (400, 8)
        for n_max in ("200", "400"):
            argv = ("verify", "--id", "coppo_30", "--n-max", n_max, "--q-max", "16")
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == "error: --q-max must be <= 8 for coppo_30, got 16\n"

    def test_every_integer_sweep_parameter_has_a_cap(self):
        for identity in verify._REGISTRY:
            ints = {k for k, v in identity.full.items() if isinstance(v, int)}
            assert set(identity.caps) == ints, identity.id
            assert all(identity.caps[k] >= identity.full[k] for k in ints), identity.id

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

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_all_quick_stdout_pinned(self, capsys, fmt):
        # the --all envelope and summary line are built as the reports stream;
        # the per-id pins in test_verify do not cover them
        code, out, err = run_cli(capsys, "verify", "--all", "--profile", "quick", "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == ALL_QUICK_SHA256[fmt]

    @pytest.mark.parametrize("fmt, bound_mb", [("json", 4.0), ("text", 1.4)])
    def test_reports_are_not_held(self, capsys, fmt, bound_mb):
        # 4,848 reports, 1.05 MB of JSON or 138 KB of text: holding only the
        # output text peaks at 2.4-2.6 and 0.7-1.0 MB, holding every report and
        # its dict as well at 8.8 and 3.0 MB
        tracemalloc.start()
        try:
            code = cli.main(["verify", "--id", "coppo_30", "--n-max", "100", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < bound_mb * 1e6

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

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", [("--id", "coppo_30", "--n-max", "5"), ("--all",)], ids=str)
    @pytest.mark.parametrize("error", [ValueError, ZeroDivisionError])
    def test_error_while_running_exits_three_naming_the_identity(
        self, capsys, monkeypatch, argv, error, fmt
    ):
        # the reports before the error are held back: stdout stays empty
        from ehz import harmonic

        real = harmonic.coppo_sweep

        def failing(n_max, q_max, x):
            for i, report in enumerate(real(n_max, q_max, x)):
                if i == 3:
                    raise error("boom")
                yield report

        monkeypatch.setattr(harmonic, "coppo_sweep", failing)
        code, out, err = run_cli(capsys, "verify", *argv, "--format", fmt)
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


#: see TestConstants.test_output_pinned_at_every_digit_count
CONSTANTS_SHA256 = "aec7044c15ec5e285dbf54f4ee18af211c3d1b6d5eb908390da22c6b05b4c3e2"


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
        attempt = numerics._em_attempt
        monkeypatch.setattr(numerics, "_em_attempt", lambda *a: calls.append(a[2]) or attempt(*a))
        numerics.clear_caches()
        code, _, _ = run_cli(capsys, "constants", "--digits", digits)
        assert code == 0
        assert len(calls) == 9, calls

    def test_output_pinned_at_every_digit_count(self, capsys):
        # sha256 of the stdout of `constants --digits d` for d = 1..300,
        # concatenated in order; recorded from the mpf engines that the
        # integer ones replaced
        sha = hashlib.sha256()
        for digits in range(1, 301):
            code, out, _ = run_cli(capsys, "constants", "--digits", str(digits))
            assert code == 0
            sha.update(out.encode())
        assert sha.hexdigest() == CONSTANTS_SHA256

    def test_five_digits_catalan(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--digits", "5")
        assert code == 0
        assert "catalan=0.91597" in out.splitlines()

    def test_over_cap(self, capsys):
        code, _, err = run_cli(capsys, "constants", "--digits", "1000000")
        assert code == 2


class TestParser:
    def test_built_once_per_process(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run_cli(capsys, "constants", "--digits", "5")[0] == 0
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_not_built_at_import(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import ehz.cli as c; print(c._parser.cache_info().currsize)"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_a_negative_x_after_its_flag_is_its_value(self, capsys):
        # argparse alone reads the -1/2 of "--x -1/2" as an option and exits 2
        argv = ["verify", "--id", "coppo_30", "--n-max", "3", "--q-max", "2"]
        spaced = run_cli(capsys, *argv, "--x", "-1/2")
        assert spaced == run_cli(capsys, *argv, "--x=-1/2")
        assert spaced[0] == 0 and "x=-1/2" in spaced[1]

    def test_a_negative_s_after_its_flag_is_its_value(self, capsys):
        argv = ["eval", "--formula", "hasse", "--x", "1/2", "--terms", "10"]
        spaced = run_cli(capsys, *argv, "--s", "-1e-3")
        assert spaced == run_cli(capsys, *argv, "--s=-1e-3")
        assert spaced[0] == 0 and "s=-0.001\n" in spaced[1]

    def test_a_negative_x_reaches_the_domain_check(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--formula", "euler-hurwitz", "--q", "2", "--x", "-1/2", "--terms", "10"
        )
        assert (code, out) == (3, "")
        assert "x must be a positive rational" in err

    @pytest.mark.parametrize("flags", [["alt-hurwitz", "--s", "2"], ["euler-hurwitz", "--q", "2"]])
    def test_a_negative_x_reaches_converge_too(self, capsys, flags):
        argv = ["--formula", *flags, "--x", "-1/2", "--terms"]
        code, out, err = run_cli(capsys, "converge", *argv, "10,20")
        assert (code, out) == (3, "")
        # the series, evaluated before the reference, names the problem as eval does
        assert err == run_cli(capsys, "eval", *argv, "10")[2]
        assert err.startswith("numeric error: x must be a positive rational")

    @pytest.mark.parametrize(
        "argv, joined",
        [
            (["--x", "-1/2"], ["--x=-1/2"]),
            (["--s", "-1e-3"], ["--s=-1e-3"]),
            (["--s", "-.5", "--x", "-3"], ["--s=-.5", "--x=-3"]),
            (["--x", "--terms", "5"], ["--x", "--terms", "5"]),  # a flag stays a flag
            (["--x", "-abc"], ["--x", "-abc"]),  # not a number: argparse's usage error
            (["--q", "-2", "--n-max", "-1"], ["--q", "-2", "--n-max", "-1"]),  # argparse's own
            (["--x=-1/2", "-3"], ["--x=-1/2", "-3"]),
        ],
    )
    def test_only_a_negative_value_after_x_or_s_is_joined(self, argv, joined):
        assert cli._join_negative_values(argv) == joined
