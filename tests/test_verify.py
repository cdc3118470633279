import hashlib
import math
import sys
import time
from fractions import Fraction

import pytest

from ehz import combinatorics as co
from ehz import verify
from ehz.verify import Profile


class TestRegistry:
    def test_minimum_size(self):
        assert len(verify.identity_ids()) >= 25

    def test_expected_ids_present(self):
        ids = set(verify.identity_ids())
        for ident in (
            "fs_6_1",
            "fs_6_2",
            "fs_6_3",
            "fs_4_general",
            "adamchik_7_1",
            "adamchik_7_2",
            "adamchik_7_3",
            "spiess_15a",
            "spiess_15b",
            "spiess_15c",
            "larcombe_16_1",
            "larcombe_16_4",
            "coppo_30",
            "g_derivative",
            "e44_3",
            "e44_4",
            "e44_7",
            "e44_8",
            "e44_9",
            "e44_10",
            "nH_identity",
            "shen_45_2",
            "alt_2",
            "alt_5",
            "zeta_3",
            "zeta_4",
            "zeta_5",
            "e14_1",
            "e14_2",
            "e41",
            "e43",
            "e43_2",
            "e45_8",
            "e45_10",
            "catalan_equiv",
            "zeta2_37",
            "zeta3_half_45_6",
            "digamma_48_1",
            "digamma_48_3",
        ):
            assert ident in ids, ident


class TestRunIdentity:
    def test_unknown_id(self):
        with pytest.raises(KeyError):
            verify.run_identity("no_such")

    def test_coppo_with_overrides(self):
        reports = verify.run_identity(
            "coppo_30", {"n_max": 30, "q_max": 4, "x": "1/3"}
        )
        assert len(reports) == 31 * 4
        assert all(r.status == "PASS" for r in reports)

    def test_pole_override_skips(self):
        reports = verify.run_identity("coppo_30", {"n_max": 10, "q_max": 2, "x": "0"})
        assert len(reports) == 1
        assert reports[0].status == "SKIP"

    @pytest.mark.parametrize("x, passing", [("-1", 1), ("0", 0)])
    def test_g_derivative_pole_skips(self, x, passing):
        # the product x (x+1) ... (x+n) vanishes once n >= -x
        reports = verify.run_identity("g_derivative", {"x": x})
        assert [r.params["n"] for r in reports] == [str(n) for n in range(0, 51, 5)]
        assert [r.status for r in reports] == ["PASS"] * passing + ["SKIP"] * (11 - passing)
        for r in reports[passing:]:
            assert r.params["x"] == x
            assert r.detail == f"pole at k = {-int(x)}: x = {x} makes k + x vanish"

    def test_fs_identity_full_sweep(self):
        reports = verify.run_identity("fs_6_1")
        assert len(reports) == 200
        assert all(r.status == "PASS" for r in reports)

    def test_numeric_identity(self):
        reports = verify.run_identity("e45_8", {"terms": 20000})
        assert all(r.status == "PASS" for r in reports)
        assert "abs_error" in reports[0].detail

    def test_adamchik_cross_forms_checked(self, monkeypatch):
        from ehz import harmonic

        real = harmonic.alt_binom_sum

        def off_by_one(n, m):
            return real(n, m) + (1 if n == 7 else 0)

        monkeypatch.setattr(harmonic, "alt_binom_sum", off_by_one)
        reports = verify.run_identity("adamchik_7_3", {"n_max": 10})
        assert len(reports) == 10
        failed = [r for r in reports if r.status == "FAIL"]
        assert [r.params for r in failed] == [{"n": "7"}]
        assert failed[0].detail == "cross-forms disagree"
        assert failed[0].rhs.startswith("-2S_n(3)=")

    def test_report_order_is_deterministic(self):
        a = verify.run_identity("larcombe_16_2", {"n_max": 5})
        b = verify.run_identity("larcombe_16_2", {"n_max": 5})
        assert [r.params for r in a] == [r.params for r in b]


class TestExactRoutes:
    def test_pass_report_formats_each_side_once(self):
        big = Fraction(10**60 + 1, 3)
        r = verify._exact_report("x", {"n": "1"}, big, Fraction(big))
        assert r.status == "PASS"
        assert r.lhs == r.rhs == verify._short(big)


class TestRunAll:
    def test_quick_profile_all_pass(self):
        t0 = time.time()
        reports = verify.run_all(Profile.QUICK)
        elapsed = time.time() - t0
        stats = verify.summarize(reports)
        assert stats["fail"] == 0
        assert stats["skip"] == 0
        assert stats["identities"] >= 25
        assert elapsed < 60.0

    def test_corrupted_bell_coefficient_fails_coppo(self, monkeypatch):
        real = co.bell_eval_all

        def corrupted(xs):
            ys = real(xs)
            if len(ys) >= 3:
                ys[2] = ys[2] + 1  # damage Y_2 only
            return ys

        monkeypatch.setattr(co, "bell_eval_all", corrupted)
        # rows memoised by earlier tests would hide the damage from e44_8 and e44_10
        monkeypatch.setattr(co, "_STIRLING_BELL_ROWS", {})
        reports = verify.run_all(Profile.QUICK)
        failing = {r.identity for r in reports if r.status == "FAIL"}
        assert {"coppo_30", "e44_8", "e44_10"} <= failing
        assert co._STIRLING_BELL_ROWS.keys() <= {0, 1}  # no damaged row is memoised


def _bump_bell_y2(monkeypatch):
    """Add 1 to Y_2 of every Bell row, so one side of each check is off."""
    real = co.bell_eval_all

    def corrupted(xs):
        ys = real(xs)
        if len(ys) >= 3:
            ys[2] += 1
        return ys

    monkeypatch.setattr(co, "bell_eval_all", corrupted)


class TestCrossMultipliedMismatches:
    """The integer cross-checks reduce both sides of a mismatch, so a FAIL
    report prints each side as str() of its reduced Fraction."""

    def test_coppo_mismatch_prints_reduced_sides(self, monkeypatch):
        from ehz import harmonic as ha

        _bump_bell_y2(monkeypatch)
        x = Fraction(1, 3)
        reports = verify.run_identity("coppo_30", {"n_max": 6, "q_max": 4, "x": "1/3"})
        rows = list(ha.coppo_rhs_rows(4, x, 6))  # the same corrupted Bell rows
        assert len(reports) == 7 * 4
        for r in reports:
            n, q = int(r.params["n"]), int(r.params["q"])
            if q != 3:
                assert r.status == "PASS"
                continue
            assert r.status == "FAIL"
            assert r.lhs == str(ha.coppo_lhs(n, q, x))
            assert r.rhs == str(rows[n][q - 1]) != r.lhs

    def test_e44_7_mismatch_prints_reduced_sides(self, monkeypatch):
        from ehz import harmonic as ha

        _bump_bell_y2(monkeypatch)
        reports = verify.run_identity("e44_7", {"n_max": 5})
        assert len(reports) == 3 * sum(n + 1 for n in range(1, 6))
        for r in reports:
            n, k_r, u = int(r.params["n"]), int(r.params["r"]), Fraction(r.params["u"])
            if k_r != 2:
                assert r.status == "PASS"
                continue
            row = co.stirling1_row(n)
            lhs = math.factorial(k_r) * sum(
                Fraction((-1) ** (n + k) * row[k] * math.comb(k, k_r)) * u ** (k - k_r)
                for k in range(k_r, n + 1)
            )
            D, bell = ha.signed_bell_row(n, u)
            rhs = math.prod(u + j for j in range(n)) * Fraction(bell[k_r], D**k_r)
            assert r.status == "FAIL"
            assert (r.lhs, r.rhs) == (str(lhs), str(rhs))

    def test_g_derivative_mismatch_prints_reduced_sides(self, monkeypatch):
        from ehz import gamma_tools as gt
        from ehz import harmonic as ha

        real = co.stirling1_row
        monkeypatch.setattr(co, "stirling1_row", lambda n: real(n)[:-1] + (2,))  # x^n gets 2
        reports = verify.run_identity("g_derivative", {"n_max": 5, "x": "7/4"})
        assert [r.params["n"] for r in reports] == [str(n) for n in range(6)]
        x = Fraction(7, 4)
        for n, r in enumerate(reports):
            coeffs = [abs(c) for c in co.stirling1_row(n + 1)]
            p = sum(c * x**i for i, c in enumerate(coeffs))
            dp = sum(i * c * x ** (i - 1) for i, c in enumerate(coeffs) if i)
            lhs = -math.factorial(n) * dp / p**2
            rhs = -gt.gamma_ratio(n, x) * ha.Hx(n + 1, 1, x)
            assert r.status == "FAIL"
            assert (r.lhs, r.rhs) == (str(lhs), str(rhs))


class TestReportSerialization:
    def test_fail_reports_keep_sides_verbatim(self):
        r = verify._exact_report("x", {"n": "1"}, 12345678901234567890, 1)
        assert r.status == "FAIL"
        assert r.lhs == "12345678901234567890"

    def test_sides_beyond_the_int_str_limit(self):
        # 5,072 digits over 4,343: str() of either part raises at the default limit
        big = Fraction(7**6000 + 2, 3**9100 + 1)
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            short = verify._short(big)
            failed = verify._exact_report("x", {"n": "1"}, big, big + 1)
            sys.set_int_max_str_digits(0)
            want = str(big), str(big + 1)
        finally:
            sys.set_int_max_str_digits(limit)
        assert short == want[0][:38] + f"...[{len(want[0])} chars]"
        assert (failed.status, failed.lhs, failed.rhs) == ("FAIL", *want)


#: sha256 of `verify --id <id> --profile quick --format json` stdout for every
#: EXACT identity, pinned so that changes to the exact layer are checked byte
#: for byte (the 23 outputs total about 460 KB).
EXACT_QUICK_SHA256 = {
    "fs_6_1": "df84079f27efa730291d93c12c58567f8e39d84080df3824f6b3f0d7cdd5637a",
    "fs_6_2": "f7031ba45a806013b5f077005573a76f434ab0c8a9914130ac717b94a5818efd",
    "fs_6_3": "e58ace7927b2b9582dd25660fdbcc9f9eef7e7a7599adb814e3cfaabeec3884f",
    "fs_4_general": "b5b7ca989db542d3e5e99909e699ecf048c941e492710fe0bfd8f06a5f33f813",
    "adamchik_7_1": "2b394a7bbbd867bdd35ba31d10debb78a728de2279365587fbfab7031dcc0b56",
    "adamchik_7_2": "9a3f3682d25c13b1eb848fe7eff27d9749af4832b39ffeae530ca2d334f3e75b",
    "adamchik_7_3": "dea1c72b240e5b955679ec9f27c2d1baf58143af72e8ae8f17048f4e9b76e3cd",
    "spiess_15a": "06c96885f521b8cd2c2485026d9fb09def205a9ed6c4048e04f89abd6e6c6057",
    "spiess_15b": "e0bbdd801f931b887316c840db16aacdb3006aa9977ddc5a8d4790470eaa82d9",
    "spiess_15c": "1c93654a72cfdb59c893a8262133f349310b858c9e3ca2d5f0939c27d7de93c5",
    "larcombe_16_1": "0ad32b3f352dee85fceb6a8fb3fe541ab9736313bfe457086117a7ab6cd9ec6b",
    "larcombe_16_2": "752620df53a442d6f8d9fbbcb314f04a426d952a7bb70ead42c9e4f178369fe9",
    "larcombe_16_3": "284b2a2ec3529a0b23ff5587b9238700d2184b4c22523720cbecb0dae36b8d5c",
    "larcombe_16_4": "858cc955f48fc1baadb433cbaa7abfbb28158a38e7957f5943d8c8dd10c5a3e5",
    "coppo_30": "a8edcd7e5827be804f5f1a35dd22dbef7fd77eeaf6545786b81c41e5242ba8e1",
    "g_derivative": "31c75790e6aed0a8f7c6e54110256adf791214d3076ff3aa0b48c18f5ed69945",
    "e44_3": "da4b1a23386f2a2b37aaa0cbe0079313a28d7a18732b9f8e88091f6ae8c6834f",
    "e44_4": "dd87d985f662da172b914d965eef9347ad12a0ffc6173344e5c94a4917b560e7",
    "e44_7": "5bd630b40684330436575e3197931d0cd671dbd328fb8d389679afe8341703a1",
    "e44_8": "8ea35e81c12c1fcfda2113509145c7e28f3cc3691226b292555f9e6d136c60b8",
    "e44_9": "a010b46b949c67ca3f1a6ba6b563e97c09a7b052ab89f79b62fbecbe13b4edf8",
    "e44_10": "ebe2dda6006a0168e17dfbc79dc91d568369ecbbf560bc2c7af61d0d9c8c9ba0",
    "nH_identity": "708b568c72474da98d47787b935207ea18693f75eed949f532d3d6ae0e0f56a7",
}


#: sha256 of `verify --id <id> --profile full --format json` stdout for the
#: identities whose sweeps compare integer cross-products and reduce only the
#: printed side, so that the full grids stay byte-identical too.
EXACT_FULL_SHA256 = {
    "coppo_30": "b00ce2e113c9c53da6f0e51c0c1b6687397407994e9c0f460fdb36ce570db1ad",
    "e44_7": "248b636311bd84843ffd13984aaff17d0c61b5bc7c3c0f1c02f648bd07f4ce71",
    "g_derivative": "3439daef44334ef57cb25b0016c02192ac9a8188ad3f916e6c27905078975ef5",
    "fs_4_general": "c11250e5f7f3f36292f0e5df53c737f6ff1286333881b9ec6b4c67f36add5eeb",
}


def _json_sha256(capsys, ident: str, profile: str) -> str:
    from ehz import cli

    code = cli.main(["verify", "--id", ident, "--profile", profile, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


class TestExactOutputsPinned:
    def test_every_exact_identity_is_pinned(self):
        exact = {i.id for i in verify._REGISTRY if i.kind is verify.Kind.EXACT}
        assert exact == set(EXACT_QUICK_SHA256)

    @pytest.mark.parametrize("ident", sorted(EXACT_QUICK_SHA256))
    def test_quick_json_bytes(self, capsys, ident):
        assert _json_sha256(capsys, ident, "quick") == EXACT_QUICK_SHA256[ident]

    @pytest.mark.parametrize("ident", sorted(EXACT_FULL_SHA256))
    def test_full_json_bytes(self, capsys, ident):
        assert _json_sha256(capsys, ident, "full") == EXACT_FULL_SHA256[ident]
