import time

import pytest

from ehz import combinatorics as co
from ehz import verify
from ehz.verify import Profile, Report


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


class TestRunAll:
    def test_quick_profile_all_pass(self):
        t0 = time.time()
        reports = verify.run_all(Profile.QUICK)
        elapsed = time.time() - t0
        stats = verify.summarize(reports)
        assert stats["fail"] == 0
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
        reports = verify.run_all(Profile.QUICK)
        failing = {r.identity for r in reports if r.status == "FAIL"}
        assert "coppo_30" in failing


class TestReportSerialization:
    def test_round_trip(self):
        r = Report(
            identity="coppo_30",
            params={"n": "3", "q": "2", "x": "1/2"},
            lhs="736/225",
            rhs="736/225",
            status="PASS",
            detail="",
        )
        assert Report.from_dict(r.to_dict()) == r

    def test_fail_reports_keep_sides_verbatim(self):
        r = verify._exact_report("x", {"n": "1"}, 12345678901234567890, 1)
        assert r.status == "FAIL"
        assert r.lhs == "12345678901234567890"
