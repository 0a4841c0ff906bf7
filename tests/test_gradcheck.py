"""Gradient-checker tests: every kind passes, and corrupted gradients fail."""

import numpy as np
import pytest

from osegnet.gradcheck import (END_TO_END_THRESHOLD, ISOLATED_KINDS,
                               ISOLATED_THRESHOLD, KindResult, check_batchnorm,
                               check_conv, check_dice, check_end_to_end,
                               check_focal, check_oper, check_oper_transpose,
                               rel_error, run_all)
from osegnet.model import Q_ORDERS

CHECKERS = {
    "conv": check_conv,
    "oper": check_oper,
    "oper-transpose": check_oper_transpose,
    "batchnorm": check_batchnorm,
    "dice": check_dice,
    "focal": check_focal,
}


class TestRelError:
    def test_exact_match_is_zero(self):
        g = np.array([1.0, -2.0])
        assert rel_error(g, g) == 0.0

    def test_normalized_by_largest_gradient(self):
        analytic = np.array([100.0, 0.0])
        numeric = np.array([100.1, 0.0])
        assert abs(rel_error(analytic, numeric) - 0.1 / 100.1) < 1e-12

    def test_floor_for_tiny_gradients(self):
        analytic = np.array([1e-5])
        numeric = np.array([0.0])
        assert rel_error(analytic, numeric) == pytest.approx(1e-5 / 1e-2)


class TestIsolatedChecks:
    @pytest.mark.parametrize("kind", ISOLATED_KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_passes(self, kind, seed):
        result = CHECKERS[kind](seed)
        assert result.kind == kind
        assert result.threshold == ISOLATED_THRESHOLD
        assert result.passed, result.line()

    @pytest.mark.parametrize("kind", ISOLATED_KINDS)
    def test_corrupt_gradient_detected(self, kind):
        result = CHECKERS[kind](0, corrupt_kind=kind)
        assert not result.passed, result.line()

    @pytest.mark.parametrize("kind", ISOLATED_KINDS)
    def test_corrupting_one_kind_spares_the_others(self, kind):
        for other, checker in CHECKERS.items():
            result = checker(0, corrupt_kind=kind)
            assert result.passed == (other != kind), (kind, other)

    def test_oper_checks_cover_all_orders(self):
        assert Q_ORDERS == (1, 2, 3, 4, 5)
        result = check_oper(0)
        assert result.worst.startswith("Q")


class TestEndToEnd:
    def test_all_kinds_pass(self):
        results = check_end_to_end(seed=0)
        kinds = {r.kind for r in results}
        assert kinds == {"e2e.conv", "e2e.batchnorm", "e2e.oper-transpose", "e2e.oper"}
        for r in results:
            assert r.threshold == END_TO_END_THRESHOLD
            assert r.passed, r.line()

    def test_worst_label_names_a_parameter(self):
        results = check_end_to_end(seed=0, max_params=4)
        for r in results:
            assert "." in r.worst and r.worst.split(".")[0] in ("encoder", "decoder")

    def test_corrupt_kind_fails_only_that_kind(self):
        results = check_end_to_end(seed=0, corrupt_kind="oper", max_params=4)
        by_kind = {r.kind: r.passed for r in results}
        assert by_kind["e2e.oper"] is False
        assert by_kind["e2e.conv"] is True

    def test_sampling_cap_respected_and_passing(self):
        results = check_end_to_end(seed=1, max_params=2)
        assert all(r.passed for r in results)


class TestRunAll:
    def test_clean_run_reports_all_kinds(self):
        results, ok = run_all(seed=0)
        assert ok
        kinds = [r.kind for r in results]
        assert kinds[:6] == list(ISOLATED_KINDS)
        assert len(kinds) == 10  # four e2e kind rows follow

    def test_corrupt_run_fails(self):
        results, ok = run_all(seed=0, corrupt_kind="batchnorm")
        assert not ok
        failed = {r.kind for r in results if not r.passed}
        assert failed == {"batchnorm", "e2e.batchnorm"}

    def test_line_format(self):
        line = KindResult("conv", 2.5e-4, 1e-3, "kernel").line()
        assert line.startswith("conv")
        assert "2.500e-04" in line and "worst at kernel" in line and line.endswith("ok")
        bad = KindResult("dice", 5.0e-2, 1e-3, "q").line()
        assert bad.endswith("FAIL")
