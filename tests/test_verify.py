import json
import random

import numpy as np
import pytest

from conftest import random_bloch
from qwalk import closedform_pure, horner, verify
from qwalk.core import Distribution
from qwalk.verify import (
    MIXED_COMPARE_METHODS,
    PURE_METHODS,
    ComparisonReport,
    Tolerances,
    compare_mixed,
    compare_pure,
    run_invariant_suite,
)


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.pairwise_tv == 1e-10
        assert tol.pointwise == 1e-10
        assert tol.normalization == 1e-12
        assert tol.symmetry == 1e-12


class TestComparePure:
    def test_three_methods_agree(self, hadamard, plus_i):
        report = compare_pure(plus_i, hadamard, 10)
        assert report.passed
        assert report.failures == []
        assert set(report.pairwise_tv) == {
            "direct|spectral",
            "direct|closed-form",
            "spectral|closed-form",
        }
        for tv in report.pairwise_tv.values():
            assert tv < 1e-11

    def test_symmetry_check(self, hadamard, plus_i):
        report = compare_pure(plus_i, hadamard, 12, check_symmetry=True)
        assert report.symmetry_defect is not None
        assert report.symmetry_defect < 1e-12
        assert report.passed

    def test_zero_tolerances_flag_float_jitter(self, hadamard, plus_i):
        tol = Tolerances(pairwise_tv=0.0, pointwise=0.0)
        report = compare_pure(plus_i, hadamard, 8, tolerances=tol)
        assert not report.passed
        assert any("exceeds" in msg for msg in report.failures)

    def test_forbidden_sites_clean_in_exact_mode(self, hadamard, plus_i):
        report = compare_pure(plus_i, hadamard, 9, mode="exact")
        assert report.passed
        assert report.forbidden_mass["direct"] == 0.0
        assert report.forbidden_mass["closed-form"] == 0.0
        # the momentum path is double precision; dust but no leak
        assert report.forbidden_mass["spectral"] < 1e-24

    def test_unknown_method(self, hadamard, plus_i):
        with pytest.raises(ValueError, match="unknown pure methods"):
            compare_pure(plus_i, hadamard, 2, methods=("direct", "umklapp"))

    def test_negative_t(self, hadamard, plus_i):
        with pytest.raises(ValueError):
            compare_pure(plus_i, hadamard, -3)

    def test_subset_of_methods(self, hadamard, plus_i):
        report = compare_pure(plus_i, hadamard, 5, methods=("direct", "spectral"))
        assert tuple(report.methods) == ("direct", "spectral")
        assert list(report.pairwise_tv) == ["direct|spectral"]

    def test_t_zero_trivial_agreement(self, hadamard, plus_i):
        report = compare_pure(plus_i, hadamard, 0)
        assert report.passed
        for tv in report.pairwise_tv.values():
            assert tv < 1e-15


class TestCompareMixed:
    def test_default_methods_on_unbiased_state(self):
        report = compare_mixed((0.5, 0.0, 0.0, 0.0), 7)
        # w0 is shared by every variant, so even "literal" agrees here
        assert report.passed

    def test_adjudication_state_flags_literal_only(self):
        # r = (1/2, 1/2, 0, 0) separates the variants: the oracle and the
        # consistent table agree, the compact form does not
        report = compare_mixed((0.5, 0.5, 0.0, 0.0), 2)
        assert not report.passed
        assert report.pairwise_pointwise["direct|consistent"] < 1e-12
        assert report.pairwise_pointwise["direct|literal"] > 0.2
        for msg in report.failures:
            assert "literal" in msg

    def test_conjugation_symmetric_state(self):
        # r = (1/2, 0, 1/2, 0): a real coin cannot see r2, so the oracle
        # stays mirror symmetric; the compact form is not symmetric and
        # must be the only thing flagged
        report = compare_mixed((0.5, 0.0, 0.5, 0.0), 5)
        oracle = report.distributions["direct"]
        for y, p in oracle.items():
            assert p == pytest.approx(oracle[-y], abs=1e-13)
        assert not report.passed
        assert report.pairwise_pointwise["direct|consistent"] < 1e-12
        assert report.pairwise_pointwise["direct|literal"] > 1e-3
        assert all("literal" in msg for msg in report.failures)

    def test_pipeline_literal_method_included(self):
        report = compare_mixed(
            (0.5, 0.3, 0.0, 0.2), 4, methods=MIXED_COMPARE_METHODS
        )
        assert "direct|pipeline-literal" in report.pairwise_tv

    def test_random_bloch_consistent_only(self):
        rng = random.Random(7)
        for _ in range(6):
            report = compare_mixed(
                random_bloch(rng),
                rng.randint(0, 10),
                methods=("direct", "consistent"),
            )
            assert report.passed, report.failures

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown mixed methods"):
            compare_mixed((0.5, 0, 0, 0), 2, methods=("direct", "kraus"))

    def test_normalization_recorded_per_method(self):
        report = compare_mixed((0.5, 0, 0, 0), 3)
        assert set(report.normalization_error) == set(report.methods)
        for err in report.normalization_error.values():
            assert err < 1e-12


class TestReportSerialization:
    def test_byte_stable_across_runs(self, hadamard, plus_i):
        a = compare_pure(plus_i, hadamard, 9).to_json()
        b = compare_pure(plus_i, hadamard, 9).to_json()
        assert a == b
        # canonical form: sorted keys, no whitespace
        assert json.loads(a) == json.loads(b)
        assert ": " not in a

    def test_timings_excluded_by_default(self, hadamard, plus_i):
        report = compare_pure(plus_i, hadamard, 4)
        assert "timings" not in json.loads(report.to_json())
        with_timings = json.loads(report.to_json(include_timings=True))
        assert set(with_timings["timings"]) == set(report.methods)

    def test_dict_fields(self, hadamard, plus_i):
        doc = json.loads(compare_pure(plus_i, hadamard, 4).to_json())
        assert doc["kind"] == "pure"
        assert doc["t"] == 4
        assert doc["passed"] is True
        assert "distributions" in doc


class TestForbiddenMassHelper:
    def test_counts_wrong_parity_mass(self):
        dist = Distribution({0: 0.5, 1: 0.25, 2: 0.25}, t=2)
        assert verify._forbidden_mass(dist, {0}) == pytest.approx(0.25)
        assert verify._forbidden_mass(dist, {1}) == pytest.approx(0.75)

    def test_mixed_parity_support_disables_check(self):
        dist = Distribution({0: 0.5, 1: 0.5}, t=2)
        assert verify._forbidden_mass(dist, {0, 1}) == 0.0

    def test_breach_reported_through_compare(self, hadamard, plus_i):
        # a distribution corrupted onto forbidden sites must be caught
        report = compare_pure(plus_i, hadamard, 6)
        dists = {
            "direct": Distribution(
                dict(report.distributions["direct"]), t=6
            ),
            "corrupt": Distribution(
                {x: p for x, p in report.distributions["direct"].items()}
                | {1: 0.01},
                t=6,
            ),
        }
        fresh = ComparisonReport(
            kind="pure",
            t=6,
            methods=("direct", "corrupt"),
            tolerances=Tolerances(),
            pairwise_tv={},
            pairwise_pointwise={},
            normalization_error={},
            forbidden_mass={},
            symmetry_defect=None,
            failures=[],
            distributions={},
        )
        verify._check_distributions(fresh, dists, {0}, False)
        assert any("parity-forbidden" in msg for msg in fresh.failures)
        assert any("normalization" in msg for msg in fresh.failures)


class TestMutationDetection:
    def test_sign_flip_in_cos_family_detected(self, monkeypatch, hadamard, plus_i):
        # flip the sign of every coefficient in one of the six term
        # families; the cross-check must attribute the damage to the
        # closed form, not to the oracle pair
        orig = closedform_pure.term_coefficient

        def flipped(t, family, d, h):
            c = orig(t, family, d, h)
            return -c if family == "alpha_cos" else c

        monkeypatch.setattr(closedform_pure, "term_coefficient", flipped)
        with pytest.warns(RuntimeWarning, match="probabilities sum to"):
            report = compare_pure(plus_i, hadamard, 6)
        assert not report.passed
        assert any("closed-form" in msg for msg in report.failures)
        assert report.pairwise_tv["direct|spectral"] < 1e-11

    def test_row_without_sign_alternation_detected(self, monkeypatch, hadamard, plus_i):
        # a row recurrence that keeps the sign of its first coefficient
        # throughout must be caught and blamed on the closed form
        orig = closedform_pure.coefficient_row

        def unsigned(t, family, d):
            row = orig(t, family, d)
            return [abs(c) if row[0] > 0 else -abs(c) for c in row]

        monkeypatch.setattr(closedform_pure, "coefficient_row", unsigned)
        with pytest.warns(RuntimeWarning, match="probabilities sum to"):
            report = compare_pure(plus_i, hadamard, 6)
        assert not report.passed
        assert any("closed-form" in msg for msg in report.failures)
        assert report.pairwise_tv["direct|spectral"] < 1e-11

    def test_wrong_f_boundary_detected(self, monkeypatch, hadamard):
        # the power identity needs f_{-1} = 0; smuggling in f_{-1} = 1
        # must break U^0 = I visibly
        def bad_pair(seq, t):
            return seq[t], (seq[t - 1] if t >= 1 else 1)

        monkeypatch.setattr(horner, "_f_pair", bad_pair)
        u = horner.u_k_power(hadamard, 0.7, 0)
        assert np.max(np.abs(u - np.eye(2))) > 0.1


class TestInvariantSuite:
    def test_default_sweep_passes(self):
        report = run_invariant_suite(seed=1, pure_cases=6, mixed_cases=4, max_t=8)
        assert report.passed, report.failures
        assert report.max_closed_vs_direct < 1e-10
        assert report.max_spectral_vs_direct < 1e-10
        assert report.max_mixed_vs_direct < 1e-10
        assert report.max_norm_defect < 1e-12

    def test_deterministic_for_fixed_seed(self):
        a = run_invariant_suite(seed=5, pure_cases=3, mixed_cases=2, max_t=6)
        b = run_invariant_suite(seed=5, pure_cases=3, mixed_cases=2, max_t=6)
        assert a.to_json() == b.to_json()

    def test_json_fields(self):
        doc = json.loads(
            run_invariant_suite(seed=2, pure_cases=2, mixed_cases=1, max_t=4).to_json()
        )
        assert doc["seed"] == 2
        assert doc["passed"] is True

    def test_constants_exported(self):
        assert PURE_METHODS == ("direct", "spectral", "closed-form")
        assert MIXED_COMPARE_METHODS == (
            "direct",
            "consistent",
            "literal",
            "pipeline-literal",
        )
