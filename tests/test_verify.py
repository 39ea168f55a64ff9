import json
import math
import random

import numpy as np
import pytest

from conftest import random_bloch
from qwalk import closedform_mixed, closedform_pure, direct, horner, spectral, verify
from qwalk.arithmetic import Angle
from qwalk.core import (
    CoinParams,
    Distribution,
    MixedLocalizedState,
    PureState,
    max_pointwise_difference,
    total_variation,
)
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
        with pytest.raises(ValueError, match="not valid for a pure"):
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


@pytest.fixture
def no_routes(monkeypatch):
    """Make every route fail, so a test sees a refusal come before them."""

    def route(*args, **kwargs):
        raise AssertionError("a route ran")

    for module, name in [
        (direct, "evolve_pure"),
        (direct, "evolve_mixed"),
        (spectral, "simulate"),
        (closedform_pure, "distribution"),
        (closedform_mixed, "distribution_mixed"),
    ]:
        monkeypatch.setattr(module, name, route)


class TestEvaluate:
    @pytest.mark.parametrize(
        "initial, method",
        [
            (PureState.plus_i(), "umklapp"),
            (PureState.plus_i(), "consistent"),
            (MixedLocalizedState.from_pauli(0.5, 0, 0, 0), "kraus"),
            (MixedLocalizedState.from_pauli(0.5, 0, 0, 0), "closed-form"),
        ],
        ids=["pure-unknown", "pure-mixed-name", "mixed-unknown", "mixed-pure-name"],
    )
    def test_unknown_name_rejected_before_any_route(
        self, no_routes, hadamard, initial, method
    ):
        kind = "mixed" if isinstance(initial, MixedLocalizedState) else "pure"
        with pytest.raises(ValueError, match=rf"\['{method}'\] not valid for a {kind}"):
            verify.evaluate(method, initial, hadamard, 3)

    def test_repeated_method_rejected_before_any_route(self, no_routes, hadamard, plus_i):
        # compare_pure(..., methods=("direct", "direct")) used to pass with
        # an empty pairwise_tv: nothing was compared
        with pytest.raises(ValueError, match=r"\['direct'\] named more than once"):
            compare_pure(plus_i, hadamard, 4, methods=("direct", "spectral", "direct"))
        methods = iter(("consistent", "direct", "consistent"))
        with pytest.raises(ValueError, match=r"\['consistent'\] named more than once"):
            compare_mixed((0.5, 0, 0, 0), 4, methods=methods)

    def test_fewer_than_two_methods_rejected_before_any_route(self, no_routes, hadamard, plus_i):
        # both used to pass with an empty pairwise_tv: nothing was compared
        with pytest.raises(ValueError, match="compare needs at least two methods"):
            compare_pure(plus_i, hadamard, 10, methods=())
        with pytest.raises(ValueError, match="compare needs at least two methods"):
            compare_pure(plus_i, hadamard, 10, methods=("spectral",))
        with pytest.raises(ValueError, match="compare needs at least two methods"):
            compare_mixed((0.5, 0, 0, 0), 5, methods=("direct",))

    @pytest.mark.parametrize("r", [(0.5, 0, 0), (0.5, 0, 0, 0, 0)], ids=["3", "5"])
    def test_pauli_vector_length_checked_before_any_route(self, no_routes, r):
        # three components used to raise TypeError from from_pauli
        with pytest.raises(ValueError, match=r"expected four Pauli components \(r0, r1, r2, r3\)"):
            compare_mixed(r, 3)

    def test_mixed_closed_form_refuses_other_coins(self, no_routes):
        # both calls used to return the Hadamard table, P(0) = 0.125 at
        # t=6, where direct stepping on this coin gives 0.0982
        state = MixedLocalizedState.from_pauli(0.5, 0.3, 0, 0.2)
        coin = CoinParams.make(0.7, 1.1, 2.3)
        with pytest.raises(ValueError, match="Hadamard coin only"):
            verify.evaluate("consistent", state, coin, 6)
        with pytest.raises(ValueError, match="Hadamard coin only"):
            compare_mixed(state, 6, methods=("direct", "consistent"), params=coin)

    @pytest.mark.parametrize(
        "methods",
        [("direct",), ("direct", "consistent"), ("consistent", "literal"), ()],
        ids=["direct", "direct,consistent", "closed-forms", "none"],
    )
    def test_mixed_compare_on_other_coins_refused_once(self, no_routes, methods):
        # these used to refuse in a circle: one method asked for a second,
        # and a closed form sent the caller back to direct alone
        state = MixedLocalizedState.from_pauli(0.5, 0.3, 0, 0.2)
        with pytest.raises(ValueError) as refused:
            compare_mixed(state, 6, methods=methods, params=CoinParams.make(0.3))
        message = str(refused.value)
        assert "only direct holds for a mixed walk on this coin" in message
        assert "nothing to compare" in message
        assert "at least two methods" not in message and "use method" not in message

    def test_evaluate_keeps_its_advice_on_other_coins(self):
        state = MixedLocalizedState.from_pauli(0.5, 0.3, 0, 0.2)
        coin = CoinParams.make(0.3)
        with pytest.raises(ValueError, match="or use method direct"):
            verify.evaluate("consistent", state, coin, 6)
        assert verify.evaluate("direct", state, coin, 6).method == "mixed-direct"

    @pytest.mark.parametrize(
        "initial, params, match",
        [
            (PureState.plus_i(), CoinParams.make(0.7), "eighth-turn grid"),
            (PureState({0: (0.6, 0.8j)}), CoinParams.hadamard(), "exact initial"),
            (MixedLocalizedState.from_pauli(0.5, 0, 0, 0), CoinParams.hadamard(),
             "exact mode applies to pure"),
        ],
        ids=["float-coin", "float-state", "mixed"],
    )
    def test_exact_mode_refused_before_any_route(self, no_routes, initial, params, match):
        with pytest.raises(ValueError, match=match):
            verify.evaluate("direct", initial, params, 3, mode="exact")

    def test_plan_checked_once_per_call(self, monkeypatch, hadamard, plus_i):
        calls = []
        check = verify.check_plan
        monkeypatch.setattr(verify, "check_plan", lambda *a: calls.append(a) or check(*a))
        compare_pure(plus_i, hadamard, 4)
        assert len(calls) == 1
        verify.evaluate("direct", plus_i, hadamard, 4)
        assert len(calls) == 2

    def test_reachable_parities(self):
        assert verify.reachable_parities(PureState.plus_i(3), 4) == {1}
        two = PureState({0: (0.6 + 0j, 0j), 1: (0j, 0.8 + 0j)})
        assert verify.reachable_parities(two, 5) == {0, 1}
        mixed = MixedLocalizedState.from_pauli(0.5, 0, 0, 0)
        assert verify.reachable_parities(mixed, 5) == {1}


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
        with pytest.raises(ValueError, match="not valid for a mixed"):
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

    def test_numpy_integer_t_reads_as_int(self, hadamard, plus_i):
        # the routes took a numpy t, but the report kept it and json.dumps
        # refused it
        assert compare_pure(plus_i, hadamard, np.int64(10)).to_json() == (
            compare_pure(plus_i, hadamard, 10).to_json()
        )
        r = (0.5, 0, 0, 0)
        assert compare_mixed(r, np.int64(5)).to_json() == compare_mixed(r, 5).to_json()

    def test_float_t_rejected_before_any_route(self, no_routes, hadamard, plus_i):
        with pytest.raises(TypeError):
            compare_pure(plus_i, hadamard, 2.0)
        with pytest.raises(TypeError):
            compare_mixed((0.5, 0, 0, 0), 2.0)


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


class TestPairReads:
    def test_each_compared_pair_is_read_once(self, monkeypatch):
        # total variation and the pointwise gap come from one pass over the
        # union of a pair's sites: two reads a site, one from each side
        dists = {
            "a": Distribution({-2: 0.25, 0: 0.5, 2: 0.25}, t=2),
            "b": Distribution({-1: 0.1, 0: 0.4, 1: 0.5}, t=2),
            "c": Distribution({0: 0.5, 2: 0.5, 4: 0.0}, t=2),
        }
        want = {
            verify._pair_key(a, b): (
                total_variation(dists[a], dists[b]),
                max_pointwise_difference(dists[a], dists[b]),
                len(set(dists[a].positions) | set(dists[b].positions)),
            )
            for a, b in (("a", "b"), ("a", "c"), ("b", "c"))
        }
        report = ComparisonReport(kind="pure", t=2, methods=tuple(dists),
                                  tolerances=Tolerances())
        reads = []
        getitem = Distribution.__getitem__

        def counted(self, x):
            reads.append(x)
            return getitem(self, x)

        monkeypatch.setattr(Distribution, "__getitem__", counted)
        verify._check_distributions(report, dists, {0}, False)
        assert len(reads) == 2 * sum(n for _, _, n in want.values())
        for key, (tv, pw, _) in want.items():
            assert report.pairwise_tv[key] == tv
            assert report.pairwise_pointwise[key] == pw


class TestNonFinite:
    def test_nan_amplitude_fails_every_gate(self):
        # every gate is "measure <= bound", which a NaN measure never meets
        state = PureState({0: (complex(math.nan, 0.0), 0j)})
        params = CoinParams(theta=Angle.parse(0.7))
        # the closed form also warns of its NaN total
        with pytest.warns(RuntimeWarning, match="probabilities sum to nan"):
            report = compare_pure(
                state, params, 8, mode="double", check_symmetry=True
            )
        assert report.passed is False
        failures = " ".join(report.failures)
        for gate in (
            "normalization",
            "parity-forbidden",
            "total variation",
            "pointwise",
            "symmetry",
        ):
            assert gate in failures, gate
        assert math.isnan(report.symmetry_defect)


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
        # the power identity needs f_j = 0 for j < 0; a recurrence seeded
        # with f_{-1} = 1 must break U^1 = U at order two (the recurrence
        # of the f_t tables; u_k_power takes f_t in closed form), and L^1,
        # L^2 at order four, where the boundary enters visibly
        def seeded_terms(coeffs, t_max):
            hist = [0] * (len(coeffs) - 2) + [1, 1]  # ..., f_{-1} = 1, f_0
            yield 1
            for _ in range(t_max):
                nxt = sum(c * f for c, f in zip(coeffs, reversed(hist)))
                hist = hist[1:] + [nxt]
                yield nxt

        monkeypatch.setattr(horner, "_f_terms", seeded_terms)
        u = horner.u_k(hadamard, 0.7)
        got = horner.matrix_power(u, horner.quad_coeffs(hadamard, 0.7), 1)
        assert np.max(np.abs(got - u)) > 0.1
        ell = horner.superop(0.3, -0.9)
        for t in (1, 2):
            got = horner.superop_power(0.3, -0.9, t)
            assert np.max(np.abs(got - np.linalg.matrix_power(ell, t))) > 0.1


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
