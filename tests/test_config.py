import json
from fractions import Fraction
import math

import pytest

from qwalk.arithmetic import SqrtTwo
from qwalk.core import MixedLocalizedState, PureState
from qwalk.config import (
    MAX_STEPS,
    ConfigError,
    WalkConfig,
    parse_amplitude_component,
)


def base_doc(**overrides):
    doc = {
        "coin": {"theta": "1/4 pi"},
        "initial": {
            "pure": [{"x": 0, "alpha": "1/2 sqrt2", "beta": [0, "1/2 sqrt2"]}]
        },
        "steps": 4,
    }
    doc.update(overrides)
    return doc


class TestAmplitudeComponent:
    def test_exact_strings(self):
        assert parse_amplitude_component("1/2 sqrt2") == SqrtTwo(0, Fraction(1, 2))
        assert parse_amplitude_component("-3/4") == SqrtTwo(Fraction(-3, 4), 0)
        assert parse_amplitude_component("2sqrt2") == SqrtTwo(0, 2)
        assert parse_amplitude_component("0") == SqrtTwo(0, 0)

    def test_integers_are_exact(self):
        assert parse_amplitude_component(3) == SqrtTwo(3, 0)

    def test_floats_stay_float(self):
        got = parse_amplitude_component(0.25)
        assert isinstance(got, float) and got == 0.25

    def test_garbage_rejected(self):
        for bad in ("sqrt3", "1/0", "", "one half", True, None, [1]):
            with pytest.raises(ConfigError):
                parse_amplitude_component(bad)


class TestPureInitial:
    def test_exact_state_built(self):
        cfg = WalkConfig.from_dict(base_doc())
        assert not cfg.is_mixed
        assert cfg.initial.exact
        assert float(cfg.initial.norm_sq_exact()) == 1.0

    def test_float_state_built(self):
        doc = base_doc(
            initial={"pure": [{"x": 1, "alpha": 0.6, "beta": [0.0, 0.8]}]}
        )
        cfg = WalkConfig.from_dict(doc)
        assert not cfg.initial.exact
        a, b = cfg.initial.amplitude(1)
        assert a == 0.6 and b == 0.8j

    def test_mixing_strings_and_floats_rejected(self):
        doc = base_doc(
            initial={"pure": [{"x": 0, "alpha": "1/2 sqrt2", "beta": 0.707}]}
        )
        with pytest.raises(ConfigError, match="cannot mix"):
            WalkConfig.from_dict(doc)

    def test_duplicate_site_rejected(self):
        doc = base_doc(
            initial={
                "pure": [
                    {"x": 0, "alpha": 1},
                    {"x": 0, "beta": 1},
                ]
            }
        )
        with pytest.raises(ConfigError, match="duplicate site"):
            WalkConfig.from_dict(doc)

    def test_delocalized_support(self):
        doc = base_doc(
            initial={
                "pure": [
                    {"x": -1, "alpha": 0.6},
                    {"x": 2, "beta": [0.0, 0.8]},
                ]
            }
        )
        cfg = WalkConfig.from_dict(doc)
        assert cfg.initial.support == (-1, 2)

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "1e400"], ids=["nan", "inf", "overflow"]
    )
    def test_non_finite_amplitude_rejected(self, literal):
        # json.load reads all three as floats; a NaN state used to parse
        text = json.dumps(
            base_doc(initial={"pure": [{"x": 0, "alpha": [0.5, 0.0], "beta": 0.0}]})
        ).replace("0.5", literal)
        with pytest.raises(
            ConfigError, match=r"config.initial.pure\[0\].alpha\[0\]: expected a finite"
        ):
            WalkConfig.from_dict(json.loads(text))

    def test_non_integer_x(self):
        doc = base_doc(initial={"pure": [{"x": 0.5, "alpha": 1}]})
        with pytest.raises(ConfigError, match="x must be an integer"):
            WalkConfig.from_dict(doc)


class TestMixedInitial:
    def test_pauli_form(self):
        doc = base_doc(initial={"mixed": {"pauli": [0.5, 0.1, 0.2, 0.3]}})
        cfg = WalkConfig.from_dict(doc)
        assert cfg.is_mixed
        assert cfg.initial.pauli == (0.5, 0.1, 0.2, 0.3)

    def test_rho_form(self):
        doc = base_doc(
            initial={"mixed": {"rho": [[0.5, [0, -0.1]], [[0, 0.1], 0.5]]}}
        )
        cfg = WalkConfig.from_dict(doc)
        r = cfg.initial.pauli
        assert r[0] == pytest.approx(0.5)
        assert r[2] == pytest.approx(0.1)

    def test_both_forms_rejected(self):
        doc = base_doc(
            initial={"mixed": {"pauli": [0.5, 0, 0, 0], "rho": [[1, 0], [0, 0]]}}
        )
        with pytest.raises(ConfigError, match="exactly one of 'pauli' or 'rho'"):
            WalkConfig.from_dict(doc)

    def test_invalid_bloch_vector_rejected(self):
        doc = base_doc(initial={"mixed": {"pauli": [0.7, 0.0, 0.0, 0.0]}})
        with pytest.raises(ConfigError, match="not a valid coin density matrix"):
            WalkConfig.from_dict(doc)

    def test_non_psd_rho_rejected(self):
        doc = base_doc(initial={"mixed": {"pauli": [0.5, 0.5, 0.3, 0.0]}})
        with pytest.raises(ConfigError, match="not a valid"):
            WalkConfig.from_dict(doc)

    def test_pure_and_mixed_both_given(self):
        doc = base_doc()
        doc["initial"]["mixed"] = {"pauli": [0.5, 0, 0, 0]}
        with pytest.raises(ConfigError, match="exactly one of 'pure' or 'mixed'"):
            WalkConfig.from_dict(doc)


class TestStrictKeys:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys.*'seed'"):
            WalkConfig.from_dict(base_doc(seed=3))

    def test_unknown_coin_key(self):
        doc = base_doc(coin={"theta": "1/4 pi", "phi3": 0})
        with pytest.raises(ConfigError, match="config.coin: unknown keys"):
            WalkConfig.from_dict(doc)

    def test_unknown_site_key(self):
        doc = base_doc(initial={"pure": [{"x": 0, "alpha": 1, "gamma": 2}]})
        with pytest.raises(ConfigError, match="unknown keys.*'gamma'"):
            WalkConfig.from_dict(doc)

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing keys.*'steps'"):
            WalkConfig.from_dict(
                {"coin": {"theta": 0.5}, "initial": {"pure": [{"x": 0, "alpha": 1}]}}
            )


class TestAngles:
    def test_string_grid_angles(self):
        cfg = WalkConfig.from_dict(base_doc(coin={"theta": "1/4 pi", "phi1": "-1/2 pi"}))
        assert cfg.params.theta.radians == pytest.approx(math.pi / 4)
        assert cfg.params.phi1.radians == pytest.approx(-math.pi / 2 % (2 * math.pi))

    def test_float_angle(self):
        cfg = WalkConfig.from_dict(base_doc(coin={"theta": 0.3}, mode="adaptive"))
        assert cfg.params.theta.radians == pytest.approx(0.3)

    def test_bad_angle_string(self):
        with pytest.raises(ConfigError, match="config.coin.theta"):
            WalkConfig.from_dict(base_doc(coin={"theta": "half a pi"}))


class TestMethodAndMode:
    def test_method_comma_string(self):
        cfg = WalkConfig.from_dict(base_doc(method="direct, spectral"))
        assert cfg.methods == ("direct", "spectral")

    def test_method_list(self):
        cfg = WalkConfig.from_dict(base_doc(method=["closed-form"]))
        assert cfg.methods == ("closed-form",)

    def test_pure_method_names_validated(self):
        with pytest.raises(ConfigError, match="not valid for a pure"):
            WalkConfig.from_dict(base_doc(method="consistent"))

    def test_mixed_method_names_validated(self):
        doc = base_doc(
            initial={"mixed": {"pauli": [0.5, 0, 0, 0]}},
            method="spectral",
        )
        with pytest.raises(ConfigError, match="not valid for a mixed"):
            WalkConfig.from_dict(doc)

    def test_mixed_methods_accepted(self):
        doc = base_doc(
            initial={"mixed": {"pauli": [0.5, 0, 0, 0]}},
            method="direct,consistent,literal,pipeline-literal",
        )
        cfg = WalkConfig.from_dict(doc)
        assert len(cfg.methods) == 4

    def test_mixed_closed_forms_need_hadamard_coin(self):
        doc = base_doc(
            coin={"theta": "1/4 pi", "phi1": "1/2 pi"},
            initial={"mixed": {"pauli": [0.5, 0, 0, 0]}},
            method="direct,consistent",
        )
        with pytest.raises(ConfigError, match="Hadamard coin only"):
            WalkConfig.from_dict(doc)
        cfg = WalkConfig.from_dict(dict(doc, method="direct"))
        assert cfg.methods == ("direct",)

    def test_default_method_is_direct(self):
        assert WalkConfig.from_dict(base_doc()).methods == ("direct",)

    def test_exact_mode_accepted_for_exact_setup(self):
        cfg = WalkConfig.from_dict(base_doc(mode="exact"))
        assert cfg.mode == "exact"

    def test_exact_mode_needs_grid_angles(self):
        with pytest.raises(ConfigError, match="eighth-turn grid"):
            WalkConfig.from_dict(base_doc(coin={"theta": 0.785}, mode="exact"))

    def test_exact_mode_needs_exact_amplitudes(self):
        doc = base_doc(
            initial={"pure": [{"x": 0, "alpha": 0.6, "beta": 0.8}]},
            mode="exact",
        )
        with pytest.raises(ConfigError, match="exact initial amplitudes"):
            WalkConfig.from_dict(doc)

    def test_exact_mode_rejected_for_mixed(self):
        doc = base_doc(
            initial={"mixed": {"pauli": [0.5, 0, 0, 0]}}, mode="exact"
        )
        with pytest.raises(ConfigError, match="exact mode applies to pure"):
            WalkConfig.from_dict(doc)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="config.mode"):
            WalkConfig.from_dict(base_doc(mode="quadruple"))


class TestMisc:
    def test_steps_validation(self):
        for bad in (-1, 2.5, "3", True):
            with pytest.raises(ConfigError, match="config.steps"):
                WalkConfig.from_dict(base_doc(steps=bad))

    def test_steps_limit(self):
        assert WalkConfig.from_dict(base_doc(steps=MAX_STEPS)).steps == MAX_STEPS
        for bad in (MAX_STEPS + 1, 10**11):
            with pytest.raises(ConfigError, match=rf"config.steps: {bad} is above the limit"):
                WalkConfig.from_dict(base_doc(steps=bad))

    def test_tolerances_override(self):
        cfg = WalkConfig.from_dict(base_doc(tolerances={"pairwise_tv": 1e-8}))
        assert cfg.tolerances.pairwise_tv == 1e-8
        # untouched fields keep their defaults
        assert cfg.tolerances.pointwise == 1e-10

    def test_bad_tolerance_value(self):
        with pytest.raises(ConfigError, match="non-negative number"):
            WalkConfig.from_dict(base_doc(tolerances={"pairwise_tv": -1}))

    def test_unknown_tolerance_key(self):
        with pytest.raises(ConfigError, match="config.tolerances"):
            WalkConfig.from_dict(base_doc(tolerances={"tv": 1e-8}))

    def test_output_path(self):
        cfg = WalkConfig.from_dict(base_doc(output="runs/out"))
        assert cfg.output == "runs/out"
        with pytest.raises(ConfigError, match="config.output"):
            WalkConfig.from_dict(base_doc(output=7))

    def test_beta_cross_phase(self):
        # the two spellings of the cross phase are equal, so the key that
        # chose between them is gone and is rejected like any unknown key
        with pytest.raises(
            ConfigError, match=r"unknown keys \['beta_cross_phase'\]"
        ):
            WalkConfig.from_dict(base_doc(beta_cross_phase="phi1"))

    def test_initial_property(self):
        cfg = WalkConfig.from_dict(base_doc())
        assert isinstance(cfg.initial, PureState) and not cfg.is_mixed
        mixed_cfg = WalkConfig.from_dict(
            base_doc(initial={"mixed": {"pauli": [0.5, 0, 0, 0]}})
        )
        assert isinstance(mixed_cfg.initial, MixedLocalizedState)
        assert mixed_cfg.is_mixed


class TestFromFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "walk.json"
        path.write_text(json.dumps(base_doc()))
        cfg = WalkConfig.from_file(str(path))
        assert cfg.steps == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            WalkConfig.from_file(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{steps: 4")
        with pytest.raises(ConfigError, match="not valid JSON"):
            WalkConfig.from_file(str(path))

    def test_shipped_configs_parse(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1] / "configs"
        parsed = [WalkConfig.from_file(str(p)) for p in sorted(root.glob("*.json"))]
        assert len(parsed) >= 3
