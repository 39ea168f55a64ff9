import argparse
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qwalk
from qwalk import cli, verify
from qwalk.cli import (
    FT_T_MAX,
    _build_parser,
    emit_distribution_csv,
    format_probability,
    main,
    parse_distribution_csv,
)
from qwalk.config import MAX_STEPS, WalkConfig
from qwalk.core import Distribution
from qwalk.verify import MIXED_COMPARE_METHODS, PURE_METHODS, evaluate

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def pure_doc(**overrides):
    doc = {
        "coin": {"theta": "1/4 pi"},
        "initial": {
            "pure": [{"x": 0, "alpha": "1/2 sqrt2", "beta": [0, "1/2 sqrt2"]}]
        },
        "steps": 6,
        "method": "closed-form",
    }
    doc.update(overrides)
    return doc


def mixed_doc(pauli, **overrides):
    doc = {
        "coin": {"theta": "1/4 pi"},
        "initial": {"mixed": {"pauli": pauli}},
        "steps": 4,
        "method": "direct,consistent,literal",
    }
    doc.update(overrides)
    return doc


class TestRun:
    def test_writes_csv_and_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "walk.json", pure_doc())
        out = str(tmp_path / "result")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        assert "wrote" in capsys.readouterr().out
        csv_text = (tmp_path / "result.csv").read_text()
        assert csv_text.startswith("position,probability\n")
        doc = json.loads((tmp_path / "result.json").read_text())
        assert doc["t"] == 6
        assert doc["method"] == "closed-form"
        assert sum(doc["probabilities"].values()) == pytest.approx(1.0)

    def test_single_parity_rows_only(self, tmp_path):
        cfg = write_config(tmp_path, "walk.json", pure_doc(steps=5))
        out = str(tmp_path / "odd")
        main(["run", "--config", cfg, "--out", out])
        rows = parse_distribution_csv((tmp_path / "odd.csv").read_text())
        assert [x for x, _ in rows] == list(range(-5, 6, 2))

    def test_steps_zero_single_row(self, tmp_path):
        cfg = write_config(
            tmp_path, "walk.json", pure_doc(steps=0, method="direct")
        )
        out = str(tmp_path / "t0")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        assert (tmp_path / "t0.csv").read_text() == (
            "position,probability\n0,1.0\n"
        )

    def test_two_methods_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "walk.json", pure_doc(method="direct,spectral")
        )
        assert main(["run", "--config", cfg]) == 2
        assert "exactly one method" in capsys.readouterr().err

    def test_removed_beta_cross_phase_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "walk.json", pure_doc(beta_cross_phase="phi1"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "unknown keys ['beta_cross_phase']" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()

    def test_nan_pauli_rejected(self, tmp_path, capsys):
        # NaN passed the trace and positivity checks, and direct stepping
        # then wrote a CSV of nan
        doc = mixed_doc([0.5, math.nan, 0, 0], method="direct")
        cfg = write_config(tmp_path, "walk.json", doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "config.initial.mixed.pauli" in err and "not finite" in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("cell", [["a", 0], [None, 0]], ids=["string", "null"])
    def test_bad_rho_cell_rejected(self, tmp_path, capsys, cell):
        doc = mixed_doc(None, method="direct")
        doc["initial"] = {"mixed": {"rho": [[cell, 0], [0, 0.5]]}}
        cfg = write_config(tmp_path, "walk.json", doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "config.initial.mixed.rho[0][0]" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "alpha, beta", [(2.0, 0.0), (1, 1)], ids=["float", "exact"]
    )
    def test_unnormalized_pure_state_rejected(self, tmp_path, capsys, alpha, beta):
        # |psi|^2 = 4 used to parse, and direct stepping then wrote
        # probabilities summing to 4.000000000000001 with exit 0
        doc = pure_doc(
            coin={"theta": 0.7},
            initial={"pure": [{"x": 0, "alpha": alpha, "beta": beta}]},
            steps=4,
            method="direct",
        )
        cfg = write_config(tmp_path, "walk.json", doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "config.initial.pure" in err and "normalization" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "walk.json"]

    def test_non_finite_values_written_as_null(self, tmp_path):
        # past the float range the double closed form holds inf and nan,
        # which json.dumps writes as the bare tokens Infinity and NaN
        doc = pure_doc(
            coin={"theta": 0.7},
            initial={"pure": [{"x": 0, "alpha": 0.6, "beta": [0.0, 0.8]}]},
            steps=600,
            mode="double",
            method="direct,closed-form",
        )
        cfg = write_config(tmp_path, "walk.json", doc)
        run, cmp = str(tmp_path / "run"), str(tmp_path / "cmp")
        with pytest.warns(RuntimeWarning, match="probabilities sum to"):
            code = main(["run", "--config", cfg, "--method", "closed-form", "--out", run])
        assert code == 0
        with pytest.warns(RuntimeWarning, match="probabilities sum to"):
            assert main(["compare", "--config", cfg, "--out", cmp]) == 1

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        written = json.loads((tmp_path / "run.json").read_text(), parse_constant=refuse)
        report = json.loads((tmp_path / "cmp.json").read_text(), parse_constant=refuse)
        assert None in written["probabilities"].values()
        assert None in report["distributions"]["closed-form"].values()

    def test_repeated_method_rejected(self, tmp_path, capsys, monkeypatch):
        # "direct,direct" used to exit 0 with "passed": true and an empty
        # pairwise_tv, by flag and by config alike
        monkeypatch.setattr(verify, "_route", lambda *a: pytest.fail("a route ran"))
        ok = write_config(tmp_path, "ok.json", pure_doc(method="direct,closed-form"))
        twice = write_config(tmp_path, "twice.json", pure_doc(method="direct,direct"))
        out = str(tmp_path / "o")
        for argv in (["--config", ok, "--method", "direct,direct"], ["--config", twice]):
            assert main(["compare", *argv, "--out", out]) == 2
            err = capsys.readouterr().err
            assert "method: ['direct'] named more than once" in err
            assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.json", "twice.json"]

    def test_missing_config_flag(self, capsys):
        assert main(["run"]) == 2
        assert "--config PATH is required" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare", "plot-data"])
    def test_absurd_steps_refused_before_any_route(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def no_route(*args):
            raise AssertionError("a route ran")

        monkeypatch.setattr(verify, "_route", no_route)
        ok = write_config(tmp_path, "ok.json", pure_doc(method="direct,closed-form"))
        huge = write_config(
            tmp_path, "huge.json", pure_doc(method="direct,closed-form", steps=10**11)
        )
        out = str(tmp_path / "o")
        one_method = [] if command == "compare" else ["--method", "direct"]
        for argv, where in (
            (["--config", ok, "--steps", "100000000000"], "--steps 100000000000"),
            (["--config", ok, "--steps", str(MAX_STEPS + 1)], f"--steps {MAX_STEPS + 1}"),
            (["--config", huge], "config.steps: 100000000000"),
        ):
            assert main([command, *argv, *one_method, "--out", out]) == 2
            err = capsys.readouterr().err
            assert f"{where} is above the limit of {MAX_STEPS}" in err
            assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json", "ok.json"]

    @pytest.mark.parametrize("command", ["run", "compare", "plot-data"])
    def test_negative_steps_refused(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(verify, "_route", lambda *a: pytest.fail("a route ran"))
        cfg = write_config(tmp_path, "ok.json", pure_doc(method="direct,closed-form"))
        one_method = [] if command == "compare" else ["--method", "direct"]
        argv = [command, "--config", cfg, "--steps", "-1", *one_method]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "--steps expected a non-negative integer" in err
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["ok.json"]

    def test_integer_past_the_digit_limit_rejected(self, tmp_path, capsys):
        # json.load refuses an integer literal of more than 4300 digits
        # with a plain ValueError, not a JSONDecodeError (where Python has
        # no such limit, MAX_STEPS refuses it)
        text = json.dumps(pure_doc(steps=7)).replace('"steps": 7', '"steps": 1' + "0" * 5000)
        path = tmp_path / "walk.json"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "limit" in err and "Traceback" not in err

    def test_method_and_steps_overrides(self, tmp_path):
        cfg = write_config(tmp_path, "walk.json", pure_doc())
        out = str(tmp_path / "o")
        code = main(
            ["run", "--config", cfg, "--method", "spectral", "--steps", "3", "--out", out]
        )
        assert code == 0
        doc = json.loads((tmp_path / "o.json").read_text())
        assert doc["method"] == "spectral"
        assert doc["t"] == 3

    def test_mode_override(self, tmp_path):
        cfg = write_config(tmp_path, "walk.json", pure_doc(mode="exact"))
        out = str(tmp_path / "m")
        main(["run", "--config", cfg, "--mode", "double", "--out", out])
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["mode"] == "double"

    def test_invalid_override_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "walk.json", pure_doc())
        assert main(["run", "--config", cfg, "--method", "consistent"]) == 2
        assert "not valid for a pure walk" in capsys.readouterr().err

    def test_mixed_run(self, tmp_path):
        cfg = write_config(
            tmp_path, "mixed.json", mixed_doc([0.5, 0, 0, 0], method="consistent")
        )
        out = str(tmp_path / "mx")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        rows = parse_distribution_csv((tmp_path / "mx.csv").read_text())
        assert sum(p for _, p in rows) == pytest.approx(1.0)

    def test_mixed_run_labels_float_mode(self, tmp_path):
        cfg = str(CONFIG_DIR / "mixed_unbiased_t25.json")
        out = str(tmp_path / "unb")
        assert main(["run", "--config", cfg, "--method", "consistent", "--out", out]) == 0
        doc = json.loads((tmp_path / "unb.json").read_text())
        assert doc["method"] == "mixed-consistent"
        assert doc["mode"] == "double"

    @pytest.mark.parametrize(
        "method, doc",
        [(m, pure_doc(steps=7)) for m in PURE_METHODS]
        + [(m, mixed_doc([0.5, 0.3, 0.1, -0.2], steps=7))
           for m in MIXED_COMPARE_METHODS],
        ids=[f"pure-{m}" for m in PURE_METHODS]
        + [f"mixed-{m}" for m in MIXED_COMPARE_METHODS],
    )
    def test_run_writes_what_evaluate_returns(self, tmp_path, method, doc):
        path = write_config(tmp_path, "walk.json", doc)
        out = str(tmp_path / "r")
        assert main(["run", "--config", path, "--method", method, "--out", out]) == 0
        cfg = WalkConfig.from_file(path)
        want = evaluate(method, cfg.initial, cfg.params, cfg.steps, cfg.mode)
        # seven steps from the origin reach the odd sites only
        sites = [x for x in want.positions if x % 2 == 1]
        rows = parse_distribution_csv((tmp_path / "r.csv").read_text())
        assert rows == [(x, want[x]) for x in sites]
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["method"] == want.method and doc["mode"] == want.mode
        assert doc["probabilities"] == {str(x): want[x] for x in sites}

    def test_mixed_closed_form_rejects_other_coins(self, tmp_path, capsys):
        # the mixed closed forms hold for the Hadamard coin only; without
        # the check this run wrote the Hadamard distribution with exit 0
        doc = mixed_doc(
            [0.5, 0, 0, 0.5], coin={"theta": "1/3 pi"}, steps=6, method="direct"
        )
        cfg = write_config(tmp_path, "mixed.json", doc)
        out = str(tmp_path / "mx")
        assert main(["run", "--config", cfg, "--method", "consistent", "--out", out]) == 2
        assert '"1/4 pi"' in capsys.readouterr().err
        assert not (tmp_path / "mx.csv").exists()
        assert main(["run", "--config", cfg, "--out", out]) == 0


class TestCompare:
    def test_agreement_exits_zero(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "walk.json", pure_doc(method="direct,spectral,closed-form")
        )
        out = str(tmp_path / "cmp")
        assert main(["compare", "--config", cfg, "--out", out]) == 0
        doc = json.loads((tmp_path / "cmp.json").read_text())
        assert doc["passed"] is True

    def test_timings_on_stderr_only(self, tmp_path, capsys):
        # one line per route on stderr, then the adaptive closed form's
        # working precision; the report file and stdout are those of a
        # comparison without either
        methods = ("direct", "spectral", "closed-form")
        cfg = write_config(tmp_path, "walk.json", pure_doc(method=",".join(methods)))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"wrote {out}.json\n"
        *lines, precision = captured.err.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"time {m}" for m in methods]
        for line in lines:
            assert re.fullmatch(r"time [a-z-]+: \d+\.\d{6} s", line), line
        # steps 6: the largest trinomial has 5 bits
        assert precision == "precision closed-form: 69 bits (5 + 64 guard)"
        written = (tmp_path / "cmp.json").read_text()
        assert "timings" not in written
        cfg_obj = WalkConfig.from_file(cfg)
        report = verify.compare_pure(
            cfg_obj.initial, cfg_obj.params, cfg_obj.steps, methods=methods, mode=cfg_obj.mode
        )
        assert written == report.to_json() + "\n"

    @pytest.mark.parametrize(
        "doc",
        [pure_doc(method="direct,spectral"), pure_doc(method="direct,closed-form", mode="exact"),
         mixed_doc([0.5, 0, 0, 0])],
    )
    def test_precision_only_for_the_adaptive_closed_form(self, tmp_path, capsys, doc):
        cfg = write_config(tmp_path, "walk.json", doc)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "cmp")]) == 0
        assert "precision" not in capsys.readouterr().err

    def test_breach_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "mixed.json", mixed_doc([0.5, 0.5, 0, 0], steps=2))
        out = str(tmp_path / "adj")
        assert main(["compare", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "FAIL" in err and "literal" in err
        doc = json.loads((tmp_path / "adj.json").read_text())
        assert doc["passed"] is False

    def test_expect_discrepancy_confirms(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "mixed.json", mixed_doc([0.5, 0.5, 0, 0], steps=2))
        out = str(tmp_path / "adj2")
        code = main(
            ["compare", "--config", cfg, "--out", out, "--expect-discrepancy"]
        )
        assert code == 0
        assert "expected discrepancy confirmed" in capsys.readouterr().out

    def test_expect_discrepancy_fails_when_all_agree(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "mixed.json", mixed_doc([0.5, 0, 0, 0]))
        out = str(tmp_path / "agree")
        code = main(
            ["compare", "--config", cfg, "--out", out, "--expect-discrepancy"]
        )
        assert code == 1
        assert "expected a literal-method discrepancy" in capsys.readouterr().err

    def test_nan_amplitude_rejected(self, tmp_path, capsys):
        # the config used to parse; compare then failed its gates with
        # exit 1 and run wrote a CSV of nan with exit 0
        doc = pure_doc(
            coin={"theta": 0.7},
            initial={"pure": [{"x": 0, "alpha": math.nan, "beta": 0.0}]},
            steps=8,
            mode="double",
            method="direct,spectral,closed-form",
        )
        cfg = write_config(tmp_path, "walk.json", doc)
        out = str(tmp_path / "cmp")
        assert main(["compare", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config.initial.pure[0].alpha" in err and "finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "cmp.json").exists()

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "1e400"], ids=["nan", "inf", "overflow"]
    )
    def test_non_finite_tolerance_rejected(self, tmp_path, capsys, literal):
        # a NaN bound switched its gate off; json.load reads all three
        doc = pure_doc(method="direct,spectral,closed-form")
        text = json.dumps({**doc, "tolerances": {"pointwise": 0.0}})
        path = tmp_path / "walk.json"
        path.write_text(text.replace('"pointwise": 0.0', f'"pointwise": {literal}'))
        out = str(tmp_path / "cmp")
        assert main(["compare", "--config", str(path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config.tolerances.pointwise" in err and "finite" in err
        assert not (tmp_path / "cmp.json").exists()

    def test_single_method_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "walk.json", pure_doc())
        assert main(["compare", "--config", cfg]) == 2
        assert "at least two methods" in capsys.readouterr().err

    def test_report_is_byte_stable(self, tmp_path):
        cfg = write_config(
            tmp_path, "walk.json", pure_doc(method="direct,closed-form")
        )
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        main(["compare", "--config", cfg, "--out", out1])
        main(["compare", "--config", cfg, "--out", out2])
        assert (tmp_path / "r1.json").read_bytes() == (
            tmp_path / "r2.json"
        ).read_bytes()


class TestFtTable:
    def test_fibonacci_table(self, tmp_path):
        out = str(tmp_path / "fib")
        code = main(
            ["ft-table", "--kind", "quad", "--coeffs", "1,1", "--t-max", "6", "--out", out]
        )
        assert code == 0
        lines = (tmp_path / "fib.csv").read_text().strip().splitlines()
        assert lines[0] == "t,f_explicit,f_recurrence,abs_diff"
        values = [line.split(",") for line in lines[1:]]
        assert [v[1] for v in values] == ["1.0", "1.0", "2.0", "3.0", "5.0", "8.0", "13.0"]
        assert all(v[3] == "0.0" for v in values)

    def test_quartic_random_coeffs_agree(self, tmp_path):
        out = str(tmp_path / "quartic")
        code = main(
            ["ft-table", "--kind", "quartic", "--seed", "9", "--t-max", "12", "--out", out]
        )
        assert code == 0
        lines = (tmp_path / "quartic.csv").read_text().strip().splitlines()
        assert len(lines) == 14
        for line in lines[1:]:
            assert float(line.split(",")[3]) <= 1e-12

    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ["--kind", "quartic", "--seed", "9", "--t-max", "12"],
                "6a9d40ba0767e0f4b946ce07158a9b431098130aefbced9ff53ceb0380acc796",
            ),
            (
                ["--kind", "quad", "--coeffs", "1,1", "--t-max", "20"],
                "ccada828a725ef00d7679bf3166b73576dd3989ea55ab976d42eea12b51ccba8",
            ),
        ],
        ids=["quartic-seed9", "fibonacci"],
    )
    def test_pinned_bytes(self, tmp_path, args, digest):
        # SHA-256 of the tables written by the separate quadratic and
        # quartic implementations that the order-generic one replaced
        out = str(tmp_path / "ft")
        assert main(["ft-table", *args, "--out", out]) == 0
        data = (tmp_path / "ft.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_coeff_count_validated(self, tmp_path, capsys):
        assert main(["ft-table", "--kind", "quartic", "--coeffs", "1,2"]) == 2
        assert "quartic needs 4" in capsys.readouterr().err

    @pytest.mark.parametrize("coeffs", ["nan,inf", "1,-inf", "nan,1"])
    def test_non_finite_coeffs_refused(self, tmp_path, capsys, coeffs):
        # it used to exit 0 with a table of nan
        out = str(tmp_path / "ft")
        argv = ["ft-table", "--kind", "quad", "--coeffs", coeffs, "--t-max", "3", "--out", out]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"--coeffs: expected finite numbers, got {coeffs}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["quad", "quartic"])
    def test_t_max_above_the_limit_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, kind
    ):
        def no_table(*args):
            raise AssertionError("f_t was tabulated")

        monkeypatch.setattr(cli, "f_explicit", no_table)
        out = str(tmp_path / "ft")
        for t_max in (FT_T_MAX + 1, 100000000):
            argv = ["ft-table", "--kind", kind, "--t-max", str(t_max), "--out", out]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"--t-max {t_max} is above the limit of {FT_T_MAX}" in err
            assert "Traceback" not in err
        # the limit itself passes the check and reaches the table
        with pytest.raises(AssertionError, match="tabulated"):
            main(["ft-table", "--kind", kind, "--t-max", str(FT_T_MAX), "--out", out])
        assert list(tmp_path.iterdir()) == []


class TestPlotData:
    def test_svg_and_dat(self, tmp_path):
        cfg = write_config(tmp_path, "walk.json", pure_doc(steps=8))
        out = str(tmp_path / "fig")
        assert main(["plot-data", "--config", cfg, "--out", out]) == 0
        svg = (tmp_path / "fig.svg").read_text()
        assert svg.startswith("<svg") and "<rect" in svg and "</svg>" in svg
        dat = (tmp_path / "fig.dat").read_text()
        lines = dat.strip().splitlines()
        assert lines[0] == "# position probability"
        parsed = [line.split() for line in lines[1:]]
        assert sum(float(p) for _, p in parsed) == pytest.approx(1.0)

    def test_drop_forbidden_sites(self, tmp_path):
        cfg = write_config(tmp_path, "walk.json", pure_doc(steps=8))
        full, half = str(tmp_path / "full"), str(tmp_path / "half")
        main(["plot-data", "--config", cfg, "--out", full])
        main(
            ["plot-data", "--config", cfg, "--out", half, "--drop-forbidden-sites"]
        )
        n_full = len((tmp_path / "full.dat").read_text().strip().splitlines()) - 1
        n_half = len((tmp_path / "half.dat").read_text().strip().splitlines()) - 1
        assert n_full == 17
        assert n_half == 9


class TestHelpers:
    def test_csv_round_trip_is_byte_identical(self):
        pairs = [(-2, 0.25), (0, 0.5), (2, 0.25)]
        text = emit_distribution_csv(pairs)
        assert emit_distribution_csv(parse_distribution_csv(text)) == text

    def test_format_probability_repr(self):
        assert format_probability(0.5) == "0.5"
        assert format_probability(1.0) == "1.0"
        assert format_probability(1 / 3) == repr(1 / 3)

    def test_bad_csv_rejected(self):
        with pytest.raises(ValueError):
            parse_distribution_csv("wrong,header\n0,1.0\n")


class TestShippedConfigs:
    def test_symmetric_t40_run(self, tmp_path):
        out = str(tmp_path / "fig1")
        cfg = str(CONFIG_DIR / "hadamard_symmetric_t40.json")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        rows = parse_distribution_csv((tmp_path / "fig1.csv").read_text())
        assert [x for x, _ in rows] == list(range(-40, 41, 2))
        probs = dict(rows)
        for x, p in probs.items():
            assert p == pytest.approx(probs[-x], abs=1e-12)

    def test_adjudication_compare(self, tmp_path, capsys):
        out = str(tmp_path / "adj")
        cfg = str(CONFIG_DIR / "mixed_coherent_adjudication.json")
        code = main(
            ["compare", "--config", cfg, "--out", out, "--expect-discrepancy"]
        )
        assert code == 0
        capsys.readouterr()

    def test_unbiased_t25_compare(self, tmp_path):
        out = str(tmp_path / "unb")
        cfg = str(CONFIG_DIR / "mixed_unbiased_t25.json")
        assert main(["compare", "--config", cfg, "--out", out]) == 0
        doc = json.loads((tmp_path / "unb.json").read_text())
        assert doc["passed"] is True


def test_readme_synopsis_names_the_parser_flags():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    documented: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("qwalk "):
            command = line.split()[1]
        documented.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    (sub,) = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    defined = {
        name: {f for a in p._actions for f in a.option_strings if f.startswith("--")}
        - {"--help"}
        for name, p in sub.choices.items()
    }
    assert documented == defined


def test_python_dash_m_runs_the_cli():
    # the package directory's parent goes on the path, so the subprocess
    # imports this checkout whatever the caller's PYTHONPATH
    src = str(pathlib.Path(qwalk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "qwalk", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "usage: qwalk" in done.stdout


def test_cli_runs_without_undeclared_modules(tmp_path):
    # scipy and sympy may be installed but are not dependencies, and the
    # test tools are not needed at run time: every command must run with
    # none of them importable
    src = str(pathlib.Path(qwalk.__file__).resolve().parents[1])
    hadamard = str(CONFIG_DIR / "hadamard_symmetric_t40.json")
    commands = [
        ["run", "--config", hadamard],
        ["compare", "--config", hadamard, "--method", "direct,spectral,closed-form",
         "--mode", "exact"],
        ["compare", "--config", hadamard, "--method", "direct,spectral,closed-form",
         "--mode", "adaptive"],
        ["compare", "--config", str(CONFIG_DIR / "mixed_unbiased_t25.json")],
        ["ft-table"],
        ["plot-data", "--config", hadamard],
    ]
    script = (
        "import json, sys\n"
        "for name in ('scipy', 'sympy', 'hypothesis', 'pytest'):\n"
        "    sys.modules[name] = None\n"
        "from qwalk import cli\n"
        "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    code = cli.main([*argv, '--out', f'{sys.argv[2]}/out{i}'])\n"
        "    if code:\n"
        "        sys.exit(f'{argv} exited {code}')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert len(list(tmp_path.iterdir())) >= len(commands)


@pytest.mark.parametrize("command", ["run", "compare", "ft-table", "plot-data"])
def test_unwritable_output_exits_two(tmp_path, capsys, command):
    # an output file that cannot be opened is bad input, not a failed check
    out = str(tmp_path / "missing" / "x")
    argv = {
        "run": ["--config", str(CONFIG_DIR / "hadamard_symmetric_t40.json")],
        "compare": [
            "--config", str(CONFIG_DIR / "hadamard_symmetric_t40.json"),
            "--method", "direct,closed-form",
        ],
        "ft-table": ["--t-max", "3"],
        "plot-data": ["--config", str(CONFIG_DIR / "hadamard_symmetric_t40.json")],
    }[command]
    assert main([command, *argv, "--out", out]) == 2
    captured = capsys.readouterr()
    assert f"error: cannot write {out}." in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


_SHIPPED = {
    name: str(CONFIG_DIR / f"{name}.json")
    for name in (
        "hadamard_symmetric_t40", "mixed_coherent_adjudication", "mixed_unbiased_t25",
    )
}
_FUZZ_CONFIGS = [*_SHIPPED, "offgrid", "malformed", "empty", "missing", "directory"]


@st.composite
def _fuzz_argv(draw):
    """A command line from pieces that each parse or fail in their own way."""
    command = draw(st.sampled_from(["run", "compare", "ft-table", "plot-data"]))
    argv = [command]

    def maybe(flag, values):
        value = draw(st.sampled_from([None, *values]))
        if value is not None:
            argv.extend([flag, value])

    if command == "ft-table":
        maybe("--kind", ["quad", "quartic", "cubic"])
        maybe("--t-max", ["-1", "0", "3", str(FT_T_MAX + 1), "x"])
        maybe("--coeffs", ["1,1", "1", "1,1,1,1", "nan,1", "a,b", ""])
        maybe("--seed", ["0", "7", "x"])
    else:
        argv.extend(["--config", draw(st.sampled_from(_FUZZ_CONFIGS))])
        maybe("--method", [
            "direct", "direct,spectral", "direct,closed-form,spectral", "consistent",
            "direct,consistent,literal", "direct,direct", "bogus", ",", "",
        ])
        maybe("--steps", ["-1", "0", "5", str(MAX_STEPS + 1), "2.5", "x"])
        maybe("--mode", ["exact", "adaptive", "double", "quad"])
        if command == "compare" and draw(st.booleans()):
            argv.append("--expect-discrepancy")
        if command == "plot-data" and draw(st.booleans()):
            argv.append("--drop-forbidden-sites")
    argv.extend(["--out", draw(st.sampled_from(["writable", "unwritable"]))])
    return argv


@given(_fuzz_argv())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_cli_fuzz_exits_zero_one_or_two(tmp_path, capsys, monkeypatch, argv):
    # no walk runs: every route returns a one-site distribution at once
    monkeypatch.setattr(
        verify, "_route",
        lambda method, initial, params, t, mode: Distribution({0: 1.0}, t=t, method=method),
    )
    configs = {
        **_SHIPPED,
        "offgrid": write_config(tmp_path, "offgrid.json", {
            "coin": {"theta": 0.7, "phi1": 1.1, "phi2": 2.3},
            "initial": {"pure": [{"x": 0, "alpha": 0.6}, {"x": 3, "beta": [0, 0.8]}]},
            "steps": 6,
        }),
        "malformed": str(tmp_path / "malformed.json"),
        "empty": str(tmp_path / "empty.json"),
        "missing": str(tmp_path / "missing.json"),
        "directory": str(tmp_path),
    }
    (tmp_path / "malformed.json").write_text('{"coin": {"theta": "1/4 pi"},')
    (tmp_path / "empty.json").write_text("")
    (tmp_path / "out").mkdir(exist_ok=True)
    outs = {"writable": str(tmp_path / "out" / "o"), "unwritable": str(tmp_path / "no" / "o")}
    argv = [configs.get(a, outs.get(a, a)) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses the command line
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
