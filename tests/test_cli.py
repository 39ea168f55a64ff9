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

import qwalk
from qwalk import verify
from qwalk.cli import (
    _build_parser,
    emit_distribution_csv,
    format_probability,
    main,
    parse_distribution_csv,
)
from qwalk.config import MAX_STEPS, WalkConfig
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
        # one line per route on stderr; the report file and stdout are
        # those of a comparison without timings
        methods = ("direct", "spectral", "closed-form")
        cfg = write_config(tmp_path, "walk.json", pure_doc(method=",".join(methods)))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"wrote {out}.json\n"
        lines = captured.err.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"time {m}" for m in methods]
        for line in lines:
            assert re.fullmatch(r"time [a-z-]+: \d+\.\d{6} s", line), line
        written = (tmp_path / "cmp.json").read_text()
        assert "timings" not in written
        cfg_obj = WalkConfig.from_file(cfg)
        report = verify.compare_pure(
            cfg_obj.initial, cfg_obj.params, cfg_obj.steps, methods=methods, mode=cfg_obj.mode
        )
        assert written == report.to_json() + "\n"

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
