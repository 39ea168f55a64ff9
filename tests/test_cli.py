import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import qwalk
from qwalk.cli import (
    emit_distribution_csv,
    format_probability,
    main,
    parse_distribution_csv,
)

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"


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

    def test_missing_config_flag(self, capsys):
        assert main(["run"]) == 2
        assert "--config PATH is required" in capsys.readouterr().err

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
