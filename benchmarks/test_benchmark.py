"""Tests of the benchmark itself: the independent reference against values
worked by hand, and a smoke run of every workload that checks the output
schema (never a time, so it cannot flake)."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

HADAMARD = reference.coin(math.pi / 4, 0.0, 0.0)
PLUS_I = {0: (1 / math.sqrt(2), 1j / math.sqrt(2))}


@pytest.mark.parametrize(
    "t, expected",
    [
        (1, {-1: 1 / 2, 1: 1 / 2}),
        (2, {-2: 1 / 4, 0: 1 / 2, 2: 1 / 4}),
        (3, {-3: 1 / 8, -1: 3 / 8, 1: 3 / 8, 3: 1 / 8}),
    ],
)
def test_reference_hadamard_by_hand(t, expected):
    got = reference.pure_distribution(PLUS_I, HADAMARD, t)
    assert set(got) == set(range(-t, t + 1))
    for x, p in got.items():
        assert p == pytest.approx(expected.get(x, 0.0), abs=1e-15)


def test_reference_mixed_by_linearity():
    # (|0> + i|1>)/sqrt2 has rho = I/2 + Y/2; the unbiased state averages
    # the two coin basis walks.
    t = 7
    pure = reference.pure_distribution(PLUS_I, HADAMARD, t)
    mixed = reference.mixed_distribution((0.5, 0.0, 0.5, 0.0), HADAMARD, t)
    up = reference.pure_distribution({0: (1, 0)}, HADAMARD, t)
    down = reference.pure_distribution({0: (0, 1)}, HADAMARD, t)
    unbiased = reference.mixed_distribution((0.5, 0.0, 0.0, 0.0), HADAMARD, t)
    for y in range(-t, t + 1):
        assert mixed[y] == pytest.approx(pure[y], abs=1e-15)
        assert unbiased[y] == pytest.approx((up[y] + down[y]) / 2, abs=1e-15)


def test_smoke_every_workload(tmp_path, capsys):
    assert run.main(["--smoke"], out_dir=tmp_path) == 0
    results = [json.loads(line) for line in capsys.readouterr().out.splitlines()
               if line.startswith("{")]
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert len(results) == 2 * len(workloads)
    for i, result in enumerate(results):
        expected = SPEC["per_layer"] if i % 2 else SPEC["end_to_end"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in expected
        }
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [sys.executable, *SPEC["command"][1:],
            "--workload", "pure-grid", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_a_request_that_raises_fails_untimed(capsys):
    sys.path.insert(0, str(run.SRC))
    import workloads

    def crash():
        raise RuntimeError("boom")

    requests = [workloads.Request("ok", lambda: 1, lambda out: []),
                workloads.Request("crash", crash, lambda out: [])]
    result = run._run_round("demo", requests)
    assert result.failed == 1
    assert len(result.raw) == len(result.factors) == len(result.request_ids) == 1
    assert "FAIL demo crash: RuntimeError: boom" in capsys.readouterr().err
