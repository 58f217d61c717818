"""Smoke test of the serving benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q servebench/smoke.py

Every workload runs untraced and traced on a small city for about a
second of queries. The result line must be well formed, list every
metric of its mode with the unit of BENCHMARK.json, and report zero
failed operations.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark command, from this directory)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _main(workload: str, trace: int, capsys, monkeypatch) -> str:
    """One small run in this process, through the command's own entry
    point; returns what it printed."""
    monkeypatch.chdir(ROOT)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace)]
    assert run.main(argv, small=True) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [w["name"] for w in _spec()["workloads"]]
)
def test_workload_runs_clean(workload: str, trace: int, capsys,
                             monkeypatch) -> None:
    out = _main(workload, trace, capsys, monkeypatch)
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _spec()[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


def test_refuses_without_the_program(tmp_path) -> None:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", "road-hot", "--seed", "3", "--seconds", "1",
         "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
