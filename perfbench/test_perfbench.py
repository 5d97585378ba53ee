"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Each test runs `run.py` with `--seconds 0`, which still makes the workload's
minimum rounds, in a copy of the benchmark and the program's sources in a
temporary directory. In the copy every pool holds only its first instance,
and a test may change the program or the reference table there.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402
from run import MIN_ROUNDS, TAIL_PERCENTILE, percentile  # noqa: E402


ONE_INSTANCE = """
WORKLOADS = {name: replace(w, capacities=w.capacities[:1], seeds=w.seeds[:1])
             for name, w in WORKLOADS.items()}
"""


def bench(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def copy_checkout(dest: Path, with_src: bool = True) -> Path:
    """The benchmark (and the program's sources) copied to `dest`, as a checkout
    holds them, with one instance per pool."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    edit(dest / "perfbench" / "workloads.py", "from dataclasses import dataclass\n",
         "from dataclasses import dataclass, replace\n")
    with open(dest / "perfbench" / "workloads.py", "a", encoding="utf-8") as f:
        f.write(ONE_INSTANCE)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


@pytest.fixture(scope="module")
def small(tmp_path_factory) -> Path:
    return copy_checkout(tmp_path_factory.mktemp("checkout"))


def edit(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def units(metrics: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in metrics.items()}


def test_spec_follows_the_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_prints_every_end_to_end_metric(workload, small):
    done = bench(workload, 0, small)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-2].startswith("stamp ")
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * MIN_ROUNDS[workload]  # two solvers, one instance
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert result["metrics"]["eager.ok_frac"]["value"] == 1.0
    assert result["metrics"]["lazy.ok_frac"]["value"] == 1.0


def test_traced_run_prints_every_layer_metric_and_repeats_counts(small):
    first, second = bench("congestion", 1, small), bench("congestion", 1, small)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    a, b = result_of(first), result_of(second)
    assert a["correct"] and b["correct"]
    assert units(a["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [name for name, m in a["metrics"].items() if m["unit"] == "count"]
    assert counts
    assert {n: a["metrics"][n]["value"] for n in counts} == {n: b["metrics"][n]["value"] for n in counts}
    assert a["metrics"]["eager.satcore.conflicts"]["value"] > 0


def test_wrong_reference_cost_fails_the_run(tmp_path):
    checkout = copy_checkout(tmp_path)
    table_path = checkout / "perfbench" / "reference.json"
    table = json.loads(table_path.read_text())
    table["costs"]["congestion"]["s100-c1"] += 1
    table_path.write_text(json.dumps(table))
    done = bench("congestion", 0, checkout)
    assert done.returncode == 1
    result = result_of(done)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 4
    assert result["metrics"]["eager.ok_frac"]["value"] == 0.0
    assert "!= reference" in done.stderr


def test_a_raising_solve_is_a_failed_solve(tmp_path):
    checkout = copy_checkout(tmp_path)
    edit(checkout / "src" / "capmapf" / "satcore.py", "    def _model_ok(self, model: list[bool]) -> bool:\n",
         "    def _model_ok(self, model: list[bool]) -> bool:\n        return False\n")
    done = bench("congestion", 0, checkout)
    assert done.returncode == 1
    result = result_of(done)
    assert result["metrics"]["eager.ok_frac"]["value"] == 0.0
    assert result["metrics"]["lazy.ok_frac"]["value"] == 0.0
    assert "AssertionError" in done.stderr


def test_a_layer_the_tracer_misses_fails_the_traced_run(tmp_path):
    checkout = copy_checkout(tmp_path)
    for path in (checkout / "src" / "capmapf").glob("*.py"):
        path.write_text(path.read_text().replace("extract_plan", "decode_plan"))
    assert bench("congestion", 0, checkout).returncode == 0
    done = bench("congestion", 1, checkout)
    assert done.returncode == 1
    assert not result_of(done)["correct"]
    assert "capmapf.encoder.extract_plan not found" in done.stderr
    assert "encoder.candidates != satcore.sat" in done.stderr


def test_fails_without_the_program(tmp_path):
    done = bench("congestion", 0, copy_checkout(tmp_path, with_src=False))
    assert done.returncode != 0
    assert not done.stdout.strip()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tail_percentile_is_the_highest_with_ten_solves_beyond_it(workload):
    n = MIN_ROUNDS[workload] * len(workloads.WORKLOADS[workload].pool())
    values = [float(i) for i in range(n)]
    q = TAIL_PERCENTILE[workload]
    assert sum(v > percentile(values, q) for v in values) >= 10
    assert sum(v > percentile(values, q + 1) for v in values) < 10
    assert f"p{q} " in next(w["why"] for w in SPEC["workloads"] if w["name"] == workload)
