"""Self-tests of the benchmark, on its smoke mode (tiny simulated durations).

    python3 -m pytest bench
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from spans import HOOKS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload: str, trace: int, seed: int = 1) -> tuple[list[str], dict, Path]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "bench.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    work = ROOT / ".bench_work" / f"{workload}-seed{seed}-trace{trace}"
    return lines, json.loads(lines[-1]), work


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    lines, result, _work = _bench(workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in declared:
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                   for line in lines[:-1]), m["name"]
    for name in ("fail_frac", "audit_fail_frac"):
        assert any(line.startswith(f"{name} = ") for line in lines[:-1])


def test_two_invocations_write_identical_outputs():
    hashes = []
    for _ in range(2):
        _lines, result, work = _bench("all-pairs", 0, seed=5)
        assert result["correct"] is True
        hashes.append(json.loads((work / "result.json").read_text())["hashes"])
    assert hashes[0] == hashes[1]
    assert set(hashes[0]) == {"metrics.csv", "summary.csv"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_hooks_fire_where_the_workload_exercises_them(workload):
    _lines, result, work = _bench(workload, 1)
    assert result["correct"] is True
    traced = [json.loads(p.read_text()) for p in sorted(work.glob("rep*-traced/result.json"))]
    assert traced
    for rep in traced:
        for name in WORKLOADS[workload].hooks:
            assert rep["layers"][name]["calls"] > 0, name
    grid = WORKLOADS[workload].cells
    assert result["metrics"]["engine.run_with_audit.calls"]["value"] == grid


def test_missing_hook_reports_zero_calls_and_everything_is_restored(monkeypatch):
    from v2xric import engine, ran

    monkeypatch.delattr(ran, "emit_indication")
    modules = {module: importlib.import_module(f"v2xric.{module}") for _, module, _ in HOOKS}
    originals = {(module, attr): getattr(modules[module], attr, None)
                 for _name, module, attr in HOOKS}
    tracer = Tracer([name for name, _, _ in HOOKS])
    tracer.install()
    assert engine.run_with_audit is not originals[("engine", "run_with_audit")]
    assert tracer.restore() is True
    for (module, attr), original in originals.items():
        assert getattr(modules[module], attr, None) is original, (module, attr)
    assert tracer.totals()["ran.emit_indication"]["calls"] == 0
    assert any("ran.emit_indication" in w and "calls = 0" in w for w in tracer.warnings)
