"""One benchmark repetition in a fresh interpreter.

    python3 bench/child.py SPEC.json

Times importing `v2xric` and building the workload's scene (the set-up),
runs the command through `v2xric.cli.main` with the generated config, times a
fixed calibration kernel after the command, checks
every run it observes through the `engine.run_with_audit` hook, hashes the
CSVs the command wrote and writes the result as JSON to the path the spec
names. A fresh process per repetition gives each its own import time and
peak memory. The parent (bench.py) sets PYTHONPATH to the checkout's `src`
and names the CPU the repetition is pinned to.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


# Wall seconds the calibration kernel takes on the reference host (2-core Xeon
# sandbox, Python 3.11, numpy 2.4); see README.md.
CALIBRATION_REF_S = 0.024


def _calibration_s(repeats: int = 5) -> float:
    """Fastest of `repeats` runs of a fixed kernel in the simulator's mix:
    small tuples, dicts and floats, then a fresh 48 MB array (above glibc's
    largest mmap threshold, so its pages are faulted in anew every time)."""
    import numpy as np

    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        table = {(i % 977, i): float(i) for i in range(20_000)}
        a = np.ones(6_000_000)
        a *= 1.000001
        a += sum(table.values())
        best = min(best, time.perf_counter() - started)
    return best


def _check_runs(runs) -> tuple[list[set[int]], list[str]]:
    """Failed tick indices per run, plus a description of each failure kind.

    A tick fails when relay connectivity is below direct-only connectivity or
    a value lies outside [0, 1]. Across sweep cells (same seed, coupled
    outage draws) a tick also fails when a p_b = 1 cell is not exactly zero,
    or when connectivity rises with p_b at a fixed threshold or with the
    threshold at a fixed p_b.
    """
    failed: list[set[int]] = [set() for _ in runs]
    problems: list[str] = []
    for r, (records, _audit) in enumerate(runs):
        for k, rec in enumerate(records):
            if not (0.0 <= rec.direct_connectivity <= rec.connectivity <= 1.0):
                failed[r].add(k)
        if failed[r]:
            problems.append(f"run {r}: {len(failed[r])} ticks with relay < direct "
                            "or a value outside [0, 1]")

    cells = {(recs[0].gamma_min_db, recs[0].p_b): r for r, (recs, _) in enumerate(runs) if recs}
    if len(cells) < 2:
        return failed, problems
    for (gamma, p_b), r in cells.items():
        if p_b == 1.0:
            bad = {k for k, rec in enumerate(runs[r][0]) if rec.connectivity != 0.0}
            if bad:
                failed[r] |= bad
                problems.append(f"cell gamma={gamma:g} p_b=1: {len(bad)} ticks not exactly zero")

    def non_increasing(lo_key, hi_key, label):
        if lo_key not in cells or hi_key not in cells:
            return
        lo, hi = runs[cells[lo_key]][0], runs[cells[hi_key]][0]
        bad = {k for k, (a, b) in enumerate(zip(lo, hi)) if b.connectivity > a.connectivity}
        if bad:
            failed[cells[hi_key]] |= bad
            problems.append(f"{label}: connectivity rises at {len(bad)} ticks")

    gammas = sorted({g for g, _ in cells})
    p_bs = sorted({p for _, p in cells})
    for g in gammas:
        for lo, hi in zip(p_bs, p_bs[1:]):
            non_increasing((g, lo), (g, hi), f"gamma={g:g}: p_b {lo:g} -> {hi:g}")
    for p in p_bs:
        for lo, hi in zip(gammas, gammas[1:]):
            non_increasing((lo, p), (hi, p), f"p_b={p:g}: gamma {lo:g} -> {hi:g}")
    return failed, problems


def _check_summary(path: Path) -> list[str]:
    """Each threshold row of a blockage summary must be non-increasing in p_b
    and exactly zero at p_b = 1."""
    rows: dict[float, list[tuple[float, float]]] = {}
    with path.open(encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(float(row["gamma_min_db"]), []).append(
                (float(row["p_b"]), float(row["connectivity_mean"])))
    problems = []
    for gamma, series in rows.items():
        series.sort()
        means = [m for _, m in series]
        if any(b > a for a, b in zip(means, means[1:])):
            problems.append(f"summary gamma={gamma:g}: not non-increasing in p_b: {means}")
        if series[-1][0] == 1.0 and series[-1][1] != 0.0:
            problems.append(f"summary gamma={gamma:g}: p_b=1 mean {series[-1][1]!r} != 0")
    return problems


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if spec["cpu"] is not None:
        os.sched_setaffinity(0, {spec["cpu"]})

    started = time.perf_counter()
    import v2xric
    from v2xric import cli, engine, scenario

    world = engine.WorldConfig()
    layout = scenario.build_intersection(world.arm_length_m, world.road_width_m,
                                         world.building_setback_m, world.building_height_m)
    vehicles = scenario.spawn_vehicles(layout, scenario.TrafficConfig(
        density_veh_km=spec["density_veh_km"], seed=spec["scene_seed"]))
    scenario.default_rsus(layout, mast_height_m=world.rsu_mast_height_m)
    setup_s = time.perf_counter() - started

    src = Path(spec["src"]).resolve()
    if src not in Path(v2xric.__file__).resolve().parents:
        print(f"v2xric imported from {v2xric.__file__}, not from {src}", file=sys.stderr)
        return 2

    from spans import HOOKS, RUN_HOOK, Tracer

    tracer = Tracer([name for name, _, _ in HOOKS] if spec["trace"] else [RUN_HOOK])
    tracer.install()
    t0 = time.perf_counter()
    try:
        rc = cli.main(spec["argv"])
    finally:
        wall_s = time.perf_counter() - t0
        restored = tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration_s = _calibration_s()  # after the peak is read: it allocates 48 MB

    problems = []
    if len(vehicles) != spec["vehicles"]:
        problems.append(f"scene has {len(vehicles)} vehicles, expected {spec['vehicles']}")
    if not restored:
        problems.append("a patched attribute was not restored after the run")
    if rc != 0:
        problems.append(f"v2xric exited with code {rc}")
    failed, check_problems = _check_runs(tracer.runs)
    problems.extend(check_problems)
    out = Path(spec["out"])
    if rc == 0 and spec["command"] == "sweep-blockage":
        problems.extend(_check_summary(out / "summary.csv"))

    ticks = sum(len(records) for records, _ in tracer.runs)
    if ticks != spec["ticks"]:
        problems.append(f"observed {ticks} control ticks, expected {spec['ticks']}")
    hashes = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(out.rglob("*.csv"))}
    totals = tracer.totals()
    warnings = list(tracer.warnings)
    warnings.extend(f"hook {name}: never called, calls = 0"
                    for name, entry in totals.items()
                    if entry["calls"] == 0 and not any(w.startswith(f"hook {name}:")
                                                       for w in warnings))
    if spec["trace"]:
        tracer.write_spans(spec["spans"])

    result = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "speed_scale": CALIBRATION_REF_S / calibration_s,
        "ticks": ticks,
        "failed_ticks": sum(len(f) for f in failed),
        "tick_ms": 1000.0 * wall_s / ticks if ticks else None,
        "peak_rss_mb": peak_rss_mb,
        "paths_checked": sum(audit.paths_checked for _, audit in tracer.runs),
        "paths_failed": sum(audit.paths_failed for _, audit in tracer.runs),
        "protocol_errors": sum(audit.protocol_errors for _, audit in tracer.runs),
        "hashes": hashes,
        "layers": totals,
        "counts": dict(tracer.counts),
        "problems": problems,
        "warnings": warnings,
    }
    Path(spec["result"]).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
