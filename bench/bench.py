"""v2xric benchmark: host milliseconds per control tick, end to end and per layer.

    python3 bench/bench.py --workload all-pairs --seed 1 --seconds 30 --trace 0

Runs the workload's command through `v2xric.cli.main`, one fresh process per
repetition, until --seconds have passed, then prints every metric by name and
unit and, as the last line, one JSON object: whether all outputs were correct,
the control ticks attempted and failed, and the metrics (end-to-end with
--trace 0, the per-layer split with --trace 1, which alternates untraced and
traced repetitions). Inputs, outputs and spans go to .bench_work/ in the
checkout. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from operator import itemgetter
from pathlib import Path

from workloads import WORKLOADS, scene_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
MIN_REPS = 3  # per mode; medians need at least three samples
TIME_LIMIT_S = 150.0  # launch no repetition that could end past this
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _machine() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def _run_rep(k: int, trace: bool, cpu: int, workload, scene: int, smoke: bool,
             config: Path, work: Path, env: dict, timeout_s: float) -> dict:
    rep_dir = work / f"rep{k}-{'traced' if trace else 'untraced'}"
    rep_dir.mkdir()
    out = rep_dir / "out"
    spec = {
        "src": str(ROOT / "src"),
        "command": workload.command,
        "argv": [workload.command, "--config", str(config), "--out", str(out)],
        "out": str(out),
        "trace": trace,
        "cpu": cpu,
        "density_veh_km": workload.density_veh_km,
        "scene_seed": scene,
        "vehicles": workload.vehicles,
        "ticks": workload.ticks(smoke),
        "result": str(rep_dir / "result.json"),
        "spans": str(rep_dir / "spans.csv"),
    }
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout_s)
        stderr, rc = proc.stderr, proc.returncode
    except subprocess.TimeoutExpired:
        stderr, rc = f"repetition exceeded {timeout_s:.0f} s", None
    result_path = Path(spec["result"])
    if rc != 0 or not result_path.is_file():
        return {"trace": trace, "ok": False, "ticks": 0, "expected_ticks": spec["ticks"],
                "problems": [f"child exited with {rc}: {stderr.strip()[-2000:]}"],
                "warnings": [], "hashes": {}}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result.update(trace=trace, ok=True, expected_ticks=spec["ticks"])
    return result


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _calibrated(reps: list[dict], value) -> float:
    """Median over repetitions of a time scaled to the reference host's speed.

    Neighbours on a shared host slow every process by 20-60% for minutes at a
    time. Each repetition times a fixed kernel right after its command
    (child.py); scaling by the kernel's speed removes much of such a phase,
    and the median drops single slow repetitions.
    """
    return statistics.median(value(r) * r["speed_scale"] for r in reps)


def _layer_metrics(traced: list[dict], overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer split of the traced repetitions. Times are calibrated like
    tick_ms; counts are the same in every repetition of one config."""
    ticks = sum(r["ticks"] for r in traced)

    def total(name, key):
        return sum(r["layers"][name][key] for r in traced)

    def count(key):
        return sum(r["counts"].get(key, 0) for r in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    def ms(name, key="total_s"):
        return _calibrated(traced, lambda r: 1000.0 * r["layers"][name][key] / r["ticks"]), "ms/tick"

    def per_tick(name):
        return total(name, "calls") / ticks, "1/tick"

    return {
        "scenario.step_mobility.ms": ms("scenario.step_mobility"),
        "scenario.step_mobility.calls": per_tick("scenario.step_mobility"),
        "channel.link_table.ms": ms("channel.link_table"),
        "channel.link_table.calls": per_tick("channel.link_table"),
        "channel.link_table.pairs": (count("channel.link_table.pairs") / ticks, "1/tick"),
        "channel.useful_frac": (ratio(count("ric.graph_edges"),
                                      count("channel.link_table.pairs")), "ratio"),
        "ran.emit_indication.ms": ms("ran.emit_indication"),
        "ran.emit_indication.calls": per_tick("ran.emit_indication"),
        "ran.apply_control.ms": ms("ran.apply_control"),
        "ran.apply_control.calls": per_tick("ran.apply_control"),
        "ric.ingest.ms": ms("ric.ingest"),
        "ric.ingest.calls": per_tick("ric.ingest"),
        "ric.build_graph.ms": ms("ric.build_graph"),
        "ric.graph_nodes": (count("ric.graph_nodes") / ticks, "count"),
        "ric.graph_edges": (count("ric.graph_edges") / ticks, "count"),
        "ric.xapp_tick.self_ms": ms("ric.xapp_tick", "self_s"),
        "ric.messages": (count("ric.messages") / ticks, "1/tick"),
        "ric.pairs_feasible_frac": (ratio(count("ric.pairs_feasible"),
                                          count("ric.pairs_total")), "ratio"),
        "engine.run_with_audit.self_ms": ms("engine.run_with_audit", "self_s"),
        "engine.run_with_audit.calls": (total("engine.run_with_audit", "calls") / len(traced),
                                        "1/cmd"),
        "engine.audit_fail_frac": (ratio(sum(r["paths_failed"] for r in traced),
                                         sum(r["paths_checked"] for r in traced)), "ratio"),
        "cli.main.self_ms": ms("cli.main", "self_s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }


def _check_reps(reps: list[dict], reference: dict | None,
                scene: int) -> tuple[list[str], list[str]]:
    """Problems and warnings of all repetitions. Each repetition's CSV hashes
    must equal the stored reference when this seed has one, else the first
    repetition's; `hash_ok` is set on every repetition."""
    problems: list[str] = []
    warnings: list[str] = []
    expected = reps[0]["hashes"]
    if reference is not None:
        expected = reference["files"]
        if reference["scene_seed"] != scene:
            problems.append(f"scene seed {scene} differs from the reference's "
                            f"{reference['scene_seed']}")
    for k, rep in enumerate(reps):
        name = f"rep {k} ({'traced' if rep['trace'] else 'untraced'})"
        problems.extend(f"{name}: {p}" for p in rep["problems"])
        warnings.extend(w for w in rep["warnings"] if w not in warnings)
        if rep["ok"] and rep["protocol_errors"]:
            problems.append(f"{name}: {rep['protocol_errors']} control protocol errors")
        mismatched = [f for f in sorted(set(expected) | set(rep["hashes"]))
                      if rep["hashes"].get(f) != expected.get(f)]
        problems.extend(f"{name}: sha256 mismatch for {f}" for f in mismatched)
        rep["hash_ok"] = not mismatched
    return problems, warnings


def _load_reference() -> dict:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny simulated durations, for the benchmark's own tests")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this seed's output hashes in bench/reference.json")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run kills the running repetition.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "v2xric" / "__init__.py").is_file():
        print(f"bench: no v2xric sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import v2xric

    if src.resolve() not in Path(v2xric.__file__).resolve().parents:
        print(f"bench: v2xric resolves to {v2xric.__file__}, not the checkout", file=sys.stderr)
        return 2

    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    scene = scene_seed(workload, args.seed)
    machine = _machine()
    work = ROOT / ".bench_work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "input.cfg"
    config.write_text(workload.config_text(scene, args.smoke), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    env.update({name: "1" for name in THREAD_PINS})

    reference = None
    if not (args.smoke or args.write_reference):
        reference = _load_reference().get(workload.name, {}).get(str(args.seed))
    modes = (False, True) if trace else (False,)
    # Repetitions take turns on the CPUs this process may use, one at a time:
    # a busy neighbour on one core then slows only part of the samples.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [None]
    min_reps = (1 if args.smoke else MIN_REPS) * len(modes)
    reps: list[dict] = []
    while True:
        elapsed = time.perf_counter() - started
        longest = max((r.get("wall_s", 0.0) + r.get("setup_s", 0.0) for r in reps), default=0.0)
        if reps and elapsed + 2.0 * longest > TIME_LIMIT_S:
            break
        if len(reps) >= min_reps and elapsed >= args.seconds:
            break
        k = len(reps)
        reps.append(_run_rep(k, modes[k % len(modes)], cpus[k // len(modes) % len(cpus)],
                             workload, scene, args.smoke, config, work, env,
                             TIME_LIMIT_S + 20.0 - elapsed))

    problems, warnings = _check_reps(reps, reference, scene)
    attempted = sum(r["expected_ticks"] for r in reps)
    failed = sum(r["expected_ticks"] if not (r["ok"] and r["hash_ok"])
                 else r["failed_ticks"] + max(0, r["expected_ticks"] - r["ticks"])
                 for r in reps)
    baseline = reps[0]["hashes"]
    good = [r for r in reps if r["ok"]]
    paths_checked = sum(r["paths_checked"] for r in good)
    paths_failed = sum(r["paths_failed"] for r in good)
    correct = not problems and failed == 0 and paths_failed == 0

    untraced = [r for r in good if not r["trace"] and r["ticks"]]
    traced = [r for r in good if r["trace"] and r["ticks"]]
    tick_ms, setup_s = itemgetter("tick_ms"), itemgetter("setup_s")
    end_to_end: dict[str, tuple[float, str]] = {}
    if untraced:
        end_to_end = {
            "tick_ms": (_calibrated(untraced, tick_ms), "ms"),
            "setup_s": (_calibrated(untraced, setup_s), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        }
    print(f"bench: workload={workload.name} seed={args.seed} scene_seed={scene} "
          f"vehicles={workload.vehicles} trace={args.trace} smoke={args.smoke} "
          f"repetitions={len(reps)} ({len(untraced)} untraced, {len(traced)} traced)")
    print("machine: " + " ".join(f"{k}={v!r}" for k, v in machine.items()))
    for name, (value, unit) in end_to_end.items():
        q1, q2, q3 = _quartiles([r[name] for r in untraced])
        print(f"{name} = {value:.6g} {unit}  (raw per repetition: median {q2:.6g}, "
              f"quartiles {q1:.6g} .. {q3:.6g}, n = {len(untraced)})")
    print(f"fail_frac = {failed / attempted if attempted else 0.0:.6g} ratio "
          f"({failed} of {attempted} control ticks)")
    print(f"audit_fail_frac = {paths_failed / paths_checked if paths_checked else 0.0:.6g} "
          f"ratio ({paths_failed} of {paths_checked} audited paths)")

    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        if traced and untraced:
            overhead = _calibrated(traced, tick_ms) / _calibrated(untraced, tick_ms) - 1.0
            metrics = _layer_metrics(traced, overhead)
            for name, (value, unit) in metrics.items():
                print(f"{name} = {value:.6g} {unit}")
        else:
            problems.append("no complete traced and untraced repetition to split")
            correct = False
    else:
        metrics = end_to_end
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    for p in problems[:50]:
        print(f"FAIL {p}")
    if args.write_reference:
        if correct and all(r["hash_ok"] for r in reps):
            data = _load_reference()
            data.setdefault(workload.name, {})[str(args.seed)] = {
                "scene_seed": scene, "files": baseline}
            REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
            print(f"reference: stored {len(baseline)} hashes for {workload.name} seed {args.seed}")
        else:
            print("reference: not stored, the run was not correct")
    elif reference is None and not args.smoke:
        print(f"reference: none stored for seed {args.seed}; "
              "hashes checked against the first repetition only")

    summary = {
        "workload": workload.name, "seed": args.seed, "scene_seed": scene,
        "trace": args.trace, "smoke": args.smoke, "machine": machine,
        "hashes": baseline, "problems": problems, "warnings": warnings,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "repetitions": [{k: r.get(k) for k in ("trace", "ok", "tick_ms", "setup_s",
                                               "peak_rss_mb", "ticks", "failed_ticks")}
                        for r in reps],
    }
    (work / "result.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
