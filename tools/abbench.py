"""A/B benchmark of this checkout against a parent checkout.

    python3 tools/abbench.py PARENT_DIR [--out BENCH.json] [--seconds 30] [--seeds 10]

Follows bench/README.md, "Comparing two commits". It copies this checkout's
`bench/` and `BENCHMARK.json` into PARENT_DIR, so both sides run the same
benchmark code. Then, for seeds 1 to --seeds and every workload, it runs
`bench/bench.py --trace 0` in both checkouts, one after the other: the parent
first on odd seeds, this checkout first on even ones.

The JSON written to --out holds every run's last output line; per workload and
end-to-end metric, each side's median and quartiles, the pairs this checkout
won (better in the direction `BENCHMARK.json` declares), the parent's IQR, the
change in the median and a verdict; the machine; each side's
`src/v2xric/*.py` line count (`src_lines`); and, per workload, each side's
`tracemalloc` peak in KB (`traced_peak_kb`) over one `cli.main` run of the
seed-1 command, taken in a fresh interpreter after a first run has compiled
and warmed that side's code. Unlike `peak_rss_mb`, it does not move with the
size of the source. A table of the verdicts, then the line counts and traced
peaks, ends the output. Needs only the standard library.

The verdict is "gain" when at least 9 of 10 pairs are won and the median moved
the better way by more than the parent's IQR; "worse" when the median moved the
worse way by more than the metric's `bound` and the parent's IQR; otherwise
"unresolved" when the parent's IQR is wider than the bound, since the runs
cannot tell a move of the bound's size from noise, and "within bound" when it
is not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy}


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last output line of one `bench/bench.py --trace 0` run, as JSON."""
    out = subprocess.run([sys.executable, "bench/bench.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


# Run in a fresh interpreter with one side's `src`: the workload's seed-1
# command once to compile and warm up, then once under tracemalloc.
TRACED_PASS = """
import sys, tempfile, tracemalloc
from pathlib import Path
sys.path.insert(0, {bench!r})
from workloads import WORKLOADS, scene_seed
from v2xric import cli
workload = WORKLOADS[{workload!r}]
with tempfile.TemporaryDirectory() as work:
    config = Path(work) / "input.cfg"
    config.write_text(workload.config_text(scene_seed(workload, 1), {smoke!r}), encoding="utf-8")
    argv = [workload.command, "--config", str(config), "--out"]
    cli.main(argv + [str(Path(work) / "warm-up")])
    tracemalloc.start()
    cli.main(argv + [str(Path(work) / "traced")])
    print(tracemalloc.get_traced_memory()[1])
"""


def traced_peak_kb(checkout: Path, workload: str, smoke: bool = False) -> float:
    """The `tracemalloc` peak in KB of the workload's seed-1 command run on
    the checkout's `src` (its smoke duration if `smoke`), after a warm-up
    run; the config comes from this checkout's `bench/workloads.py`."""
    code = TRACED_PASS.format(bench=str(ROOT / "bench"), workload=workload, smoke=smoke)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED="0"))
    return int(out.stdout.split()[-1]) / 1024


def src_lines(checkout: Path) -> int:
    """The line count of the checkout's `src/v2xric/*.py`."""
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (checkout / "src" / "v2xric").glob("*.py"))


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def verdict(pairs: int, won: int, parent_iqr: float, gain: float, bound: float) -> str:
    """The verdict on a metric whose median moved `gain` the better way."""
    if won >= 0.9 * pairs and gain > parent_iqr:
        return "gain"
    if -gain > max(bound, parent_iqr):
        return "worse"
    return "unresolved" if parent_iqr > bound else "within bound"


def summary(runs: list[dict], declared: dict) -> dict:
    """Per workload and metric: both sides' quartiles, the pairs won, the
    parent's IQR, the change's median less the parent's, and the verdict."""
    out: dict = {}
    for workload in sorted({r["workload"] for r in runs}):
        by_seed = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        pairs = [p for p in by_seed.values() if "parent" in p and "change" in p]
        out[workload] = {}
        for name, spec in declared.items():
            parent = [p["parent"][name]["value"] for p in pairs]
            change = [p["change"][name]["value"] for p in pairs]
            lower = spec["better"] == "lower"
            won = sum((c < a) if lower else (c > a) for a, c in zip(parent, change))
            sides = {"parent": quartiles(parent), "change": quartiles(change)}
            iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
            delta = sides["change"]["median"] - sides["parent"]["median"]
            out[workload][name] = {
                "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                "pairs": len(pairs), "pairs_won": won, **sides, "parent_iqr": iqr,
                "median_delta": delta,
                "verdict": verdict(len(pairs), won, iqr, -delta if lower else delta, spec["bound"])}
    return out


def table(summed: dict) -> str:
    """One line per workload and metric: medians, parent IQR, pairs won, verdict."""
    lines = []
    for workload, metrics in summed.items():
        for name, m in metrics.items():
            lines.append(f"{workload:14} {name:12} {m['parent']['median']:10.4g} -> "
                         f"{m['change']['median']:<10.4g} IQR {m['parent_iqr']:<8.3g} "
                         f"won {m['pairs_won']}/{m['pairs']}  {m['verdict']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="a checkout of the parent commit")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH.json")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="+",
                        default=["all-pairs", "dense", "blockage-grid"])
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "v2xric").is_dir():
        parser.error(f"{parent} holds no src/v2xric")
    shutil.copytree(ROOT / "bench", parent / "bench", dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", parent / "BENCHMARK.json")
    declared = {m["name"]: m for m in
                json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}

    runs = []
    for seed in range(1, args.seeds + 1):
        for workload in args.workloads:
            order = [("parent", parent), ("change", ROOT)]
            for side, checkout in order if seed % 2 else order[::-1]:
                result = bench(checkout, workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "result": result})
                print(json.dumps(runs[-1]), flush=True)

    summed = summary(runs, declared)
    lines = {"parent": src_lines(parent), "change": src_lines(ROOT)}
    traced = {workload: {side: traced_peak_kb(checkout, workload)
                         for side, checkout in (("parent", parent), ("change", ROOT))}
              for workload in args.workloads}
    args.out.write_text(json.dumps({
        "protocol": {"seeds": list(range(1, args.seeds + 1)), "seconds": args.seconds,
                     "trace": 0, "parent_first": "odd seeds"},
        "machine": machine(),
        "all_correct": all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in runs),
        "summary": summed,
        "src_lines": lines,
        "traced_peak_kb": traced,
        "runs": runs,
    }, indent=1) + "\n", encoding="utf-8")
    print(table(summed))
    print(f"src/v2xric lines {lines['parent']} -> {lines['change']}")
    for workload, peak in traced.items():
        print(f"{workload:14} traced_peak_kb {peak['parent']:10.1f} -> {peak['change']:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
