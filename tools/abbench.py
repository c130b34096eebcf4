"""A/B benchmark of this checkout against a parent checkout.

    python3 tools/abbench.py PARENT_DIR [--out BENCH.json] [--seconds 30] [--seeds 10]

Follows bench/README.md, "Comparing two commits". It copies this checkout's
`bench/` and `BENCHMARK.json` into PARENT_DIR, so both sides run the same
benchmark code. Then, for seeds 1 to --seeds and every workload, it runs
`bench/bench.py --trace 0` in both checkouts, one after the other: the parent
first on odd seeds, this checkout first on even ones.

The JSON written to --out holds every run's last output line; per workload and
end-to-end metric, each side's median and quartiles and the pairs this
checkout won (better in the direction `BENCHMARK.json` declares); and the
machine. Needs only the standard library.
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


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def summary(runs: list[dict], declared: dict) -> dict:
    """Per workload and metric: both sides' quartiles and the pairs won."""
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
            out[workload][name] = {"unit": spec["unit"], "better": spec["better"],
                                   "bound": spec["bound"], "pairs": len(pairs),
                                   "pairs_won": won, "parent": quartiles(parent),
                                   "change": quartiles(change)}
    return out


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

    args.out.write_text(json.dumps({
        "protocol": {"seeds": list(range(1, args.seeds + 1)), "seconds": args.seconds,
                     "trace": 0, "parent_first": "odd seeds"},
        "machine": machine(),
        "all_correct": all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in runs),
        "summary": summary(runs, declared),
        "runs": runs,
    }, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
