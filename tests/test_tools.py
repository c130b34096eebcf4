"""`tools/abbench.py`'s summary on synthetic A/B runs: quartiles, the
parent's IQR, the median's move and the verdict of each metric."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "abbench", Path(__file__).resolve().parents[1] / "tools" / "abbench.py")
abbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abbench)

DECLARED = {"tick_ms": {"name": "tick_ms", "unit": "ms", "better": "lower", "bound": 0.25},
            "rate": {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}}


def runs_of(parent, change, metric="tick_ms"):
    """One workload's runs, seed k + 1 reading parent[k] and change[k]."""
    return [{"workload": "w", "seed": seed, "side": side,
             "result": {"metrics": {metric: {"value": value}}}}
            for seed, pair in enumerate(zip(parent, change), 1)
            for side, value in zip(("parent", "change"), pair)]


def summed(parent, change, metric="tick_ms"):
    return abbench.summary(runs_of(parent, change, metric), {metric: DECLARED[metric]})["w"][metric]


PARENT = [2.0 + 0.02 * k for k in range(10)]  # IQR 0.11


@pytest.mark.parametrize("change,want", [
    ([v - 0.3 for v in PARENT], "gain"),
    # 9 of 10 pairs won with the gap past the IQR is a gain; 8 of 10 is not
    ([v - 0.3 for v in PARENT[:9]] + [9.0], "gain"),
    ([v - 0.3 for v in PARENT[:8]] + [9.0, 9.0], "within bound"),
    # every pair won, but by less than the parent's IQR
    ([v - 0.05 for v in PARENT], "within bound"),
    ([v + 0.2 for v in PARENT], "within bound"),
    ([v + 0.3 for v in PARENT], "worse"),
])
def test_summary_states_each_verdict(change, want):
    got = summed(PARENT, change)
    assert got["verdict"] == want
    assert got["pairs"] == 10
    assert got["parent_iqr"] == pytest.approx(0.11)
    assert got["median_delta"] == pytest.approx(got["change"]["median"] - got["parent"]["median"])


def test_a_parent_spread_past_the_bound_leaves_a_small_move_unresolved():
    wide = [2.0 + 0.1 * k for k in range(10)]  # IQR 0.55, wider than the 0.25 bound
    assert summed(wide, [v + 0.3 for v in wide])["verdict"] == "unresolved"
    assert summed(wide, [v - 0.3 for v in wide])["verdict"] == "unresolved"
    assert summed(wide, [v + 0.6 for v in wide])["verdict"] == "worse"
    assert summed(wide, [v - 0.6 for v in wide])["verdict"] == "gain"


def test_a_higher_is_better_metric_wins_upward():
    got = summed(PARENT, [v + 0.3 for v in PARENT], "rate")
    assert (got["pairs_won"], got["verdict"]) == (10, "gain")
    assert got["median_delta"] == pytest.approx(0.3)
    assert summed(PARENT, [v - 0.3 for v in PARENT], "rate")["verdict"] == "worse"


def test_table_has_one_line_per_workload_and_metric():
    runs = runs_of(PARENT, [v - 0.3 for v in PARENT])
    runs += [dict(r, workload="v") for r in runs]
    lines = abbench.table(abbench.summary(runs, {"tick_ms": DECLARED["tick_ms"]})).splitlines()
    assert len(lines) == 2 and all(line.endswith("gain") for line in lines)


def test_src_lines_counts_each_trees_package_modules(tmp_path):
    """Each side's `src/v2xric/*.py` lines, and nothing else in the tree."""
    for side, modules in (("parent", {"a.py": 3, "b.py": 2}), ("change", {"a.py": 4})):
        package = tmp_path / side / "src" / "v2xric"
        (package / "sub").mkdir(parents=True)
        for name, n in modules.items():
            (package / name).write_text("x = 1\n" * n, encoding="utf-8")
        (package / "sub" / "c.py").write_text("x = 1\n", encoding="utf-8")
        (package / "notes.txt").write_text("x\n", encoding="utf-8")
        (tmp_path / side / "tools.py").write_text("x = 1\n", encoding="utf-8")
    assert abbench.src_lines(tmp_path / "parent") == 5
    assert abbench.src_lines(tmp_path / "change") == 4


def test_traced_peak_repeats_on_the_smoke_config():
    """A traced pass of this checkout's smoke `blockage-grid` command, in a
    fresh interpreter after a warm-up run, reads a positive peak, and a
    second pass reads it again to within 4 KB, far below the 128 KB steps
    in which `peak_rss_mb` moves."""
    root = Path(__file__).resolve().parents[1]
    peak = abbench.traced_peak_kb(root, "blockage-grid", smoke=True)
    assert peak > 0
    assert abbench.traced_peak_kb(root, "blockage-grid", smoke=True) == pytest.approx(peak, abs=4.0)
