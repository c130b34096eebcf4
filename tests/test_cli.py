"""Command-line tests: config resolution, CSV and manifest outputs, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from v2xric import cli, engine
from v2xric.cli import METRICS_HEADER, SUMMARY_HEADER, main, parse_config
from v2xric.errors import ConfigurationError

# Every configuration key with the canonical text of its default, as the
# manifests echo it. The keys and their defaults are read off the config
# dataclasses; this literal pins them.
DEFAULTS = {
    "duration_s": "300.0",
    "dt_s": "0.1",
    "control_period_s": "0.1",
    "seed": "1",
    "warmup_s": "10.0",
    "metric_mode": "pairwise",
    "pair_selection": "all",
    "cav_terminations": "true",
    "sensing_range_m": "300.0",
    "reporting_period_s": "none",
    "measured_neighbors": "none",
    "staleness_window_s": "none",
    "control_delay_s": "0.01",
    "carrier_ghz": "28.0",
    "eirp_dbm": "23.0",
    "bandwidth_hz": "100000000.0",
    "noise_figure_db": "9.0",
    "p_b": "0.0",
    "blockage_mode": "combined",
    "density_veh_km": "50.0",
    "speed_mps": "14.0",
    "tall_fraction": "0.1",
    "turn_probability": "0.25",
    "snr_min_db": "5.0",
    "max_hops": "4",
    "arm_length_m": "200.0",
    "road_width_m": "14.0",
    "building_setback_m": "2.0",
    "building_height_m": "20.0",
    "rsu_mast_height_m": "6.0",
    "cav_antenna_height_m": "1.6",
    "gamma_min_values": "0.0,5.0,10.0,15.0,20.0",
    "p_b_values": "0.0,0.25,0.5,0.75,1.0",
    "replications": "1",
    "workers": "1",
}


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def read_manifest(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_run_writes_metrics_summary_and_manifest(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--duration", "2", "--warmup", "0", "--seed", "7"]) == 0
    metrics = read_lines(out / "metrics.csv")
    assert metrics[0] == METRICS_HEADER
    assert len(metrics) == 1 + 20  # one row per control tick
    summary = read_lines(out / "summary.csv")
    assert summary[0] == SUMMARY_HEADER
    assert len(summary) == 2
    fields = summary[1].split(",")
    assert fields[2] == "relay"
    assert fields[5] == "1"
    manifest = read_manifest(out / "manifest.json")
    assert manifest["command"] == "run"
    assert manifest["seed"] == 7
    assert set(manifest["config"]) == set(DEFAULTS)
    assert manifest["config"]["duration_s"] == "2.0"
    assert manifest["outputs"] == ["metrics.csv", "summary.csv", "manifest.json"]
    assert manifest["runtime_s"] > 0
    audit = manifest["audit"]
    assert set(audit) == {"messages_total", "paths_checked", "paths_ok", "protocol_errors"}
    assert audit["messages_total"] > audit["paths_checked"] > 0
    assert audit["paths_ok"] == audit["paths_checked"]
    assert audit["protocol_errors"] == 0


def test_defaults_echo_the_pinned_text():
    echo = cli.config_echo(parse_config({}))
    assert len(DEFAULTS) == 35
    assert echo == DEFAULTS


def test_config_echo_round_trips():
    # Every kind away from its default: an optional float and an optional int
    # at a value, an optional spelled empty, two bool spellings, and lists
    # with a trailing comma. The variants below take the other bool spellings
    # and the optionals at "none".
    first = dict(DEFAULTS, seed="11", duration_s="20", warmup_s="2", metric_mode="per-vehicle",
                 pair_selection="matched", cav_terminations="no",
                 reporting_period_s="0.2", measured_neighbors="3",
                 staleness_window_s="", bandwidth_hz="1e8", gamma_min_values="2.5,7,",
                 p_b_values="0.5, 0.25,", replications="2", workers="3", max_hops="0003")
    spec = parse_config(first)
    echo = cli.config_echo(spec)
    assert echo["cav_terminations"] == "false"
    assert (echo["reporting_period_s"], echo["measured_neighbors"], echo["staleness_window_s"]) \
        == ("0.2", "3", "none")
    assert echo["gamma_min_values"] == "2.5,7.0"
    assert echo["max_hops"] == "3"
    assert spec.base.traffic.seed == spec.base.seed == 11  # the run's seed drives traffic
    again = parse_config(echo)
    assert cli.config_echo(again) == echo
    assert again == spec
    for variant, flag in (
            ({"cav_terminations": "YES", "measured_neighbors": "None"}, "true"),
            ({"cav_terminations": "True"}, "true"),
            ({"cav_terminations": "0"}, "false"),
            ({"cav_terminations": "false", "reporting_period_s": "none",
              "staleness_window_s": "0.5"}, "false"),
            ({"cav_terminations": "yes"}, "true"),
            ({"cav_terminations": "1"}, "true"),
            ({"cav_terminations": "FALSE"}, "false")):
        spec = parse_config(variant)
        echo = cli.config_echo(spec)
        assert echo["cav_terminations"] == flag
        assert parse_config(echo) == spec


def test_parse_config_validates_the_run_once(monkeypatch):
    """`SweepSpec.validate` validates its base run; `parse_config` leaves the
    run's validation to it."""
    calls = []
    validate = engine.SimConfig.validate

    def counted(cfg):
        calls.append(cfg)
        return validate(cfg)

    monkeypatch.setattr(engine.SimConfig, "validate", counted)
    parse_config({})
    assert len(calls) == 1


def test_readme_config_table_lists_every_key_once():
    """The README's "Configuration keys" table names each key, in backticks
    followed by its default in parentheses, exactly once."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Configuration keys", 1)[1].split("\n### ", 1)[0]
    named = re.findall(r"`(\w+)` \(", table)
    assert sorted(named) == sorted(cli._KEYS)


@pytest.mark.parametrize("key,raw", [
    ("seed", "x"), ("max_hops", "2.5"), ("cav_terminations", "maybe"),
    ("measured_neighbors", "2.0"), ("gamma_min_values", ","), ("duration_s", ""),
])
def test_unparseable_value_names_its_key(key, raw):
    with pytest.raises(ConfigurationError, match=f"^invalid value for {key}: "):
        parse_config({key: raw})


def test_unknown_annotation_has_no_parser():
    with pytest.raises(TypeError, match="no configuration parser"):
        cli._kind("list[int]")


def test_metrics_floats_round_trip(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--duration", "1", "--warmup", "0", "--seed", "2"]) == 0
    for line in read_lines(out / "metrics.csv")[1:]:
        fields = line.split(",")
        for col in (0, 1, 2, 3, 7):  # float columns
            assert repr(float(fields[col])) == fields[col]
        for col in (4, 5, 6):  # integer columns
            assert str(int(fields[col])) == fields[col]


def test_empty_config_file_means_defaults(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("", encoding="utf-8")
    assert main(["run", "--out", str(out_a), "--duration", "1", "--warmup", "0"]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_b), "--duration", "1", "--warmup", "0"]) == 0
    assert read_manifest(out_a / "manifest.json")["config"] == \
        read_manifest(out_b / "manifest.json")["config"]


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("snr_min_db = 5  # overridden below\nduration_s = 1\nwarmup_s = 0\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--snr-min", "10"]) == 0
    manifest = read_manifest(out / "manifest.json")
    assert manifest["config"]["snr_min_db"] == "10.0"
    first_row = read_lines(out / "metrics.csv")[1].split(",")
    assert first_row[1] == "10.0"


def test_config_file_skips_blank_and_comment_lines(tmp_path, capsys):
    """Blank and comment lines set nothing but still count in error line numbers."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a short run\n\n   \nduration_s = 1\n  # no warm-up\nwarmup_s = 0\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    config = read_manifest(out / "manifest.json")["config"]
    assert (config["duration_s"], config["warmup_s"]) == ("1.0", "0.0")
    cfg.write_text(cfg.read_text(encoding="utf-8") + "\n# next\nseed\n", encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    assert f"{cfg}:9: expected key=value" in capsys.readouterr().err


def test_invalid_flag_value_exits_2(tmp_path, capsys):
    code = main(["run", "--out", str(tmp_path / "out"), "--density", "-3"])
    assert code == 2
    assert "density_veh_km" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wombat=1\n", encoding="utf-8")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "wombat" in capsys.readouterr().err


def test_module_entry_point_exits_with_the_code_of_main(tmp_path):
    """`python -m v2xric.cli` runs `main` and exits with its code."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wombat=1\n", encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "v2xric.cli", "run", "--config", str(cfg),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "unknown configuration key: wombat" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_malformed_config_line_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("duration_s\n", encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "key=value" in capsys.readouterr().err


@pytest.mark.parametrize("command,flags,config_text", [
    ("run", ["--duration", "inf"], None),
    ("run", [], "control_delay_s = nan\n"),
    ("run", [], "control_delay_s = inf\n"),
    ("run", ["--warmup", "nan"], None),
    ("run", [], "staleness_window_s = -inf\n"),
    ("sweep-snr", ["--snr-min", "5,nan"], None),
])
def test_non_finite_value_exits_2_before_running(tmp_path, capsys, command, flags, config_text):
    out = tmp_path / "out"
    argv = [command, "--out", str(out)] + flags
    if config_text is not None:
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(config_text, encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert "invalid value" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_range_sweep_threshold_exits_2_before_running(tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(engine, "run_with_audit", lambda cfg: runs.append(cfg))
    out = tmp_path / "out"
    assert main(["sweep-snr", "--out", str(out), "--snr-min", "5,400",
                 "--duration", "10", "--warmup", "0"]) == 2
    assert "gamma_min_values" in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


@pytest.mark.parametrize("command,flags,key", [
    ("sweep-snr", ["--snr-min", "5.0,5.0000001"], "gamma_min_values"),  # both name run_g5_r0
    ("sweep-snr", ["--snr-min", "5,5"], "gamma_min_values"),
    ("sweep-blockage", ["--snr-min", "5", "--p-b", "0.5,0,0.5"], "p_b_values"),
    ("sweep-snr", ["--snr-min", "5", "--seed", str(2**63 - 1), "--replications", "2"],
     "replications"),  # replication 1 would run at seed 2^63
], ids=["near-duplicate-gamma", "duplicate-gamma", "duplicate-p_b", "seed-overflow"])
def test_bad_sweep_grid_exits_2_before_running(tmp_path, capsys, monkeypatch, command, flags, key):
    runs = []
    monkeypatch.setattr(engine, "run_with_audit", lambda cfg: runs.append(cfg))
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--duration", "0.3", "--warmup", "0"] + flags) == 2
    assert key in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


@pytest.mark.parametrize("seed,replications", [("1", "3"), ("3", "2")])
def test_lane_overflow_of_any_replication_exits_2_before_the_pool(tmp_path, capsys, monkeypatch,
                                                                  seed, replications):
    """At 390 veh/km the spawn of seeds 1 and 4 overflows a lane and seed 3
    fits: the sweep spawns every replication's fleet before it hands a job
    to the pool, so a replication past the first is refused up front too."""
    calls = []
    monkeypatch.setattr(engine, "_execute", lambda jobs, workers: calls.append(jobs))
    monkeypatch.setattr(engine, "run_with_audit", lambda cfg: calls.append(cfg))
    out = tmp_path / "out"
    assert main(["sweep-snr", "--out", str(out), "--density", "390", "--seed", seed,
                 "--replications", replications, "--workers", "2"]) == 2
    assert "exceed lane capacity" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_too_few_vehicles_exits_2_before_running(tmp_path, capsys, monkeypatch):
    """At 1 veh/km seed 5 spawns no vehicle: the sweep refuses the
    replication while it validates, before any job reaches `_execute`."""
    calls = []
    monkeypatch.setattr(engine, "_execute", lambda jobs, workers: calls.append(jobs))
    out = tmp_path / "out"
    assert main(["sweep-snr", "--out", str(out), "--snr-min", "5", "--density", "1",
                 "--seed", "5", "--replications", "1", "--duration", "0.3",
                 "--warmup", "0"]) == 2
    assert "need at least 2 vehicles" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("command,flags,worlds", [
    ("run", [], 1),
    ("sweep-snr", ["--snr-min", "5", "--replications", "2"], 4),
])
def test_each_world_is_built_once_per_check_and_once_per_run(tmp_path, monkeypatch, command,
                                                             flags, worlds):
    """`run` builds its world once, in the run. A sweep builds each
    replication's world once before any run, then once per run."""
    built = []
    world = engine._world
    monkeypatch.setattr(engine, "_world", lambda cfg, layout: built.append(cfg.seed)
                        or world(cfg, layout))
    assert main([command, "--out", str(tmp_path / "out"), "--duration", "0.3",
                 "--warmup", "0"] + flags) == 0
    assert len(built) == worlds


@pytest.mark.parametrize("duration,warmup", [("0.04", "0"), ("0.15", "0.12"), ("0.2", "0.15")])
def test_run_without_a_scored_tick_exits_2_before_running(tmp_path, capsys, monkeypatch,
                                                          duration, warmup):
    runs = []
    monkeypatch.setattr(engine, "run_with_audit", lambda cfg: runs.append(cfg))
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--duration", duration, "--warmup", warmup]) == 2
    assert "no control tick" in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("control_period_s", "0.25"),
                                       ("reporting_period_s", "0.15")])
def test_period_off_the_step_grid_exits_2_before_running(tmp_path, capsys, monkeypatch,
                                                          key, value):
    runs = []
    monkeypatch.setattr(engine, "run_with_audit", lambda cfg: runs.append(cfg))
    cfg = tmp_path / "period.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--config", str(cfg)]) == 2
    assert f"{key} must be a whole number of dt_s steps" in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


def test_sub_hertz_bandwidth_exits_2_before_running(tmp_path, capsys, monkeypatch):
    """Below 1 Hz the noise floor falls so far that an outage's SNR could clear
    the threshold and become an edge."""
    runs = []
    monkeypatch.setattr(engine, "run_with_audit", lambda cfg: runs.append(cfg))
    cfg = tmp_path / "bandwidth.cfg"
    cfg.write_text("bandwidth_hz = 1e-100\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--config", str(cfg)]) == 2
    assert "bandwidth_hz" in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


@pytest.mark.parametrize("command,flags,config_text,keys", [
    ("run", [], "duration_s = 1e300\ndt_s = 1e-9\ncontrol_period_s = 1e-9\n"
     "reporting_period_s = 0.001\nwarmup_s = 0\n", ["duration_s"]),
    ("sweep-snr", ["--snr-min", "5", "--workers", "2"], "arm_length_m = 5\n",
     ["arm_length_m", "road_width_m", "building_setback_m"]),
], ids=["step-count-overflow", "no-room-for-buildings"])
def test_config_no_run_can_use_exits_2_before_running(tmp_path, capsys, monkeypatch, command,
                                                      flags, config_text, keys):
    runs = []
    monkeypatch.setattr(engine, "run_with_audit", lambda cfg: runs.append(cfg))
    cfg = tmp_path / "unusable.cfg"
    cfg.write_text(config_text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--config", str(cfg)] + flags) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in keys), err
    assert runs == []
    assert not out.exists()


@pytest.mark.parametrize("arm_length_m", ["1e308", "1e9"], ids=["1e308", "1e9"])
def test_fleet_past_the_node_index_bound_exits_2(tmp_path, capsys, arm_length_m):
    """An arm so long that its expected fleet cannot be coded is a
    configuration error; at 1e308 it was a traceback from the spawn's draw."""
    cfg = tmp_path / "long.cfg"
    cfg.write_text(f"arm_length_m = {arm_length_m}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--config", str(cfg)]) == 2
    assert "arm_length_m" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flags", [
    ("sweep-snr", ["--no-relay"]),
    ("sweep-blockage", ["--p-b", "0,0.5", "--no-relay"]),
    ("sweep-snr", ["--max-hops", "1"]),
    ("sweep-blockage", ["--p-b", "0,0.5", "--max-hops", "1"]),
])
def test_sweeps_without_relaying_exit_2_before_running(tmp_path, capsys, monkeypatch,
                                                       command, flags):
    runs = []
    monkeypatch.setattr(engine, "run_with_audit", lambda cfg: runs.append(cfg))
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--duration", "1", "--warmup", "0"] + flags) == 2
    assert "max_hops" in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


@pytest.mark.parametrize("name,content", [
    ("truncated.json", b'{"config": '),
    ("list.json", b"[1,2]"),
    ("latin1.cfg", b"duration_s = 2\xff\n"),
])
def test_malformed_config_file_exits_2_before_running(tmp_path, capsys, monkeypatch,
                                                      name, content):
    runs = []
    monkeypatch.setattr(engine, "run_with_audit", lambda cfg: runs.append(cfg))
    cfg = tmp_path / name
    cfg.write_bytes(content)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "out")]) == 2


def test_output_path_collision_exits_3(tmp_path):
    blocker = tmp_path / "out"
    blocker.write_text("already a file", encoding="utf-8")
    assert main(["run", "--out", str(blocker), "--duration", "1", "--warmup", "0"]) == 3


def test_sweep_snr_layout(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep-snr", "--out", str(out), "--duration", "2", "--warmup", "0", "--seed", "3",
                 "--snr-min", "5,10", "--replications", "2"]) == 0
    summary = read_lines(out / "summary.csv")
    assert summary[0] == SUMMARY_HEADER
    assert len(summary) == 1 + 4  # per threshold: one direct row, one relay row
    modes = [line.split(",")[2] for line in summary[1:]]
    assert modes == ["direct", "relay", "direct", "relay"]
    for name, seed in (("run_g5_r0", "3"), ("run_g5_r1", "4"),
                       ("run_g10_r0", "3"), ("run_g10_r1", "4")):
        sub = out / name
        assert (sub / "metrics.csv").is_file()
        manifest = read_manifest(sub / "manifest.json")
        assert manifest["command"] == "run"
        assert manifest["config"]["seed"] == seed
    top = read_manifest(out / "manifest.json")
    assert top["command"] == "sweep-snr"
    assert "run_g10_r1/metrics.csv" in top["outputs"]


def test_sweep_blockage_layout(tmp_path):
    out = tmp_path / "grid"
    assert main(["sweep-blockage", "--out", str(out), "--duration", "2", "--warmup", "0", "--seed", "3",
                 "--snr-min", "5", "--p-b", "0,0.5,1", "--replications", "1"]) == 0
    summary = read_lines(out / "summary.csv")
    rows = [line.split(",") for line in summary[1:]]
    assert [(r[0], r[1], r[2]) for r in rows] == [
        ("5.0", "0.0", "relay"), ("5.0", "0.5", "relay"), ("5.0", "1.0", "relay")]
    assert rows[2][3] == "0.0"  # certain blockage: zero connectivity
    for name in ("run_g5_p0_r0", "run_g5_p0.5_r0", "run_g5_p1_r0"):
        assert (out / name / "metrics.csv").is_file()
        audit = read_manifest(out / name / "manifest.json")["audit"]
        assert audit["paths_ok"] == audit["paths_checked"]
    assert read_manifest(out / "run_g5_p1_r0" / "manifest.json")["audit"]["paths_checked"] == 0
    assert "audit" not in read_manifest(out / "manifest.json")


def test_manifest_reruns_byte_identically(tmp_path):
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert main(["run", "--out", str(first), "--duration", "2", "--warmup", "0", "--seed", "5",
                 "--snr-min", "10"]) == 0
    assert main(["run", "--config", str(first / "manifest.json"), "--out", str(again)]) == 0
    assert (first / "metrics.csv").read_bytes() == (again / "metrics.csv").read_bytes()
    assert (first / "summary.csv").read_bytes() == (again / "summary.csv").read_bytes()


def test_sweep_cell_manifests_rerun_byte_identically(tmp_path):
    grid = tmp_path / "grid"
    assert main(["sweep-blockage", "--out", str(grid), "--duration", "2", "--warmup", "0",
                 "--seed", "6", "--snr-min", "5,15", "--p-b", "0,0.5",
                 "--replications", "2"]) == 0
    cells = sorted(path.parent for path in grid.glob("run_*/manifest.json"))
    assert len(cells) == 8
    for cell in cells:
        again = tmp_path / "again" / cell.name
        assert main(["run", "--config", str(cell / "manifest.json"), "--out", str(again)]) == 0
        assert (again / "metrics.csv").read_bytes() == (cell / "metrics.csv").read_bytes()


def test_manifest_with_a_removed_key_exits_2_before_running(tmp_path, capsys, monkeypatch):
    """A manifest written while the config still had `allow_bs_relay` names a
    key the config no longer has: replaying it fails loudly, not silently."""
    runs = []
    monkeypatch.setattr(engine, "run_with_audit", lambda cfg: runs.append(cfg))
    config = dict(DEFAULTS, duration_s="2.0", warmup_s="0.0", allow_bs_relay="false")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "run", "config": config}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(manifest), "--out", str(out)]) == 2
    assert "unknown configuration key: allow_bs_relay" in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


def test_manifest_command_mismatch_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--duration", "1", "--warmup", "0"]) == 0
    code = main(["sweep-snr", "--config", str(out / "manifest.json"),
                 "--out", str(tmp_path / "other")])
    assert code == 2
    assert "run" in capsys.readouterr().err


def test_repeated_runs_are_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["run", "--out", str(out), "--duration", "2", "--warmup", "0", "--seed", "9",
                     "--p-b", "0.3"]) == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()


def test_no_relay_flag_switches_mode(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--duration", "1", "--warmup", "0", "--no-relay"]) == 0
    assert read_lines(out / "summary.csv")[1].split(",")[2] == "direct"
    config = read_manifest(out / "manifest.json")["config"]
    assert config["max_hops"] == "1"
    assert "relay_enabled" not in config


def test_no_relay_flag_is_a_hop_budget_of_one(tmp_path):
    outs = {}
    for name, flags in (("no-relay", ["--no-relay"]), ("one-hop", ["--max-hops", "1"]),
                        ("overridden", ["--max-hops", "3", "--no-relay"])):
        outs[name] = tmp_path / name
        assert main(["run", "--out", str(outs[name]), "--duration", "2", "--warmup", "0",
                     "--seed", "5"] + flags) == 0
    for name in ("one-hop", "overridden"):
        for csv in ("metrics.csv", "summary.csv"):
            assert (outs[name] / csv).read_bytes() == (outs["no-relay"] / csv).read_bytes()


def test_metric_flag_is_echoed(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--duration", "1", "--warmup", "0",
                 "--metric", "per-vehicle", "--seed", "4"]) == 0
    assert read_manifest(out / "manifest.json")["config"]["metric_mode"] == "per-vehicle"
