"""Command-line tests: config resolution, CSV and manifest outputs, exit codes."""

import json

import pytest

from v2xric import engine
from v2xric.cli import METRICS_HEADER, SUMMARY_HEADER, _SCHEMA, main


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
    assert set(manifest["config"]) == set(_SCHEMA)
    assert manifest["config"]["duration_s"] == "2.0"
    assert manifest["outputs"] == ["metrics.csv", "summary.csv", "manifest.json"]
    assert manifest["runtime_s"] > 0
    audit = manifest["audit"]
    assert set(audit) == {"messages_total", "paths_checked", "paths_ok", "protocol_errors"}
    assert audit["messages_total"] > audit["paths_checked"] > 0
    assert audit["paths_ok"] == audit["paths_checked"]
    assert audit["protocol_errors"] == 0


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


@pytest.mark.parametrize("duration,warmup", [("0.04", "0"), ("0.15", "0.12")])
def test_run_without_a_scored_tick_exits_2_before_running(tmp_path, capsys, monkeypatch,
                                                          duration, warmup):
    runs = []
    monkeypatch.setattr(engine, "run_with_audit", lambda cfg: runs.append(cfg))
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--duration", duration, "--warmup", warmup]) == 2
    assert "no control tick" in capsys.readouterr().err
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
    assert read_manifest(out / "manifest.json")["config"]["relay_enabled"] == "false"


def test_metric_flag_is_echoed(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--duration", "1", "--warmup", "0",
                 "--metric", "per-vehicle", "--seed", "4"]) == 0
    assert read_manifest(out / "manifest.json")["config"]["metric_mode"] == "per-vehicle"
