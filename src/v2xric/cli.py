"""Command-line front end: single runs and the two experiment sweeps.

Configuration comes from a flat key=value file (UTF-8, `#` comments), with
command-line flags taking precedence. Every output directory receives a
manifest that snapshots the fully resolved configuration; pointing --config at
a manifest re-runs it and reproduces the CSVs byte for byte.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from . import __version__, engine
from .channel import ChannelParams
from .engine import SimConfig, SummaryRow, SweepSpec, WorldConfig
from .errors import ConfigurationError
from .ric import XAppConfig
from .scenario import TrafficConfig

METRICS_HEADER = "t,gamma_min_db,p_b,connectivity,pairs_total,pairs_direct,pairs_relayed,mean_hops"
SUMMARY_HEADER = "gamma_min_db,p_b,mode,connectivity_mean,connectivity_std,replications"

# Every accepted configuration key with its parse kind and canonical default.
# The same schema serves all three commands; sweep-only keys are simply unused
# (but still validated and echoed) for `run`.
_SCHEMA: dict[str, tuple[str, str]] = {
    "duration_s": ("float", "300.0"),
    "dt_s": ("float", "0.1"),
    "control_period_s": ("float", "0.1"),
    "seed": ("int", "1"),
    "warmup_s": ("float", "10.0"),
    "metric_mode": ("str", "pairwise"),
    "pair_selection": ("str", "all"),
    "relay_enabled": ("bool", "true"),
    "cav_terminations": ("bool", "true"),
    "sensing_range_m": ("float", "300.0"),
    "reporting_period_s": ("opt_float", "none"),
    "measured_neighbors": ("opt_int", "none"),
    "staleness_window_s": ("opt_float", "none"),
    "control_delay_s": ("float", "0.01"),
    "carrier_ghz": ("float", "28.0"),
    "eirp_dbm": ("float", "23.0"),
    "bandwidth_hz": ("float", "100000000.0"),
    "noise_figure_db": ("float", "9.0"),
    "p_b": ("float", "0.0"),
    "blockage_mode": ("str", "combined"),
    "density_veh_km": ("float", "50.0"),
    "speed_mps": ("float", "14.0"),
    "tall_fraction": ("float", "0.1"),
    "turn_probability": ("float", "0.25"),
    "snr_min_db": ("float", "5.0"),
    "max_hops": ("int", "4"),
    "allow_bs_relay": ("bool", "false"),
    "control_ttl_s": ("float", "0.5"),
    "arm_length_m": ("float", "200.0"),
    "road_width_m": ("float", "14.0"),
    "building_setback_m": ("float", "2.0"),
    "building_height_m": ("float", "20.0"),
    "rsu_mast_height_m": ("float", "6.0"),
    "cav_antenna_height_m": ("float", "1.6"),
    "gamma_min_values": ("float_list", "0.0,5.0,10.0,15.0,20.0"),
    "p_b_values": ("float_list", "0.0,0.25,0.5,0.75,1.0"),
    "replications": ("int", "1"),
    "workers": ("int", "1"),
}


def _fmt(x) -> str:
    """Canonical float text: shortest repr, round-trip exact."""
    return repr(float(x))


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _parse_value(key: str, raw: str):
    """Parse one raw value by its schema kind; NaN and infinities are rejected
    for every float kind, so no run starts from a value it cannot simulate."""
    kind = _SCHEMA[key][0]
    raw = raw.strip()
    try:
        if kind == "float":
            return _finite(raw)
        if kind == "int":
            return int(raw, 10)
        if kind == "bool":
            lowered = raw.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "opt_float":
            return None if raw.lower() in ("", "none") else _finite(raw)
        if kind == "opt_int":
            return None if raw.lower() in ("", "none") else int(raw, 10)
        if kind == "float_list":
            parts = [p for p in raw.split(",") if p.strip()]
            if not parts:
                raise ValueError(raw)
            return tuple(_finite(p) for p in parts)
        return raw  # "str"
    except ValueError:
        raise ConfigurationError(f"invalid value for {key}: {raw!r}") from None


def _serialize(key: str, value) -> str:
    kind = _SCHEMA[key][0]
    if kind == "float":
        return _fmt(value)
    if kind == "bool":
        return "true" if value else "false"
    if kind in ("opt_float", "opt_int"):
        if value is None:
            return "none"
        return _fmt(value) if kind == "opt_float" else str(value)
    if kind == "float_list":
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _read_config(path: str) -> tuple[dict[str, str], str | None]:
    """Read a key=value file or a manifest JSON; returns (values, manifest command)."""
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    text = p.read_text(encoding="utf-8")
    if p.suffix == ".json" or text.lstrip().startswith("{"):
        manifest = json.loads(text)
        config = manifest.get("config")
        if not isinstance(config, dict):
            raise ConfigurationError(f"manifest has no config mapping: {path}")
        return {str(k): str(v) for k, v in config.items()}, manifest.get("command")
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        values[key.strip()] = raw.split("#", 1)[0].strip()
    return values, None


def parse_config(merged: dict[str, str]) -> tuple[SimConfig, dict, dict[str, str]]:
    """Resolve merged key=value strings into a validated SimConfig, the sweep
    extras, and the canonical echo written into manifests."""
    for key in merged:
        if key not in _SCHEMA:
            raise ConfigurationError(f"unknown configuration key: {key}")
    values = {key: _parse_value(key, merged.get(key, default))
              for key, (_, default) in _SCHEMA.items()}
    cfg = SimConfig(
        duration_s=values["duration_s"],
        dt_s=values["dt_s"],
        control_period_s=values["control_period_s"],
        seed=values["seed"],
        channel=ChannelParams(
            carrier_ghz=values["carrier_ghz"],
            eirp_dbm=values["eirp_dbm"],
            bandwidth_hz=values["bandwidth_hz"],
            noise_figure_db=values["noise_figure_db"],
            p_b=values["p_b"],
            blockage_mode=values["blockage_mode"],
        ),
        traffic=TrafficConfig(
            density_veh_km=values["density_veh_km"],
            speed_mps=values["speed_mps"],
            seed=values["seed"],
            tall_fraction=values["tall_fraction"],
            turn_probability=values["turn_probability"],
        ),
        xapp=XAppConfig(
            snr_min_db=values["snr_min_db"],
            max_hops=values["max_hops"],
            allow_bs_relay=values["allow_bs_relay"],
            control_ttl_s=values["control_ttl_s"],
        ),
        world=WorldConfig(
            arm_length_m=values["arm_length_m"],
            road_width_m=values["road_width_m"],
            building_setback_m=values["building_setback_m"],
            building_height_m=values["building_height_m"],
            rsu_mast_height_m=values["rsu_mast_height_m"],
            cav_antenna_height_m=values["cav_antenna_height_m"],
        ),
        sensing_range_m=values["sensing_range_m"],
        reporting_period_s=values["reporting_period_s"],
        measured_neighbors=values["measured_neighbors"],
        staleness_window_s=values["staleness_window_s"],
        control_delay_s=values["control_delay_s"],
        warmup_s=values["warmup_s"],
        metric_mode=values["metric_mode"],
        pair_selection=values["pair_selection"],
        relay_enabled=values["relay_enabled"],
        cav_terminations=values["cav_terminations"],
    ).validate()
    sweep = {
        "gamma_min_values": values["gamma_min_values"],
        "p_b_values": values["p_b_values"],
        "replications": values["replications"],
        "workers": values["workers"],
    }
    echo = {key: _serialize(key, values[key]) for key in _SCHEMA}
    return cfg, sweep, echo


# --- output writers -------------------------------------------------------------

def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_metrics(path: Path, records: list[engine.MetricsRecord]) -> None:
    lines = [METRICS_HEADER]
    lines.extend(
        ",".join((
            _fmt(r.t), _fmt(r.gamma_min_db), _fmt(r.p_b), _fmt(r.connectivity),
            str(r.pairs_total), str(r.pairs_direct), str(r.pairs_relayed), _fmt(r.mean_hops),
        ))
        for r in records
    )
    _write_lines(path, lines)


def _write_summary(path: Path, rows: list[SummaryRow]) -> None:
    lines = [SUMMARY_HEADER]
    lines.extend(
        ",".join((
            _fmt(row.gamma_min_db), _fmt(row.p_b), row.mode,
            _fmt(row.connectivity_mean), _fmt(row.connectivity_std), str(row.replications),
        ))
        for row in rows
    )
    _write_lines(path, lines)


def _write_manifest(path: Path, command: str, echo: dict[str, str], seed: int,
                    outputs: list[str], runtime_s: float) -> None:
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "config": echo,
        "seed": seed,
        "outputs": outputs,
        "runtime_s": runtime_s,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _run_dir_name(gamma: float, p_b: float | None, rep: int) -> str:
    if p_b is None:
        return f"run_g{gamma:g}_r{rep}"
    return f"run_g{gamma:g}_p{p_b:g}_r{rep}"


def _write_sweep_outputs(out: Path, command: str, result: engine.SweepResult,
                         echo: dict[str, str], seed: int, runtime_s: float,
                         with_p_b: bool) -> None:
    outputs = ["summary.csv"]
    _write_summary(out / "summary.csv", result.rows)
    for run_out in result.runs:
        sub = out / _run_dir_name(run_out.gamma_min_db, run_out.p_b if with_p_b else None,
                                  run_out.replication)
        sub.mkdir(parents=True, exist_ok=True)
        _write_metrics(sub / "metrics.csv", run_out.records)
        run_echo = dict(
            echo,
            snr_min_db=_fmt(run_out.gamma_min_db),
            p_b=_fmt(run_out.p_b),
            seed=str(run_out.seed),
            relay_enabled="true",
        )
        _write_manifest(sub / "manifest.json", "run", run_echo, run_out.seed,
                        ["metrics.csv"], run_out.runtime_s)
        outputs.extend([f"{sub.name}/metrics.csv", f"{sub.name}/manifest.json"])
    outputs.append("manifest.json")
    _write_manifest(out / "manifest.json", command, echo, seed, outputs, runtime_s)


# --- commands ---------------------------------------------------------------------

def cmd_run(cfg: SimConfig, out: Path, echo: dict[str, str]) -> None:
    started = time.perf_counter()
    records, _audit = engine.run_with_audit(cfg)
    runtime_s = time.perf_counter() - started
    out.mkdir(parents=True, exist_ok=True)
    _write_metrics(out / "metrics.csv", records)
    mode = "relay" if cfg.relay_enabled else "direct"
    average = engine.time_average(records, cfg.warmup_s, "connectivity")
    _write_summary(out / "summary.csv", [SummaryRow(
        gamma_min_db=cfg.xapp.snr_min_db, p_b=cfg.channel.p_b, mode=mode,
        connectivity_mean=average, connectivity_std=0.0, replications=1,
    )])
    _write_manifest(out / "manifest.json", "run", echo, cfg.seed,
                    ["metrics.csv", "summary.csv", "manifest.json"], runtime_s)


def cmd_sweep_snr(cfg: SimConfig, sweep: dict, out: Path, echo: dict[str, str]) -> None:
    spec = SweepSpec(base=cfg, gamma_min_values=sweep["gamma_min_values"],
                     replications=sweep["replications"], workers=sweep["workers"])
    started = time.perf_counter()
    result = engine.sweep_snr(spec)
    out.mkdir(parents=True, exist_ok=True)
    _write_sweep_outputs(out, "sweep-snr", result, echo, cfg.seed,
                         time.perf_counter() - started, with_p_b=False)


def cmd_sweep_blockage(cfg: SimConfig, sweep: dict, out: Path, echo: dict[str, str]) -> None:
    spec = SweepSpec(base=cfg, gamma_min_values=sweep["gamma_min_values"],
                     p_b_values=sweep["p_b_values"],
                     replications=sweep["replications"], workers=sweep["workers"])
    started = time.perf_counter()
    result = engine.sweep_blockage(spec)
    out.mkdir(parents=True, exist_ok=True)
    _write_sweep_outputs(out, "sweep-blockage", result, echo, cfg.seed,
                         time.perf_counter() - started, with_p_b=True)


# --- argument plumbing --------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="v2xric",
        description="Simulated controller-assisted vehicular relaying at an urban intersection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "single simulation run"),
        ("sweep-snr", "connectivity versus SNR threshold"),
        ("sweep-blockage", "connectivity versus blockage probability grid"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH", help="key=value file or manifest.json")
        sp.add_argument("--out", metavar="DIR", default="out", help="output directory")
        sp.add_argument("--seed", metavar="U64")
        sp.add_argument("--duration", metavar="S")
        sp.add_argument("--warmup", metavar="S")
        sp.add_argument("--density", metavar="VEHKM")
        sp.add_argument("--snr-min", metavar="DB[,DB...]", dest="snr_min")
        sp.add_argument("--p-b", metavar="P[,P...]", dest="p_b")
        sp.add_argument("--max-hops", metavar="N", dest="max_hops")
        sp.add_argument("--no-relay", action="store_true", dest="no_relay")
        sp.add_argument("--metric", metavar="{pairwise,per-vehicle}")
        sp.add_argument("--replications", metavar="N")
        sp.add_argument("--workers", metavar="N")
    return parser


def _flag_overrides(args: argparse.Namespace) -> dict[str, str]:
    overrides: dict[str, str] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.duration is not None:
        overrides["duration_s"] = args.duration
    if args.warmup is not None:
        overrides["warmup_s"] = args.warmup
    if args.density is not None:
        overrides["density_veh_km"] = args.density
    if args.snr_min is not None:
        overrides["snr_min_db" if args.command == "run" else "gamma_min_values"] = args.snr_min
    if args.p_b is not None:
        overrides["p_b_values" if args.command == "sweep-blockage" else "p_b"] = args.p_b
    if args.max_hops is not None:
        overrides["max_hops"] = args.max_hops
    if args.no_relay:
        overrides["relay_enabled"] = "false"
    if args.metric is not None:
        overrides["metric_mode"] = args.metric
    if args.replications is not None:
        overrides["replications"] = args.replications
    if args.workers is not None:
        overrides["workers"] = args.workers
    return overrides


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_values: dict[str, str] = {}
        if args.config:
            file_values, manifest_command = _read_config(args.config)
            if manifest_command is not None and manifest_command != args.command:
                raise ConfigurationError(
                    f"manifest was produced by {manifest_command!r}, "
                    f"re-run it with that subcommand")
        merged = dict(file_values)
        merged.update(_flag_overrides(args))
        cfg, sweep, echo = parse_config(merged)
        out = Path(args.out)
        if args.command == "run":
            cmd_run(cfg, out, echo)
        elif args.command == "sweep-snr":
            cmd_sweep_snr(cfg, sweep, out, echo)
        else:
            cmd_sweep_blockage(cfg, sweep, out, echo)
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
