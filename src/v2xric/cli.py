"""Command-line front end: single runs and the two experiment sweeps.

Configuration comes from a flat key=value file (UTF-8, `#` comments), with
command-line flags taking precedence. The keys are the fields of the config
dataclasses (`SimConfig` and its four sections, then the sweep fields of
`SweepSpec`), each parsed by its annotation and defaulting to the field's
default. The CSV columns are the fields of the row dataclasses, shown by the
same annotation rules. Every output directory receives a manifest that
snapshots the fully resolved configuration; pointing --config at a manifest
re-runs it and reproduces the CSVs byte for byte.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import __version__, engine
from .channel import ChannelParams
from .engine import MetricsRecord, SimConfig, SummaryRow, SweepSpec, WorldConfig
from .errors import ConfigurationError
from .ric import XAppConfig
from .scenario import TrafficConfig


def _fmt(x) -> str:
    """Canonical float text: shortest repr, round-trip exact."""
    return repr(float(x))


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(raw)


def _parse_floats(raw: str) -> tuple[float, ...]:
    parts = [p for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError(raw)
    return tuple(float(p) for p in parts)


# Parser and canonical text of each field annotation a key may carry.
_KINDS = {
    "float": (float, _fmt),
    "int": (lambda raw: int(raw, 10), str),
    "bool": (_parse_bool, lambda value: "true" if value else "false"),
    "str": (str, str),
    "tuple[float, ...]": (_parse_floats, lambda value: ",".join(map(_fmt, value))),
}


def _kind(annotation: str):
    """(parse, show) for a field annotation; `X | None` also takes
    "none" or nothing, and shows None as "none"."""
    optional = annotation.endswith(" | None")
    base = annotation.removesuffix(" | None")
    if base not in _KINDS:
        raise TypeError(f"no configuration parser for annotation {annotation!r}")
    parse, show = _KINDS[base]
    if not optional:
        return parse, show
    return ((lambda raw: None if raw.lower() in ("", "none") else parse(raw)),
            (lambda value: "none" if value is None else show(value)))


# The config dataclasses, in key order. Their fields without a plain default
# (the sections themselves and the sweep's base run) are not keys, and neither
# is the traffic model's seed, which is the run's `seed`.
_SECTIONS = (SimConfig, ChannelParams, TrafficConfig, XAppConfig, WorldConfig, SweepSpec)


def _section_keys(cls) -> list[dataclasses.Field]:
    return [f for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING
            and (cls, f.name) != (TrafficConfig, "seed")]


# Every accepted key: (parse, show, default). The same keys serve all three
# commands; sweep-only keys are simply unused (but still validated and echoed)
# for `run`.
_KEYS = {f.name: (*_kind(f.type), f.default) for cls in _SECTIONS for f in _section_keys(cls)}


def _columns(cls, leave_out=()) -> list[tuple[str, object]]:
    """A CSV's columns: (name, show) of each field of the row dataclass."""
    return [(f.name, _kind(f.type)[1]) for f in dataclasses.fields(cls) if f.name not in leave_out]


# `direct_connectivity` rides on each record for the summaries and the
# baseline checks; it is not a metrics.csv column.
_METRICS_COLUMNS = _columns(MetricsRecord, leave_out=("direct_connectivity",))
_SUMMARY_COLUMNS = _columns(SummaryRow)


def _parse_value(key: str, raw: str):
    """Parse one raw value by its key's annotation. Its domain is the config
    objects' to check, as its field declares it (`errors.check_keys`)."""
    raw = raw.strip()
    try:
        return _KEYS[key][0](raw)
    except ValueError:
        raise ConfigurationError(f"invalid value for {key}: {raw!r}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object of a manifest, refusing a key that it repeats."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigurationError(f"manifest repeats key {key!r}")
        obj[key] = value
    return obj


def _read_config(path: str) -> tuple[dict[str, str], str | None]:
    """Read a key=value file or a manifest JSON; returns (values, manifest command)."""
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        text = p.read_text(encoding="utf-8")
        is_manifest = p.suffix == ".json" or text.lstrip().startswith("{")
        manifest = json.loads(text, object_pairs_hook=_unique_keys) if is_manifest else None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"unreadable config file {path}: {exc}") from None
    if is_manifest:
        config = manifest.get("config") if isinstance(manifest, dict) else None
        if not isinstance(config, dict):
            raise ConfigurationError(f"manifest has no config mapping: {path}")
        return {str(k): str(v) for k, v in config.items()}, manifest.get("command")
    values: dict[str, str] = {}
    first: dict[str, int] = {}  # key -> the line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in first:
            raise ConfigurationError(f"{path}:{lineno}: {key} repeats line {first[key]}")
        first[key] = lineno
        values[key] = raw.split("#", 1)[0].strip()
    return values, None


def parse_config(merged: dict[str, str]) -> SweepSpec:
    """Resolve merged key=value strings into a validated SweepSpec, whose
    `base` is the run's SimConfig. The sweep keys are checked for every
    command."""
    for key in merged:
        if key not in _KEYS:
            raise ConfigurationError(f"unknown configuration key: {key}")
    values = {key: _parse_value(key, merged[key]) if key in merged else default
              for key, (_, _, default) in _KEYS.items()}

    def section(cls, **extra):
        return cls(**{f.name: values[f.name] for f in _section_keys(cls)}, **extra)

    cfg = section(SimConfig, channel=section(ChannelParams),
                  traffic=section(TrafficConfig, seed=values["seed"]),
                  xapp=section(XAppConfig), world=section(WorldConfig))
    return section(SweepSpec, base=cfg).validate()


def config_echo(spec: SweepSpec) -> dict[str, str]:
    """Every key's canonical text, read off `spec` and its `base` run: the
    config a manifest records, which `parse_config` reads back to `spec`."""
    cfg = spec.base
    owners = {SimConfig: cfg, ChannelParams: cfg.channel, TrafficConfig: cfg.traffic,
              XAppConfig: cfg.xapp, WorldConfig: cfg.world, SweepSpec: spec}
    return {f.name: _KEYS[f.name][1](getattr(owners[cls], f.name))
            for cls in _SECTIONS for f in _section_keys(cls)}


# --- output writers -------------------------------------------------------------

def _write_csv(path: Path, columns: list[tuple[str, object]], rows: list) -> None:
    """A header of the column names, then one line per row."""
    lines = [",".join(name for name, _ in columns)]
    lines.extend(",".join(show(getattr(row, name)) for name, show in columns) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_manifest(path: Path, command: str, spec: SweepSpec, outputs: list[str],
                    runtime_s: float, audit: engine.AuditSummary | None = None) -> None:
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "config": config_echo(spec),
        "seed": spec.base.seed,
        "outputs": outputs,
        "runtime_s": runtime_s,
    }
    if audit is not None:
        manifest["audit"] = dataclasses.asdict(audit)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _run_dir_name(cell: engine.RunOutput, by_p_b: bool) -> str:
    p_b = f"_p{cell.cfg.channel.p_b:g}" if by_p_b else ""
    return f"run_g{cell.cfg.xapp.snr_min_db:g}{p_b}_r{cell.replication}"


def _check_dir_names(spec: SweepSpec, by_p_b: bool) -> None:
    """Refuse a grid whose values `_run_dir_name` would write to one directory."""
    for key in ("gamma_min_values", "p_b_values") if by_p_b else ("gamma_min_values",):
        names = [f"{v:g}" for v in getattr(spec, key)]
        if len(set(names)) < len(names):
            raise ConfigurationError(
                f"{key} must name distinct cell directories: {','.join(names)}")


def _write_cell(out: Path, spec: SweepSpec, cell: engine.RunOutput, outputs: list[str]) -> None:
    """One run's metrics.csv and re-runnable manifest.json, echoing the run's
    own config over the command's sweep keys."""
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "metrics.csv", _METRICS_COLUMNS, cell.records)
    _write_manifest(out / "manifest.json", "run", dataclasses.replace(spec, base=cell.cfg), outputs,
                    cell.runtime_s, cell.audit)


# --- commands ---------------------------------------------------------------------

def cmd_run(spec: SweepSpec, out: Path) -> None:
    cell = engine.run_cell(spec.base)
    _write_cell(out, spec, cell, ["metrics.csv", "summary.csv", "manifest.json"])
    mode = "relay" if spec.base.xapp.max_hops > 1 else "direct"
    _write_csv(out / "summary.csv", _SUMMARY_COLUMNS, [engine.summarise([cell], mode)])


def cmd_sweep(command: str, spec: SweepSpec, out: Path) -> None:
    by_p_b = command == "sweep-blockage"
    _check_dir_names(spec, by_p_b)
    started = time.perf_counter()
    result = engine.sweep_blockage(spec) if by_p_b else engine.sweep_snr(spec)
    runtime_s = time.perf_counter() - started
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "summary.csv", _SUMMARY_COLUMNS, result.rows)
    outputs = ["summary.csv"]
    for cell in result.runs:
        name = _run_dir_name(cell, by_p_b)
        _write_cell(out / name, spec, cell, ["metrics.csv"])
        outputs.extend([f"{name}/metrics.csv", f"{name}/manifest.json"])
    outputs.append("manifest.json")
    _write_manifest(out / "manifest.json", command, spec, outputs, runtime_s)


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


# Flags that always set one key: argparse dest -> key. --snr-min and --p-b set
# a key that depends on the command, and --no-relay overrides max_hops to 1.
_FLAG_KEYS = {"seed": "seed", "duration": "duration_s", "warmup": "warmup_s",
              "density": "density_veh_km", "max_hops": "max_hops", "metric": "metric_mode",
              "replications": "replications", "workers": "workers"}


def _flag_overrides(args: argparse.Namespace) -> dict[str, str]:
    overrides = {key: getattr(args, dest) for dest, key in _FLAG_KEYS.items()
                 if getattr(args, dest) is not None}
    if args.snr_min is not None:
        overrides["snr_min_db" if args.command == "run" else "gamma_min_values"] = args.snr_min
    if args.p_b is not None:
        overrides["p_b_values" if args.command == "sweep-blockage" else "p_b"] = args.p_b
    if args.no_relay:
        overrides["max_hops"] = "1"
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
        spec = parse_config(merged)
        out = Path(args.out)
        if args.command == "run":
            cmd_run(spec, out)
        else:
            cmd_sweep(args.command, spec, out)
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
