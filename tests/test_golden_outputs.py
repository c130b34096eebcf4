"""Golden outputs: three short CLI commands must write byte-identical CSVs.

Each command runs in process through `cli.main`; the sha256 of every CSV it
writes is pinned below. A refactor that keeps the outputs unchanged passes;
one that moves any byte of any CSV fails, naming the file.
"""

import hashlib

import pytest

from v2xric.cli import main

MATCHED = """\
metric_mode = per-vehicle
pair_selection = matched
p_b = 0.3
measured_neighbors = 3
cav_terminations = false
"""

COMMANDS = {
    "default-run": (None, ["run", "--duration", "2", "--warmup", "0", "--seed", "5"]),
    "matched-run": (MATCHED, ["run", "--duration", "2", "--warmup", "0", "--seed", "6"]),
    "blockage-grid": (None, ["sweep-blockage", "--duration", "1", "--warmup", "0",
                             "--seed", "3", "--snr-min", "5,15", "--p-b", "0,0.5"]),
}

GOLDEN = {
    "blockage-grid": {
        "run_g15_p0.5_r0/metrics.csv": "aa93e7d6adb4696828003f44248333877e8b2ee570f9f487b9aa3f5eda16a5b8",
        "run_g15_p0_r0/metrics.csv": "e6614146933e7538e36d380fb3be2ce40e4b517a52620f8e019dfa93cd1b8481",
        "run_g5_p0.5_r0/metrics.csv": "5dc7a2243c9877c1b68d3113da0446c7a79c33965fa691417a40bea631d765b5",
        "run_g5_p0_r0/metrics.csv": "8d8d0366c1dcc035ae350b7a8816264ac25f162a81473a4aa0e4219b4c9fbd70",
        "summary.csv": "b8ac36992fe77a8f9514483ffc16c035a1524daaa669b3697a161f7aa86bf508",
    },
    "default-run": {
        "metrics.csv": "3d21a537cb9c2d5b14cf8c27f9c18143cf760ea4e688893df5e7997bbadd71e6",
        "summary.csv": "738cb02a48fdecd4f15fe2b3803a80412d97b0a9b821738d07764ae5dbb96bbb",
    },
    "matched-run": {
        "metrics.csv": "bd489df90496b389a40752bd5973d72ab925553e7c9e08e07e43f9551da0a50f",
        "summary.csv": "4f982b7727342504d0ce6682098381206025cf0094cd1baf912d401f53446515",
    },
}


def csv_hashes(out):
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*.csv"))}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_csv_outputs_match_golden_hashes(tmp_path, name):
    config, argv = COMMANDS[name]
    if config is not None:
        (tmp_path / "cfg.txt").write_text(config, encoding="utf-8")
        argv = argv + ["--config", str(tmp_path / "cfg.txt")]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert csv_hashes(out) == GOLDEN[name]
