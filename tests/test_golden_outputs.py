"""Golden outputs: four short CLI commands must write byte-identical CSVs
and equal manifests.

Each command runs once in process through `cli.main`; the sha256 of every CSV
it writes, and of every manifest.json without its `runtime_s`, is pinned
below. A refactor that keeps the outputs unchanged passes; one that moves any
byte of any CSV or any other manifest value fails, naming the file.
"""

import hashlib
import json

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
    "no-relay-run": (None, ["run", "--duration", "2", "--warmup", "0", "--seed", "5",
                            "--no-relay"]),
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
    "no-relay-run": {
        "metrics.csv": "d303af5dbd464c08214e8f7960d03ac4028aa817003be743dc24180587aa7cf8",
        "summary.csv": "f5738556ca4b0b62e045cb7d5f2b72f83a86d8c54955b0451df0db33a3defe4b",
    },
}


GOLDEN_MANIFESTS = {
    "blockage-grid": {
        "manifest.json": "036ca1c94a8118b0a4bddb4701b17a3a7e3eaebea9715e430f3a091a52885445",
        "run_g15_p0.5_r0/manifest.json": "8fa72b0995e58b8de14e38a38147aff3cd35a307c1fefc2d50f233e7ffe7d855",
        "run_g15_p0_r0/manifest.json": "79c505f883a33b37208e9c8a75651d8791a00dba06045cc29996f3e5f5fe9eef",
        "run_g5_p0.5_r0/manifest.json": "ee3fc1c7bf2221c6a9d032f4c018fb25927edab07dc9f3acf7b3dcdccf233046",
        "run_g5_p0_r0/manifest.json": "42e94d1034feb066172f107bdd8516c29c1b1e81355626f58518f9135034b07b",
    },
    "default-run": {
        "manifest.json": "882947416935b65ac16fd911858ad9569530eda8efc2f91931d95e5eb6abf054",
    },
    "matched-run": {
        "manifest.json": "a0be4d51d6182098b4dd805bb21fbec49f8ea8ef24b0733f3c428492de0938f3",
    },
    "no-relay-run": {
        "manifest.json": "d010f6fca36e7aa180e719ea2d70c99883b852f23e37d2417b074f518b952ffb",
    },
}


def csv_hashes(out):
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*.csv"))}


def manifest_hashes(out):
    hashes = {}
    for path in sorted(out.rglob("manifest.json")):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        del manifest["runtime_s"]
        text = json.dumps(manifest, indent=2, sort_keys=True)
        hashes[path.relative_to(out).as_posix()] = hashlib.sha256(text.encode()).hexdigest()
    return hashes


@pytest.fixture(scope="module", params=sorted(COMMANDS))
def written(request, tmp_path_factory):
    """(command name, output directory) after running the command once."""
    config, argv = COMMANDS[request.param]
    tmp = tmp_path_factory.mktemp(request.param)
    if config is not None:
        (tmp / "cfg.txt").write_text(config, encoding="utf-8")
        argv = argv + ["--config", str(tmp / "cfg.txt")]
    assert main(argv + ["--out", str(tmp / "out")]) == 0
    return request.param, tmp / "out"


def test_csv_outputs_match_golden_hashes(written):
    name, out = written
    assert csv_hashes(out) == GOLDEN[name]


def test_manifests_match_golden_hashes(written):
    name, out = written
    assert manifest_hashes(out) == GOLDEN_MANIFESTS[name]
