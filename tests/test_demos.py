"""Smoke tests of the demos that finish in seconds, run in-process.

The run and sweep demos simulate 60-120 s each and are left to be run by hand.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script,expected", [
    ("intersection_tour.py", [
        "intersection layout",
        "  total road      : 800 m",
        "roadside units (corner masts)",
        "seeded traffic snapshot (seed 7)",
        "  vehicles spawned: 42",
        "following CAV-37 (turn probability forced to 1)",
    ]),
    ("channel_curves.py", [
        "noise floor: -85.0 dBm",
        "  100 |  103.34 dB |    123.79 dB |   +4.66 |   -15.79",
        "with another car in between: line of sight, snr +13.01 dB",
        "with a truck     in between: blocked, snr -1.75 dB",
        "random blockage at p_b=0.3: empirical rate 0.3005 over 19900 links",
    ]),
])
def test_demo_prints_its_key_lines(capsys, script, expected):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    for text in expected:
        assert any(line.startswith(text) for line in lines), text
