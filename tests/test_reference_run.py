"""The run loop against the whole-run reference (`reference_run`), which
wires the per-layer oracles together on float time: on short configs the
run's records equal the reference's record for record, floats bit for bit,
and its audit equals the reference's."""

from dataclasses import replace

import pytest

from reference_run import measure, reference_run, scene
from v2xric import ChannelParams, NodeKind, SimConfig, TrafficConfig, XAppConfig, run_with_audit


def short(duration_s, density=50.0, **overrides):
    return SimConfig(duration_s=duration_s, warmup_s=0.0, seed=overrides.pop("seed", 3),
                     traffic=TrafficConfig(density_veh_km=density), **overrides)


CONFIGS = {
    "default": short(1.0),
    "matched-per-vehicle": short(1.0, 80.0, pair_selection="matched", metric_mode="per-vehicle"),
    "all-per-vehicle": short(1.0, 20.0, metric_mode="per-vehicle", seed=5),
    "matched-pairwise": short(1.0, 40.0, pair_selection="matched", seed=7),
    "combined-outage": short(0.5, channel=ChannelParams(p_b=0.3)),
    "certain-outage": short(0.3, channel=ChannelParams(p_b=1.0, blockage_mode="stochastic")),
    "stochastic-outage": short(0.5, 30.0, channel=ChannelParams(p_b=0.3, blockage_mode="stochastic")),
    "geometric": short(0.5, channel=ChannelParams(p_b=0.3, blockage_mode="geometric")),
    "cap-1": short(0.5, measured_neighbors=1),
    "cap-3-outage": short(0.5, measured_neighbors=3, channel=ChannelParams(p_b=0.3), seed=4),
    "infrastructure-only": short(1.0, 30.0, cav_terminations=False, xapp=XAppConfig(snr_min_db=0.0)),
    "no-delay": short(0.5, control_delay_s=0.0),
    "one-step-delay": short(0.5, control_delay_s=0.1),
    "part-step-delay": short(1.0, 30.0, control_delay_s=0.25),
    "slow-reports": short(2.0, 10.0, reporting_period_s=0.5),
    "slow-reports-fine-steps": short(1.0, 20.0, dt_s=0.05, control_period_s=0.1,
                                     reporting_period_s=0.3, control_delay_s=0.07),
    "window-on-the-grid": short(2.0, 10.0, reporting_period_s=0.5, staleness_window_s=0.2,
                                control_delay_s=0.0, seed=6),
    "window-off-the-grid": short(1.5, 15.0, reporting_period_s=0.5, staleness_window_s=0.25,
                                 control_delay_s=0.05),
    "direct-only": short(0.5, xapp=XAppConfig(snr_min_db=0.0, max_hops=1)),
    "two-hops": short(0.5, xapp=XAppConfig(snr_min_db=10.0, max_hops=2)),
    "three-hops": short(0.5, 30.0, xapp=XAppConfig(snr_min_db=15.0, max_hops=3)),
    "five-hops-lowest-threshold": short(0.3, 20.0, xapp=XAppConfig(snr_min_db=-300.0, max_hops=5)),
}


def assert_same_run(cfg):
    records, audit = run_with_audit(cfg)
    want_records, want_audit = reference_run(cfg)
    assert len(records) == len(want_records) == len(range(0, cfg.n_steps(),
                                                          cfg.steps(cfg.control_period_s)))
    for got, want in zip(records, want_records):
        assert repr(got) == repr(want)  # repr round-trips every float
    assert audit == want_audit
    return records, audit


@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
def test_run_matches_the_reference_run(cfg):
    assert_same_run(cfg)


def test_run_matches_the_reference_run_at_a_threshold_on_a_measured_link():
    """The threshold set to the SNR of a vehicle link measured at the first
    step, with no blockage and no delay: the link is an edge at exactly the
    threshold in the first tick, and the run still matches."""
    cfg = short(0.3, 30.0, channel=ChannelParams(blockage_mode="stochastic"),
                control_delay_s=0.0)
    layout, rsus, vehicles = scene(cfg)
    links = measure(cfg, layout, rsus, vehicles, 0.0)
    snrs = sorted(snr for u, mine in links.items() for v, snr in mine.items()
                  if u < v and u.kind == v.kind == NodeKind.CAV and snr >= -300.0)
    gamma = snrs[len(snrs) // 2]
    records, _ = assert_same_run(replace(cfg, xapp=XAppConfig(snr_min_db=gamma)))
    assert records[0].pairs_direct > 0
