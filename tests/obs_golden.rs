//! Golden snapshot of the observability plane's end-to-end exports.
//!
//! Drives the seeded microburst scenario's dashboard feed
//! (`tpp_bench::obs_scenario` over `DashFeed::obs` — the same feed
//! `tpp_top --headless` prints) and pins the Prometheus snapshot and
//! the JSONL series dump against committed goldens; its dashboard
//! frames are pinned by `tests/dashboard_golden.rs`. The scenario is
//! fully deterministic (discrete-event time, seeded reservoirs, no wall
//! clock), so any diff is a real behavior change. Regenerate with
//! `UPDATE_GOLDEN=1`.

use std::path::Path;

use tpp_bench::obs_scenario::run_obs_scenario;
use tpp_bench::testgen::assert_matches_golden;

#[test]
fn obs_scenario_matches_goldens() {
    let run = run_obs_scenario();

    // The acceptance invariants first, so a broken scenario fails with
    // a readable message rather than a golden diff.
    assert_eq!(
        run.probes_sent, run.echoes_received,
        "scenario must be lossless"
    );
    assert_eq!(
        run.divergence_max_bytes, 0,
        "collector must match ground truth on a drained lossless run"
    );
    assert!(
        run.budget_violations > 0,
        "the incast must push spans past the 300 ns cut-through budget"
    );
    assert!(
        run.bursts_detected >= 1,
        "the monitor must detect the seeded microburst"
    );
    assert!(run.peak_queue_bytes > 10_000, "burst must actually queue");

    assert_matches_golden(Path::new("tests/golden/obs_snapshot.prom"), &run.prom);
    assert_matches_golden(Path::new("tests/golden/obs_series.jsonl"), &run.series);
}
