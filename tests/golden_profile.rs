//! Golden per-loop profile: `repro --profile` stdout, captured before the
//! profile ran through the sweep runner, must not move.
//!
//! The two totals are the fig. 5b points of PIPE 16-16 and the
//! conventional cache at 128 B: tracing a run changes none of its cycles.

use pipe_repro::experiments::profile::{render_profile, try_profile_with, PROFILE_CACHE_BYTES};
use pipe_repro::experiments::{StrategyKind, SweepRunner, SweepSpec};

#[test]
fn profile_tables_match_the_golden() {
    let run = try_profile_with(&SweepRunner::new().jobs(2)).expect("profile runs");
    assert!(run.failed().is_empty());
    let text: String = run
        .profiles
        .iter()
        .map(|(_, profile)| format!("{}\n", render_profile(profile)))
        .collect();
    assert_eq!(text, include_str!("golden/profile.txt"));

    let totals: Vec<(StrategyKind, u64)> = run
        .profiles
        .iter()
        .map(|(kind, profile)| (*kind, profile.total_cycles))
        .collect();
    assert_eq!(
        totals,
        [
            (StrategyKind::Pipe16x16, 568_221),
            (StrategyKind::Conventional, 983_820)
        ]
    );
    let fig5b = SweepSpec {
        strategies: vec![StrategyKind::Pipe16x16, StrategyKind::Conventional],
        cache_sizes: vec![PROFILE_CACHE_BYTES],
        ..SweepSpec::figure("5b")
    };
    let plain: Vec<u64> = SweepRunner::new()
        .jobs(2)
        .run(&fig5b)
        .series
        .iter()
        .map(|s| s.points[0].cycles)
        .collect();
    assert_eq!(plain, [568_221, 983_820]);
}
