//! Per-loop cycle attribution for the Livermore benchmark.
//!
//! Charges every cycle of a benchmark run to the Livermore loop executing
//! at the time, giving a per-kernel breakdown the paper's aggregate metric
//! hides: which loops are fetch-bound at a given cache size, and which are
//! data/FPU-bound.
//!
//! A profiled point is an ordinary sweep job whose regions are the loop
//! bodies (see [`SweepJob::with_regions`]): the [`SweepRunner`] traces it
//! with a [`RegionProfiler`](pipe_core::RegionProfiler), then memoizes,
//! stores, and resumes it like any other point, so a warm
//! `repro --profile --resume` loads the counts instead of tracing again.

use pipe_core::Region;
use pipe_icache::PrefetchPolicy;
use pipe_isa::InstrFormat;
use pipe_mem::MemConfig;
use pipe_workloads::LivermoreSuite;

use crate::figures::figure_mem;
use crate::matrix::StrategyKind;
use crate::runner::ExperimentPoint;
use crate::sweep::{
    livermore_suite, FailedJob, SweepError, SweepJob, SweepOutcome, SweepRunner, WorkloadSpec,
};

/// The strategies the paper profile attributes, in print order.
pub const PROFILE_STRATEGIES: [StrategyKind; 2] =
    [StrategyKind::Pipe16x16, StrategyKind::Conventional];

/// The cache size of the paper profile, in bytes.
pub const PROFILE_CACHE_BYTES: u32 = 128;

/// One loop's share of a profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopShare {
    /// 1-based loop number.
    pub index: usize,
    /// Kernel name.
    pub name: &'static str,
    /// Inner-loop size in bytes.
    pub inner_loop_bytes: u32,
    /// Cycles attributed to the loop body.
    pub cycles: u64,
    /// Instructions issued from the loop body.
    pub instructions: u64,
}

impl LoopShare {
    /// Cycles per instruction within this loop.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            f64::NAN
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

/// A profiled benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopProfile {
    /// Strategy label.
    pub label: String,
    /// Per-loop shares, in loop order.
    pub shares: Vec<LoopShare>,
    /// Cycles outside any loop body (prologues, drain).
    pub other_cycles: u64,
    /// Whole-run total cycles.
    pub total_cycles: u64,
}

/// A profile run: the profiles of the jobs that completed, plus the
/// runner's execution record.
#[derive(Debug, Clone)]
pub struct ProfileRun {
    /// `(strategy, profile)` for each completed job, in job order.
    pub profiles: Vec<(StrategyKind, LoopProfile)>,
    /// The sweep's execution record (counts, failed jobs, event-log path).
    pub outcome: SweepOutcome,
}

impl ProfileRun {
    /// Jobs that failed, in job order (empty for a complete run).
    pub fn failed(&self) -> &[FailedJob] {
        &self.outcome.failed
    }
}

/// Profiles [`PROFILE_STRATEGIES`] at [`PROFILE_CACHE_BYTES`] under the
/// fig. 5b memory timing on the paper's benchmark, through `runner` (run
/// id `profile`).
///
/// # Errors
///
/// Returns [`SweepError::Strict`] when the runner is strict and a job
/// failed.
pub fn try_profile_with(runner: &SweepRunner) -> Result<ProfileRun, SweepError> {
    let points = PROFILE_STRATEGIES.map(|kind| (kind, PROFILE_CACHE_BYTES));
    try_profile_points(runner, 1, &points, figure_mem("5b").0)
}

/// Profiles each `(strategy, cache size)` of `points` under `mem` on the
/// Livermore benchmark at iteration divisor `scale`. A point whose cache
/// is smaller than the strategy's line is skipped.
fn try_profile_points(
    runner: &SweepRunner,
    scale: u32,
    points: &[(StrategyKind, u32)],
    mem: MemConfig,
) -> Result<ProfileRun, SweepError> {
    let format = InstrFormat::Fixed32;
    let workload = WorkloadSpec::Livermore { format, scale };
    let suite = livermore_suite(format, scale);
    let mut jobs = Vec::new();
    for &(kind, cache) in points {
        if let Some(fetch) = kind.fetch_for(cache, PrefetchPolicy::TruePrefetch) {
            let job = SweepJob::new(&workload, jobs.len(), kind, kind.label(), cache, fetch, mem);
            jobs.push(job.with_regions(loop_regions(&suite)));
        }
    }
    let outcome = runner.try_run_jobs("profile", &workload, &jobs)?;
    let profiles = jobs
        .iter()
        .zip(&outcome.points)
        .filter_map(|(job, o)| Some((job.kind, loop_profile(&suite, job, &o.as_ref()?.point))))
        .collect();
    Ok(ProfileRun { profiles, outcome })
}

/// One region per Livermore loop body, in loop order.
fn loop_regions(suite: &LivermoreSuite) -> Vec<Region> {
    suite
        .loops()
        .iter()
        .map(|info| Region {
            name: format!("LL{}", info.index),
            start: info.top_address,
            end: info.top_address + info.inner_loop_bytes,
        })
        .collect()
}

/// The profile of a completed profiled job.
fn loop_profile(suite: &LivermoreSuite, job: &SweepJob, point: &ExperimentPoint) -> LoopProfile {
    let counts = point
        .profile
        .as_ref()
        .expect("the runner serves a profiled job only a point with region counts");
    let shares = suite
        .loops()
        .iter()
        .zip(&counts.per_region)
        .map(|(info, &(cycles, instructions))| LoopShare {
            index: info.index,
            name: info.name,
            inner_loop_bytes: info.inner_loop_bytes,
            cycles,
            instructions,
        })
        .collect();
    LoopProfile {
        label: job.fetch.label(),
        shares,
        other_cycles: counts.other_cycles,
        total_cycles: point.cycles,
    }
}

/// Renders a profile as a text table.
pub fn render_profile(profile: &LoopProfile) -> String {
    let mut out = format!(
        "per-loop cycle breakdown — {} ({} total cycles)\nloop  bytes  instructions      cycles    CPI   share\n",
        profile.label, profile.total_cycles
    );
    for s in &profile.shares {
        out.push_str(&format!(
            "LL{:<3} {:>5}  {:>12}  {:>10}  {:>5.2}  {:>5.1}%\n",
            s.index,
            s.inner_loop_bytes,
            s.instructions,
            s.cycles,
            s.cpi(),
            100.0 * s.cycles as f64 / profile.total_cycles as f64
        ));
    }
    out.push_str(&format!(
        "other (prologues, drain): {} cycles\n",
        profile.other_cycles
    ));
    out
}

/// Renders a profile as CSV: one row per loop, then an `other` row for
/// cycles outside any loop body and a `total` row. The `share` column is
/// each row's fraction of total cycles (0..1).
pub fn render_profile_csv(profile: &LoopProfile) -> String {
    let share = |cycles: u64| cycles as f64 / profile.total_cycles as f64;
    let mut out = String::from("loop,name,inner_loop_bytes,instructions,cycles,cpi,share\n");
    for s in &profile.shares {
        out.push_str(&format!(
            "LL{},{},{},{},{},{:.4},{:.4}\n",
            s.index,
            s.name,
            s.inner_loop_bytes,
            s.instructions,
            s.cycles,
            s.cpi(),
            share(s.cycles),
        ));
    }
    out.push_str(&format!(
        "other,,,,{},,{:.4}\n",
        profile.other_cycles,
        share(profile.other_cycles),
    ));
    let instructions: u64 = profile.shares.iter().map(|s| s.instructions).sum();
    out.push_str(&format!(
        "total,,,{},{},,1.0000\n",
        instructions, profile.total_cycles,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ResultStore;

    /// Profiles `points` on the scaled suite under the fig. 5b timing.
    fn scaled(runner: &SweepRunner, points: &[(StrategyKind, u32)]) -> ProfileRun {
        try_profile_points(runner, 20, points, figure_mem("5b").0).unwrap()
    }

    const PAPER_POINTS: [(StrategyKind, u32); 2] = [
        (StrategyKind::Pipe16x16, PROFILE_CACHE_BYTES),
        (StrategyKind::Conventional, PROFILE_CACHE_BYTES),
    ];

    fn temp_store(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pipe-profile-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn profile_accounts_for_all_cycles() {
        let run = try_profile_points(
            &SweepRunner::new(),
            20,
            &[(StrategyKind::Pipe16x16, 64)],
            MemConfig::default(),
        )
        .unwrap();
        let (kind, profile) = &run.profiles[0];
        assert_eq!(*kind, StrategyKind::Pipe16x16);
        let attributed: u64 = profile.shares.iter().map(|s| s.cycles).sum();
        assert_eq!(attributed + profile.other_cycles, profile.total_cycles);
        assert_eq!(profile.shares.len(), 14);
        for s in &profile.shares {
            assert!(s.instructions > 0, "LL{} never ran", s.index);
            assert!(s.cycles >= s.instructions, "LL{} CPI < 1", s.index);
        }
        let text = render_profile(profile);
        assert!(text.contains("LL14"));

        // CSV form: header, 14 loop rows, `other`, `total` — and the
        // cycle column re-sums to the run total.
        let csv = render_profile_csv(profile);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 14 + 2);
        assert!(lines[0].starts_with("loop,name,"));
        let cycles_of = |line: &str| line.split(',').nth(4).unwrap().parse::<u64>().unwrap();
        let body: u64 = lines[1..=14].iter().map(|l| cycles_of(l)).sum();
        assert_eq!(body + cycles_of(lines[15]), profile.total_cycles);
        assert!(lines[16].starts_with("total,"));
        assert!(lines[16].ends_with("1.0000"));
    }

    #[test]
    fn fetch_bound_loops_improve_with_cache_size() {
        // LL8 (732 B body) is fetch-bound at 64 B but not at 512 B.
        let run = scaled(
            &SweepRunner::new().jobs(2),
            &[
                (StrategyKind::Pipe16x16, 64),
                (StrategyKind::Pipe16x16, 512),
            ],
        );
        let ll8_small = run.profiles[0].1.shares[7].cpi();
        let ll8_large = run.profiles[1].1.shares[7].cpi();
        assert!(
            ll8_large < ll8_small,
            "LL8 CPI should drop with a larger cache: {ll8_small:.2} -> {ll8_large:.2}"
        );
    }

    #[test]
    fn warm_runner_loads_profiles_from_the_store() {
        let dir = temp_store("warm");
        let open = || ResultStore::open(&dir).unwrap();
        let cold = scaled(&SweepRunner::new().jobs(2).store(open()), &PAPER_POINTS);
        assert_eq!((cold.outcome.computed, cold.outcome.cached), (2, 0));

        let warm = scaled(
            &SweepRunner::new().store(open()).resume(true).events(&dir),
            &PAPER_POINTS,
        );
        assert_eq!((warm.outcome.computed, warm.outcome.cached), (0, 2));
        assert_eq!(warm.profiles, cold.profiles);
        for ((_, w), (_, c)) in warm.profiles.iter().zip(&cold.profiles) {
            assert_eq!(render_profile_csv(w), render_profile_csv(c));
        }
        let log = std::fs::read_to_string(warm.outcome.events_path.unwrap()).unwrap();
        assert_eq!(log.matches("\"source\":\"store\"").count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_profile_on_one_runner_is_a_memo_hit() {
        let runner = SweepRunner::new();
        let first = scaled(&runner, &PAPER_POINTS[..1]);
        let again = scaled(&runner, &PAPER_POINTS[..1]);
        assert_eq!((again.outcome.computed, again.outcome.cached), (0, 1));
        assert_eq!(again.profiles, first.profiles);
        let hit = &again.outcome.points[0].as_ref().unwrap().point;
        let orig = &first.outcome.points[0].as_ref().unwrap().point;
        assert_eq!(hit.stats, orig.stats, "the whole SimStats");
    }

    #[test]
    fn profiled_key_extends_the_plain_key_and_leaves_its_entry_alone() {
        let dir = temp_store("keys");
        let runner = SweepRunner::new().store(ResultStore::open(&dir).unwrap());
        let spec = crate::sweep::SweepSpec {
            strategies: vec![StrategyKind::Pipe16x16],
            cache_sizes: vec![PROFILE_CACHE_BYTES],
            workload: WorkloadSpec::Livermore {
                format: InstrFormat::Fixed32,
                scale: 20,
            },
            ..crate::sweep::SweepSpec::figure("5b")
        };
        let plain_job = &spec.expand()[0];
        let plain = runner.run(&spec);
        let store_file = |key: &str| {
            let name = format!("{:016x}.json", crate::store::fnv1a64(key.as_bytes()));
            std::fs::read(ResultStore::open(&dir).unwrap().dir().join(name)).unwrap()
        };
        let plain_entry = store_file(plain_job.key());

        let run = scaled(&runner, &PAPER_POINTS[..1]);
        assert_eq!((run.outcome.computed, run.outcome.cached), (1, 0));
        let profiled_job = &SweepJob::new(
            &spec.workload,
            0,
            StrategyKind::Pipe16x16,
            "16-16",
            PROFILE_CACHE_BYTES,
            plain_job.fetch,
            spec.mem,
        )
        .with_regions(loop_regions(&livermore_suite(InstrFormat::Fixed32, 20)));
        assert_ne!(profiled_job.key(), plain_job.key());
        let suffix = profiled_job.key().strip_prefix(plain_job.key()).unwrap();
        assert!(suffix.starts_with("|regions="), "{suffix}");
        assert_eq!(store_file(plain_job.key()), plain_entry);
        assert!(!String::from_utf8(plain_entry).unwrap().contains("regions"));
        assert!(String::from_utf8(store_file(profiled_job.key()))
            .unwrap()
            .contains("\"regions\":{"));
        assert_eq!(ResultStore::open(&dir).unwrap().len(), 2);

        // Tracing changes no statistic of the point.
        let traced = &run.outcome.points[0].as_ref().unwrap().point;
        let untraced = &plain.points[0].as_ref().unwrap().point;
        assert_eq!(traced.stats, untraced.stats);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_profile_job_is_reported_and_aborts_a_strict_run() {
        let inject = crate::sweep::FaultInjection {
            panic_jobs: vec![0],
            ..Default::default()
        };
        let run = scaled(&SweepRunner::new().inject(inject.clone()), &PAPER_POINTS);
        assert_eq!(run.failed().len(), 1);
        assert_eq!(run.failed()[0].label, "16-16");
        assert_eq!(run.profiles.len(), 1);
        assert_eq!(run.profiles[0].0, StrategyKind::Conventional);

        let strict = SweepRunner::new().strict(true).inject(inject);
        let err = try_profile_points(&strict, 20, &PAPER_POINTS, figure_mem("5b").0).unwrap_err();
        assert_eq!(err.partial().failed.len(), 1);
    }

    #[test]
    fn profiled_entry_without_regions_is_recomputed() {
        let dir = temp_store("stripped");
        let open = || ResultStore::open(&dir).unwrap();
        let cold = scaled(&SweepRunner::new().store(open()), &PAPER_POINTS);
        // Strip the region field from the first job's entry: it must read
        // as absent, not as a profile with no loops.
        let path = std::fs::read_dir(open().dir())
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| {
                std::fs::read_to_string(p)
                    .unwrap()
                    .contains("\"strategy\":\"16-16\"")
            })
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let at = text.find(",\"regions\":").unwrap();
        std::fs::write(&path, format!("{}}}\n", &text[..at])).unwrap();

        let warm = scaled(
            &SweepRunner::new().store(open()).resume(true),
            &PAPER_POINTS,
        );
        assert_eq!((warm.outcome.computed, warm.outcome.cached), (1, 1));
        assert!(!warm.outcome.points[0].as_ref().unwrap().cached);
        assert_eq!(warm.profiles, cold.profiles);
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .contains("\"regions\":{"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
