//! End-to-end fault tolerance. A sweep with one injected worker panic and
//! one injected store-write failure completes every other job, reports
//! the failed point in both the outcome and the JSONL event log, and
//! keeps every successful cycle count bit-identical to a serial,
//! fault-free run. Ablation panels and design studies fail the same way.

use pipe_experiments::studies::Study;
use pipe_experiments::{
    ablation_panels, render_failures, render_text, try_ablation_with, FaultInjection, JobError,
    ResultStore, StrategyKind, SweepError, SweepRunner, SweepSpec, WorkloadSpec,
};
use pipe_icache::PrefetchPolicy;
use pipe_isa::InstrFormat;
use pipe_mem::MemConfig;

fn spec(id: &str) -> SweepSpec {
    SweepSpec {
        id: id.to_string(),
        strategies: vec![StrategyKind::Conventional, StrategyKind::Pipe16x16],
        cache_sizes: vec![32, 64, 128],
        mem: MemConfig {
            access_cycles: 3,
            ..MemConfig::default()
        },
        policy: PrefetchPolicy::TruePrefetch,
        workload: WorkloadSpec::TightLoop {
            body: 6,
            trips: 30,
            format: InstrFormat::Fixed32,
        },
    }
}

#[test]
fn panic_plus_store_failure_yields_partial_outcome_with_identical_survivors() {
    let dir = std::env::temp_dir().join(format!("pipe-ft-accept-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let serial: Vec<(String, u32, u64)> = SweepRunner::new()
        .run(&spec("accept"))
        .series
        .iter()
        .flat_map(|s| {
            s.points
                .iter()
                .map(|p| (s.label.clone(), p.cache_bytes, p.cycles))
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(serial.len(), 6);

    let outcome = SweepRunner::new()
        .jobs(4)
        .store(ResultStore::open(&dir).unwrap())
        .events(&dir)
        .inject(FaultInjection {
            panic_jobs: vec![2],
            store_fail_jobs: vec![4],
        })
        .run(&spec("accept"));

    // Exactly the panicked job failed; the store-failing job succeeded.
    assert_eq!(outcome.failed.len(), 1);
    assert_eq!(outcome.failed[0].index, 2);
    assert!(matches!(outcome.failed[0].error, JobError::Panic(_)));
    assert_eq!(outcome.computed, 5);
    assert!(outcome.store_degraded);

    // Every surviving point is bit-identical to the serial run.
    for s in &outcome.series {
        for p in &s.points {
            assert!(
                serial.contains(&(s.label.clone(), p.cache_bytes, p.cycles)),
                "{} @ {}B diverged from serial",
                s.label,
                p.cache_bytes
            );
        }
    }

    // The event log records the failure, the degradation, and a partial
    // run summary.
    let events = std::fs::read_to_string(outcome.events_path.as_ref().unwrap()).unwrap();
    assert_eq!(
        events
            .lines()
            .filter(|l| l.contains("\"event\":\"job_failed\""))
            .count(),
        1
    );
    assert!(events.contains("\"event\":\"store_degraded\""));
    let last = events.lines().last().unwrap();
    assert!(last.contains("\"event\":\"run_finish\"") && last.contains("\"failed\":1"));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn strict_mode_aborts_with_typed_error() {
    let err = SweepRunner::new()
        .strict(true)
        .inject(FaultInjection {
            panic_jobs: vec![0],
            ..FaultInjection::default()
        })
        .try_run(&spec("accept-strict"))
        .unwrap_err();
    let SweepError::Strict(partial) = &err;
    assert_eq!(partial.failed.len(), 1);
    assert!(!partial.is_complete());
}

fn panics(jobs: Vec<usize>) -> FaultInjection {
    FaultInjection {
        panic_jobs: jobs,
        ..FaultInjection::default()
    }
}

#[test]
fn failing_ablation_points_are_reported_like_sweep_failures() {
    // Every job of the TIB panel panics before it simulates, so the test
    // covers the failure path without running the full benchmark.
    let jobs = ablation_panels("tib")[0].0.expand().len();
    let all: Vec<usize> = (0..jobs).collect();
    let runs = try_ablation_with("tib", &SweepRunner::new().inject(panics(all))).unwrap();
    assert_eq!(runs.len(), 1);
    let failed = runs[0].failed();
    assert_eq!(failed.len(), jobs);
    assert!(failed.iter().all(|f| matches!(f.error, JobError::Panic(_))));

    let missing = format!(" {:>12}", "-").repeat(3);
    assert!(render_text(&runs[0].figure).contains(&format!("      16B |{missing}\n")));
    let report = render_failures(failed);
    assert!(report.contains(&format!("{jobs} point(s) failed")));
    assert!(report.contains("[failed] conventional @ 16B (job 0): worker panicked"));

    let err = try_ablation_with(
        "tib",
        &SweepRunner::new().strict(true).inject(panics(vec![0])),
    )
    .unwrap_err();
    assert_eq!(err.partial().failed.len(), 1);
    assert_eq!(err.partial().computed, 0, "fail-fast: nothing after job 0");
}

#[test]
fn failing_study_points_are_reported_like_sweep_failures() {
    let workload = WorkloadSpec::Livermore {
        format: InstrFormat::Fixed32,
        scale: 20,
    };
    let study = Study::QueueSize;
    let runner = SweepRunner::new().jobs(2).inject(panics(vec![1]));
    let outcome = study.run(&runner, &workload).unwrap();
    assert_eq!(outcome.failed.len(), 1);
    assert_eq!(outcome.failed[0].label, "iq8-iqb16");
    assert_eq!(outcome.computed, 8);
    assert!(outcome.points[1].is_none());

    // Row IQ 8B, column IQB 16B reads `-`; its neighbours are measured.
    let table = study.render(&outcome.points);
    let row = table
        .lines()
        .find(|l| l.starts_with("       8B |"))
        .unwrap();
    let cells: Vec<&str> = row.split_whitespace().skip(2).collect();
    assert_eq!(cells.len(), 3);
    assert_eq!(cells[1], "-", "{row}");
    assert!(cells[0].ends_with('k') && cells[2].ends_with('k'), "{row}");
    assert!(render_failures(&outcome.failed).contains("[failed] iq8-iqb16 @ 64B (job 1)"));

    let strict = SweepRunner::new().strict(true).inject(panics(vec![0]));
    let err = study.run(&strict, &workload).unwrap_err();
    assert_eq!(err.partial().failed.len(), 1);
    assert_eq!(err.partial().computed, 0, "fail-fast: nothing after job 0");
}
