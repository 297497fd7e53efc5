//! Store-key coverage over every ablation and study job: two jobs share a
//! store key exactly when they simulate the same (workload, memory,
//! fetch) configuration, so a store hit never stands in for a different
//! point, and each run writes its own event log.

use pipe_experiments::studies::{Study, ALL_STUDIES};
use pipe_experiments::{ablation_panels, SweepJob, WorkloadSpec, ALL_ABLATIONS, ALL_FIGURES};

fn study_jobs(study: Study) -> Vec<SweepJob> {
    study.jobs(&WorkloadSpec::livermore())
}

fn all_distinct(jobs: &[SweepJob]) -> bool {
    let mut keys: Vec<&str> = jobs.iter().map(SweepJob::key).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len() == jobs.len()
}

#[test]
fn keys_are_equal_exactly_when_configurations_are() {
    let mut all: Vec<(WorkloadSpec, SweepJob)> = Vec::new();
    for id in ALL_ABLATIONS {
        for (spec, _) in ablation_panels(id) {
            all.extend(
                spec.expand()
                    .into_iter()
                    .map(|j| (spec.workload.clone(), j)),
            );
        }
    }
    let livermore = WorkloadSpec::livermore();
    for study in ALL_STUDIES {
        all.extend(
            study
                .jobs(&livermore)
                .into_iter()
                .map(|j| (livermore.clone(), j)),
        );
    }
    for (i, (wa, a)) in all.iter().enumerate() {
        for (wb, b) in &all[i + 1..] {
            let same = wa == wb && a.mem == b.mem && a.fetch == b.fetch;
            assert_eq!(a.key() == b.key(), same, "{} vs {}", a.key(), b.key());
        }
    }
}

#[test]
fn study_keys_separate_every_varied_parameter() {
    let queue = study_jobs(Study::QueueSize);
    assert_eq!(queue.len(), 9);
    assert!(all_distinct(&queue), "IQ x IQB cells");

    for pair in study_jobs(Study::PartialLine).chunks(2) {
        assert_ne!(pair[0].key(), pair[1].key(), "whole vs partial line");
    }
    for row in study_jobs(Study::HillPrefetch).chunks(3) {
        assert!(all_distinct(row), "Hill prefetch modes");
    }

    // The infinite external cache first, then the four finite sizes.
    let ext = study_jobs(Study::ExternalCache);
    assert_eq!(ext.len(), 5);
    assert!(all_distinct(&ext), "external cache sizes");
}

#[test]
fn run_ids_and_event_logs_are_unique() {
    let ablations: Vec<String> = ALL_ABLATIONS
        .iter()
        .flat_map(|id| ablation_panels(id))
        .map(|(spec, _)| spec.id)
        .collect();
    assert_eq!(ablations.len(), 9);
    // Each run writes `events/<id>.jsonl`, so ids must not collide with
    // each other, the figures, or the studies.
    let mut ids: Vec<String> = ablations
        .into_iter()
        .chain(ALL_FIGURES.iter().map(|f| format!("fig{f}")))
        .chain(ALL_STUDIES.iter().map(|s| s.id().to_string()))
        .collect();
    let n = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n);
}
