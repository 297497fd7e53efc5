//! Figure definitions: the paper's six figure panels and the ablations.

use pipe_icache::PrefetchPolicy;
use pipe_isa::InstrFormat;
use pipe_mem::{DCacheConfig, MemConfig, PriorityPolicy};

use crate::matrix::{sweep_sizes, StrategyKind, ALL_STRATEGIES};
use crate::runner::ExperimentPoint;
use crate::sweep::{
    FailedJob, SweepError, SweepJob, SweepOutcome, SweepRunner, SweepSpec, WorkloadSpec,
};

/// One curve of a figure: a strategy swept over cache sizes.
#[derive(Debug, Clone)]
pub struct Series {
    /// Curve label ("conventional", "8-8", ...).
    pub label: String,
    /// The strategy.
    pub kind: StrategyKind,
    /// Measured points, ascending cache size.
    pub points: Vec<ExperimentPoint>,
}

/// A reproduced figure panel.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier ("4a", "6b", "ablation-priority", ...).
    pub id: String,
    /// Human-readable description.
    pub title: String,
    /// The memory configuration the panel was measured under.
    pub mem: MemConfig,
    /// One series per strategy.
    pub series: Vec<Series>,
}

/// The paper's figure panels.
pub const ALL_FIGURES: [&str; 6] = ["4a", "4b", "5a", "5b", "6a", "6b"];

/// The ablation identifiers supported by [`try_ablation_with`].
pub const ALL_ABLATIONS: [&str; 5] = ["access", "priority", "prefetch", "format", "tib"];

fn mem_for(access: u32, bus: u32, pipelined: bool) -> MemConfig {
    MemConfig {
        access_cycles: access,
        pipelined,
        in_bus_bytes: bus,
        ..MemConfig::default()
    }
}

/// The memory configuration of a paper figure panel.
///
/// # Panics
///
/// Panics on an unknown id; use [`ALL_FIGURES`].
pub fn figure_mem(id: &str) -> (MemConfig, &'static str) {
    match id {
        "4a" => (
            mem_for(1, 4, false),
            "total execution time, 1-cycle memory, non-pipelined, 4-byte bus",
        ),
        "4b" => (
            mem_for(1, 8, false),
            "total execution time, 1-cycle memory, non-pipelined, 8-byte bus",
        ),
        "5a" => (
            mem_for(6, 4, false),
            "total execution time, 6-cycle memory, non-pipelined, 4-byte bus",
        ),
        "5b" => (
            mem_for(6, 8, false),
            "total execution time, 6-cycle memory, non-pipelined, 8-byte bus",
        ),
        "6a" => (
            mem_for(6, 8, false),
            "total execution time, 6-cycle memory, 8-byte bus, non-pipelined (same data as 5b)",
        ),
        "6b" => (
            mem_for(6, 8, true),
            "total execution time, 6-cycle memory, 8-byte bus, pipelined",
        ),
        other => panic!("unknown figure id {other:?}"),
    }
}

/// A reproduced figure panel plus the run's execution record — how many
/// points were simulated, loaded from the store, or failed.
#[derive(Debug, Clone)]
pub struct FigureRun {
    /// The (possibly partial) figure: failed points are missing from
    /// their series, never zeroed.
    pub figure: Figure,
    /// The sweep's execution record (counts, failed jobs, degradation,
    /// event-log path).
    pub outcome: SweepOutcome,
}

impl FigureRun {
    /// Jobs that failed, in expansion order (empty for a complete run).
    pub fn failed(&self) -> &[FailedJob] {
        &self.outcome.failed
    }

    /// Runs `spec` and presents its series as the figure `spec.id`.
    fn sweep(spec: SweepSpec, title: String, runner: &SweepRunner) -> Result<Self, SweepError> {
        let outcome = runner.try_run(&spec)?;
        Ok(FigureRun {
            figure: Figure {
                id: spec.id,
                title,
                mem: spec.mem,
                series: outcome.series.clone(),
            },
            outcome,
        })
    }
}

/// Reproduces one of the paper's figure panels using `runner` for
/// execution (worker count, result store, events, progress), returning
/// the partial figure and failed-job list rather than panicking when
/// jobs fail.
///
/// # Errors
///
/// Returns [`SweepError::Strict`] when the runner is strict and a job
/// failed; the error carries the partial outcome.
///
/// # Panics
///
/// Panics on an unknown id; valid ids are listed in [`ALL_FIGURES`].
pub fn try_figure_with(id: &str, runner: &SweepRunner) -> Result<FigureRun, SweepError> {
    let title = format!("Figure {id}: {}", figure_mem(id).1);
    FigureRun::sweep(SweepSpec::figure(id), title, runner)
}

/// Reproduces one of the paper's figure panels with its workload replaced
/// — typically a [`WorkloadSpec::Trace`] so the whole sweep runs
/// trace-driven (`repro --from-trace`). The figure id, strategies, cache
/// sizes, and memory timing are unchanged; the title marks the
/// substituted workload and the store keys on the workload's content.
///
/// # Errors
///
/// Returns [`SweepError::Strict`] when the runner is strict and a job
/// failed; the error carries the partial outcome.
///
/// # Panics
///
/// Panics on an unknown id; valid ids are listed in [`ALL_FIGURES`].
pub fn try_figure_with_workload(
    id: &str,
    runner: &SweepRunner,
    workload: WorkloadSpec,
) -> Result<FigureRun, SweepError> {
    let title = format!(
        "Figure {id}: {} [workload: {}]",
        figure_mem(id).1,
        workload.key()
    );
    let spec = SweepSpec {
        workload,
        ..SweepSpec::figure(id)
    };
    FigureRun::sweep(spec, title, runner)
}

/// The figure id of the joint I/D cache-size sweep (`--sweep id`) — not
/// one of the paper's panels, but the study its shared-memory-port model
/// makes possible once a data cache exists.
pub const JOINT_ID_FIGURE: &str = "id";

/// The D-cache settings the joint I/D sweep walks: none (the paper's
/// model — every data access arbitrates for the shared port), then
/// growing 2-way write-through caches with 16-byte lines.
fn joint_d_settings() -> Vec<(Option<DCacheConfig>, String)> {
    let mut settings = vec![(None, "no-d$".to_string())];
    for size in [64u32, 128, 256] {
        settings.push((
            Some(DCacheConfig {
                size_bytes: size,
                line_bytes: 16,
                ways: 2,
            }),
            format!("d${size}B"),
        ));
    }
    settings
}

/// Reproduces the joint I/D cache-size sweep on the assembled matrix
/// multiply (`programs/matmul.s`): each D-cache setting re-sweeps the
/// I-cache sizes for the conventional cache and PIPE 16-16, under a slow
/// narrow memory port (6-cycle access, 4-byte bus) where I-fetch and
/// D-miss traffic visibly contend. All points run as one job list; series
/// are labelled `<strategy> | <d-cache>`.
///
/// # Errors
///
/// Returns [`SweepError::Strict`] when the runner is strict and a job
/// failed; the error carries the partial outcome.
pub fn try_joint_id_figure_with(runner: &SweepRunner) -> Result<FigureRun, SweepError> {
    let workload =
        WorkloadSpec::asm("matmul", InstrFormat::Fixed32).expect("bundled program assembles");
    let base = mem_for(6, 4, false);
    // One series per (D-cache setting, strategy): its label and job range.
    let mut jobs = Vec::new();
    let mut groups = Vec::new();
    for (d_cache, d_label) in joint_d_settings() {
        let mem = MemConfig { d_cache, ..base };
        for kind in [StrategyKind::Conventional, StrategyKind::Pipe16x16] {
            let (label, start) = (format!("{} | {d_label}", kind.label()), jobs.len());
            for &size in sweep_sizes() {
                if let Some(fetch) = kind.fetch_for(size, PrefetchPolicy::TruePrefetch) {
                    let job = SweepJob::new(&workload, jobs.len(), kind, &*label, size, fetch, mem);
                    jobs.push(job);
                }
            }
            groups.push((label, kind, start..jobs.len()));
        }
    }
    let mut outcome = runner.try_run_jobs(&format!("fig{JOINT_ID_FIGURE}"), &workload, &jobs)?;
    let series: Vec<Series> = groups
        .into_iter()
        .map(|(label, kind, range)| Series {
            label,
            kind,
            points: outcome.points[range]
                .iter()
                .flatten()
                .map(|o| o.point.clone())
                .collect(),
        })
        .collect();
    outcome.series = series.clone();
    Ok(FigureRun {
        figure: Figure {
            id: format!("fig{JOINT_ID_FIGURE}"),
            title: format!(
                "Joint I/D sweep: I-cache sizes x D-cache sizes, \
                 6-cycle memory, 4-byte bus [workload: {}]",
                workload.key()
            ),
            mem: base,
            series,
        },
        outcome,
    })
}

/// The panels of one ablation study (see [`ALL_ABLATIONS`]), each an
/// ordinary sweep with a unique id, paired with its title:
///
/// * `"access"` — memory access times 2 and 3 (the paper reports these
///   "showed similar results" to access time 6); one panel per access
///   time at an 8-byte bus.
/// * `"priority"` — instruction-first vs data-first arbitration
///   (paper §5's selectable priority) at access 6, bus 8.
/// * `"prefetch"` — true prefetch vs the chip's guaranteed-execution-only
///   policy (paper §6, second paragraph) at access 6, bus 8.
/// * `"format"` — fixed 32-bit vs the chip's mixed 16/32-bit instruction
///   format (paper parameter 1) at access 6, bus 8.
/// * `"tib"` — a cache-less Target Instruction Buffer (paper §2.1) swept
///   over total hardware budgets, against the conventional cache and PIPE
///   16-16 at the same budgets; verifies §2.1's claims that a small TIB
///   can beat a small cache while generating far more off-chip traffic.
///
/// # Panics
///
/// Panics on an unknown id.
pub fn ablation_panels(id: &str) -> Vec<(SweepSpec, String)> {
    let slow = mem_for(6, 8, false);
    let panel = |id: String, mem, policy, strategies: &[StrategyKind], format, what: String| {
        let spec = SweepSpec {
            id,
            strategies: strategies.to_vec(),
            cache_sizes: sweep_sizes().to_vec(),
            mem,
            policy,
            workload: WorkloadSpec::Livermore { format, scale: 1 },
        };
        (spec, format!("ablation: {what}"))
    };
    let (true_prefetch, fixed) = (PrefetchPolicy::TruePrefetch, InstrFormat::Fixed32);
    match id {
        "access" => [2u32, 3]
            .map(|access| {
                panel(
                    format!("ablation-access{access}"),
                    mem_for(access, 8, false),
                    true_prefetch,
                    &ALL_STRATEGIES,
                    fixed,
                    format!("{access}-cycle memory, non-pipelined, 8-byte bus"),
                )
            })
            .to_vec(),
        "priority" => [PriorityPolicy::InstructionFirst, PriorityPolicy::DataFirst]
            .map(|priority| {
                panel(
                    format!("ablation-priority-{priority}"),
                    MemConfig { priority, ..slow },
                    true_prefetch,
                    &ALL_STRATEGIES,
                    fixed,
                    format!("{priority} arbitration, 6-cycle memory, 8-byte bus"),
                )
            })
            .to_vec(),
        "prefetch" => {
            let pipes: Vec<StrategyKind> =
                ALL_STRATEGIES.into_iter().filter(|s| s.is_pipe()).collect();
            [
                (PrefetchPolicy::TruePrefetch, "true-prefetch"),
                (PrefetchPolicy::GuaranteedOnly, "guaranteed-only"),
            ]
            .map(|(policy, name)| {
                panel(
                    format!("ablation-prefetch-{name}"),
                    slow,
                    policy,
                    &pipes,
                    fixed,
                    format!("{name} off-chip policy, 6-cycle memory, 8-byte bus"),
                )
            })
            .to_vec()
        }
        "tib" => vec![panel(
            "ablation-tib".into(),
            slow,
            true_prefetch,
            &[
                StrategyKind::Conventional,
                StrategyKind::Tib16,
                StrategyKind::Pipe16x16,
            ],
            fixed,
            "target instruction buffer vs cache strategies, 6-cycle memory, 8-byte bus".into(),
        )],
        "format" => [InstrFormat::Fixed32, InstrFormat::Mixed]
            .map(|format| {
                panel(
                    format!("ablation-format-{format}").replace('/', "-"),
                    slow,
                    true_prefetch,
                    &ALL_STRATEGIES,
                    format,
                    format!("{format} instruction format, 6-cycle memory, 8-byte bus"),
                )
            })
            .to_vec(),
        other => panic!("unknown ablation id {other:?}"),
    }
}

/// Runs the panels of one ablation study (see [`ablation_panels`]) using
/// `runner` for execution, like [`try_figure_with`]: points are keyed in
/// the runner's store, and failed points are recorded per panel.
///
/// # Errors
///
/// Returns [`SweepError::Strict`] when the runner is strict and a job
/// failed; the error carries the failing panel's partial outcome.
///
/// # Panics
///
/// Panics on an unknown id.
pub fn try_ablation_with(id: &str, runner: &SweepRunner) -> Result<Vec<FigureRun>, SweepError> {
    ablation_panels(id)
        .into_iter()
        .map(|(spec, title)| FigureRun::sweep(spec, title, runner))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_mem_parameters() {
        let (m, _) = figure_mem("4a");
        assert_eq!(
            (m.access_cycles, m.in_bus_bytes, m.pipelined),
            (1, 4, false)
        );
        let (m, _) = figure_mem("6b");
        assert_eq!((m.access_cycles, m.in_bus_bytes, m.pipelined), (6, 8, true));
        let (a, _) = figure_mem("5b");
        let (b, _) = figure_mem("6a");
        assert_eq!(a, b, "6a re-plots 5b");
    }

    #[test]
    #[should_panic(expected = "unknown figure id")]
    fn unknown_figure_panics() {
        let _ = figure_mem("9z");
    }
}
