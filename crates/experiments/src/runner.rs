//! Running a single experiment point.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use pipe_core::{
    run_decoded, FetchStrategy, Processor, Region, RegionProfiler, SimConfig, SimError, SimStats,
};
use pipe_isa::{DecodedProgram, Program};
use pipe_mem::MemConfig;

/// One measured point of a sweep.
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// Cache size in bytes.
    pub cache_bytes: u32,
    /// Total cycles for the benchmark — the paper's metric.
    pub cycles: u64,
    /// Full statistics, for deeper analysis.
    pub stats: SimStats,
    /// What a profiled point charged to each of its job's regions; `None`
    /// for a plain point.
    pub profile: Option<RegionCounts>,
}

/// The cycles and instructions a traced run charged to each region of a
/// profiled job (see [`RegionProfiler`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionCounts {
    /// `(cycles, instructions)` per region, in the job's region order.
    pub per_region: Vec<(u64, u64)>,
    /// Cycles outside every region (prologues, drain).
    pub other_cycles: u64,
}

/// Runs `program` under (`fetch`, `mem`) and returns the measured point,
/// or the typed simulation error. The fault-tolerant sweep engine uses
/// this form so one failing point becomes a recorded failure instead of
/// aborting the whole sweep.
///
/// # Errors
///
/// Returns the [`SimError`] the simulator reported (configuration,
/// decode, or timeout).
pub fn try_run_point(
    program: &Program,
    fetch: FetchStrategy,
    mem: &MemConfig,
    cache_bytes: u32,
) -> Result<ExperimentPoint, SimError> {
    let decoded = Arc::new(DecodedProgram::new(program.clone()));
    try_run_point_decoded(&decoded, fetch, mem, cache_bytes)
}

/// The simulation configuration every experiment point runs under.
pub fn point_config(fetch: FetchStrategy, mem: &MemConfig) -> SimConfig {
    SimConfig {
        fetch,
        mem: *mem,
        max_cycles: 2_000_000_000,
        ..SimConfig::default()
    }
}

/// Like [`try_run_point`], but takes an already-predecoded program so
/// callers measuring many points over the same workload (the sweep
/// engine, the benchmark harness) decode each static instruction exactly
/// once instead of once per point.
///
/// # Errors
///
/// Returns the [`SimError`] the simulator reported (configuration,
/// decode, or timeout).
pub fn try_run_point_decoded(
    decoded: &Arc<DecodedProgram>,
    fetch: FetchStrategy,
    mem: &MemConfig,
    cache_bytes: u32,
) -> Result<ExperimentPoint, SimError> {
    let stats = run_decoded(decoded, &point_config(fetch, mem))?;
    Ok(ExperimentPoint {
        cache_bytes,
        cycles: stats.cycles,
        stats,
        profile: None,
    })
}

/// Like [`try_run_point_decoded`], but traces the run with a
/// [`RegionProfiler`] over `regions` and keeps its counts in the point's
/// `profile`.
///
/// # Errors
///
/// Returns the [`SimError`] the simulator reported (configuration,
/// decode, or timeout).
pub fn try_run_profiled_decoded(
    decoded: &Arc<DecodedProgram>,
    fetch: FetchStrategy,
    mem: &MemConfig,
    cache_bytes: u32,
    regions: &[Region],
) -> Result<ExperimentPoint, SimError> {
    let profiler = Rc::new(RefCell::new(RegionProfiler::new(regions.to_vec())));
    let mut proc = Processor::from_decoded(decoded, &point_config(fetch, mem))?
        .with_trace(Rc::clone(&profiler));
    proc.run()?;
    let stats = proc.into_stats();
    let profiler = profiler.borrow();
    Ok(ExperimentPoint {
        cache_bytes,
        cycles: stats.cycles,
        stats,
        profile: Some(RegionCounts {
            per_region: profiler.results().map(|(_, c, i)| (c, i)).collect(),
            other_cycles: profiler.other_cycles(),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipe_icache::CacheConfig;
    use pipe_isa::InstrFormat;
    use pipe_workloads::synthetic::tight_loop;

    #[test]
    fn run_point_measures_cycles() {
        let p = tight_loop(4, 20, InstrFormat::Fixed32);
        let point = try_run_point(
            &p,
            FetchStrategy::conventional(CacheConfig::new(64, 16)),
            &MemConfig::default(),
            64,
        )
        .unwrap();
        assert!(point.cycles > 0);
        assert_eq!(point.cache_bytes, 64);
        assert_eq!(point.cycles, point.stats.cycles);
    }
}
