//! The parallel sweep engine.
//!
//! A [`SweepSpec`] declares an experiment sweep — which strategies, which
//! cache sizes, which memory timing and workload. [`SweepSpec::expand`]
//! turns it into a flat, index-ordered list of [`SweepJob`]s, and a
//! [`SweepRunner`] executes those jobs across scoped worker threads
//! (`--jobs N`), writing each result into its expansion-index slot so the
//! collected series are **bit-identical to a serial run** regardless of
//! thread count or scheduling: each simulation is independent and
//! deterministic, and only the collection order could differ — which the
//! index-addressed slots pin down.
//!
//! Because a spec has exactly one workload, the runner decodes it once
//! and every job shares the same predecoded program; workers then take
//! pending jobs one point at a time. Each point runs through
//! [`pipe_core::run_decoded`], which fast-forwards provably idle stall
//! windows, or — for trace workloads — through the trace replay engine.
//!
//! A runner remembers every point it has simulated, by canonical
//! configuration key (see [`SweepJob::key`]): a later job list on the same
//! runner that repeats a key reuses the point instead of re-simulating it
//! (fig. 6a re-plots 5b, and many ablation and study points repeat figure
//! points). With a [`ResultStore`] attached and resume enabled, the store
//! is checked next; previously computed points are loaded instead of
//! re-simulated, so a re-run after an interrupted or completed sweep only
//! pays for the missing points.
//!
//! Execution is **fault-tolerant**: each job runs under `catch_unwind`,
//! so a panicking or erroring point becomes a [`FailedJob`] recorded in
//! the [`SweepOutcome`] while every other job completes; store-write
//! failures are retried with backoff and then degrade the run to
//! store-less execution instead of aborting it. [`SweepRunner::strict`]
//! restores fail-fast semantics ([`SweepRunner::try_run`] returns
//! [`SweepError`] carrying the partial outcome). With an events root
//! attached ([`SweepRunner::events`]), the run appends a structured JSONL
//! event log (see [`crate::events`]).
//!
//! ```no_run
//! use pipe_experiments::sweep::{SweepRunner, SweepSpec};
//!
//! let spec = SweepSpec::figure("5b");
//! let outcome = SweepRunner::new().jobs(4).run(&spec);
//! assert_eq!(outcome.series.len(), 5);
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pipe_core::{FetchStrategy, Region};
use pipe_icache::PrefetchPolicy;
use pipe_isa::{DecodedProgram, InstrFormat, Program};
use pipe_mem::MemConfig;
use pipe_workloads::LivermoreSuite;

use crate::backoff::{BackoffPolicy, Retry};
use crate::events::RunLog;
use crate::figures::{figure_mem, Series};
use crate::matrix::{sweep_sizes, StrategyKind, ALL_STRATEGIES};
use crate::runner::{try_run_point_decoded, try_run_profiled_decoded, ExperimentPoint};
use crate::store::{ResultStore, StoredPoint};

/// The benchmark a sweep runs. Declarative (rather than a prebuilt
/// [`Program`]) so the workload participates in the configuration key
/// that content-addresses stored results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// The paper's 14-kernel Livermore benchmark. `scale` divides each
    /// kernel's iteration count (1 = the paper's full 150,575-instruction
    /// run; larger values give proportionally faster sweeps for smoke
    /// tests).
    Livermore {
        /// Instruction format to assemble under.
        format: InstrFormat,
        /// Iteration-count divisor (≥ 1).
        scale: u32,
    },
    /// A synthetic straight-line loop (`pipe_workloads::synthetic`).
    TightLoop {
        /// ALU instructions in the loop body.
        body: u32,
        /// Loop trips.
        trips: u16,
        /// Instruction format to assemble under.
        format: InstrFormat,
    },
    /// A pre-recorded instruction trace (binary `.ptr` or plain-text
    /// addresses), replayed through each job's fetch engine instead of
    /// running the functional core (see [`crate::tracerun`]). The key
    /// fragment is the FNV-1a 64 digest of the file's bytes, so stored
    /// results are invalidated whenever the trace content changes.
    Trace {
        /// Path to the trace file.
        path: String,
        /// Content hash of the trace file's bytes.
        fnv: u64,
    },
    /// A program from the bundled assembly library (`programs/`). The key fragment includes the FNV-1a 64
    /// digest of the source text, so stored results are invalidated
    /// whenever the program is edited.
    Asm {
        /// Library program name (`pipe_workloads::library`).
        name: String,
        /// Content hash of the assembly source text.
        fnv: u64,
        /// Instruction format to assemble under.
        format: InstrFormat,
    },
}

impl WorkloadSpec {
    /// The paper's benchmark at full scale.
    pub fn livermore() -> WorkloadSpec {
        WorkloadSpec::Livermore {
            format: InstrFormat::Fixed32,
            scale: 1,
        }
    }

    /// A trace-driven workload: content-hashes the trace file at `path`
    /// and validates that it can be loaded and its backing program
    /// rebuilt (see [`crate::tracerun::trace_program`]).
    ///
    /// # Errors
    ///
    /// A user-facing message when the file cannot be read, decoded, or
    /// its backing program reconstructed.
    pub fn trace(path: &Path) -> Result<WorkloadSpec, String> {
        crate::tracerun::trace_program(path)?;
        let fnv = pipe_trace::file_fnv(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Ok(WorkloadSpec::Trace {
            path: path.to_string_lossy().into_owned(),
            fnv,
        })
    }

    /// A workload from the bundled assembly library: validates that the
    /// program exists and assembles, and content-hashes its source.
    ///
    /// # Errors
    ///
    /// A user-facing message when `name` is not a bundled program or the
    /// source fails to assemble under `format`.
    pub fn asm(name: &str, format: InstrFormat) -> Result<WorkloadSpec, String> {
        let lib = pipe_workloads::find_program(name).ok_or_else(|| {
            format!(
                "unknown asm program `{name}` (available: {})",
                pipe_workloads::library::names()
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
        pipe_isa::Assembler::new(format)
            .assemble(lib.source)
            .map_err(|e| format!("{name} does not assemble: {e}"))?;
        Ok(WorkloadSpec::Asm {
            name: name.to_string(),
            fnv: crate::store::fnv1a64(lib.source.as_bytes()),
            format,
        })
    }

    /// Assembles the workload (for a trace, the program backing the
    /// trace).
    ///
    /// # Panics
    ///
    /// Panics if the built-in benchmark fails to assemble (a bug, not a
    /// configuration error), or if a trace file validated by
    /// [`WorkloadSpec::trace`] has since become unloadable.
    pub fn build(&self) -> Program {
        match self {
            WorkloadSpec::Livermore { format, scale } => {
                livermore_suite(*format, *scale).program().clone()
            }
            WorkloadSpec::TightLoop {
                body,
                trips,
                format,
            } => pipe_workloads::synthetic::tight_loop(*body, *trips, *format),
            WorkloadSpec::Trace { path, .. } => crate::tracerun::trace_program(Path::new(path))
                .expect("trace workload validated at construction"),
            WorkloadSpec::Asm { name, format, .. } => {
                let lib = pipe_workloads::find_program(name)
                    .expect("asm workload validated at construction");
                pipe_isa::Assembler::new(*format)
                    .assemble(lib.source)
                    .expect("asm workload validated at construction")
            }
        }
    }

    /// Canonical key fragment naming this workload.
    pub fn key(&self) -> String {
        match self {
            WorkloadSpec::Livermore { format, scale } => {
                format!("livermore:format={format},scale={scale}")
            }
            WorkloadSpec::TightLoop {
                body,
                trips,
                format,
            } => format!("tight-loop:body={body},trips={trips},format={format}"),
            WorkloadSpec::Trace { fnv, .. } => format!("trace:fnv={fnv:016x}"),
            WorkloadSpec::Asm { name, fnv, format } => {
                format!("asm:name={name},fnv={fnv:016x},format={format}")
            }
        }
    }
}

/// The suite behind [`WorkloadSpec::Livermore`] (a `scale` of 0 reads
/// as 1).
///
/// # Panics
///
/// Panics if the built-in benchmark fails to assemble (a bug, not a
/// configuration error).
pub(crate) fn livermore_suite(format: InstrFormat, scale: u32) -> LivermoreSuite {
    LivermoreSuite::build_scaled(format, scale.max(1)).expect("livermore benchmark assembles")
}

/// Canonical key fragment for a memory configuration: every field, in a
/// fixed order. Also used as the `mem_key` of recorded trace headers.
pub fn mem_key(mem: &MemConfig) -> String {
    let ext = match &mem.external_cache {
        Some(e) => format!(
            "size={},line={},penalty={}",
            e.size_bytes, e.line_bytes, e.miss_penalty
        ),
        None => "none".to_string(),
    };
    // The D-cache fragment appears only when one is configured, so every
    // key minted before the D-cache existed stays byte-identical.
    let dcache = match &mem.d_cache {
        Some(d) => format!(
            ",dcache=size={},line={},ways={}",
            d.size_bytes, d.line_bytes, d.ways
        ),
        None => String::new(),
    };
    format!(
        "access={},pipelined={},bus_in={},bus_out={},priority={},fpu={},ext={}{}",
        mem.access_cycles,
        mem.pipelined,
        mem.in_bus_bytes,
        mem.out_bus_bytes,
        mem.priority,
        mem.fpu_latency,
        ext,
        dcache
    )
}

/// A declarative sweep: the cross product of strategies × cache sizes
/// under one memory configuration and workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Identifier shown in progress output and reports ("fig5b", ...).
    pub id: String,
    /// Strategies, in presentation order.
    pub strategies: Vec<StrategyKind>,
    /// Cache sizes in bytes, ascending.
    pub cache_sizes: Vec<u32>,
    /// External memory parameters.
    pub mem: MemConfig,
    /// Off-chip prefetch gating for the PIPE strategies.
    pub policy: PrefetchPolicy,
    /// The benchmark to run.
    pub workload: WorkloadSpec,
}

impl SweepSpec {
    /// The sweep behind one of the paper's figure panels (`"4a"`–`"6b"`).
    ///
    /// # Panics
    ///
    /// Panics on an unknown figure id.
    pub fn figure(id: &str) -> SweepSpec {
        let (mem, _) = figure_mem(id);
        SweepSpec {
            id: format!("fig{id}"),
            strategies: ALL_STRATEGIES.to_vec(),
            cache_sizes: sweep_sizes().to_vec(),
            mem,
            policy: PrefetchPolicy::TruePrefetch,
            workload: WorkloadSpec::livermore(),
        }
    }

    /// Expands the spec into index-ordered jobs (strategy-major, cache
    /// size ascending). Points whose geometry is invalid for a strategy
    /// (cache smaller than the line) are skipped, matching the figures.
    pub fn expand(&self) -> Vec<SweepJob> {
        let mut jobs = Vec::new();
        for &kind in &self.strategies {
            for &size in &self.cache_sizes {
                if let Some(fetch) = kind.fetch_for(size, self.policy) {
                    let job = SweepJob::new(
                        &self.workload,
                        jobs.len(),
                        kind,
                        kind.label(),
                        size,
                        fetch,
                        self.mem,
                    );
                    jobs.push(job);
                }
            }
        }
        jobs
    }
}

/// One executable point: a fully resolved fetch and memory configuration
/// of one workload. [`SweepSpec::expand`] produces a figure's jobs; each
/// design study builds its own list (see [`crate::studies`]).
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Position in the job list (and in the result slots).
    pub index: usize,
    /// The Table II strategy this point belongs to. A design-study point
    /// names the strategy whose configuration it varies (the cache-less
    /// prefetch-buffer study uses [`StrategyKind::Tib16`]).
    pub kind: StrategyKind,
    /// Name shown in progress lines, events, failure reports, and stored
    /// entries (for a figure point, its series label).
    pub label: String,
    /// Cache size in bytes.
    pub cache_bytes: u32,
    /// The fully resolved fetch configuration.
    pub fetch: FetchStrategy,
    /// External memory parameters.
    pub mem: MemConfig,
    /// Program regions a profiled job charges its cycles to (see
    /// [`SweepJob::with_regions`]); empty for a plain job.
    pub regions: Vec<Region>,
    key: String,
}

impl SweepJob {
    /// A job at position `index` of a list run on `workload`; its store
    /// key is derived from the workload, `mem`, and `fetch`.
    pub(crate) fn new(
        workload: &WorkloadSpec,
        index: usize,
        kind: StrategyKind,
        label: impl Into<String>,
        cache_bytes: u32,
        fetch: FetchStrategy,
        mem: MemConfig,
    ) -> SweepJob {
        let key = format!(
            "v1|wl={}|mem={}|fetch={}",
            workload.key(),
            mem_key(&mem),
            fetch.cache_key()
        );
        SweepJob {
            index,
            kind,
            label: label.into(),
            cache_bytes,
            fetch,
            mem,
            regions: Vec::new(),
            key,
        }
    }

    /// Makes this a profiled job: it runs traced by a
    /// [`RegionProfiler`](pipe_core::RegionProfiler) over `regions` (on an
    /// executed workload, not a trace replay), and its point carries the
    /// per-region counts. The key gains a
    /// `|regions=<FNV-1a 64 of the list>` suffix, so a profiled point never
    /// shares an entry with the plain point of the same configuration.
    pub(crate) fn with_regions(mut self, regions: Vec<Region>) -> SweepJob {
        let list: String = regions
            .iter()
            .map(|r| format!("{}:{:x}-{:x};", r.name, r.start, r.end))
            .collect();
        self.key = format!(
            "{}|regions={:016x}",
            self.key,
            crate::store::fnv1a64(list.as_bytes())
        );
        self.regions = regions;
        self
    }

    /// The canonical configuration key this point is stored under: it
    /// covers workload, memory timing, the complete fetch geometry, and
    /// (for a profiled job) the region list, so equal keys simulate
    /// identically.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Whether `point` has what this job measures: per-region counts for
    /// each of a profiled job's regions, none for a plain job.
    fn fits(&self, point: &ExperimentPoint) -> bool {
        match &point.profile {
            Some(p) => !self.regions.is_empty() && p.per_region.len() == self.regions.len(),
            None => self.regions.is_empty(),
        }
    }
}

/// One completed point with its provenance.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// The measured (or store-loaded) point.
    pub point: ExperimentPoint,
    /// Wall-clock time the simulation took (zero when not simulated by
    /// this sweep).
    pub wall: Duration,
    /// Whether the point was not simulated by this sweep: the runner had
    /// already simulated its key, or it was loaded from the result store.
    pub cached: bool,
}

/// Why one job of a sweep failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The worker panicked while simulating this point (message is the
    /// panic payload).
    Panic(String),
    /// The simulator reported a typed error (decode, timeout, ...).
    Sim(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panic(m) => write!(f, "worker panicked: {m}"),
            JobError::Sim(m) => write!(f, "simulation error: {m}"),
        }
    }
}

impl Error for JobError {}

/// One job that did not produce a point, with enough identity to re-run
/// or report it.
#[derive(Debug, Clone)]
pub struct FailedJob {
    /// Position in the job list.
    pub index: usize,
    /// The job's label (for a figure point, its series label).
    pub label: String,
    /// Cache size in bytes.
    pub cache_bytes: u32,
    /// The canonical configuration key of the point.
    pub key: String,
    /// What went wrong.
    pub error: JobError,
}

impl fmt::Display for FailedJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {}B (job {}): {}",
            self.label, self.cache_bytes, self.index, self.error
        )
    }
}

/// A sweep-level failure. Only strict (fail-fast) execution surfaces one;
/// the default mode records failures in the outcome instead.
#[derive(Debug)]
pub enum SweepError {
    /// Strict mode: at least one job failed. The boxed partial outcome
    /// preserves every completed series point plus the failed-job list.
    Strict(Box<SweepOutcome>),
}

impl SweepError {
    /// The partial outcome of the aborted sweep.
    pub fn partial(&self) -> &SweepOutcome {
        match self {
            SweepError::Strict(outcome) => outcome,
        }
    }
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Strict(outcome) => {
                write!(
                    f,
                    "strict sweep aborted: {} job(s) failed",
                    outcome.failed.len()
                )?;
                if let Some(first) = outcome.failed.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for SweepError {}

/// The result of running a sweep — possibly partial: jobs listed in
/// `failed` have no point in `series` (renderers mark them as missing
/// rather than zero).
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One series per strategy, in spec order, minus any failed points
    /// (empty for a design study, which reads `points`).
    pub series: Vec<Series>,
    /// Points actually simulated (successfully) this run.
    pub computed: usize,
    /// Points not simulated by this sweep (see [`PointOutcome::cached`]).
    pub cached: usize,
    /// Every job's point, in job order; `None` for a job that failed (or,
    /// after a strict abort, never started).
    pub points: Vec<Option<PointOutcome>>,
    /// Jobs that failed, in job order.
    pub failed: Vec<FailedJob>,
    /// Whether store writes failed persistently and the run degraded to
    /// store-less execution.
    pub store_degraded: bool,
    /// Where the JSONL event log was written, when events were enabled.
    pub events_path: Option<PathBuf>,
    /// Total wall-clock time of the sweep.
    pub wall: Duration,
}

impl SweepOutcome {
    /// Whether every expanded job produced a point.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Test/diagnostic fault injection: make specific jobs panic or their
/// store writes fail, to exercise the fault-tolerant paths end to end
/// (unit tests, the CI smoke test, and manual `--inject-*` runs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultInjection {
    /// Expansion indices whose execution panics.
    pub panic_jobs: Vec<usize>,
    /// Expansion indices whose store writes fail (every attempt).
    pub store_fail_jobs: Vec<usize>,
}

impl FaultInjection {
    /// Whether no fault is injected (the default).
    pub fn is_empty(&self) -> bool {
        self.panic_jobs.is_empty() && self.store_fail_jobs.is_empty()
    }
}

/// Shared per-run state handed to every worker: the run's id and size,
/// the (optional) event log, and the store-health flag that flips when
/// writes are exhausted.
struct RunState<'a> {
    id: &'a str,
    total: usize,
    log: Option<&'a RunLog>,
    store_ok: &'a AtomicBool,
}

/// Executes [`SweepSpec`]s across worker threads with optional
/// store-backed resume, structured event logging, and progress
/// reporting. Fault-tolerant by default; see [`SweepRunner::strict`].
/// Each runner simulates a configuration key at most once: later jobs
/// with that key reuse the point.
#[derive(Debug)]
pub struct SweepRunner {
    jobs: usize,
    store: Option<ResultStore>,
    resume: bool,
    progress: bool,
    strict: bool,
    events_root: Option<PathBuf>,
    inject: FaultInjection,
    /// Every point this runner simulated successfully, by key. Store
    /// loads are not kept: they are already cheap to serve again.
    memo: Mutex<HashMap<String, ExperimentPoint>>,
}

impl Default for SweepRunner {
    fn default() -> SweepRunner {
        SweepRunner::new()
    }
}

impl SweepRunner {
    /// A serial runner with no store and no progress output.
    pub fn new() -> SweepRunner {
        SweepRunner {
            jobs: 1,
            store: None,
            resume: false,
            progress: false,
            strict: false,
            events_root: None,
            inject: FaultInjection::default(),
            memo: Mutex::default(),
        }
    }

    /// Sets the worker-thread count (0 is treated as 1).
    pub fn jobs(mut self, jobs: usize) -> SweepRunner {
        self.jobs = jobs.max(1);
        self
    }

    /// Attaches a result store; every computed point is persisted to it.
    pub fn store(mut self, store: ResultStore) -> SweepRunner {
        self.store = Some(store);
        self
    }

    /// When a store is attached, load previously computed points instead
    /// of re-simulating them.
    pub fn resume(mut self, resume: bool) -> SweepRunner {
        self.resume = resume;
        self
    }

    /// Emit per-point progress lines (with wall time) to stderr.
    pub fn progress(mut self, progress: bool) -> SweepRunner {
        self.progress = progress;
        self
    }

    /// Restores fail-fast semantics: the first failed job cancels the
    /// remaining work and [`try_run`](SweepRunner::try_run) returns
    /// [`SweepError::Strict`] with the partial outcome. In-flight jobs
    /// still finish (and persist to the store), so a strict abort loses
    /// no completed work.
    pub fn strict(mut self, strict: bool) -> SweepRunner {
        self.strict = strict;
        self
    }

    /// Writes a structured JSONL event log to
    /// `<root>/events/<spec id>.jsonl` for each run (see
    /// [`crate::events`]).
    pub fn events(mut self, root: impl Into<PathBuf>) -> SweepRunner {
        self.events_root = Some(root.into());
        self
    }

    /// Installs fault injection (test/diagnostic hook; see
    /// [`FaultInjection`]).
    pub fn inject(mut self, inject: FaultInjection) -> SweepRunner {
        self.inject = inject;
        self
    }

    /// Runs the sweep fault-tolerantly: failed jobs are recorded in the
    /// outcome's `failed` list and every other job completes.
    ///
    /// # Panics
    ///
    /// Panics only when the runner is [`strict`](SweepRunner::strict) and
    /// a job failed — strict callers should use
    /// [`try_run`](SweepRunner::try_run) instead.
    pub fn run(&self, spec: &SweepSpec) -> SweepOutcome {
        match self.try_run(spec) {
            Ok(outcome) => outcome,
            Err(e) => panic!("{e} (use try_run to handle strict sweep failures)"),
        }
    }

    /// Runs the sweep: expands the spec, runs its jobs, and collects the
    /// points into one series per strategy.
    ///
    /// In the default fault-tolerant mode this always returns `Ok`: a
    /// panicking or erroring job becomes a [`FailedJob`] in the outcome,
    /// a persistently failing store write degrades the run to store-less
    /// execution (after bounded retry with backoff), and an untrusted
    /// store entry (key mismatch) is recomputed with a warning. Under
    /// [`strict`](SweepRunner::strict), the first failure cancels the
    /// remaining jobs and surfaces as [`SweepError::Strict`] carrying the
    /// partial outcome.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Strict`] as described above.
    pub fn try_run(&self, spec: &SweepSpec) -> Result<SweepOutcome, SweepError> {
        let jobs = spec.expand();
        let mut outcome = self.execute_all(&spec.id, &spec.workload, &jobs);
        // Strategy-major, size ascending — identical to the serial path.
        // Failed (or, under a strict abort, never-started) jobs simply have
        // no point; renderers mark them as missing.
        outcome.series = spec
            .strategies
            .iter()
            .map(|&kind| Series {
                label: kind.label().to_string(),
                kind,
                points: jobs
                    .iter()
                    .zip(&outcome.points)
                    .filter(|(j, _)| j.kind == kind)
                    .filter_map(|(_, o)| o.as_ref().map(|o| o.point.clone()))
                    .collect(),
            })
            .collect();
        self.checked(outcome)
    }

    /// Runs a list of jobs on `workload` like [`try_run`](SweepRunner::try_run)
    /// runs a spec's, under the run id `id` (progress prefix and event-log
    /// name), leaving `series` empty. `jobs[i].index` must be `i`, and the
    /// jobs must have been built for `workload` (their keys name it).
    pub(crate) fn try_run_jobs(
        &self,
        id: &str,
        workload: &WorkloadSpec,
        jobs: &[SweepJob],
    ) -> Result<SweepOutcome, SweepError> {
        self.checked(self.execute_all(id, workload, jobs))
    }

    fn checked(&self, outcome: SweepOutcome) -> Result<SweepOutcome, SweepError> {
        if self.strict && !outcome.is_complete() {
            return Err(SweepError::Strict(Box::new(outcome)));
        }
        Ok(outcome)
    }

    /// Serves what this runner already simulated or the store holds, then
    /// simulates the rest across the workers. Never fails; the outcome
    /// records failed jobs.
    fn execute_all(&self, id: &str, workload: &WorkloadSpec, jobs: &[SweepJob]) -> SweepOutcome {
        let started = Instant::now();
        let total = jobs.len();
        debug_assert!(jobs.iter().enumerate().all(|(i, j)| j.index == i));

        let log = self.open_log(id);
        if let Some(log) = &log {
            log.run_start(total, self.jobs, self.strict);
        }
        // Set once store writes are exhausted; the rest of the run is
        // store-less.
        let store_ok = AtomicBool::new(true);
        let run = RunState {
            id,
            total,
            log: log.as_ref(),
            store_ok: &store_ok,
        };

        // Index-addressed result slots: the write order never affects the
        // collected points.
        let mut slots: Vec<Option<PointOutcome>> = (0..total).map(|_| None).collect();
        let mut failed: Vec<FailedJob> = Vec::new();

        // Satisfy what we can from points this runner already simulated,
        // then from the store (cheap file reads).
        let mut pending: Vec<&SweepJob> = Vec::new();
        for job in jobs {
            let hit = match self.memoized(job) {
                Some(point) => Some((point, "memo")),
                None => self
                    .load_cached(&run, job)
                    .map(|entry| (entry.to_point(), "store"))
                    .filter(|(point, _)| job.fits(point)),
            };
            let Some((point, source)) = hit else {
                pending.push(job);
                continue;
            };
            self.report(&run, job, point.cycles, Duration::ZERO, true);
            if let Some(log) = &log {
                log.job_cached(job.index, &job.label, job.cache_bytes, point.cycles, source);
            }
            slots[job.index] = Some(PointOutcome {
                point,
                wall: Duration::ZERO,
                cached: true,
            });
        }
        let cached = total - pending.len();

        if !pending.is_empty() {
            // Decode the workload once; every job (serial or threaded)
            // shares the same predecoded image instead of re-decoding per
            // point.
            let program = Arc::new(DecodedProgram::new(workload.build()));
            let exec =
                |job: &SweepJob, worker: usize| self.execute(&run, job, workload, &program, worker);
            self.dispatch(&pending, exec, |index, result| match result {
                Ok(outcome) => {
                    slots[index] = Some(outcome);
                    false
                }
                Err(error) => {
                    failed.push(failed_job(&jobs[index], error));
                    self.strict
                }
            });
        }
        failed.sort_by_key(|f| f.index);

        let computed = slots.iter().flatten().filter(|o| !o.cached).count();
        let wall = started.elapsed();
        if self.progress {
            eprintln!(
                "[{id}] sweep done: {} computed, {} cached, {} failed in {:.2}s",
                computed,
                cached,
                failed.len(),
                wall.as_secs_f64(),
            );
        }
        if let Some(log) = &log {
            log.run_finish(computed, cached, failed.len(), wall.as_millis());
        }
        SweepOutcome {
            series: Vec::new(),
            points: slots,
            computed,
            cached,
            store_degraded: !store_ok.load(Ordering::Relaxed),
            events_path: log.as_ref().map(|l| l.path().to_path_buf()),
            failed,
            wall,
        }
    }

    /// Runs `exec` on every pending job across the workers and hands each
    /// result to `collect` on the calling thread. `collect` returns `true`
    /// to cancel: workers stop picking up new jobs but finish (and
    /// persist) the ones in flight.
    fn dispatch<E, C>(&self, pending: &[&SweepJob], exec: E, mut collect: C)
    where
        E: Fn(&SweepJob, usize) -> Result<PointOutcome, JobError> + Sync,
        C: FnMut(usize, Result<PointOutcome, JobError>) -> bool,
    {
        let workers = self.jobs.min(pending.len());
        if workers <= 1 {
            for job in pending {
                if collect(job.index, exec(job, 0)) {
                    break;
                }
            }
            return;
        }
        // Per-job results flow back over an mpsc channel, so a worker that
        // dies mid-job can never poison shared state: its result is simply
        // the error it sent (or nothing, which leaves the slot empty).
        let cancel = AtomicBool::new(false);
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<PointOutcome, JobError>)>();
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let tx = tx.clone();
                let (cancel, next, exec) = (&cancel, &next, &exec);
                scope.spawn(move || loop {
                    if cancel.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = pending.get(i) else { break };
                    if tx.send((job.index, exec(job, worker))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (index, result) in rx {
                if collect(index, result) {
                    cancel.store(true, Ordering::Relaxed);
                }
            }
        });
    }

    /// Opens the per-run event log, if an events root is configured.
    /// Best-effort: a failure to open warns and disables logging.
    fn open_log(&self, id: &str) -> Option<RunLog> {
        let root = self.events_root.as_ref()?;
        match RunLog::create(root, id) {
            Ok(log) => Some(log),
            Err(e) => {
                eprintln!(
                    "[{id}] warning: cannot create event log under {}: {e}; \
                     continuing without events",
                    root.display()
                );
                None
            }
        }
    }

    /// The memo. Every update is one whole insert, so a lock poisoned by a
    /// panicking holder still guards a valid map and is recovered.
    fn memo(&self) -> MutexGuard<'_, HashMap<String, ExperimentPoint>> {
        self.memo.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The point this runner already simulated under `job`'s key, with the
    /// job's own cache size.
    fn memoized(&self, job: &SweepJob) -> Option<ExperimentPoint> {
        self.memo().get(job.key()).map(|point| ExperimentPoint {
            cache_bytes: job.cache_bytes,
            ..point.clone()
        })
    }

    /// Resume lookup for one job. An untrusted entry (key mismatch) warns
    /// and reads as absent so the point is recomputed.
    fn load_cached(&self, run: &RunState<'_>, job: &SweepJob) -> Option<StoredPoint> {
        if !self.resume {
            return None;
        }
        match self.store.as_ref()?.load(job.key()) {
            Ok(entry) => entry,
            Err(e) => {
                eprintln!(
                    "[{}] warning: {e}; recomputing {} @ {}B",
                    run.id, job.label, job.cache_bytes
                );
                if let Some(log) = run.log {
                    log.store_mismatch(job.index, &e.to_string());
                }
                None
            }
        }
    }

    /// Simulates one point under `catch_unwind`, memoizes and persists it
    /// (with retry and degradation on store failure), and reports
    /// progress. A panic or simulation error becomes `Err(JobError)` — the
    /// job fails alone.
    fn execute(
        &self,
        run: &RunState<'_>,
        job: &SweepJob,
        workload: &WorkloadSpec,
        program: &Arc<DecodedProgram>,
        worker: usize,
    ) -> Result<PointOutcome, JobError> {
        let log = run.log;
        if let Some(log) = log {
            log.job_start(job.index, &job.label, job.cache_bytes, worker);
        }
        let inject_panic = self.inject.panic_jobs.contains(&job.index);
        let t0 = Instant::now();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected panic (job {})", job.index);
            }
            match workload {
                WorkloadSpec::Trace { path, .. } => crate::tracerun::replay_point(
                    Path::new(path),
                    program.program(),
                    job.fetch,
                    &job.mem,
                    job.cache_bytes,
                ),
                _ if !job.regions.is_empty() => try_run_profiled_decoded(
                    program,
                    job.fetch,
                    &job.mem,
                    job.cache_bytes,
                    &job.regions,
                )
                .map_err(|e| e.to_string()),
                _ => try_run_point_decoded(program, job.fetch, &job.mem, job.cache_bytes)
                    .map_err(|e| e.to_string()),
            }
        }));
        let wall = t0.elapsed();
        let error = match result {
            Ok(Ok(point)) => {
                self.memo().insert(job.key().to_string(), point.clone());
                self.persist(run, job, &point, wall);
                self.report(run, job, point.cycles, wall, false);
                if let Some(log) = log {
                    log.job_finish(
                        job.index,
                        &job.label,
                        job.cache_bytes,
                        worker,
                        point.cycles,
                        wall.as_millis(),
                    );
                }
                return Ok(PointOutcome {
                    point,
                    wall,
                    cached: false,
                });
            }
            Ok(Err(sim)) => JobError::Sim(sim),
            Err(payload) => JobError::Panic(panic_message(payload.as_ref())),
        };
        eprintln!(
            "[{} {}/{}] FAILED {} @ {}B: {error}",
            run.id,
            job.index + 1,
            run.total,
            job.label,
            job.cache_bytes,
        );
        if let Some(log) = log {
            log.job_failed(
                job.index,
                &job.label,
                job.cache_bytes,
                worker,
                &error.to_string(),
            );
        }
        Err(error)
    }

    /// Persists one measured point with bounded retry. Transient
    /// `io::Error`s back off and retry; after the attempts are exhausted
    /// the run degrades to store-less execution (a warning, never an
    /// abort).
    fn persist(&self, run: &RunState<'_>, job: &SweepJob, point: &ExperimentPoint, wall: Duration) {
        let (log, store_ok) = (run.log, run.store_ok);
        let Some(store) = &self.store else { return };
        if !store_ok.load(Ordering::Relaxed) {
            return;
        }
        let entry = StoredPoint::from_point(job.key(), &job.label, point, wall.as_millis() as u64);
        let inject_fail = self.inject.store_fail_jobs.contains(&job.index);
        let policy = BackoffPolicy::store_default();
        let result = policy.run(
            |_attempt| {
                if inject_fail {
                    Err(std::io::Error::other("injected store-write failure"))
                } else {
                    store.save(&entry)
                }
            },
            |attempt, e| {
                if let Some(log) = log {
                    log.store_retry(job.index, attempt, &e.to_string());
                }
                Retry::After(None)
            },
        );
        if let Err(e) = result {
            eprintln!(
                "[{}] warning: store write failed {} times ({e}); \
                 continuing without the result store",
                run.id,
                policy.attempts()
            );
            if let Some(log) = log {
                log.store_degraded(job.index, &e.to_string());
            }
            store_ok.store(false, Ordering::Relaxed);
        }
    }

    fn report(
        &self,
        run: &RunState<'_>,
        job: &SweepJob,
        cycles: u64,
        wall: Duration,
        cached: bool,
    ) {
        if !self.progress {
            return;
        }
        let source = if cached {
            " [cached]".to_string()
        } else {
            format!(" ({:.2}s)", wall.as_secs_f64())
        };
        eprintln!(
            "[{} {}/{}] {} @ {}B: {} cycles{}",
            run.id,
            job.index + 1,
            run.total,
            job.label,
            job.cache_bytes,
            cycles,
            source,
        );
    }
}

fn failed_job(job: &SweepJob, error: JobError) -> FailedJob {
    FailedJob {
        index: job.index,
        label: job.label.clone(),
        cache_bytes: job.cache_bytes,
        key: job.key().to_string(),
        error,
    }
}

/// Renders a `catch_unwind` payload as text (panic payloads are almost
/// always `&str` or `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(id: &str) -> SweepSpec {
        SweepSpec {
            id: id.to_string(),
            strategies: vec![StrategyKind::Conventional, StrategyKind::Pipe16x16],
            cache_sizes: vec![32, 64],
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
    fn expansion_is_strategy_major_and_skips_invalid() {
        let mut spec = small_spec("t");
        spec.strategies = vec![StrategyKind::Pipe32x32, StrategyKind::Conventional];
        spec.cache_sizes = vec![16, 32, 64];
        let jobs = spec.expand();
        // Pipe32x32 skips the 16B point (32-byte lines).
        assert_eq!(jobs.len(), 2 + 3);
        assert_eq!(jobs[0].cache_bytes, 32);
        assert_eq!(jobs[0].kind, StrategyKind::Pipe32x32);
        assert_eq!(jobs[2].kind, StrategyKind::Conventional);
        assert!(jobs.iter().enumerate().all(|(i, j)| i == j.index));
    }

    #[test]
    fn keys_are_unique_and_cover_mem_config() {
        let spec = small_spec("t");
        let jobs = spec.expand();
        let mut keys: Vec<&str> = jobs.iter().map(|j| j.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), jobs.len(), "every job key distinct");

        let mut other = small_spec("t");
        other.mem.in_bus_bytes = 8;
        assert_ne!(spec.expand()[0].key(), other.expand()[0].key());
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let spec = small_spec("det");
        let serial = SweepRunner::new().run(&spec);
        let parallel = SweepRunner::new().jobs(4).run(&spec);
        assert_eq!(serial.series.len(), parallel.series.len());
        for (s, p) in serial.series.iter().zip(&parallel.series) {
            assert_eq!(s.label, p.label);
            let sc: Vec<(u32, u64)> = s.points.iter().map(|x| (x.cache_bytes, x.cycles)).collect();
            let pc: Vec<(u32, u64)> = p.points.iter().map(|x| (x.cache_bytes, x.cycles)).collect();
            assert_eq!(sc, pc, "cycle counts identical under {}", s.label);
        }
    }

    #[test]
    fn resume_skips_stored_points() {
        let dir = std::env::temp_dir().join(format!("pipe-sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec("resume");

        let first = SweepRunner::new()
            .store(ResultStore::open(&dir).unwrap())
            .resume(true)
            .run(&spec);
        assert_eq!(first.cached, 0);
        assert_eq!(first.computed, 4);

        let second = SweepRunner::new()
            .store(ResultStore::open(&dir).unwrap())
            .resume(true)
            .run(&spec);
        assert_eq!(second.computed, 0);
        assert_eq!(second.cached, 4);
        for (a, b) in first.series.iter().zip(&second.series) {
            let ac: Vec<u64> = a.points.iter().map(|p| p.cycles).collect();
            let bc: Vec<u64> = b.points.iter().map(|p| p.cycles).collect();
            assert_eq!(ac, bc, "store round-trips cycles");
        }

        // Without resume, the store is write-only: everything recomputes.
        let third = SweepRunner::new()
            .store(ResultStore::open(&dir).unwrap())
            .run(&spec);
        assert_eq!(third.cached, 0);
        assert_eq!(third.computed, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_panic_fails_alone_others_complete() {
        let spec = small_spec("faulty");
        let serial = SweepRunner::new().run(&spec);

        let outcome = SweepRunner::new()
            .jobs(4)
            .inject(FaultInjection {
                panic_jobs: vec![1],
                ..FaultInjection::default()
            })
            .run(&spec);
        assert_eq!(outcome.failed.len(), 1);
        assert_eq!(outcome.failed[0].index, 1);
        assert!(matches!(outcome.failed[0].error, JobError::Panic(_)));
        assert_eq!(outcome.computed, 3);
        assert!(!outcome.is_complete());

        // Every successful point is bit-identical to the serial run; the
        // failed point is missing, not zeroed.
        let surviving: Vec<(u32, u64)> = outcome
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| (p.cache_bytes, p.cycles)))
            .collect();
        let all: Vec<(u32, u64)> = serial
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| (p.cache_bytes, p.cycles)))
            .collect();
        assert_eq!(surviving.len(), 3);
        assert!(surviving.iter().all(|p| all.contains(p)));
    }

    #[test]
    fn strict_mode_surfaces_typed_error_with_partial_outcome() {
        let spec = small_spec("strict");
        let err = SweepRunner::new()
            .strict(true)
            .inject(FaultInjection {
                panic_jobs: vec![0],
                ..FaultInjection::default()
            })
            .try_run(&spec)
            .unwrap_err();
        let SweepError::Strict(partial) = &err;
        assert_eq!(partial.failed.len(), 1);
        assert!(err.to_string().contains("strict sweep aborted"));
        // Fail-fast: job 0 failed first, so nothing later was started.
        assert_eq!(partial.computed, 0);

        // Non-strict try_run never errors.
        assert!(SweepRunner::new()
            .inject(FaultInjection {
                panic_jobs: vec![0],
                ..FaultInjection::default()
            })
            .try_run(&spec)
            .is_ok());
    }

    #[test]
    fn store_write_failure_degrades_but_completes() {
        let dir = std::env::temp_dir().join(format!("pipe-sweep-degrade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec("degrade");
        let outcome = SweepRunner::new()
            .store(ResultStore::open(&dir).unwrap())
            .inject(FaultInjection {
                store_fail_jobs: vec![0],
                ..FaultInjection::default()
            })
            .run(&spec);
        // The store failure never fails the job: all four points exist.
        assert!(outcome.is_complete());
        assert_eq!(outcome.computed, 4);
        assert!(outcome.store_degraded);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_store_entry_recomputes_mid_sweep() {
        let dir = std::env::temp_dir().join(format!("pipe-sweep-badstore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec("badstore");
        let first = SweepRunner::new()
            .store(ResultStore::open(&dir).unwrap())
            .resume(true)
            .run(&spec);
        // Corrupt one entry and rewrite another under a mismatched key:
        // both must read as absent (recompute), not panic.
        let store = ResultStore::open(&dir).unwrap();
        let jobs = spec.expand();
        let paths: Vec<_> = jobs
            .iter()
            .map(|j| {
                store.dir().join(format!(
                    "{:016x}.json",
                    crate::store::fnv1a64(j.key().as_bytes())
                ))
            })
            .collect();
        std::fs::write(&paths[0], "{truncated garbage").unwrap();
        std::fs::copy(&paths[1], &paths[2]).unwrap();

        let second = SweepRunner::new()
            .store(ResultStore::open(&dir).unwrap())
            .resume(true)
            .run(&spec);
        assert_eq!(second.cached, 2, "only the intact entries load");
        assert_eq!(second.computed, 2, "corrupt + mismatched entries recompute");
        for (a, b) in first.series.iter().zip(&second.series) {
            let ac: Vec<u64> = a.points.iter().map(|p| p.cycles).collect();
            let bc: Vec<u64> = b.points.iter().map(|p| p.cycles).collect();
            assert_eq!(ac, bc, "recomputed points identical");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn event_log_records_failures_and_summary() {
        let dir = std::env::temp_dir().join(format!("pipe-sweep-events-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec("logged");
        let outcome = SweepRunner::new()
            .jobs(2)
            .events(&dir)
            .inject(FaultInjection {
                panic_jobs: vec![2],
                ..FaultInjection::default()
            })
            .run(&spec);
        let path = outcome.events_path.clone().unwrap();
        assert_eq!(path, dir.join("events").join("logged.jsonl"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text
            .lines()
            .next()
            .unwrap()
            .contains("\"event\":\"run_start\""));
        assert_eq!(
            text.lines()
                .filter(|l| l.contains("\"event\":\"job_failed\""))
                .count(),
            1
        );
        assert_eq!(
            text.lines()
                .filter(|l| l.contains("\"event\":\"job_finish\""))
                .count(),
            3
        );
        let last = text.lines().last().unwrap();
        assert!(last.contains("\"event\":\"run_finish\"") && last.contains("\"failed\":1"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn memo_keys(runner: &SweepRunner) -> Vec<String> {
        let mut keys: Vec<String> = runner.memo().keys().cloned().collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn memo_serves_shared_keys_losslessly() {
        let first = small_spec("memo-a");
        // Shares both 64 B points with `first`; the 128 B points are new.
        let mut second = small_spec("memo-b");
        second.cache_sizes = vec![64, 128];
        let runner = SweepRunner::new().jobs(2);
        let a = runner.run(&first);
        assert_eq!((a.computed, a.cached), (4, 0));

        let b = runner.run(&second);
        assert_eq!((b.computed, b.cached), (2, 2));
        let (first_jobs, second_jobs) = (first.expand(), second.expand());
        // The second spec's 64 B jobs (0 and 2) are the first's 1 and 3.
        for (i, f) in [(0, 1), (2, 3)] {
            assert_eq!(second_jobs[i].key(), first_jobs[f].key());
            let hit = b.points[i].as_ref().unwrap();
            let orig = &a.points[f].as_ref().unwrap().point;
            assert!(hit.cached);
            assert_eq!(hit.wall, Duration::ZERO);
            assert_eq!(hit.point.cycles, orig.cycles);
            assert_eq!(hit.point.stats, orig.stats, "the whole SimStats");
            assert!(!b.points[i + 1].as_ref().unwrap().cached, "128 B is new");
        }

        // A fresh runner has its own (empty) memo.
        let fresh = SweepRunner::new().run(&second);
        assert_eq!((fresh.computed, fresh.cached), (4, 0));
    }

    #[test]
    fn failed_jobs_are_not_memoized() {
        let spec = small_spec("memo-fail");
        let runner = SweepRunner::new().inject(FaultInjection {
            panic_jobs: vec![1],
            ..FaultInjection::default()
        });
        let first = runner.run(&spec);
        assert_eq!(first.failed.len(), 1);
        assert_eq!(memo_keys(&runner).len(), 3);

        // Same runner (memo kept), fault cleared: only the failed key runs.
        let runner = runner.inject(FaultInjection::default());
        let second = runner.run(&spec);
        assert!(second.is_complete());
        assert_eq!((second.computed, second.cached), (1, 3));
        assert!(!second.points[1].as_ref().unwrap().cached);
        assert_eq!(memo_keys(&runner).len(), 4);
    }

    #[test]
    fn strict_cancel_memoizes_only_completed_points() {
        let spec = small_spec("memo-strict");
        // Serial: job 0 completes, job 1 fails, jobs 2 and 3 never start.
        let runner = SweepRunner::new().strict(true).inject(FaultInjection {
            panic_jobs: vec![1],
            ..FaultInjection::default()
        });
        let err = runner.try_run(&spec).unwrap_err();
        let completed: Vec<usize> = (0..4)
            .filter(|&i| err.partial().points[i].is_some())
            .collect();
        assert_eq!(completed, [0]);
        assert_eq!(memo_keys(&runner), [spec.expand()[0].key()]);
    }

    #[test]
    fn memo_hits_are_logged_with_their_source() {
        let dir = std::env::temp_dir().join(format!("pipe-sweep-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec("memo-log");
        let runner = SweepRunner::new()
            .store(ResultStore::open(&dir).unwrap())
            .resume(true)
            .events(&dir);
        runner.run(&spec);
        let again = runner.run(&spec);
        assert_eq!((again.computed, again.cached), (0, 4));
        let text = std::fs::read_to_string(again.events_path.unwrap()).unwrap();
        let cached: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"event\":\"job_cached\""))
            .collect();
        assert_eq!(cached.len(), 4);
        assert!(cached.iter().all(|l| l.ends_with("\"source\":\"memo\"}")));

        // A new runner on the same store loads from the store instead.
        let warm = SweepRunner::new()
            .store(ResultStore::open(&dir).unwrap())
            .resume(true)
            .events(&dir)
            .run(&spec);
        let text = std::fs::read_to_string(warm.events_path.unwrap()).unwrap();
        assert_eq!(text.matches("\"source\":\"store\"").count(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn figure_spec_matches_figure_shape() {
        let spec = SweepSpec::figure("4a");
        assert_eq!(spec.id, "fig4a");
        assert_eq!(spec.strategies.len(), 5);
        assert_eq!(spec.mem.access_cycles, 1);
        // 5 strategies × 6 sizes minus the sub-line points.
        let jobs = spec.expand();
        assert_eq!(jobs.len(), 28);
    }
}
