//! The sweep coordinator: shard, dispatch, retry, fail over, merge.
//!
//! A [`Coordinator`] takes a [`SweepSpec`], expands it into points with
//! the same expansion the local engine uses, and hashes each point's
//! canonical store key onto the registered workers via the
//! [`HashRing`](crate::ring::HashRing). Points are dispatched over the
//! workers' existing HTTP API (`POST /v1/simulate`) and the responses
//! merged into one [`ResultStore`].
//!
//! **Byte-identical merging.** The coordinator writes every merged entry
//! itself — key, the sweep strategy label, and `wall_ms: 0` — rather
//! than copying worker store files, so the merged store depends only on
//! the spec: a 4-worker run, a 1-worker run, and a re-run after a
//! mid-sweep worker death all produce identical bytes. (Worker-side
//! stores record per-request wall time and the engine's own strategy
//! label; neither is deterministic across topologies.)
//!
//! **Robustness.** Each request retries with the shared
//! [`BackoffPolicy`], honouring `Retry-After` on 503/504. A worker whose
//! retries exhaust on transport errors is declared dead; its points
//! rehash to the next live worker clockwise (bounded by the worker
//! count, since each point tries a worker at most once). A typed
//! rejection (HTTP 400/500) fails the point alone — re-sending a
//! deterministic simulation error elsewhere cannot succeed. The run
//! completes degraded, never aborts: the [`ClusterOutcome`] lists every
//! failed point and per-worker shard statistics.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pipe_core::SimStats;
use pipe_experiments::backoff::{BackoffPolicy, Retry};
use pipe_experiments::json::{field_str, field_u64};
use pipe_experiments::{
    fnv1a64, ResultStore, StoredPoint, StrategyKind, SweepJob, SweepSpec, WorkloadSpec,
};
use pipe_icache::PrefetchPolicy;
use pipe_isa::InstrFormat;
use pipe_mem::{MemConfig, PriorityPolicy};
use pipe_server::http_request;

use crate::metrics::ClusterMetrics;
use crate::ring::HashRing;
use crate::worker::{check_worker, WorkerError, WorkerReport, WorkerState};

/// Why a cluster run could not start (mid-run failures degrade the
/// [`ClusterOutcome`] instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// No worker addresses were registered.
    NoWorkers,
    /// Every registered worker failed its health check.
    AllUnreachable(Vec<(String, WorkerError)>),
    /// A worker answered its health check but is not compatible with
    /// this coordinator (wrong store layout, pre-cluster build).
    Incompatible {
        /// The worker's address.
        addr: String,
        /// What the compatibility probe found.
        reason: String,
    },
    /// The spec cannot be expressed over the workers' HTTP API.
    Unsupported(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoWorkers => write!(f, "no workers registered"),
            ClusterError::AllUnreachable(errors) => {
                write!(f, "all {} worker(s) unreachable", errors.len())?;
                if let Some((addr, e)) = errors.first() {
                    write!(f, "; first: {addr}: {e}")?;
                }
                Ok(())
            }
            ClusterError::Incompatible { addr, reason } => {
                write!(f, "worker {addr} is incompatible: {reason}")
            }
            ClusterError::Unsupported(reason) => {
                write!(f, "spec not expressible over the worker API: {reason}")
            }
        }
    }
}

impl Error for ClusterError {}

/// One point that no worker could answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedPoint {
    /// Position in the sweep expansion.
    pub index: usize,
    /// The strategy the point belongs to.
    pub kind: StrategyKind,
    /// Cache size in bytes.
    pub cache_bytes: u32,
    /// The canonical configuration key of the point.
    pub key: String,
    /// The last error seen while dispatching it.
    pub error: String,
}

impl fmt::Display for FailedPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {}B (point {}): {}",
            self.kind.label(),
            self.cache_bytes,
            self.index,
            self.error
        )
    }
}

/// The (possibly partial) result of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Points answered by a worker this run.
    pub completed: usize,
    /// Points satisfied from the coordinator's merged store (resume).
    pub cached: usize,
    /// Of the completed points, how many the answering worker served
    /// from its own cache layers (`X-Pipe-Cache: hit`).
    pub worker_cache_hits: usize,
    /// Points no worker could answer, in expansion order.
    pub failed: Vec<FailedPoint>,
    /// Per-worker shard and latency statistics, registration order.
    pub workers: Vec<WorkerReport>,
    /// Whether merged-store writes failed persistently and the run
    /// degraded to store-less dispatch.
    pub store_degraded: bool,
    /// Total wall-clock time of the run.
    pub wall: Duration,
}

impl ClusterOutcome {
    /// Whether every expanded point produced a result.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }
}

/// How one dispatched request failed, which decides what happens next.
enum PointError {
    /// The worker rejected the point (HTTP 400/500) or answered
    /// nonsense; re-sending elsewhere cannot help.
    Fatal(String),
    /// The worker could not be reached; exhausting retries on this
    /// declares it dead and fails the point over.
    Down(String),
    /// The worker is alive but saturated (503/504); the point fails
    /// over without killing the worker.
    Busy {
        message: String,
        retry_after: Option<Duration>,
    },
}

impl PointError {
    fn message(&self) -> &str {
        match self {
            PointError::Fatal(m) | PointError::Down(m) => m,
            PointError::Busy { message, .. } => message,
        }
    }
}

/// Dispatches [`SweepSpec`]s across a cluster of `pipe-serve` workers.
/// Builder-style, like the local
/// [`SweepRunner`](pipe_experiments::SweepRunner).
#[derive(Debug)]
pub struct Coordinator {
    workers: Vec<String>,
    metrics: Arc<ClusterMetrics>,
    jobs: usize,
    retries: u32,
    backoff: Duration,
    timeout: Duration,
    store: Option<ResultStore>,
    resume: bool,
    progress: bool,
}

impl Coordinator {
    /// A coordinator over the given worker addresses: 4 dispatch
    /// threads, 3 attempts per worker with 50 ms initial backoff, 30 s
    /// request timeout, no store.
    pub fn new(workers: Vec<String>) -> Coordinator {
        let metrics = Arc::new(ClusterMetrics::new(&workers));
        Coordinator {
            workers,
            metrics,
            jobs: 4,
            retries: 3,
            backoff: Duration::from_millis(50),
            timeout: Duration::from_secs(30),
            store: None,
            resume: false,
            progress: false,
        }
    }

    /// Sets the dispatch-thread count (0 is treated as 1).
    pub fn jobs(mut self, jobs: usize) -> Coordinator {
        self.jobs = jobs.max(1);
        self
    }

    /// Sets the per-worker retry budget and initial backoff delay.
    pub fn retry(mut self, attempts: u32, backoff: Duration) -> Coordinator {
        self.retries = attempts.max(1);
        self.backoff = backoff;
        self
    }

    /// Sets the per-request timeout (also used by the health checks).
    pub fn timeout(mut self, timeout: Duration) -> Coordinator {
        self.timeout = timeout;
        self
    }

    /// Attaches the merged result store.
    pub fn store(mut self, store: ResultStore) -> Coordinator {
        self.store = Some(store);
        self
    }

    /// When a store is attached, skip points it already holds.
    pub fn resume(mut self, resume: bool) -> Coordinator {
        self.resume = resume;
        self
    }

    /// Emit per-point progress lines to stderr.
    pub fn progress(mut self, progress: bool) -> Coordinator {
        self.progress = progress;
        self
    }

    /// The live metric counters (for serving on a `/metrics` listener).
    pub fn metrics(&self) -> Arc<ClusterMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Runs the sweep across the cluster.
    ///
    /// # Errors
    ///
    /// [`ClusterError`] when the run cannot start: no workers, every
    /// worker unreachable, an incompatible worker, or a spec the HTTP
    /// API cannot express. Mid-run failures (dead workers, rejected
    /// points) degrade the outcome instead of erroring.
    pub fn run(&self, spec: &SweepSpec) -> Result<ClusterOutcome, ClusterError> {
        let started = Instant::now();
        if self.workers.is_empty() {
            return Err(ClusterError::NoWorkers);
        }
        let common = common_fields(spec)?;

        // Register: probe every worker before dispatching anything. An
        // incompatible worker is a configuration error worth aborting
        // for; an unreachable one starts dead and its shard rehashes.
        let states: Vec<WorkerState> = self
            .workers
            .iter()
            .map(|addr| WorkerState::new(addr.clone()))
            .collect();
        let mut unreachable = Vec::new();
        for (index, addr) in self.workers.iter().enumerate() {
            match check_worker(addr, self.timeout) {
                Ok(_) => {}
                Err(WorkerError::Incompatible(reason)) => {
                    return Err(ClusterError::Incompatible {
                        addr: addr.clone(),
                        reason,
                    })
                }
                Err(e) => {
                    states[index].mark_dead();
                    self.metrics.workers_dead.inc();
                    eprintln!("[cluster] warning: worker {addr} is down at registration: {e}");
                    unreachable.push((addr.clone(), e));
                }
            }
        }
        if states.iter().all(|s| !s.is_alive()) {
            return Err(ClusterError::AllUnreachable(unreachable));
        }

        let ring = HashRing::new(&self.workers);
        let jobs = spec.expand();
        let total = jobs.len();

        // Resume against the merged store first.
        let mut pending: Vec<&SweepJob> = Vec::new();
        let mut cached = 0usize;
        for job in &jobs {
            if self.cached_in_store(job) {
                cached += 1;
                self.metrics.points_cached.inc();
            } else {
                pending.push(job);
            }
        }

        let store_ok = AtomicBool::new(true);
        let mut completed = 0usize;
        let mut worker_cache_hits = 0usize;
        let mut failed: Vec<FailedPoint> = Vec::new();

        let threads = self.jobs.min(pending.len().max(1));
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<Result<bool, FailedPoint>>();
        let (pending_ref, states_ref, ring_ref, common_ref, store_ok_ref) =
            (&pending, &states, &ring, common.as_str(), &store_ok);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                let next = &next;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = pending_ref.get(i) else { break };
                    let result =
                        self.run_point(job, ring_ref, states_ref, common_ref, store_ok_ref, total);
                    if tx.send(result).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for result in rx {
                match result {
                    Ok(hit) => {
                        completed += 1;
                        if hit {
                            worker_cache_hits += 1;
                        }
                    }
                    Err(point) => failed.push(point),
                }
            }
        });
        failed.sort_by_key(|f| f.index);

        Ok(ClusterOutcome {
            completed,
            cached,
            worker_cache_hits,
            failed,
            workers: states.iter().map(WorkerState::report).collect(),
            store_degraded: !store_ok.load(Ordering::Relaxed),
            wall: started.elapsed(),
        })
    }

    /// Whether the merged store already holds this point (resume). A
    /// key-mismatched entry warns and reads as absent, like the local
    /// engine.
    fn cached_in_store(&self, job: &SweepJob) -> bool {
        if !self.resume {
            return false;
        }
        let Some(store) = &self.store else {
            return false;
        };
        match store.load(job.key()) {
            Ok(entry) => entry.is_some(),
            Err(e) => {
                eprintln!(
                    "[cluster] warning: {e}; redispatching {} @ {}B",
                    job.kind.label(),
                    job.cache_bytes
                );
                false
            }
        }
    }

    /// Dispatches one point: hash, assign, request with retry, and on a
    /// dead worker rehash to the next live one. Each worker is tried at
    /// most once per point, so the loop is bounded by the worker count.
    fn run_point(
        &self,
        job: &SweepJob,
        ring: &HashRing,
        states: &[WorkerState],
        common: &str,
        store_ok: &AtomicBool,
        total: usize,
    ) -> Result<bool, FailedPoint> {
        let hash = fnv1a64(job.key().as_bytes());
        let body = point_body(job, common);
        let mut attempted = vec![false; states.len()];
        let mut first = true;
        let mut last_error = "no live workers remaining".to_string();
        loop {
            let Some(w) = ring.assign(hash, |i| !attempted[i] && states[i].is_alive()) else {
                return Err(FailedPoint {
                    index: job.index,
                    kind: job.kind,
                    cache_bytes: job.cache_bytes,
                    key: job.key().to_string(),
                    error: last_error,
                });
            };
            attempted[w] = true;
            if first {
                states[w].assigned.fetch_add(1, Ordering::Relaxed);
                first = false;
            }
            self.metrics.workers[w].dispatched.inc();

            let t0 = Instant::now();
            match self.request_point(&states[w], w, &body) {
                Ok((response_body, hit)) => {
                    return self.accept_point(
                        job,
                        &states[w],
                        &response_body,
                        hit,
                        t0.elapsed(),
                        store_ok,
                        total,
                    )
                }
                Err(PointError::Fatal(message)) => {
                    return Err(FailedPoint {
                        index: job.index,
                        kind: job.kind,
                        cache_bytes: job.cache_bytes,
                        key: job.key().to_string(),
                        error: message,
                    })
                }
                Err(e) => {
                    if matches!(e, PointError::Down(_)) && states[w].mark_dead() {
                        self.metrics.workers_dead.inc();
                        eprintln!(
                            "[cluster] worker {} died mid-sweep ({}); failing its shard over",
                            states[w].addr,
                            e.message()
                        );
                    }
                    states[w].failed_over.fetch_add(1, Ordering::Relaxed);
                    self.metrics.workers[w].failed_over.inc();
                    last_error = format!("{} (last worker {})", e.message(), states[w].addr);
                }
            }
        }
    }

    /// One request against one worker, with the shared backoff policy.
    /// Transport errors and 503/504 retry (the latter honouring
    /// `Retry-After`); any other status aborts as fatal. On success,
    /// returns the body plus whether the worker served it from cache.
    fn request_point(
        &self,
        state: &WorkerState,
        index: usize,
        body: &str,
    ) -> Result<(String, bool), PointError> {
        let policy = BackoffPolicy::new(self.retries, self.backoff);
        policy.run(
            |_attempt| {
                let resp = http_request(
                    &state.addr,
                    "POST",
                    "/v1/simulate",
                    Some(body),
                    self.timeout,
                )
                .map_err(|e| PointError::Down(format!("transport: {e}")))?;
                match resp.status {
                    200 => Ok((resp.body_text(), resp.header("x-pipe-cache") == Some("hit"))),
                    503 | 504 => Err(PointError::Busy {
                        message: format!(
                            "worker busy ({}): {}",
                            resp.status,
                            resp.body_text().trim()
                        ),
                        retry_after: resp
                            .header("retry-after")
                            .and_then(|v| v.trim().parse::<u64>().ok())
                            .map(Duration::from_secs),
                    }),
                    status => Err(PointError::Fatal(format!(
                        "worker {} rejected the point ({status}): {}",
                        state.addr,
                        resp.body_text().trim()
                    ))),
                }
            },
            |_attempt, e| match e {
                PointError::Fatal(_) => Retry::Abort,
                PointError::Down(_) => {
                    state.retried.fetch_add(1, Ordering::Relaxed);
                    self.metrics.workers[index].retried.inc();
                    Retry::After(None)
                }
                PointError::Busy { retry_after, .. } => {
                    state.retried.fetch_add(1, Ordering::Relaxed);
                    self.metrics.workers[index].retried.inc();
                    Retry::After(*retry_after)
                }
            },
        )
    }

    /// Validates and merges one successful response: the echoed key must
    /// match the dispatched point (a mismatch means the worker simulated
    /// something else — a point-fatal protocol error), the stats are
    /// re-parsed, and the entry is written to the merged store under the
    /// sweep's own strategy label with `wall_ms: 0` (see module docs).
    #[allow(clippy::too_many_arguments)]
    fn accept_point(
        &self,
        job: &SweepJob,
        state: &WorkerState,
        response: &str,
        hit: bool,
        wall: Duration,
        store_ok: &AtomicBool,
        total: usize,
    ) -> Result<bool, FailedPoint> {
        let fail = |error: String| FailedPoint {
            index: job.index,
            kind: job.kind,
            cache_bytes: job.cache_bytes,
            key: job.key().to_string(),
            error,
        };
        let echoed = field_str(response, "key");
        if echoed.as_deref() != Some(job.key()) {
            return Err(fail(format!(
                "worker {} answered for key {:?}, expected {:?}",
                state.addr,
                echoed.unwrap_or_default(),
                job.key()
            )));
        }
        let Some(stats) = stats_from_response(response) else {
            return Err(fail(format!(
                "worker {} returned an incomplete stats object",
                state.addr
            )));
        };
        let ms = wall.as_millis() as u64;
        state.record_success(ms);
        self.metrics.points_completed.inc();

        if self.progress {
            eprintln!(
                "[cluster {}/{}] {} @ {}B <- {}: {} cycles ({}ms{})",
                job.index + 1,
                total,
                job.kind.label(),
                job.cache_bytes,
                state.addr,
                stats.cycles,
                ms,
                if hit { ", worker cache hit" } else { "" },
            );
        }

        if let Some(store) = &self.store {
            if store_ok.load(Ordering::Relaxed) {
                let entry = StoredPoint {
                    key: job.key().to_string(),
                    strategy: job.kind.label().to_string(),
                    cache_bytes: job.cache_bytes,
                    // Constant, so merged stores are byte-identical
                    // across topologies and re-runs.
                    wall_ms: 0,
                    stats,
                };
                let policy = BackoffPolicy::store_default();
                let result = policy.run(|_| store.save(&entry), |_, _| Retry::After(None));
                if let Err(e) = result {
                    eprintln!(
                        "[cluster] warning: merged-store write failed {} times ({e}); \
                         continuing without the store",
                        policy.attempts()
                    );
                    store_ok.store(false, Ordering::Relaxed);
                }
            }
        }
        Ok(hit)
    }
}

/// The request-body fields shared by every point of a spec: workload and
/// memory timing. Returns the fragment (leading comma included) or a
/// typed [`ClusterError::Unsupported`] when the spec cannot be expressed
/// over the HTTP API.
fn common_fields(spec: &SweepSpec) -> Result<String, ClusterError> {
    if !matches!(spec.policy, PrefetchPolicy::TruePrefetch) {
        return Err(ClusterError::Unsupported(
            "the worker API fixes the PIPE prefetch policy to true-prefetch".to_string(),
        ));
    }
    let workload = match &spec.workload {
        WorkloadSpec::Livermore { format, scale } => format!(
            ",\"workload\":\"livermore\",\"scale\":{scale},\"format\":\"{}\"",
            format_field(*format)
        ),
        WorkloadSpec::TightLoop {
            body,
            trips,
            format,
        } => format!(
            ",\"workload\":\"tight-loop\",\"body\":{body},\"trips\":{trips},\"format\":\"{}\"",
            format_field(*format)
        ),
        // The name alone crosses the wire; the worker re-assembles its own
        // bundled copy, and the key echo (which includes the content hash)
        // rejects a worker whose library drifted from the coordinator's.
        WorkloadSpec::Asm { name, format, .. } => format!(
            ",\"workload\":\"asm\",\"program\":\"{name}\",\"format\":\"{}\"",
            format_field(*format)
        ),
        WorkloadSpec::Trace { .. } => {
            return Err(ClusterError::Unsupported(
                "trace workloads replay local files the HTTP API cannot ship".to_string(),
            ))
        }
    };
    let mem = mem_fields(&spec.mem)?;
    Ok(format!("{workload}{mem}"))
}

/// The server-side body value for an instruction format (the wire names
/// differ from the format's `Display` rendering).
fn format_field(format: InstrFormat) -> &'static str {
    match format {
        InstrFormat::Fixed32 => "fixed32",
        InstrFormat::Mixed => "mixed",
    }
}

/// The memory-timing fields, or `Unsupported` for parameters the
/// simulate body cannot carry (they would silently fall back to worker
/// defaults and poison the merged store with mis-keyed results — except
/// the key echo would catch it; failing early is friendlier).
fn mem_fields(mem: &MemConfig) -> Result<String, ClusterError> {
    let defaults = MemConfig::default();
    if mem.out_bus_bytes != defaults.out_bus_bytes {
        return Err(ClusterError::Unsupported(format!(
            "out-bus width {}B: the worker API has no field for it",
            mem.out_bus_bytes
        )));
    }
    if mem.fpu_latency != defaults.fpu_latency {
        return Err(ClusterError::Unsupported(format!(
            "FPU latency {}: the worker API has no field for it",
            mem.fpu_latency
        )));
    }
    if mem.external_cache.is_some() {
        return Err(ClusterError::Unsupported(
            "external cache models have no worker API fields".to_string(),
        ));
    }
    // Absent when no D-cache is configured, so pre-D-cache request
    // bodies stay byte-identical (coalescing and store keys unchanged).
    let dcache = match &mem.d_cache {
        Some(d) => format!(
            ",\"dcache\":{},\"dline\":{},\"dways\":{}",
            d.size_bytes, d.line_bytes, d.ways
        ),
        None => String::new(),
    };
    Ok(format!(
        ",\"access\":{},\"bus\":{},\"pipelined\":{},\"data_first\":{}{dcache}",
        mem.access_cycles,
        mem.in_bus_bytes,
        mem.pipelined,
        matches!(mem.priority, PriorityPolicy::DataFirst),
    ))
}

/// The full `/v1/simulate` body for one point: strategy fields plus the
/// spec-wide common fragment.
fn point_body(job: &SweepJob, common: &str) -> String {
    let strategy = match job.kind {
        StrategyKind::Conventional => format!(
            "\"fetch\":\"conventional\",\"cache\":{},\"line\":{}",
            job.cache_bytes,
            job.kind.line_bytes()
        ),
        StrategyKind::Tib16 => format!(
            "\"fetch\":\"tib\",\"cache\":{},\"line\":{}",
            job.cache_bytes,
            job.kind.line_bytes()
        ),
        _ => {
            let (iq, iqb) = job.kind.queue_bytes().expect("pipe strategy has queues");
            format!(
                "\"fetch\":\"pipe\",\"cache\":{},\"line\":{},\"iq\":{iq},\"iqb\":{iqb}",
                job.cache_bytes,
                job.kind.line_bytes()
            )
        }
    };
    format!("{{{strategy}{common}}}")
}

/// Reconstructs the persisted statistics surface from a simulate
/// response body (the `stats` object of [`stats_json`] — every field the
/// store round-trips). `None` when any field is missing.
///
/// [`stats_json`]: pipe_experiments::stats_json
fn stats_from_response(body: &str) -> Option<SimStats> {
    let mut stats = SimStats {
        cycles: field_u64(body, "cycles")?,
        instructions_issued: field_u64(body, "instructions")?,
        loads: field_u64(body, "loads")?,
        stores: field_u64(body, "stores")?,
        fpu_ops: field_u64(body, "fpu_ops")?,
        branches_taken: field_u64(body, "branches_taken")?,
        branches_not_taken: field_u64(body, "branches_not_taken")?,
        ..SimStats::default()
    };
    stats.stalls.ifetch = field_u64(body, "ifetch")?;
    stats.stalls.data_wait = field_u64(body, "data_wait")?;
    stats.stalls.queue_full = field_u64(body, "queue_full")?;
    stats.stalls.branch = field_u64(body, "branch")?;
    stats.fetch.demand_requests = field_u64(body, "demand_requests")?;
    stats.fetch.prefetch_requests = field_u64(body, "prefetch_requests")?;
    stats.fetch.bytes_requested = field_u64(body, "bytes_requested")?;
    stats.fetch.cache_hits = field_u64(body, "cache_hits")?;
    stats.fetch.cache_misses = field_u64(body, "cache_misses")?;
    stats.fetch.redirects = field_u64(body, "redirects")?;
    stats.fetch.wasted_requests = field_u64(body, "wasted_requests")?;
    stats.mem.d_hits = field_u64(body, "d_hits")?;
    stats.mem.d_misses = field_u64(body, "d_misses")?;
    stats.mem.d_store_hits = field_u64(body, "d_store_hits")?;
    stats.mem.contended_cycles = field_u64(body, "contended_cycles")?;
    Some(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipe_experiments::json::stats_json;
    use pipe_mem::MemConfig;

    fn spec() -> SweepSpec {
        SweepSpec {
            id: "cluster-test".to_string(),
            strategies: vec![StrategyKind::Conventional, StrategyKind::Pipe16x32],
            cache_sizes: vec![64],
            mem: MemConfig {
                access_cycles: 6,
                in_bus_bytes: 8,
                pipelined: true,
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
    fn bodies_mirror_the_cli_fields() {
        let spec = spec();
        let common = common_fields(&spec).unwrap();
        let jobs = spec.expand();
        let conventional = point_body(&jobs[0], &common);
        assert!(conventional.contains("\"fetch\":\"conventional\""));
        assert!(conventional.contains("\"cache\":64"));
        assert!(conventional.contains("\"line\":16"));
        assert!(conventional.contains("\"workload\":\"tight-loop\""));
        assert!(conventional.contains("\"format\":\"fixed32\""));
        assert!(conventional.contains("\"access\":6"));
        assert!(conventional.contains("\"bus\":8"));
        assert!(conventional.contains("\"pipelined\":true"));
        assert!(conventional.contains("\"data_first\":false"));
        let pipe = point_body(&jobs[1], &common);
        assert!(pipe.contains("\"fetch\":\"pipe\""));
        assert!(pipe.contains("\"line\":32"));
        assert!(pipe.contains("\"iq\":16"));
        assert!(pipe.contains("\"iqb\":32"));
        for body in [&conventional, &pipe] {
            assert!(body.starts_with('{') && body.ends_with('}'));
        }
    }

    #[test]
    fn mixed_format_uses_the_wire_name() {
        // InstrFormat's Display renders "mixed-16/32"; the wire field
        // must be the server's accepted name instead.
        let mut spec = spec();
        spec.workload = WorkloadSpec::Livermore {
            format: InstrFormat::Mixed,
            scale: 20,
        };
        let common = common_fields(&spec).unwrap();
        assert!(common.contains("\"workload\":\"livermore\""));
        assert!(common.contains("\"scale\":20"));
        assert!(common.contains("\"format\":\"mixed\""));
    }

    #[test]
    fn unsupported_specs_fail_typed() {
        let mut trace = spec();
        trace.workload = WorkloadSpec::Trace {
            path: "/tmp/x.ptr".to_string(),
            fnv: 1,
        };
        assert!(matches!(
            common_fields(&trace),
            Err(ClusterError::Unsupported(_))
        ));

        let mut wide = spec();
        wide.mem.out_bus_bytes = 8;
        assert!(matches!(
            common_fields(&wide),
            Err(ClusterError::Unsupported(_))
        ));

        let mut fpu = spec();
        fpu.mem.fpu_latency = 9;
        assert!(matches!(
            common_fields(&fpu),
            Err(ClusterError::Unsupported(_))
        ));
    }

    #[test]
    fn stats_round_trip_through_the_response_shape() {
        let mut stats = SimStats {
            cycles: 12345,
            instructions_issued: 678,
            loads: 9,
            stores: 8,
            fpu_ops: 7,
            branches_taken: 6,
            branches_not_taken: 5,
            ..SimStats::default()
        };
        stats.stalls.ifetch = 44;
        stats.stalls.data_wait = 33;
        stats.stalls.queue_full = 22;
        stats.stalls.branch = 11;
        stats.fetch.demand_requests = 101;
        stats.fetch.prefetch_requests = 102;
        stats.fetch.bytes_requested = 103;
        stats.fetch.cache_hits = 104;
        stats.fetch.cache_misses = 105;
        stats.fetch.redirects = 106;
        stats.fetch.wasted_requests = 107;
        stats.mem.d_hits = 201;
        stats.mem.d_misses = 202;
        stats.mem.d_store_hits = 203;
        stats.mem.contended_cycles = 204;
        let response = format!(
            "{{\"key\":\"k\",\"strategy\":\"16-16\",\"cache_bytes\":64,\"stats\":{}}}",
            stats_json(&stats)
        );
        let parsed = stats_from_response(&response).unwrap();
        assert_eq!(parsed, stats);
        // A truncated response reads as absent, never as zeros.
        assert!(stats_from_response(&response[..response.len() / 2]).is_none());
    }

    #[test]
    fn startup_errors_are_typed() {
        let spec = spec();
        let err = Coordinator::new(Vec::new()).run(&spec).unwrap_err();
        assert_eq!(err, ClusterError::NoWorkers);

        // Nothing listens on port 1; both workers start dead.
        let dead = Coordinator::new(vec!["127.0.0.1:1".to_string(), "127.0.0.1:1".to_string()])
            .timeout(Duration::from_millis(500));
        let err = dead.run(&spec).unwrap_err();
        assert!(
            matches!(err, ClusterError::AllUnreachable(ref e) if e.len() == 2),
            "{err}"
        );
        assert!(err.to_string().contains("unreachable"));
    }
}
