//! Request routing and the JSON request/response schemas.
//!
//! The request bodies are flat JSON objects mirroring the `pipe-sim`
//! CLI flags one-to-one (`fetch`, `cache`, `line`, `iq`, `iqb`,
//! `prefetch`, `access`, `bus`, `pipelined`, `data_first`, plus the
//! workload fields), parsed with the shared
//! [`pipe_experiments::json`] helpers. Responses carry the result body
//! plus two provenance headers: `X-Pipe-Source`
//! (`computed|coalesced|memory|store`) and `X-Pipe-Cache` (`hit|miss`).

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pipe_experiments::json::{escape, field_bool, field_str, field_u64, stats_json};
use pipe_experiments::{ResultStore, SweepRunner, SweepSpec, WorkloadSpec, ALL_FIGURES};
use pipe_icache::{ConvPrefetch, EngineBuilder, FetchKind};
use pipe_isa::InstrFormat;
use pipe_mem::MemConfig;

use crate::cache::{SimPoint, SimService, SimServiceError};
use crate::http::{Request, Response};
use crate::metrics::Metrics;

/// Shared state handed to every worker.
#[derive(Debug)]
pub struct AppState {
    /// The simulation engine (memo, store, single-flight).
    pub sim: Arc<SimService>,
    /// Live counters.
    pub metrics: Arc<Metrics>,
    /// The persistent store, for sweep resume (the sim service holds its
    /// own handle).
    pub store: Option<ResultStore>,
    /// Per-request wait deadline.
    pub request_timeout: Duration,
    /// Worker threads a `/v1/sweep` run may use.
    pub sweep_jobs: usize,
    /// Request-handling worker threads (reported by `/v1/info`).
    pub workers: usize,
    /// When the server started (for `/healthz` uptime).
    pub started: Instant,
    sweeps: Mutex<HashMap<String, Arc<SweepFlight>>>,
}

/// An in-flight sweep identical requests park on (single-flight over
/// the rendered response body).
#[derive(Debug, Default)]
struct SweepFlight {
    done: Mutex<Option<Result<String, String>>>,
    cv: Condvar,
}

impl AppState {
    /// Creates the shared state.
    pub fn new(
        sim: Arc<SimService>,
        metrics: Arc<Metrics>,
        store: Option<ResultStore>,
        request_timeout: Duration,
        sweep_jobs: usize,
        workers: usize,
    ) -> AppState {
        AppState {
            sim,
            metrics,
            store,
            request_timeout,
            sweep_jobs,
            workers,
            started: Instant::now(),
            sweeps: Mutex::new(HashMap::new()),
        }
    }
}

/// A routed response plus its side effects.
#[derive(Debug)]
pub struct RouteOutcome {
    /// The response to write.
    pub response: Response,
    /// The endpoint label for metrics and the event log.
    pub endpoint: &'static str,
    /// Whether this request asked the server to shut down.
    pub shutdown: bool,
}

fn outcome(response: Response, endpoint: &'static str) -> RouteOutcome {
    RouteOutcome {
        response,
        endpoint,
        shutdown: false,
    }
}

/// Dispatches one parsed request.
pub fn route(state: &AppState, req: &Request) -> RouteOutcome {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/simulate") => {
            state.metrics.requests_simulate.inc();
            outcome(handle_simulate(state, req), "simulate")
        }
        ("POST", "/v1/sweep") => {
            state.metrics.requests_sweep.inc();
            outcome(handle_sweep(state, req), "sweep")
        }
        ("GET", "/v1/workloads") => {
            state.metrics.requests_workloads.inc();
            outcome(handle_workloads(state), "workloads")
        }
        ("GET", "/metrics") => {
            state.metrics.requests_metrics.inc();
            outcome(Response::text(200, state.metrics.render()), "metrics")
        }
        ("GET", "/v1/info") => {
            state.metrics.requests_info.inc();
            outcome(handle_info(state), "info")
        }
        ("GET", "/healthz") => {
            state.metrics.requests_healthz.inc();
            let uptime = state.started.elapsed().as_millis();
            outcome(
                Response::json(200, format!("{{\"status\":\"ok\",\"uptime_ms\":{uptime}}}")),
                "healthz",
            )
        }
        ("POST", "/admin/shutdown") => {
            state.metrics.requests_shutdown.inc();
            RouteOutcome {
                response: Response::json(200, "{\"status\":\"draining\"}".to_string()),
                endpoint: "shutdown",
                shutdown: true,
            }
        }
        (_, "/v1/simulate" | "/v1/sweep" | "/admin/shutdown") => {
            state.metrics.requests_other.inc();
            outcome(
                Response::error(405, "method not allowed; use POST").header("allow", "POST"),
                "other",
            )
        }
        (_, "/v1/workloads" | "/v1/info" | "/metrics" | "/healthz") => {
            state.metrics.requests_other.inc();
            outcome(
                Response::error(405, "method not allowed; use GET").header("allow", "GET"),
                "other",
            )
        }
        _ => {
            state.metrics.requests_other.inc();
            outcome(
                Response::error(404, &format!("no such endpoint: {}", req.path)),
                "other",
            )
        }
    }
}

/// The `/v1/info` body: what a coordinator needs to decide whether this
/// worker is compatible (version and store layout) and how it is
/// provisioned (workers, sweep jobs, store size).
fn handle_info(state: &AppState) -> Response {
    let store_keys = state.store.as_ref().map(ResultStore::len).unwrap_or(0);
    let body = format!(
        "{{\"version\":\"{}\",\"store_version\":{},\"workers\":{},\"sweep_jobs\":{},\
         \"store_enabled\":{},\"store_keys\":{store_keys},\"uptime_ms\":{}}}",
        escape(env!("CARGO_PKG_VERSION")),
        pipe_experiments::store::STORE_VERSION,
        state.workers,
        state.sweep_jobs,
        state.store.is_some(),
        state.started.elapsed().as_millis(),
    );
    Response::json(200, body)
}

/// Rejects request bodies that are not JSON objects. An empty body is
/// allowed (every field has a default); anything non-empty must at least
/// be brace-delimited, so typos like form-encoded or truncated bodies
/// get a `400` instead of silently parsing as all-defaults.
fn require_json_object(body: &str) -> Result<(), String> {
    let trimmed = body.trim();
    if trimmed.is_empty() || (trimmed.starts_with('{') && trimmed.ends_with('}')) {
        Ok(())
    } else {
        Err("request body must be a JSON object".to_string())
    }
}

fn parse_format(body: &str) -> Result<InstrFormat, String> {
    match field_str(body, "format").as_deref() {
        None | Some("fixed32") => Ok(InstrFormat::Fixed32),
        Some("mixed") => Ok(InstrFormat::Mixed),
        Some(other) => Err(format!("unknown format `{other}` (fixed32|mixed)")),
    }
}

fn parse_workload(body: &str) -> Result<WorkloadSpec, String> {
    let format = parse_format(body)?;
    match field_str(body, "workload").as_deref() {
        None | Some("livermore") => {
            let scale = field_u64(body, "scale").unwrap_or(1).max(1) as u32;
            Ok(WorkloadSpec::Livermore { format, scale })
        }
        Some("tight-loop") => {
            let loop_body = field_u64(body, "body").unwrap_or(6) as u32;
            let trips = field_u64(body, "trips").unwrap_or(30);
            let trips = u16::try_from(trips).map_err(|_| "trips exceeds 65535".to_string())?;
            Ok(WorkloadSpec::TightLoop {
                body: loop_body,
                trips,
                format,
            })
        }
        Some("asm") => {
            let name = field_str(body, "program")
                .ok_or("workload `asm` needs a `program` field (a bundled program name)")?;
            WorkloadSpec::asm(&name, format)
        }
        Some(other) => Err(format!(
            "unknown workload `{other}` (livermore|tight-loop|asm)"
        )),
    }
}

/// Parses a `/v1/simulate` body into a fully-resolved point. The fields
/// mirror the `pipe-sim` flags; absent fields take the CLI defaults.
fn parse_simulate_body(body: &str) -> Result<SimPoint, String> {
    require_json_object(body)?;
    let workload = parse_workload(body)?;
    let fetch_name = field_str(body, "fetch").unwrap_or_else(|| "pipe".to_string());
    let kind = FetchKind::parse(&fetch_name)
        .ok_or_else(|| format!("unknown fetch strategy `{fetch_name}`"))?;
    let cache = field_u64(body, "cache").unwrap_or(128) as u32;
    let line = field_u64(body, "line").unwrap_or(16) as u32;
    let iq = field_u64(body, "iq").map(|v| v as u32);
    let iqb = field_u64(body, "iqb").map(|v| v as u32);
    let prefetch = match field_str(body, "prefetch").as_deref() {
        None | Some("always") => ConvPrefetch::Always,
        Some("on-miss") => ConvPrefetch::OnMissOnly,
        Some("tagged") => ConvPrefetch::Tagged,
        Some(other) => Err(format!(
            "unknown prefetch mode `{other}` (always|on-miss|tagged)"
        ))?,
    };
    let mut builder = EngineBuilder::new(kind)
        .cache_bytes(cache)
        .line_bytes(line)
        .prefetch(prefetch)
        .buffers(iq.unwrap_or(4))
        .buffer_cache(cache > 0);
    if let Some(iq) = iq {
        builder = builder.iq_bytes(iq);
    }
    if let Some(iqb) = iqb {
        builder = builder.iqb_bytes(iqb);
    }
    let fetch = builder.config().map_err(|e| e.to_string())?;

    let mut mem = MemConfig::default();
    if let Some(access) = field_u64(body, "access") {
        mem.access_cycles = access as u32;
    }
    if let Some(bus) = field_u64(body, "bus") {
        mem.in_bus_bytes = bus as u32;
    }
    if let Some(pipelined) = field_bool(body, "pipelined") {
        mem.pipelined = pipelined;
    }
    if let Some(data_first) = field_bool(body, "data_first") {
        if data_first {
            mem.priority = pipe_mem::PriorityPolicy::DataFirst;
        }
    }
    if let Some(dcache) = field_u64(body, "dcache") {
        if dcache > 0 {
            mem.d_cache = Some(pipe_mem::DCacheConfig {
                size_bytes: dcache as u32,
                line_bytes: field_u64(body, "dline").unwrap_or(16) as u32,
                ways: field_u64(body, "dways").unwrap_or(1) as u32,
            });
        }
    }
    mem.validate().map_err(|e| e.to_string())?;

    Ok(SimPoint {
        workload,
        fetch,
        mem,
        cache_bytes: cache,
    })
}

/// Renders the deterministic simulate response body. Provenance lives in
/// headers, so every response for one key is byte-identical regardless
/// of which cache layer produced it.
fn simulate_body(entry: &pipe_experiments::StoredPoint) -> String {
    format!(
        "{{\"key\":\"{}\",\"strategy\":\"{}\",\"cache_bytes\":{},\"stats\":{}}}",
        escape(&entry.key),
        escape(&entry.strategy),
        entry.cache_bytes,
        stats_json(&entry.stats)
    )
}

fn handle_simulate(state: &AppState, req: &Request) -> Response {
    let Some(body) = req.body_text() else {
        return Response::error(400, "body is not UTF-8");
    };
    let point = match parse_simulate_body(body) {
        Ok(point) => point,
        Err(message) => return Response::error(400, &message),
    };
    match state.sim.simulate(&point, state.request_timeout) {
        Ok(result) => Response::json(200, simulate_body(&result.entry))
            .header("x-pipe-source", result.source.label())
            .header(
                "x-pipe-cache",
                if result.source.is_cache_hit() {
                    "hit"
                } else {
                    "miss"
                },
            ),
        Err(SimServiceError::Timeout) => {
            Response::error(504, "simulation still running; retry to pick up the result")
                .header("retry-after", "1")
        }
        Err(SimServiceError::Sim(message)) => Response::error(500, &message),
    }
}

fn handle_sweep(state: &AppState, req: &Request) -> Response {
    let Some(body) = req.body_text() else {
        return Response::error(400, "body is not UTF-8");
    };
    if let Err(message) = require_json_object(body) {
        return Response::error(400, &message);
    }
    let Some(figure) = field_str(body, "figure") else {
        return Response::error(400, "missing required field `figure` (\"4a\"..\"6b\")");
    };
    if !ALL_FIGURES.contains(&figure.as_str()) {
        return Response::error(400, &format!("unknown figure `{figure}` (4a..6b)"));
    }
    let scale = field_u64(body, "scale").unwrap_or(1).max(1) as u32;
    let jobs = field_u64(body, "jobs")
        .map(|v| (v as usize).clamp(1, 64))
        .unwrap_or(state.sweep_jobs);
    let flight_key = format!("fig={figure}|scale={scale}");

    // Single-flight over the rendered body: identical concurrent sweep
    // requests share one run.
    let (flight, leader) = {
        let mut sweeps = state.sweeps.lock().unwrap_or_else(|e| e.into_inner());
        match sweeps.get(&flight_key) {
            Some(flight) => (Arc::clone(flight), false),
            None => {
                let flight = Arc::new(SweepFlight::default());
                sweeps.insert(flight_key.clone(), Arc::clone(&flight));
                (flight, true)
            }
        }
    };
    let rendered = if leader {
        let result = run_sweep(state, &figure, scale, jobs);
        state
            .sweeps
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&flight_key);
        {
            let mut done = flight.done.lock().unwrap_or_else(|e| e.into_inner());
            *done = Some(result.clone());
        }
        flight.cv.notify_all();
        Some(result)
    } else {
        state.metrics.sim_coalesced.inc();
        let deadline = Instant::now() + state.request_timeout;
        let mut done = flight.done.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = done.as_ref() {
                break Some(result.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                break None;
            }
            let (guard, _) = flight
                .cv
                .wait_timeout(done, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            done = guard;
        }
    };
    match rendered {
        Some(Ok(body)) => Response::json(200, body),
        Some(Err(message)) => Response::error(500, &message),
        None => {
            state.metrics.timeouts.inc();
            Response::error(504, "sweep still running; retry later").header("retry-after", "5")
        }
    }
}

fn run_sweep(state: &AppState, figure: &str, scale: u32, jobs: usize) -> Result<String, String> {
    let mut spec = SweepSpec::figure(figure);
    if scale > 1 {
        spec.workload = WorkloadSpec::Livermore {
            format: InstrFormat::Fixed32,
            scale,
        };
    }
    let mut runner = SweepRunner::new().jobs(jobs).progress(false).resume(true);
    if let Some(store) = &state.store {
        runner = runner.store(store.clone());
    }
    let outcome = runner.run(&spec);
    let mut body = format!(
        "{{\"id\":\"{}\",\"scale\":{scale},\"computed\":{},\"cached\":{},\"failed\":{},\"wall_ms\":{},\"series\":[",
        escape(&spec.id),
        outcome.computed,
        outcome.cached,
        outcome.failed.len(),
        outcome.wall.as_millis(),
    );
    for (i, series) in outcome.series.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"label\":\"{}\",\"points\":[",
            escape(&series.label)
        ));
        for (j, point) in series.points.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            body.push_str(&format!(
                "{{\"cache_bytes\":{},\"cycles\":{}}}",
                point.cache_bytes, point.cycles
            ));
        }
        body.push_str("]}");
    }
    body.push_str("]}");
    Ok(body)
}

fn handle_workloads(state: &AppState) -> Response {
    let resident = state.sim.resident_workloads();
    let mut body = String::from("{\"resident\":[");
    for (i, (key, instructions)) in resident.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"key\":\"{}\",\"instructions\":{instructions}}}",
            escape(key)
        ));
    }
    body.push_str(
        "],\"available\":[\
         {\"workload\":\"livermore\",\"fields\":[\"scale\",\"format\"]},\
         {\"workload\":\"tight-loop\",\"fields\":[\"body\",\"trips\",\"format\"]},\
         {\"workload\":\"asm\",\"fields\":[\"program\",\"format\"],\"programs\":[",
    );
    for (i, name) in pipe_workloads::library::names().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("\"{}\"", escape(name)));
    }
    body.push_str("]}]}");
    Response::json(200, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulate_body_defaults_mirror_the_cli() {
        let point = parse_simulate_body("{}").unwrap();
        assert_eq!(point.cache_bytes, 128);
        assert!(matches!(
            point.workload,
            WorkloadSpec::Livermore { scale: 1, .. }
        ));
        assert_eq!(point.mem.access_cycles, 1);
        let labelled = point.fetch.label();
        assert!(labelled.contains("16") || !labelled.is_empty());
    }

    #[test]
    fn simulate_body_full_parse() {
        let body = "{\"workload\":\"tight-loop\",\"body\":8,\"trips\":40,\
                    \"fetch\":\"conventional\",\"cache\":256,\"line\":32,\
                    \"prefetch\":\"tagged\",\"access\":6,\"bus\":8,\"pipelined\":true}";
        let point = parse_simulate_body(body).unwrap();
        assert_eq!(point.cache_bytes, 256);
        assert_eq!(point.mem.access_cycles, 6);
        assert_eq!(point.mem.in_bus_bytes, 8);
        assert!(point.mem.pipelined);
        assert!(matches!(
            point.workload,
            WorkloadSpec::TightLoop {
                body: 8,
                trips: 40,
                ..
            }
        ));
    }

    #[test]
    fn simulate_body_rejects_unknowns() {
        assert!(parse_simulate_body("{\"fetch\":\"warp-drive\"}").is_err());
        assert!(parse_simulate_body("{\"workload\":\"dhrystone\"}").is_err());
        assert!(parse_simulate_body("{\"prefetch\":\"psychic\"}").is_err());
        assert!(parse_simulate_body("{\"format\":\"octal\"}").is_err());
        assert!(parse_simulate_body("{\"workload\":\"tight-loop\",\"trips\":70000}").is_err());
    }

    #[test]
    fn simulate_body_rejects_non_json_objects() {
        // A body that is not a JSON object must be a typed 400, not a
        // silent all-defaults run.
        assert!(parse_simulate_body("cache=64&fetch=pipe").is_err());
        assert!(parse_simulate_body("\"just a string\"").is_err());
        assert!(parse_simulate_body("{\"cache\":64").is_err());
        // An empty body is the documented all-defaults request.
        assert!(parse_simulate_body("").is_ok());
        assert!(parse_simulate_body("   \n").is_ok());
    }

    #[test]
    fn identical_requests_share_one_key() {
        let a = parse_simulate_body("{\"cache\":64}").unwrap();
        let b = parse_simulate_body("{\"cache\": 64 }").unwrap();
        assert_eq!(a.key(), b.key());
        let c = parse_simulate_body("{\"cache\":128}").unwrap();
        assert_ne!(a.key(), c.key());
    }
}
