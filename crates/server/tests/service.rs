//! End-to-end tests of the simulation service over real sockets: the
//! acceptance criteria of the service PR. Every test binds an ephemeral
//! port and drives the server through the same loopback client the CLI
//! (`pipe-sim request`) uses.

use std::path::PathBuf;
use std::time::Duration;

use pipe_core::FetchStrategy;
use pipe_experiments::json::{field_str, field_u64, stats_json};
use pipe_experiments::runner::try_run_point;
use pipe_experiments::{fnv1a64, StoredPoint};
use pipe_icache::{EngineBuilder, FetchKind};
use pipe_isa::InstrFormat;
use pipe_mem::MemConfig;
use pipe_server::{http_request, spawn, ClientResponse, ServerConfig};

const TIMEOUT: Duration = Duration::from_secs(30);

/// A fast deterministic request body used throughout (tight loop, PIPE
/// engine, 64 B cache).
const SIM_BODY: &str = "{\"workload\":\"tight-loop\",\"body\":6,\"trips\":30,\
                        \"fetch\":\"pipe\",\"cache\":64,\"line\":16}";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pipe-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    }
}

fn simulate(addr: &str, body: &str) -> ClientResponse {
    http_request(addr, "POST", "/v1/simulate", Some(body), TIMEOUT).expect("simulate request")
}

/// The fetch configuration `SIM_BODY` resolves to.
fn sim_body_fetch() -> FetchStrategy {
    EngineBuilder::new(FetchKind::Pipe)
        .cache_bytes(64)
        .line_bytes(16)
        .buffers(4)
        .buffer_cache(true)
        .config()
        .unwrap()
}

#[test]
fn sixty_four_concurrent_identical_requests_compute_exactly_once() {
    let handle = spawn(ServerConfig {
        workers: 8,
        queue_capacity: 256,
        compute_delay: Duration::from_millis(150),
        ..config()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    let responses: Vec<ClientResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..64)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || simulate(&addr, SIM_BODY))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for response in &responses {
        assert_eq!(response.status, 200, "body: {}", response.body_text());
    }
    let first = &responses[0].body;
    for response in &responses {
        assert_eq!(&response.body, first, "all 64 responses bit-identical");
    }
    // Exactly one underlying simulation ran.
    let metrics = http_request(&addr, "GET", "/metrics", None, TIMEOUT).unwrap();
    let text = metrics.body_text();
    assert!(
        text.contains("pipe_serve_sim_total{outcome=\"computed\"} 1\n"),
        "metrics:\n{text}"
    );
    handle.shutdown(TIMEOUT).unwrap();
}

#[test]
fn store_hits_are_bit_identical_to_a_direct_run_across_restarts() {
    let store = temp_dir("store");

    // First server instance computes and persists the point.
    let handle = spawn(ServerConfig {
        store_root: Some(store.clone()),
        ..config()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let first = simulate(&addr, SIM_BODY);
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-pipe-source"), Some("computed"));
    assert_eq!(first.header("x-pipe-cache"), Some("miss"));
    let second = simulate(&addr, SIM_BODY);
    assert_eq!(second.header("x-pipe-source"), Some("memory"));
    assert_eq!(second.header("x-pipe-cache"), Some("hit"));
    assert_eq!(second.body, first.body);
    handle.shutdown(TIMEOUT).unwrap();

    // A fresh process serves the same point from the persistent store.
    let handle = spawn(ServerConfig {
        store_root: Some(store.clone()),
        ..config()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let third = simulate(&addr, SIM_BODY);
    assert_eq!(third.header("x-pipe-source"), Some("store"));
    assert_eq!(third.header("x-pipe-cache"), Some("hit"));
    assert_eq!(third.body, first.body);
    handle.shutdown(TIMEOUT).unwrap();

    // The response equals a direct in-process run, bit for bit: same
    // key, same strategy label, same stats JSON.
    let body = first.body_text();
    let program = pipe_workloads::synthetic::tight_loop(6, 30, InstrFormat::Fixed32);
    let fetch = sim_body_fetch();
    let direct = try_run_point(&program, fetch, &MemConfig::default(), 64).unwrap();
    let key = field_str(&body, "key").unwrap();
    let entry = StoredPoint::from_point(&key, &fetch.label(), &direct, 0);
    let expected = format!(
        "{{\"key\":\"{key}\",\"strategy\":\"{}\",\"cache_bytes\":64,\"stats\":{}}}",
        fetch.label(),
        stats_json(&entry.stats)
    );
    assert_eq!(body, expected);
    // And the store entry on disk is addressed by the FNV of that key.
    let entry_path = store
        .join("store")
        .join("v1")
        .join(format!("{:016x}.json", fnv1a64(key.as_bytes())));
    assert!(entry_path.is_file(), "missing {}", entry_path.display());

    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn full_accept_queue_returns_503_with_retry_after() {
    // One worker, a one-slot queue, and slow simulations: extra
    // connections must be rejected immediately, never hung or dropped.
    let handle = spawn(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        compute_delay: Duration::from_millis(800),
        ..config()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..12)
            .map(|i| {
                let addr = addr.clone();
                // Distinct cache sizes defeat coalescing so every
                // request occupies the worker for the full delay.
                let body = format!(
                    "{{\"workload\":\"tight-loop\",\"body\":6,\"trips\":30,\
                      \"fetch\":\"pipe\",\"cache\":{},\"line\":16}}",
                    64 << (i % 3)
                );
                scope.spawn(move || simulate(&addr, &body))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let response = h.join().unwrap();
                if response.status == 503 {
                    assert_eq!(response.header("retry-after"), Some("1"));
                    assert!(response.body_text().contains("\"error\""));
                }
                response.status
            })
            .collect()
    });
    let rejected = statuses.iter().filter(|&&s| s == 503).count();
    let served = statuses.iter().filter(|&&s| s == 200).count();
    assert!(rejected > 0, "expected some 503s, got {statuses:?}");
    assert!(served > 0, "expected some successes, got {statuses:?}");
    assert_eq!(rejected + served, 12, "no request may hang: {statuses:?}");
    handle.shutdown(TIMEOUT).unwrap();
}

#[test]
fn deadline_overrun_returns_504_and_the_result_lands_later() {
    let handle = spawn(ServerConfig {
        request_timeout: Duration::from_millis(50),
        compute_delay: Duration::from_millis(400),
        ..config()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    let response = simulate(&addr, SIM_BODY);
    assert_eq!(response.status, 504, "body: {}", response.body_text());
    assert_eq!(response.header("retry-after"), Some("1"));

    // The simulation finished in the background; a retry is a cache hit.
    std::thread::sleep(Duration::from_millis(600));
    let retry = simulate(&addr, SIM_BODY);
    assert_eq!(retry.status, 200);
    assert_eq!(retry.header("x-pipe-cache"), Some("hit"));
    let metrics = http_request(&addr, "GET", "/metrics", None, TIMEOUT).unwrap();
    let text = metrics.body_text();
    assert!(text.contains("pipe_serve_timeouts_total 1\n"), "{text}");
    assert!(
        text.contains("pipe_serve_sim_total{outcome=\"computed\"} 1\n"),
        "{text}"
    );
    handle.shutdown(TIMEOUT).unwrap();
}

#[test]
fn sweep_endpoint_runs_a_scaled_figure_and_resumes_from_the_store() {
    let store = temp_dir("sweep");
    let handle = spawn(ServerConfig {
        store_root: Some(store.clone()),
        sweep_jobs: 4,
        ..config()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    let body = "{\"figure\":\"4a\",\"scale\":2000,\"jobs\":4}";
    let first = http_request(&addr, "POST", "/v1/sweep", Some(body), TIMEOUT).unwrap();
    assert_eq!(first.status, 200, "body: {}", first.body_text());
    let text = first.body_text();
    assert_eq!(field_str(&text, "id").as_deref(), Some("fig4a"));
    let computed = field_u64(&text, "computed").unwrap();
    assert!(computed > 0, "{text}");
    assert_eq!(field_u64(&text, "failed"), Some(0));
    assert!(text.contains("\"series\":["), "{text}");
    assert!(text.contains("\"cache_bytes\":"), "{text}");

    // The same sweep again is fully store-resumed: nothing recomputed.
    let second = http_request(&addr, "POST", "/v1/sweep", Some(body), TIMEOUT).unwrap();
    let text = second.body_text();
    assert_eq!(field_u64(&text, "computed"), Some(0), "{text}");
    assert_eq!(field_u64(&text, "cached"), Some(computed), "{text}");

    handle.shutdown(TIMEOUT).unwrap();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn introspection_endpoints_and_error_paths() {
    let events = temp_dir("events");
    let handle = spawn(ServerConfig {
        events_root: Some(events.clone()),
        ..config()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    // Health first.
    let health = http_request(&addr, "GET", "/healthz", None, TIMEOUT).unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body_text().contains("\"status\":\"ok\""));

    // Worker-compat info: version, store layout, provisioning.
    let info = http_request(&addr, "GET", "/v1/info", None, TIMEOUT).unwrap();
    assert_eq!(info.status, 200);
    let text = info.body_text();
    assert_eq!(
        field_str(&text, "version").as_deref(),
        Some(env!("CARGO_PKG_VERSION")),
        "{text}"
    );
    assert_eq!(field_u64(&text, "store_version"), Some(1), "{text}");
    assert_eq!(field_u64(&text, "workers"), Some(4), "{text}");
    // This server has no store attached.
    assert!(text.contains("\"store_enabled\":false"), "{text}");
    assert_eq!(field_u64(&text, "store_keys"), Some(0), "{text}");
    let wrong_info = http_request(&addr, "POST", "/v1/info", None, TIMEOUT).unwrap();
    assert_eq!(wrong_info.status, 405);
    assert_eq!(wrong_info.header("allow"), Some("GET"));

    // Workloads is empty before any simulation, populated after.
    let empty = http_request(&addr, "GET", "/v1/workloads", None, TIMEOUT).unwrap();
    assert!(empty.body_text().contains("\"resident\":[]"));
    assert_eq!(simulate(&addr, SIM_BODY).status, 200);
    let loaded = http_request(&addr, "GET", "/v1/workloads", None, TIMEOUT).unwrap();
    let text = loaded.body_text();
    assert!(text.contains("tight-loop:body=6,trips=30"), "{text}");
    assert!(text.contains("\"instructions\":"), "{text}");

    // Error paths: bad JSON field, non-JSON body, unknown route, wrong
    // method.
    let bad = simulate(&addr, "{\"fetch\":\"warp-drive\"}");
    assert_eq!(bad.status, 400);
    assert!(bad.body_text().contains("warp-drive"));
    let not_json = simulate(&addr, "cache=64&fetch=pipe");
    assert_eq!(not_json.status, 400);
    assert!(not_json.body_text().contains("JSON object"));
    let truncated = simulate(&addr, "{\"cache\":64");
    assert_eq!(truncated.status, 400);
    let missing = http_request(&addr, "GET", "/v1/nonsense", None, TIMEOUT).unwrap();
    assert_eq!(missing.status, 404);
    let wrong = http_request(&addr, "GET", "/v1/simulate", None, TIMEOUT).unwrap();
    assert_eq!(wrong.status, 405);
    assert_eq!(wrong.header("allow"), Some("POST"));

    // Metrics reflect what happened.
    let metrics = http_request(&addr, "GET", "/metrics", None, TIMEOUT).unwrap();
    let text = metrics.body_text();
    assert!(
        text.contains("pipe_serve_requests_total{endpoint=\"simulate\"} 4\n"),
        "{text}"
    );
    assert!(
        text.contains("pipe_serve_responses_total{status=\"404\"} 1\n"),
        "{text}"
    );
    assert!(
        text.contains("pipe_serve_responses_total{status=\"405\"} 2\n"),
        "{text}"
    );

    handle.shutdown(TIMEOUT).unwrap();

    // The event log recorded the lifecycle in RunLog JSONL shape.
    let log = std::fs::read_to_string(events.join("events").join("server.jsonl")).unwrap();
    assert!(log.contains("\"event\":\"server_start\""), "{log}");
    assert!(log.contains("\"event\":\"request\""), "{log}");
    assert!(log.contains("\"endpoint\":\"simulate\""), "{log}");
    assert!(log.contains("\"event\":\"server_stop\""), "{log}");
    for line in log.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
    let _ = std::fs::remove_dir_all(&events);
}

#[test]
fn shutdown_drains_gracefully_and_refuses_new_work() {
    let handle = spawn(config()).unwrap();
    let addr = handle.addr().to_string();
    assert_eq!(simulate(&addr, SIM_BODY).status, 200);
    handle.shutdown(TIMEOUT).unwrap();
    // The listener is gone: new connections fail.
    assert!(http_request(&addr, "GET", "/healthz", None, Duration::from_secs(2)).is_err());
}
