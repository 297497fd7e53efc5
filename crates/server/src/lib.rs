//! # pipe-server
//!
//! `pipe-serve`: a std-only HTTP/1.1 JSON service over the simulator —
//! no external dependencies, `TcpListener` plus a bounded worker pool.
//!
//! | endpoint | what it does |
//! |---|---|
//! | `POST /v1/simulate` | one fetch-configuration run → stats JSON |
//! | `POST /v1/sweep` | a figure-shaped sweep via the sweep engine |
//! | `GET /v1/workloads` | resident decoded programs + accepted fields |
//! | `GET /v1/info` | version, store layout, provisioning — worker compatibility |
//! | `GET /metrics` | Prometheus-style text counters and histograms |
//! | `GET /healthz` | liveness + uptime |
//! | `POST /admin/shutdown` | graceful drain and exit |
//!
//! The load-bearing properties (see the module docs for the details):
//!
//! - **Result caching** ([`cache`]): every simulate request is resolved
//!   through an in-memory memo and the same content-addressed
//!   [`pipe_experiments::ResultStore`] the sweep engine uses — repeated
//!   requests are cache hits, bit-identical to a direct run.
//! - **Single-flight coalescing** ([`cache`]): identical concurrent
//!   requests share one simulation.
//! - **Backpressure** ([`pool`]): a bounded accept queue; when it is
//!   full the acceptor answers `503` + `Retry-After` immediately
//!   instead of queueing unboundedly.
//! - **Deadlines**: a request that waits out its timeout gets `504`
//!   while the simulation finishes in the background.
//! - **Observability** ([`metrics`]): live counters on `GET /metrics`,
//!   plus JSONL lifecycle events in the PR 2 [`pipe_experiments::RunLog`]
//!   format when `--events` is given.

use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pipe_experiments::json::escape;
use pipe_experiments::{ResultStore, RunLog};

pub mod cache;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod router;

pub use cache::{SimPoint, SimResult, SimService, SimServiceError, Source};
pub use http::{http_request, ClientResponse, Request, Response};
pub use metrics::Metrics;
pub use pool::{BoundedQueue, PushError};
pub use router::AppState;

/// Everything configurable about one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Accepted connections waiting for a worker; beyond this, `503`.
    pub queue_capacity: usize,
    /// How long a request may wait for its result before `504`.
    pub request_timeout: Duration,
    /// Socket read timeout while parsing a request.
    pub read_timeout: Duration,
    /// Worker threads one `/v1/sweep` run may use.
    pub sweep_jobs: usize,
    /// Root of the persistent result store (`None`: memo-only caching).
    pub store_root: Option<PathBuf>,
    /// Root for the JSONL event log (`None`: no events).
    pub events_root: Option<PathBuf>,
    /// Artificial per-simulation delay — fault injection for exercising
    /// the backpressure and timeout paths deterministically.
    pub compute_delay: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 4,
            queue_capacity: 128,
            request_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(10),
            sweep_jobs: 2,
            store_root: None,
            events_root: None,
            compute_delay: Duration::ZERO,
        }
    }
}

/// A bound-but-not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    config: ServerConfig,
    state: Arc<AppState>,
    log: Option<Arc<RunLog>>,
}

impl Server {
    /// Binds the listen socket and opens the store and event log.
    ///
    /// # Errors
    ///
    /// Propagates bind, store-open, and log-create failures.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let store = match &config.store_root {
            Some(root) => Some(ResultStore::open(root)?),
            None => None,
        };
        let log = match &config.events_root {
            Some(root) => Some(Arc::new(RunLog::create(root, "server")?)),
            None => None,
        };
        let metrics = Arc::new(Metrics::default());
        let sim = Arc::new(SimService::new(
            store.clone(),
            Arc::clone(&metrics),
            config.compute_delay,
        ));
        let state = Arc::new(AppState::new(
            sim,
            metrics,
            store,
            config.request_timeout,
            config.sweep_jobs,
            config.workers,
        ));
        Ok(Server {
            listener,
            addr,
            config,
            state,
            log,
        })
    }

    /// The actually-bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (for in-process clients and tests).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Runs the accept loop and worker pool until `POST /admin/shutdown`
    /// drains the server. Blocks the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates fatal accept-loop failures (worker-side I/O errors are
    /// per-connection and never fatal).
    pub fn run(self) -> io::Result<()> {
        let Server {
            listener,
            addr,
            config,
            state,
            log,
        } = self;
        if let Some(log) = &log {
            log.append(
                "server_start",
                &format!(
                    "\"addr\":\"{}\",\"workers\":{},\"queue\":{}",
                    escape(&addr.to_string()),
                    config.workers,
                    config.queue_capacity
                ),
            );
        }
        let queue = BoundedQueue::<TcpStream>::new(config.queue_capacity);
        let shutdown = AtomicBool::new(false);
        let started = Instant::now();

        std::thread::scope(|scope| {
            for _ in 0..config.workers.max(1) {
                let queue = &queue;
                let state = &state;
                let shutdown = &shutdown;
                let log = log.as_deref();
                let config = &config;
                scope.spawn(move || {
                    while let Some(stream) = queue.pop() {
                        state.metrics.queue_depth.dec();
                        state.metrics.inflight_requests.inc();
                        let wants_shutdown = handle_connection(stream, state, config, log);
                        state.metrics.inflight_requests.dec();
                        if wants_shutdown && !shutdown.swap(true, Ordering::SeqCst) {
                            queue.close();
                            // Self-connect to unblock the acceptor.
                            let _ = TcpStream::connect(addr);
                        }
                    }
                });
            }

            for conn in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match conn {
                    Ok(stream) => stream,
                    Err(_) => continue,
                };
                match queue.try_push(stream) {
                    Ok(()) => state.metrics.queue_depth.inc(),
                    Err(PushError::Full(stream)) => {
                        state.metrics.rejected_busy.inc();
                        state.metrics.count_status(503);
                        reject_busy(stream);
                    }
                    Err(PushError::Closed(_)) => break,
                }
            }
            queue.close();
        });

        if let Some(log) = &log {
            log.append(
                "server_stop",
                &format!("\"uptime_ms\":{}", started.elapsed().as_millis()),
            );
        }
        Ok(())
    }
}

/// How long a rejected connection may keep the acceptor draining its
/// unread request.
const REJECT_DRAIN: Duration = Duration::from_millis(100);

/// Answers `503 Service Unavailable` directly from the acceptor thread —
/// the queue is full, so no worker is available to say so.
///
/// The request is never read, and closing a socket with unread input
/// makes the kernel send a reset that can discard the 503 before the
/// client reads it. So the write side is closed first and the input is
/// drained until the client hangs up or [`REJECT_DRAIN`] runs out.
fn reject_busy(mut stream: TcpStream) {
    let response =
        Response::error(503, "server busy; accept queue is full").header("retry-after", "1");
    if response.write_to(&mut stream).is_err() || stream.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let deadline = Instant::now() + REJECT_DRAIN;
    let mut sink = [0u8; 4096];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

/// Serves one connection: parse, route, respond, log. Returns whether
/// the request asked for shutdown.
fn handle_connection(
    stream: TcpStream,
    state: &AppState,
    config: &ServerConfig,
    log: Option<&RunLog>,
) -> bool {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let mut reader = BufReader::new(stream);
    let started = Instant::now();
    let (outcome, request_line) = match http::read_request(&mut reader) {
        Ok(request) => {
            let line = format!("{} {}", request.method, request.path);
            (router::route(state, &request), line)
        }
        Err(http::HttpError::TooLarge) => (
            router::RouteOutcome {
                response: Response::error(413, "request body exceeds 1 MiB"),
                endpoint: "other",
                shutdown: false,
            },
            "(oversized)".to_string(),
        ),
        Err(http::HttpError::Malformed(message)) => (
            router::RouteOutcome {
                response: Response::error(400, &message),
                endpoint: "other",
                shutdown: false,
            },
            "(malformed)".to_string(),
        ),
        // The connection died before a request arrived; nothing to answer.
        Err(http::HttpError::Io(_)) => return false,
    };
    let mut stream = reader.into_inner();
    let status = outcome.response.status;
    let _ = outcome.response.write_to(&mut stream);
    let _ = stream.flush();
    let wall_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
    state.metrics.count_status(status);
    state.metrics.latency.observe_ms(wall_ms);
    if let Some(log) = log {
        log.append(
            "request",
            &format!(
                "\"peer\":\"{}\",\"request\":\"{}\",\"endpoint\":\"{}\",\"status\":{status},\"wall_ms\":{wall_ms}",
                escape(&peer),
                escape(&request_line),
                outcome.endpoint
            ),
        );
    }
    outcome.shutdown
}

/// Binds and runs a server on a background thread, returning once the
/// listener is live. The examples and integration tests use this; the
/// CLI calls [`Server::run`] directly on the main thread.
///
/// # Errors
///
/// Propagates [`Server::bind`] failures.
pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
    let server = Server::bind(config)?;
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run());
    Ok(ServerHandle { addr, thread })
}

/// A running background server.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful shutdown and waits for the server to drain.
    ///
    /// # Errors
    ///
    /// Propagates the shutdown request's transport error or the server
    /// thread's exit error.
    pub fn shutdown(self, timeout: Duration) -> io::Result<()> {
        let _ = http_request(
            &self.addr.to_string(),
            "POST",
            "/admin/shutdown",
            None,
            timeout,
        )?;
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }
}
