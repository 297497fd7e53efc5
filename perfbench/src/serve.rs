//! `serve-mixed`: a closed loop of two connections sending
//! `POST /v1/simulate` to `pipe-sim serve --jobs 2 --store <empty dir>`.
//!
//! The request schedule is built from the seed before any server starts:
//! every one of the 140 distinct figure-grid configurations (panels 4a,
//! 4b, 5a, 5b, 6b; 6a repeats 5b) once, plus repeats drawn with a Zipf
//! skew over a seeded popularity order, shuffled. A first touch simulates
//! the full Livermore run and writes through to the store; a repeat is a
//! memo hit. Each pass starts a fresh server on an empty store, so every
//! pass sees the same 140 first touches. Every 200 response's `key` must
//! equal the matching `SweepJob::key()` and its cycles the golden CSV,
//! and the server's computed-simulation count must equal the number of
//! first touches.

use std::collections::HashMap;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use pipe_experiments::json::{field_str, field_u64};
use pipe_experiments::{ResultStore, StrategyKind, WorkloadSpec};
use pipe_server::{http_request, Metrics, SimPoint, SimService, Source};

use crate::golden::Golden;
use crate::probe::{self, Point};
use crate::procs::wait_rusage;
use crate::report::{median, percentile, Report, Rng};
use crate::spans::Tracer;
use crate::{Ctx, JOBS};

/// Requests per pass.
const REQUESTS: usize = 1000;
/// Zipf exponent of the repeat draws.
const ZIPF: f64 = 1.0;
/// Client connections (threads) in the closed loop.
const CONNECTIONS: usize = 2;
/// The panels whose points make up the 140 distinct configurations.
const PANELS: [&str; 5] = ["4a", "4b", "5a", "5b", "6b"];
/// Fewest measured passes per run.
const MIN_PASSES: usize = 2;
/// Untraced/traced pass pairs in a traced run.
const TRACED_PAIRS: usize = 2;
/// Client-side deadline for one request.
const TIMEOUT: Duration = Duration::from_secs(60);

/// The `/v1/simulate` body for one grid point (the fields `pipe-sim
/// cluster` sends for a figure job).
fn body(p: &Point) -> String {
    let strategy = match p.job.kind {
        StrategyKind::Conventional | StrategyKind::Tib16 => format!(
            "\"fetch\":\"{}\",\"cache\":{},\"line\":{}",
            if p.job.kind == StrategyKind::Tib16 {
                "tib"
            } else {
                "conventional"
            },
            p.job.cache_bytes,
            p.job.kind.line_bytes()
        ),
        kind => {
            let (iq, iqb) = kind.queue_bytes().expect("pipe strategy has queues");
            format!(
                "\"fetch\":\"pipe\",\"cache\":{},\"line\":{},\"iq\":{iq},\"iqb\":{iqb}",
                p.job.cache_bytes,
                kind.line_bytes()
            )
        }
    };
    format!(
        "{{{strategy},\"workload\":\"livermore\",\"scale\":1,\"format\":\"fixed32\",\
         \"access\":{},\"bus\":{},\"pipelined\":{},\"data_first\":false}}",
        p.mem.access_cycles, p.mem.in_bus_bytes, p.mem.pipelined
    )
}

/// The request schedule: indices into the point list. Every point
/// appears at least once; the rest are Zipf-skewed repeats.
fn schedule(seed: u64, distinct: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut popularity: Vec<usize> = (0..distinct).collect();
    rng.shuffle(&mut popularity);
    let mut cumulative = Vec::with_capacity(distinct);
    let mut total = 0.0;
    for rank in 0..distinct {
        total += 1.0 / ((rank + 1) as f64).powf(ZIPF);
        cumulative.push(total);
    }
    let mut order: Vec<usize> = (0..distinct).collect();
    while order.len() < REQUESTS.max(distinct) {
        let u = rng.unit() * total;
        let rank = cumulative.partition_point(|&c| c < u).min(distinct - 1);
        order.push(popularity[rank]);
    }
    rng.shuffle(&mut order);
    order
}

/// One answered request, as the client saw it.
struct Sample {
    start: Instant,
    end: Instant,
    /// `X-Pipe-Cache: hit`.
    hit: bool,
    /// 200 with the expected key and golden cycles.
    ok: bool,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// A running `pipe-sim serve`, killed on drop unless it was stopped.
struct Server {
    child: Option<Child>,
    addr: String,
}

impl Server {
    /// Starts a server on an ephemeral port with an empty store under
    /// `dir` and returns once Livermore is resident: one warm-up request
    /// outside the figure grid (perfect fetch) has decoded it.
    fn start(bin: &Path, dir: &Path) -> Result<Server, String> {
        fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let addr_file = dir.join("addr");
        let log = File::create(dir.join("server.log")).map_err(|e| e.to_string())?;
        let child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--jobs", &JOBS.to_string()])
            .arg("--store")
            .arg(dir.join("store"))
            .arg("--addr-file")
            .arg(&addr_file)
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.addr.is_empty() {
            if Instant::now() > deadline {
                server.stop()?;
                return Err("server did not publish its address".into());
            }
            thread::sleep(Duration::from_millis(1));
            server.addr = fs::read_to_string(&addr_file)
                .unwrap_or_default()
                .trim()
                .to_string();
        }
        let warm = http_request(
            &server.addr,
            "POST",
            "/v1/simulate",
            Some("{\"fetch\":\"perfect\",\"workload\":\"livermore\"}"),
            TIMEOUT,
        );
        let resident = http_request(&server.addr, "GET", "/v1/workloads", None, TIMEOUT);
        let key = format!("\"key\":\"{}\"", WorkloadSpec::livermore().key());
        let ready = matches!(&warm, Ok(r) if r.status == 200)
            && matches!(&resident, Ok(r) if r.body_text().contains(&key));
        if !ready {
            server.stop()?;
            return Err(format!("server warm-up failed: {warm:?} / {resident:?}"));
        }
        Ok(server)
    }

    /// The server's counters from `GET /metrics`, keyed by series.
    fn metrics(&self) -> Result<HashMap<String, f64>, String> {
        let resp = http_request(&self.addr, "GET", "/metrics", None, TIMEOUT)
            .map_err(|e| format!("GET /metrics: {e}"))?;
        Ok(resp
            .body_text()
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                Some((series.to_string(), value.parse().ok()?))
            })
            .collect())
    }

    /// Shuts the server down gracefully and reaps it; returns its peak
    /// resident memory in MiB.
    fn stop(mut self) -> Result<f64, String> {
        if !self.addr.is_empty() {
            let _ = http_request(&self.addr, "POST", "/admin/shutdown", None, TIMEOUT);
        }
        let mut child = self.child.take().expect("server is stopped once");
        let exit = wait_rusage(&mut child, Duration::from_secs(20)).map_err(|e| e.to_string())?;
        Ok(exit.peak_rss_mb)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Sends the schedule over the closed loop and checks every response.
fn drive(addr: &str, points: &[Point], bodies: &[String], order: &[usize]) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let mut samples = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&target) = order.get(i) else {
                            return samples;
                        };
                        let p = &points[target];
                        let start = Instant::now();
                        let resp = http_request(
                            addr,
                            "POST",
                            "/v1/simulate",
                            Some(&bodies[target]),
                            TIMEOUT,
                        );
                        let end = Instant::now();
                        let (hit, ok) = match resp {
                            Ok(r) => {
                                let text = r.body_text();
                                let ok = r.status == 200
                                    && field_str(&text, "key").as_deref() == Some(p.job.key())
                                    && field_u64(&text, "cycles") == Some(p.golden);
                                if !ok {
                                    eprintln!(
                                        "bad response for {}: {} {text}",
                                        p.job.key(),
                                        r.status
                                    );
                                }
                                (r.header("x-pipe-cache") == Some("hit"), ok)
                            }
                            Err(e) => {
                                eprintln!("request for {} failed: {e}", p.job.key());
                                (false, false)
                            }
                        };
                        samples.push(Sample {
                            start,
                            end,
                            hit,
                            ok,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    })
}

/// One pass: a fresh server on an empty store, the whole schedule, and
/// the server's counter deltas.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    peak_rss_mb: f64,
    samples: Vec<Sample>,
    delta: HashMap<String, f64>,
    dir: PathBuf,
}

fn pass(
    tracer: &mut Tracer,
    report: &mut Report,
    bin: &Path,
    dir: PathBuf,
    points: &[Point],
    bodies: &[String],
    order: &[usize],
) -> Result<Pass, String> {
    let t0 = Instant::now();
    let server = Server::start(bin, &dir)?;
    let setup_s = t0.elapsed().as_secs_f64();
    tracer.record("server.setup", t0, Instant::now());
    let result = (|| {
        let before = server.metrics()?;
        let t1 = Instant::now();
        let samples = drive(&server.addr, points, bodies, order);
        let wall_s = t1.elapsed().as_secs_f64();
        let after = server.metrics()?;
        let delta = after
            .iter()
            .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
            .collect();
        Ok::<_, String>((samples, wall_s, delta))
    })();
    let peak_rss_mb = server.stop()?;
    let (samples, wall_s, delta): (Vec<Sample>, f64, HashMap<String, f64>) = result?;

    for s in &samples {
        tracer.record(
            if s.hit {
                "server.request.hit"
            } else {
                "server.request.miss"
            },
            s.start,
            s.end,
        );
        report.check(s.ok, || {
            "request failed or disagreed with the golden result".into()
        });
    }
    let get = |series: &str| delta.get(series).copied().unwrap_or(0.0);
    let computed = get("pipe_serve_sim_total{outcome=\"computed\"}");
    let coalesced = get("pipe_serve_sim_total{outcome=\"coalesced\"}");
    let misses = samples.iter().filter(|s| !s.hit).count() as f64;
    report.check(computed == points.len() as f64, || {
        format!(
            "server computed {computed} simulations, expected {} first touches",
            points.len()
        )
    });
    report.check(misses == computed + coalesced, || {
        format!("client saw {misses} misses, server computed {computed} + coalesced {coalesced}")
    });
    Ok(Pass {
        setup_s,
        wall_s,
        peak_rss_mb,
        samples,
        delta,
        dir,
    })
}

/// Hit and miss latency percentiles in ms over `samples`.
fn latencies(samples: &[&Sample]) -> [f64; 4] {
    let split = |hit: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.hit == hit)
            .map(|s| s.ms())
            .collect()
    };
    let (hits, misses) = (split(true), split(false));
    [
        median(&hits),
        percentile(&hits, 99.0),
        median(&misses),
        percentile(&misses, 90.0),
    ]
}

pub fn run(ctx: &mut Ctx) -> Result<Report, String> {
    let golden = Golden::load(&PANELS)?;
    let points = probe::grid(&PANELS, &golden)?;
    let bodies: Vec<String> = points.iter().map(body).collect();
    let order = schedule(ctx.args.seed, points.len());
    eprintln!(
        "serve-mixed: seed {}, {} requests over {} distinct configurations, \
         {} expected first touches, {CONNECTIONS} connections, closed loop; caches start empty",
        ctx.args.seed,
        order.len(),
        points.len(),
        points.len()
    );
    let bin = ctx.bin("pipe-sim");
    let mut report = Report::default();
    let Ctx {
        args, work, tracer, ..
    } = ctx;

    if !args.trace {
        let mut passes = Vec::new();
        let started = Instant::now();
        while passes.len() < MIN_PASSES || started.elapsed() < args.seconds {
            let dir = work.join(format!("pass{}", passes.len()));
            let p = pass(tracer, &mut report, &bin, dir, &points, &bodies, &order)?;
            let _ = fs::remove_dir_all(&p.dir);
            passes.push(p);
        }
        let of = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        report.set("setup_s", of(|p| p.setup_s));
        report.set("wall_s", of(|p| p.wall_s));
        report.set("peak_rss_mb", of(|p| p.peak_rss_mb));
        let all: Vec<&Sample> = passes.iter().flat_map(|p| &p.samples).collect();
        let [h50, h99, m50, m90] = latencies(&all);
        eprintln!(
            "setup_s {:.4}, wall_s {:.4} (median of {} passes), hit p50 {h50:.3} ms p99 {h99:.3} ms, \
             miss p50 {m50:.2} ms p90 {m90:.2} ms over {} requests",
            of(|p| p.setup_s),
            of(|p| p.wall_s),
            passes.len(),
            all.len()
        );
        return Ok(report);
    }

    // Traced run: untraced and traced passes alternate, so the tracing
    // overhead is a ratio of medians; then the in-process service and
    // the layer probes over the same points.
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    for i in 0..TRACED_PAIRS {
        let dir = work.join(format!("ref{i}"));
        let reference = pass(
            &mut Tracer::off(),
            &mut report,
            &bin,
            dir,
            &points,
            &bodies,
            &order,
        )?;
        passes.push((false, reference));
        let dir = work.join(format!("traced{i}"));
        let traced = tracer.span("pass", |t| {
            pass(t, &mut report, &bin, dir, &points, &bodies, &order)
        })?;
        passes.push((true, traced));
    }
    let walls = |is_traced: bool| -> f64 {
        let w: Vec<f64> = passes
            .iter()
            .filter(|(t, _)| *t == is_traced)
            .map(|(_, p)| p.wall_s)
            .collect();
        median(&w)
    };
    let all: Vec<&Sample> = passes.iter().flat_map(|(_, p)| &p.samples).collect();
    let [h50, h99, m50, m90] = latencies(&all);
    report.set("server.hit_ms", h50);
    report.set("server.hit_p99_ms", h99);
    report.set("server.miss_ms", m50);
    report.set("server.miss_p90_ms", m90);
    report.set("server.req_per_s", order.len() as f64 / walls(true));
    report.set("bench.untraced_wall_s", walls(false));
    report.set("bench.traced_wall_s", walls(true));
    report.set("bench.trace_overhead", walls(true) / walls(false));
    let traced = &passes.last().expect("a traced pass").1;
    let get = |series: &str| traced.delta.get(series).copied().unwrap_or(0.0);
    report.set(
        "server.memo_hit_ratio",
        get("pipe_serve_sim_total{outcome=\"memory_hit\"}")
            / get("pipe_serve_requests_total{endpoint=\"simulate\"}"),
    );
    report.set(
        "server.sim_computed",
        get("pipe_serve_sim_total{outcome=\"computed\"}"),
    );
    report.set(
        "server.rejections",
        get("pipe_serve_rejected_busy_total") + get("pipe_serve_timeouts_total"),
    );
    report.set("server.first_touches", points.len() as f64);

    // The service without HTTP, over the store the traced pass wrote:
    // first touches are store reads, repeats memo hits.
    let store_dir = traced.dir.join("store");
    let store = ResultStore::open(&store_dir).map_err(|e| e.to_string())?;
    let service = Arc::new(SimService::new(
        Some(store.clone()),
        Arc::new(Metrics::default()),
        Duration::ZERO,
    ));
    for &target in &order {
        let p = &points[target];
        let point = SimPoint {
            workload: WorkloadSpec::livermore(),
            fetch: p.job.fetch,
            mem: p.mem,
            cache_bytes: p.job.cache_bytes,
        };
        let t0 = Instant::now();
        let result = service.simulate(&point, TIMEOUT);
        let t1 = Instant::now();
        let name = match &result {
            Ok(r) if r.source == Source::Memory => "server.service.memory",
            _ => "server.service.other",
        };
        tracer.record(name, t0, t1);
        let ok = matches!(&result, Ok(r) if r.entry.key == p.job.key() && r.entry.stats.cycles == p.golden);
        report.check(ok, || {
            format!("in-process simulate {}: {:?}", p.job.key(), result.err())
        });
    }
    report.set(
        "server.service_ms",
        median(&tracer.durations_ms("server.service.memory")),
    );

    let (_, program) = probe::setup(tracer, 5)?;
    probe::store(
        tracer,
        &mut report,
        &store,
        Some(&work.join("copy")),
        &points,
    )?;
    let totals = probe::core(tracer, &mut report, &program, &points);
    probe::fetch(tracer, &mut report, &program, &points);
    probe::layer_metrics(tracer, &totals, &mut report);
    Ok(report)
}
