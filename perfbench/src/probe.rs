//! Layer probes: timed calls into each crate's public functions. The
//! sweep and serve workloads share them; they run in traced runs only
//! (except [`setup`], which also measures the sweeps' set-up time).

use std::cell::RefCell;
use std::io::Cursor;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use pipe_core::{interpret, run_decoded, Processor, SimStats};
use pipe_experiments::runner::point_config;
use pipe_experiments::{mem_key, ResultStore, SweepJob, SweepSpec, WorkloadSpec};
use pipe_isa::{DecodedProgram, InstrFormat};
use pipe_mem::MemConfig;
use pipe_trace::{program_fnv, replay_trace, TraceMeta, TraceReader, TraceRecorder};
use pipe_workloads::LivermoreSuite;

use crate::golden::Golden;
use crate::report::{median, Report};
use crate::spans::Tracer;

/// Instruction budget for the functional interpreter (the full Livermore
/// run is 150,575 instructions).
const MAX_INSTRUCTIONS: u64 = 10_000_000;

/// One figure-grid point: a panel's sweep job, its memory timing, and
/// its golden cycle count.
pub struct Point {
    pub panel: &'static str,
    pub job: SweepJob,
    pub mem: MemConfig,
    pub golden: u64,
}

/// Every point of the given figure panels, in sweep order.
pub fn grid(panels: &[&'static str], golden: &Golden) -> Result<Vec<Point>, String> {
    let mut points = Vec::new();
    for &panel in panels {
        let spec = SweepSpec::figure(panel);
        for job in spec.expand() {
            let label = job.kind.label();
            let cycles = golden
                .cycles(panel, label, job.cache_bytes)
                .ok_or_else(|| {
                    format!("fig{panel}: no golden row for {label}@{}", job.cache_bytes)
                })?;
            points.push(Point {
                panel,
                job,
                mem: spec.mem,
                golden: cycles,
            });
        }
    }
    Ok(points)
}

/// Builds and predecodes the Livermore suite `reps` times (spans
/// `workloads.build` and `isa.predecode`). Returns the seconds each
/// repetition took and the decoded program.
pub fn setup(tracer: &mut Tracer, reps: usize) -> Result<(Vec<f64>, Arc<DecodedProgram>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut decoded = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let suite = tracer.span("workloads.build", |_| {
            LivermoreSuite::build(InstrFormat::Fixed32)
        })?;
        let program = suite.program().clone();
        let program = tracer.span("isa.predecode", |_| DecodedProgram::new(program));
        times.push(t0.elapsed().as_secs_f64());
        decoded = Some(Arc::new(program));
    }
    Ok((times, decoded.expect("at least one repetition")))
}

/// Simulated totals over the probed points.
#[derive(Debug, Default)]
pub struct SimTotals {
    points: u64,
    cycles: u64,
    instructions: u64,
    stall_ifetch: u64,
    stall_data_wait: u64,
    cache_hits: u64,
    cache_probes: u64,
    prefetch_requests: u64,
    wasted_requests: u64,
    bus_busy: u64,
}

impl SimTotals {
    fn add(&mut self, s: &SimStats) {
        self.points += 1;
        self.cycles += s.cycles;
        self.instructions += s.instructions_issued;
        self.stall_ifetch += s.stalls.ifetch;
        self.stall_data_wait += s.stalls.data_wait;
        self.cache_hits += s.fetch.cache_hits;
        self.cache_probes += s.fetch.cache_hits + s.fetch.cache_misses;
        self.prefetch_requests += s.fetch.prefetch_requests;
        self.wasted_requests += s.fetch.wasted_requests;
        self.bus_busy += s.mem.in_bus_busy_cycles;
    }
}

/// The core alone: `run_decoded` on every point (span `core.run`), its
/// cycles checked against the golden figures, and the functional ISA
/// alone, `interpret`, once per point (span `core.interpret`).
pub fn core(
    tracer: &mut Tracer,
    report: &mut Report,
    program: &Arc<DecodedProgram>,
    points: &[Point],
) -> SimTotals {
    let mut totals = SimTotals::default();
    for p in points {
        let config = point_config(p.job.fetch, &p.mem);
        match tracer.span("core.run", |_| run_decoded(program, &config)) {
            Ok(stats) => {
                report.check(stats.cycles == p.golden, || {
                    format!(
                        "core.run {}: {} cycles, golden {}",
                        p.job.key(),
                        stats.cycles,
                        p.golden
                    )
                });
                totals.add(&stats);
            }
            Err(e) => report.check(false, || format!("core.run {}: {e}", p.job.key())),
        }
        let interp = tracer.span("core.interpret", |_| {
            interpret(program.program(), MAX_INSTRUCTIONS)
        });
        report.check(interp.is_ok(), || format!("interpret: {:?}", interp.err()));
    }
    totals
}

/// Records the run of `config` into an in-memory trace.
fn record(
    program: &Arc<DecodedProgram>,
    config: &pipe_core::SimConfig,
) -> Result<(Vec<u8>, u64), String> {
    let meta = TraceMeta {
        workload: WorkloadSpec::livermore().key(),
        program_fnv: program_fnv(program.program()),
        entry_pc: program.program().entry(),
        fetch_key: config.fetch.cache_key(),
        mem_key: mem_key(&config.mem),
    };
    let recorder = Rc::new(RefCell::new(
        TraceRecorder::new(Vec::new(), &meta).map_err(|e| e.to_string())?,
    ));
    let mut proc = Processor::from_decoded(program, config)
        .map_err(|e| e.to_string())?
        .with_trace(Rc::clone(&recorder));
    proc.run().map_err(|e| e.to_string())?;
    let cycles = proc.stats().cycles;
    let (bytes, summary) = recorder
        .borrow_mut()
        .finish(cycles)
        .map_err(|e| e.to_string())?;
    Ok((bytes, summary.instructions))
}

/// Fetch and memory without the core: one trace recording per panel
/// (span `trace.record`), replayed through every engine of the panel
/// (span `icache.replay`). Each replay must deliver every recorded
/// instruction, and the replay under the recorded configuration must
/// reproduce the recording exactly.
pub fn fetch(
    tracer: &mut Tracer,
    report: &mut Report,
    program: &Arc<DecodedProgram>,
    points: &[Point],
) {
    for group in points.chunk_by(|a, b| a.panel == b.panel) {
        let config = point_config(group[0].job.fetch, &group[0].mem);
        let recorded = tracer.span("trace.record", |_| record(program, &config));
        let (bytes, instructions) = match recorded {
            Ok(r) => r,
            Err(e) => {
                report.check(false, || format!("trace.record fig{}: {e}", group[0].panel));
                continue;
            }
        };
        for (i, p) in group.iter().enumerate() {
            let replayed = tracer.span("icache.replay", |_| {
                let reader =
                    TraceReader::new(Cursor::new(&bytes[..])).map_err(|e| e.to_string())?;
                replay_trace(reader, program.program(), &p.job.fetch, &p.mem)
                    .map_err(|e| e.to_string())
            });
            let ok = match &replayed {
                Ok(o) => o.stats.instructions == instructions && (i > 0 || o.matches_recording()),
                Err(_) => false,
            };
            report.check(ok, || {
                format!("icache.replay {}: {:?}", p.job.key(), replayed.err())
            });
        }
    }
}

/// Store I/O on the points a run persisted: `ResultStore::load` of every
/// point from `src` (span `experiments.store_read`), checked against the
/// golden cycles, then, when `copy_to` is given, `ResultStore::save` of
/// each entry into a fresh store there (span `experiments.store_write`),
/// which must read back unchanged.
pub fn store(
    tracer: &mut Tracer,
    report: &mut Report,
    src: &ResultStore,
    copy_to: Option<&Path>,
    points: &[Point],
) -> Result<(), String> {
    let mut entries = Vec::with_capacity(points.len());
    for p in points {
        let loaded = tracer.span("experiments.store_read", |_| src.load(p.job.key()));
        let ok = matches!(&loaded, Ok(Some(e)) if e.stats.cycles == p.golden);
        report.check(ok, || format!("store load {}: {loaded:?}", p.job.key()));
        if let (true, Ok(Some(entry))) = (ok, loaded) {
            entries.push(entry);
        }
    }
    let Some(dir) = copy_to else {
        return Ok(());
    };
    let dst = ResultStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in &entries {
        let saved = tracer.span("experiments.store_write", |_| dst.save(entry));
        let ok = saved.is_ok() && matches!(dst.load(&entry.key), Ok(Some(ref got)) if got == entry);
        report.check(ok, || format!("store save {}: {saved:?}", entry.key));
    }
    Ok(())
}

/// Per-layer metrics derived from the spans and simulated totals.
pub fn layer_metrics(tracer: &Tracer, totals: &SimTotals, report: &mut Report) {
    let medians = [
        ("workloads.build_ms", "workloads.build"),
        ("isa.predecode_ms", "isa.predecode"),
    ];
    for (metric, span) in medians {
        report.set(metric, median(&tracer.durations_ms(span)));
    }
    let sums = [
        ("core.run_ms", "core.run"),
        ("core.interpret_ms", "core.interpret"),
        ("trace.record_ms", "trace.record"),
        ("icache.replay_ms", "icache.replay"),
        ("experiments.store_write_ms", "experiments.store_write"),
        ("experiments.store_read_ms", "experiments.store_read"),
    ];
    for (metric, span) in sums {
        report.set(metric, tracer.total_ms(span));
    }
    report.set(
        "experiments.store_writes",
        tracer.count("experiments.store_write") as f64,
    );
    report.set(
        "experiments.store_reads",
        tracer.count("experiments.store_read") as f64,
    );
    if totals.points == 0 {
        return;
    }
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    report.set(
        "core.ns_per_sim_cycle",
        tracer.total_ms("core.run") * 1e6 / totals.cycles as f64,
    );
    report.set("core.sim_cycles", totals.cycles as f64);
    report.set("core.sim_instructions", totals.instructions as f64);
    report.set("core.stall_ifetch_cycles", totals.stall_ifetch as f64);
    report.set("core.stall_data_wait_cycles", totals.stall_data_wait as f64);
    report.set(
        "icache.hit_ratio",
        ratio(totals.cache_hits, totals.cache_probes),
    );
    report.set(
        "icache.prefetch_useful_ratio",
        1.0 - ratio(totals.wasted_requests, totals.prefetch_requests),
    );
    report.set(
        "mem.in_bus_busy_share",
        ratio(totals.bus_busy, totals.cycles),
    );
}
