//! `sweep-mem1` (panels 4a, 4b) and `sweep-mem6` (5a, 5b, 6b): the figure
//! panels through `SweepRunner` with `--jobs 2` from an empty store, as
//! `pipe-sim --sweep <panel> --jobs 2 --store DIR` runs them.
//!
//! Set-up is the Livermore suite build plus predecode, repeated. A pass
//! sweeps every panel, in an order drawn from the seed, into a fresh
//! store; passes repeat until `--seconds` have elapsed and `wall_s` is
//! their median. Every point's cycles must equal `results/fig*.csv`.

use std::path::Path;
use std::time::Instant;

use pipe_experiments::{ResultStore, SweepRunner, SweepSpec};

use crate::golden::Golden;
use crate::probe;
use crate::procs::vm_hwm_mb;
use crate::report::{median, Report, Rng};
use crate::spans::Tracer;
use crate::{Ctx, JOBS};

/// Set-up repetitions before each pass. Set-up takes tens of
/// microseconds, so it is sampled throughout the run rather than in one
/// burst whose speed depends on the host's state at that moment.
const SETUP_REPS: usize = 20;
/// Fewest measured passes per run.
const MIN_PASSES: usize = 3;
/// Untraced/traced pass pairs in a traced run.
const TRACED_PAIRS: usize = 3;

/// One pass over every panel.
struct Pass {
    wall_s: f64,
    computed: usize,
    cached: usize,
}

/// Sweeps every panel in `order` into a fresh store at `dir` and checks
/// each point against the golden cycles. Each panel's sweep is one span,
/// `experiments.sweep.fig<panel>`.
fn pass(
    tracer: &mut Tracer,
    report: &mut Report,
    dir: &Path,
    order: &[&str],
    golden: &Golden,
) -> Result<Pass, String> {
    let t0 = Instant::now();
    let mut outcomes = Vec::with_capacity(order.len());
    for &panel in order {
        let store = ResultStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let runner = SweepRunner::new().jobs(JOBS).store(store);
        let spec = SweepSpec::figure(panel);
        let outcome = tracer.span(&format!("experiments.sweep.fig{panel}"), |_| {
            runner.run(&spec)
        });
        outcomes.push((panel, outcome));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let (mut computed, mut cached) = (0, 0);
    for (panel, outcome) in &outcomes {
        computed += outcome.computed;
        cached += outcome.cached;
        for failed in &outcome.failed {
            report.check(false, || format!("fig{panel}: {failed}"));
        }
        for series in &outcome.series {
            for point in &series.points {
                let want = golden.cycles(panel, &series.label, point.cache_bytes);
                report.check(want == Some(point.cycles), || {
                    format!(
                        "fig{panel} {}@{}: {} cycles, golden {want:?}",
                        series.label, point.cache_bytes, point.cycles
                    )
                });
            }
        }
    }
    Ok(Pass {
        wall_s,
        computed,
        cached,
    })
}

pub fn run(ctx: &mut Ctx, panels: &[&'static str]) -> Result<Report, String> {
    let golden = Golden::load(panels)?;
    let points = probe::grid(panels, &golden)?;
    let mut order = panels.to_vec();
    Rng::new(ctx.args.seed).shuffle(&mut order);
    eprintln!(
        "{}: panels {order:?}, {} points of the 150,575-instruction Livermore run per pass, \
         caches start empty",
        ctx.args.workload,
        points.len()
    );
    let mut report = Report::default();
    let Ctx {
        args, work, tracer, ..
    } = ctx;

    let (mut setup_times, program) = probe::setup(tracer, SETUP_REPS)?;

    if !args.trace {
        let mut walls = Vec::new();
        let started = Instant::now();
        while walls.len() < MIN_PASSES || started.elapsed() < args.seconds {
            if !walls.is_empty() {
                setup_times.extend(probe::setup(tracer, SETUP_REPS)?.0);
            }
            let dir = work.join(format!("pass{}", walls.len()));
            let p = pass(tracer, &mut report, &dir, &order, &golden)?;
            let _ = std::fs::remove_dir_all(&dir);
            walls.push(p.wall_s);
        }
        report.set("setup_s", median(&setup_times));
        report.set("wall_s", median(&walls));
        report.set("peak_rss_mb", vm_hwm_mb("self").ok_or("cannot read VmHWM")?);
        eprintln!(
            "setup_s {:.6} (median of {}), wall_s {:.4} (median of {} passes: {walls:.3?})",
            median(&setup_times),
            setup_times.len(),
            median(&walls),
            walls.len()
        );
        return Ok(report);
    }

    // Traced run: untraced and traced passes alternate, so the tracing
    // overhead is a ratio of medians; then the subtraction probes over
    // the same points.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    for i in 0..TRACED_PAIRS {
        let reference = work.join(format!("ref{i}"));
        untraced.push(pass(&mut Tracer::off(), &mut report, &reference, &order, &golden)?.wall_s);
        let dir = work.join(format!("traced{i}"));
        let p = tracer.span("pass", |t| pass(t, &mut report, &dir, &order, &golden))?;
        traced.push(p.wall_s);
        last = Some((p, dir));
    }
    let (last, dir) = last.expect("at least one traced pass");
    for panel in panels {
        report.set(
            &format!("experiments.sweep_ms.fig{panel}"),
            median(&tracer.durations_ms(&format!("experiments.sweep.fig{panel}"))),
        );
    }
    report.set("experiments.points_computed", last.computed as f64);
    report.set("experiments.points_cached", last.cached as f64);
    report.set("bench.untraced_wall_s", median(&untraced));
    report.set("bench.traced_wall_s", median(&traced));
    report.set("bench.trace_overhead", median(&traced) / median(&untraced));

    let src = ResultStore::open(&dir).map_err(|e| e.to_string())?;
    probe::store(tracer, &mut report, &src, Some(&work.join("copy")), &points)?;
    let totals = probe::core(tracer, &mut report, &program, &points);
    probe::fetch(tracer, &mut report, &program, &points);
    probe::layer_metrics(tracer, &totals, &mut report);
    Ok(report)
}
