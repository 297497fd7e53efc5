//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-mem1|sweep-mem6|repro-warm|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. It builds the `pipe-sim` and `repro`
//! binaries from source, runs one workload for `--seconds`, checks every
//! simulated result against the golden CSVs in `results/`, and prints one
//! JSON line last on stdout: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end set (host
//! time of untraced runs); with `--trace 1` they are the per-layer set,
//! taken from spans recorded around calls into each crate. Spans are kept
//! in memory and written to `.bench_work/spans/` when the run ends.
//! Progress and a human-readable summary go to stderr.

mod golden;
mod probe;
mod procs;
mod report;
mod repro;
mod serve;
mod spans;
mod sweep;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use report::Report;
use spans::Tracer;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer that a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("workloads.build_ms", "ms"),
    ("isa.predecode_ms", "ms"),
    ("core.run_ms", "ms"),
    ("core.ns_per_sim_cycle", "ns"),
    ("core.interpret_ms", "ms"),
    ("core.sim_cycles", "count"),
    ("core.sim_instructions", "count"),
    ("core.stall_ifetch_cycles", "count"),
    ("core.stall_data_wait_cycles", "count"),
    ("trace.record_ms", "ms"),
    ("icache.replay_ms", "ms"),
    ("icache.hit_ratio", "ratio"),
    ("icache.prefetch_useful_ratio", "ratio"),
    ("mem.in_bus_busy_share", "ratio"),
    ("experiments.sweep_ms.fig4a", "ms"),
    ("experiments.sweep_ms.fig4b", "ms"),
    ("experiments.sweep_ms.fig5a", "ms"),
    ("experiments.sweep_ms.fig5b", "ms"),
    ("experiments.sweep_ms.fig6b", "ms"),
    ("experiments.store_write_ms", "ms"),
    ("experiments.store_writes", "count"),
    ("experiments.store_read_ms", "ms"),
    ("experiments.store_reads", "count"),
    ("experiments.figures_ms", "ms"),
    ("experiments.ablations_ms", "ms"),
    ("experiments.studies_ms", "ms"),
    ("experiments.profile_ms", "ms"),
    ("experiments.points_computed", "count"),
    ("experiments.points_cached", "count"),
    ("server.hit_ms", "ms"),
    ("server.hit_p99_ms", "ms"),
    ("server.miss_ms", "ms"),
    ("server.miss_p90_ms", "ms"),
    ("server.req_per_s", "1/s"),
    ("server.service_ms", "ms"),
    ("server.memo_hit_ratio", "ratio"),
    ("server.sim_computed", "count"),
    ("server.rejections", "count"),
    ("server.first_touches", "count"),
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.trace_overhead", "ratio"),
];

/// Worker threads for sweeps, `repro`, and the server (the benchmark host
/// has two cores).
pub const JOBS: usize = 2;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What every workload runs with.
pub struct Ctx {
    pub args: Args,
    /// Working directory for stores, CSVs and server files (removed at
    /// exit).
    pub work: PathBuf,
    /// Directory holding the built `pipe-sim` and `repro` binaries.
    pub bin_dir: PathBuf,
    pub tracer: Tracer,
}

impl Ctx {
    /// Path of a built workspace binary.
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["sweep-mem1", "sweep-mem6", "repro-warm", "serve-mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: Duration::from_secs(seconds.unwrap_or(10).max(1)),
        trace: trace.unwrap_or(false),
    })
}

/// Builds the workspace binaries the workloads drive and returns the
/// directory they land in (`$CARGO_TARGET_DIR/release`, default
/// `target/release`).
fn build_binaries() -> Result<PathBuf, String> {
    if !Path::new("results").is_dir() || !Path::new("Cargo.toml").is_file() {
        return Err("run from the repository root (results/ and Cargo.toml not found)".into());
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet"])
        .args(["-p", "pipe-cli", "-p", "pipe-experiments", "--bins"])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building pipe-sim and repro failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    Ok(target.join("release"))
}

fn run(ctx: &mut Ctx) -> Result<Report, String> {
    match ctx.args.workload.as_str() {
        "sweep-mem1" => sweep::run(ctx, &["4a", "4b"]),
        "sweep-mem6" => sweep::run(ctx, &["5a", "5b", "6b"]),
        "repro-warm" => repro::run(ctx),
        "serve-mixed" => serve::run(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let bin_dir = match build_binaries() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run_id = format!(
        "{}-seed{}-pid{}",
        args.workload,
        args.seed,
        std::process::id()
    );
    let work = PathBuf::from(".bench_work").join(&run_id);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let mut ctx = Ctx {
        tracer: Tracer::new(args.trace, run_id.clone()),
        args,
        work,
        bin_dir,
    };
    let result = run(&mut ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.args.workload);
            return ExitCode::FAILURE;
        }
    };
    if ctx.args.trace {
        let path = Path::new(".bench_work/spans").join(format!("{run_id}.jsonl"));
        if let Err(e) = ctx.tracer.write(&path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("spans written to {}", path.display());
    }
    let list: &[(&str, &str)] = if ctx.args.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    match report.render(list, !ctx.args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.args.workload);
            ExitCode::FAILURE
        }
    }
}
