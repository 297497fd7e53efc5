//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--all] [--table1] [--table2] [--fig4a ... --fig6b]
//!       [--joint-id] [--ablation-access] [--ablation-priority]
//!       [--ablation-prefetch] [--ablation-format] [--ablation-tib]
//!       [--studies] [--profile] [--check]
//!       [--csv-dir DIR] [--svg-dir DIR] [--from-trace FILE]
//!       [--jobs N] [--resume] [--store DIR] [--progress]
//!       [--strict] [--events DIR]
//! ```
//!
//! With no arguments, runs the tables and figures. `--all` adds every
//! ablation, the per-loop profile, and the design studies. `--check`
//! verifies the paper's qualitative expectations and exits nonzero on a
//! violation. `--csv-dir` / `--svg-dir` additionally write one CSV / SVG
//! per figure and ablation panel (and, with `--profile`, one per-loop CSV
//! per profiled strategy).
//!
//! `--studies` runs the design studies beyond the printed figures (IQ/IQB
//! sizes, partial lines, Hill prefetch, prefetch buffers, memory speed,
//! external cache). `--profile` attributes cycles to each Livermore loop
//! for PIPE 16-16 and the conventional cache at 128 B.
//!
//! `--joint-id` runs the joint I/D size sweep (an extension): I-cache
//! sizes crossed with D-cache sizes on the assembled `matmul` program
//! under 6-cycle, 4-byte-bus memory. It renders, CSVs, and SVGs like
//! any figure; `pipe-sim --sweep id` is the CLI equivalent.
//!
//! `--from-trace FILE` runs the selected figure sweeps trace-driven:
//! every point replays the given trace (binary `.ptr` or plain-text
//! addresses) through its fetch engine instead of executing the
//! functional core, and the result store keys on the trace's content
//! hash. Record a trace with `pipe-sim --livermore --record-trace`.
//!
//! Figures, ablations, the profile, and studies all run on one parallel
//! sweep runner, which simulates each configuration once per run: a
//! section that repeats points of an earlier one (fig. 6a re-plots 5b)
//! reuses them. A profiled point is stored under its own key, with its
//! per-loop counts, so a warm `--all --resume` simulates nothing. `--jobs N` spreads the
//! points over N worker threads (cycle counts are bit-identical to a
//! serial run), `--store DIR` persists every measured point to a
//! content-addressed store under DIR (default `results/`), and `--resume`
//! loads previously stored points instead of re-simulating them.
//! `--progress` prints one line per point with its wall time (`[cached]`
//! for a point not simulated by its section). A section named twice runs
//! once.
//!
//! Runs are fault-tolerant: a failed point is reported (and marked
//! missing in its table) while every other point completes, and the run
//! exits 0. `--strict` restores fail-fast semantics — the first failed
//! point aborts with a nonzero exit. `--events DIR` appends a structured
//! JSONL event log per figure, ablation panel, study, and the profile to
//! `DIR/events/` (defaults to the store root when a store is in use).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pipe_experiments::figures::{
    try_ablation_with, try_figure_with, try_figure_with_workload, try_joint_id_figure_with, Figure,
    FigureRun, ALL_ABLATIONS, ALL_FIGURES,
};
use pipe_experiments::profile::{render_profile, render_profile_csv, try_profile_with};
use pipe_experiments::report::{check_expectations, render_csv, render_failures, render_text};
use pipe_experiments::store::ResultStore;
use pipe_experiments::studies::ALL_STUDIES;
use pipe_experiments::sweep::{FailedJob, SweepError, SweepRunner, WorkloadSpec};
use pipe_experiments::tables::{render_table1, render_table2};

struct Options {
    tables: Vec<&'static str>,
    figures: Vec<&'static str>,
    ablations: Vec<&'static str>,
    joint_id: bool,
    profile: bool,
    studies: bool,
    check: bool,
    csv_dir: Option<PathBuf>,
    svg_dir: Option<PathBuf>,
    from_trace: Option<PathBuf>,
    jobs: usize,
    resume: bool,
    store: Option<PathBuf>,
    progress: bool,
    strict: bool,
    events: Option<PathBuf>,
}

/// Parses the arguments after the program name. A section named twice
/// (`--all --fig4a`, `--ablation-tib --ablation-tib`) runs once, at the
/// position where it was first named.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        tables: Vec::new(),
        figures: Vec::new(),
        ablations: Vec::new(),
        joint_id: false,
        profile: false,
        studies: false,
        check: false,
        csv_dir: None,
        svg_dir: None,
        from_trace: None,
        jobs: 1,
        resume: false,
        store: None,
        progress: false,
        strict: false,
        events: None,
    };
    let mut any = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all" => {
                opts.tables = vec!["1", "2"];
                opts.figures = ALL_FIGURES.to_vec();
                opts.ablations = ALL_ABLATIONS.to_vec();
                opts.profile = true;
                opts.studies = true;
                any = true;
            }
            "--joint-id" => {
                opts.joint_id = true;
                any = true;
            }
            "--profile" => {
                opts.profile = true;
                any = true;
            }
            "--studies" => {
                opts.studies = true;
                any = true;
            }
            "--table1" => {
                opts.tables.push("1");
                any = true;
            }
            "--table2" => {
                opts.tables.push("2");
                any = true;
            }
            "--check" => opts.check = true,
            "--jobs" => {
                let n = args.next().ok_or("--jobs needs a count")?;
                opts.jobs = n
                    .parse()
                    .map_err(|_| format!("--jobs: invalid count `{n}`"))?;
            }
            "--resume" => opts.resume = true,
            "--store" => {
                let dir = args.next().ok_or("--store needs a directory")?;
                opts.store = Some(PathBuf::from(dir));
            }
            "--progress" => opts.progress = true,
            "--strict" => opts.strict = true,
            "--events" => {
                let dir = args.next().ok_or("--events needs a directory")?;
                opts.events = Some(PathBuf::from(dir));
            }
            "--csv-dir" => {
                let dir = args.next().ok_or("--csv-dir needs a directory")?;
                opts.csv_dir = Some(PathBuf::from(dir));
            }
            "--svg-dir" => {
                let dir = args.next().ok_or("--svg-dir needs a directory")?;
                opts.svg_dir = Some(PathBuf::from(dir));
            }
            "--from-trace" => {
                let file = args.next().ok_or("--from-trace needs a trace file")?;
                opts.from_trace = Some(PathBuf::from(file));
            }
            other => {
                if let Some(id) = other.strip_prefix("--fig") {
                    let id = ALL_FIGURES
                        .iter()
                        .find(|&&f| f == id)
                        .ok_or_else(|| format!("unknown figure {other}"))?;
                    opts.figures.push(id);
                    any = true;
                } else if let Some(id) = other.strip_prefix("--ablation-") {
                    let id = ALL_ABLATIONS
                        .iter()
                        .find(|&&a| a == id)
                        .ok_or_else(|| format!("unknown ablation {other}"))?;
                    opts.ablations.push(id);
                    any = true;
                } else {
                    return Err(format!("unknown argument {other}"));
                }
            }
        }
    }
    if !any {
        opts.tables = vec!["1", "2"];
        opts.figures = ALL_FIGURES.to_vec();
    }
    dedup_in_order(&mut opts.tables);
    dedup_in_order(&mut opts.figures);
    dedup_in_order(&mut opts.ablations);
    Ok(opts)
}

/// Drops every repeat of an earlier id, keeping first-seen order.
fn dedup_in_order(ids: &mut Vec<&'static str>) {
    let mut seen = Vec::with_capacity(ids.len());
    ids.retain(|id| {
        let first = !seen.contains(id);
        seen.push(*id);
        first
    });
}

/// Writes `text` to `dir/name` and says so, naming the file's kind by
/// its extension (`[csv written to …]`).
fn write_output(dir: &Path, name: &str, text: &str) {
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write output file");
    let kind = path.extension().unwrap_or_default().to_string_lossy();
    println!("  [{kind} written to {}]", path.display());
}

fn emit(fig: &Figure, failed: &[FailedJob], opts: &Options, violations: &mut Vec<String>) {
    println!("{}", render_text(fig));
    print!("{}", render_failures(failed));
    if let Some(dir) = &opts.csv_dir {
        write_output(dir, &format!("{}.csv", fig.id), &render_csv(fig));
    }
    if let Some(dir) = &opts.svg_dir {
        let svg = pipe_experiments::render_figure_svg(fig);
        write_output(dir, &format!("{}.svg", fig.id), &svg);
    }
    if opts.check {
        let v = check_expectations(fig);
        if v.is_empty() {
            println!("  [check] all paper expectations hold");
        }
        for msg in &v {
            println!("  [check] VIOLATION: {msg}");
        }
        violations.extend(v);
    }
    println!();
}

/// Strict fail-fast: reports what completed, then aborts.
fn abort(e: &SweepError) -> ExitCode {
    eprintln!("repro: {e}");
    print!("{}", render_failures(&e.partial().failed));
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::from(2);
        }
    };

    let mut violations = Vec::new();

    let mut runner = SweepRunner::new()
        .jobs(opts.jobs)
        .progress(opts.progress)
        .strict(opts.strict);
    let mut store_root = None;
    if opts.resume || opts.store.is_some() {
        let root = opts
            .store
            .clone()
            .unwrap_or_else(|| PathBuf::from("results"));
        match ResultStore::open(&root) {
            Ok(store) => runner = runner.store(store).resume(opts.resume),
            Err(e) => {
                eprintln!("repro: cannot open result store {}: {e}", root.display());
                return ExitCode::FAILURE;
            }
        }
        store_root = Some(root);
    }
    if let Some(events) = opts.events.clone().or(store_root) {
        runner = runner.events(events);
    }

    for t in &opts.tables {
        match *t {
            "1" => println!("{}", render_table1()),
            "2" => println!("{}", render_table2()),
            _ => unreachable!(),
        }
    }

    // Trace-driven mode: validate the trace once, then substitute it for
    // the Livermore workload in every selected figure sweep.
    let trace_workload = match &opts.from_trace {
        Some(path) => match WorkloadSpec::trace(path) {
            Ok(wl) => Some(wl),
            Err(e) => {
                eprintln!("repro: --from-trace: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let mut total_failed = 0usize;
    let mut emit_run = |run: FigureRun| {
        total_failed += run.failed().len();
        emit(&run.figure, run.failed(), &opts, &mut violations);
    };
    for id in &opts.figures {
        let result = match &trace_workload {
            Some(wl) => try_figure_with_workload(id, &runner, wl.clone()),
            None => try_figure_with(id, &runner),
        };
        match result {
            Ok(run) => emit_run(run),
            Err(e) => return abort(&e),
        }
    }

    // The joint I/D size sweep (extension): I-cache sizes x D-cache
    // sizes on the assembled matmul program.
    if opts.joint_id {
        match try_joint_id_figure_with(&runner) {
            Ok(run) => emit_run(run),
            Err(e) => return abort(&e),
        }
    }

    for id in &opts.ablations {
        match try_ablation_with(id, &runner) {
            Ok(runs) => runs.into_iter().for_each(&mut emit_run),
            Err(e) => return abort(&e),
        }
    }

    if opts.profile {
        match try_profile_with(&runner) {
            Ok(run) => {
                total_failed += run.failed().len();
                for (kind, profile) in &run.profiles {
                    println!("{}", render_profile(profile));
                    if let Some(dir) = &opts.csv_dir {
                        let name = format!("profile_{}.csv", kind.label());
                        write_output(dir, &name, &render_profile_csv(profile));
                    }
                }
                print!("{}", render_failures(run.failed()));
            }
            Err(e) => return abort(&e),
        }
    }

    if opts.studies {
        let workload = WorkloadSpec::livermore();
        for study in ALL_STUDIES {
            match study.run(&runner, &workload) {
                Ok(outcome) => {
                    total_failed += outcome.failed.len();
                    print!("{}", study.render(&outcome.points));
                    println!("{}", render_failures(&outcome.failed));
                }
                Err(e) => return abort(&e),
            }
        }
    }

    if total_failed > 0 {
        eprintln!(
            "repro: {total_failed} sweep point(s) failed (marked `-` above); \
             re-run with --strict to make this fatal"
        );
    }
    if opts.check && !violations.is_empty() {
        eprintln!("{} expectation violation(s)", violations.len());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Options {
        parse_args(args.iter().map(|a| a.to_string())).unwrap()
    }

    #[test]
    fn repeated_sections_run_once_in_first_seen_order() {
        let opts = parse(&["--all", "--fig4a", "--ablation-tib", "--fig6b"]);
        assert_eq!(opts.figures, ALL_FIGURES);
        assert_eq!(opts.ablations, ALL_ABLATIONS);

        let opts = parse(&[
            "--ablation-tib",
            "--ablation-tib",
            "--fig5b",
            "--fig4a",
            "--fig5b",
        ]);
        assert_eq!(opts.ablations, ["tib"]);
        assert_eq!(opts.figures, ["5b", "4a"]);

        let opts = parse(&["--all", "--table2"]);
        assert_eq!(opts.tables, ["1", "2"]);
    }
}
