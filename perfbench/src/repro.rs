//! `repro-warm`: `repro --all --jobs 2 --resume` on a store that set-up
//! filled with one cold `repro --all`, as a user re-running the
//! reproduction does.
//!
//! Each warm run also passes `--check` (the paper's qualitative claims)
//! and `--csv-dir`, whose CSVs must be byte-identical to `results/*.csv`.
//! The inputs are the paper's fixed experiments; the seed does not change
//! them. The traced run times each section of `--all` as its own `repro`
//! invocation, with the same checks.

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use pipe_experiments::{ResultStore, ALL_ABLATIONS, ALL_FIGURES};

use crate::golden::Golden;
use crate::probe::{self, SimTotals};
use crate::procs::wait_rusage;
use crate::report::{median, Report};
use crate::{Ctx, JOBS};

/// Longest one `repro` invocation may take before it is killed.
const LIMIT: Duration = Duration::from_secs(150);

/// The sections of `repro --all`, each run alone in the traced run:
/// span name and `repro` arguments.
fn sections() -> [(&'static str, Vec<String>); 4] {
    let figures = ["--table1", "--table2", "--progress"]
        .map(String::from)
        .into_iter()
        .chain(ALL_FIGURES.iter().map(|f| format!("--fig{f}")))
        .collect();
    let ablations = ALL_ABLATIONS
        .iter()
        .map(|a| format!("--ablation-{a}"))
        .collect();
    [
        ("experiments.figures", figures),
        ("experiments.ablations", ablations),
        ("experiments.studies", vec!["--studies".to_string()]),
        ("experiments.profile", vec!["--profile".to_string()]),
    ]
}

/// One finished `repro` invocation.
struct Invocation {
    wall_s: f64,
    peak_rss_mb: f64,
    /// Its standard error (progress lines, warnings).
    stderr: String,
}

/// Runs `repro <args> --jobs 2 --store <store>` and reaps it.
fn repro<S: AsRef<str>>(
    bin: &Path,
    work: &Path,
    store: &Path,
    args: &[S],
) -> Result<Invocation, String> {
    let err_path = work.join("repro.stderr");
    let err_file = File::create(&err_path).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .args(args.iter().map(AsRef::as_ref))
        .arg("--jobs")
        .arg(JOBS.to_string())
        .arg("--store")
        .arg(store)
        .stdout(Stdio::null())
        .stderr(err_file)
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let exit = wait_rusage(&mut child, LIMIT).map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    let stderr = fs::read_to_string(&err_path).unwrap_or_default();
    if !exit.success {
        let args: Vec<&str> = args.iter().map(AsRef::as_ref).collect();
        return Err(format!("repro {} failed:\n{stderr}", args.join(" ")));
    }
    Ok(Invocation {
        wall_s,
        peak_rss_mb: exit.peak_rss_mb,
        stderr,
    })
}

/// One warm `repro --all --resume --check --csv-dir`, with its CSVs
/// compared byte for byte against `results/*.csv`.
fn warm(
    bin: &Path,
    work: &Path,
    store: &Path,
    report: &mut Report,
    index: usize,
) -> Result<Invocation, String> {
    let csv = work.join(format!("csv{index}"));
    let run = repro(bin, work, store, &with_checks(&["--all"], &csv));
    report.check(run.is_ok(), || {
        format!("warm repro: {:?}", run.as_ref().err())
    });
    let run = run?;
    compare_csvs(report, &csv)?;
    Ok(run)
}

/// `args` plus `--resume --check --csv-dir <csv>`.
fn with_checks<S: AsRef<str>>(args: &[S], csv: &Path) -> Vec<String> {
    let mut out: Vec<String> = args.iter().map(|a| a.as_ref().to_string()).collect();
    out.extend(["--resume", "--check", "--csv-dir"].map(String::from));
    out.push(csv.to_string_lossy().into_owned());
    out
}

/// Checks that every golden CSV has a byte-identical copy in `csv`, then
/// removes `csv`.
fn compare_csvs(report: &mut Report, csv: &Path) -> Result<(), String> {
    for golden in golden_csvs()? {
        let name = golden.file_name().expect("csv file name");
        let same = fs::read(&golden).ok() == fs::read(csv.join(name)).ok();
        report.check(same, || {
            format!("{} differs from the warm run's CSV", golden.display())
        });
    }
    let _ = fs::remove_dir_all(csv);
    Ok(())
}

/// Every committed golden CSV (`results/*.csv`).
fn golden_csvs() -> Result<Vec<PathBuf>, String> {
    let mut out: Vec<PathBuf> = fs::read_dir("results")
        .map_err(|e| format!("results/: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    out.sort();
    Ok(out)
}

pub fn run(ctx: &mut Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let bin = ctx.bin("repro");
    let Ctx {
        args, work, tracer, ..
    } = ctx;
    let store = work.join("store");
    eprintln!(
        "repro-warm: cold `repro --all` fills {}, then warm `--resume` runs; caches start empty",
        store.display()
    );

    let cold = tracer.span("repro.cold", |_| repro(&bin, work, &store, &["--all"]))?;

    if !args.trace {
        let (mut walls, mut rss) = (Vec::new(), Vec::new());
        // Warm runs take longer than a second each: run another only if
        // it is expected to end within `--seconds`.
        let started = Instant::now();
        while walls.is_empty()
            || started.elapsed().as_secs_f64() + median(&walls) <= args.seconds.as_secs_f64()
        {
            let run = warm(&bin, work, &store, &mut report, walls.len())?;
            walls.push(run.wall_s);
            rss.push(run.peak_rss_mb);
        }
        report.set("setup_s", cold.wall_s);
        report.set("wall_s", median(&walls));
        report.set("peak_rss_mb", median(&rss));
        eprintln!(
            "setup_s {:.3} (cold repro --all), wall_s {:.3} (median of {walls:.3?})",
            cold.wall_s,
            median(&walls)
        );
        return Ok(report);
    }

    // Traced run: an untraced warm reference, then each section alone
    // with the same checks and CSV output.
    let reference = warm(&bin, work, &store, &mut report, 0)?;
    let csv = work.join("csv-sections");
    let traced_s = tracer.span("pass", |t| -> Result<f64, String> {
        let mut total = 0.0;
        for (name, section) in sections() {
            let run = t.span(name, |_| {
                repro(&bin, work, &store, &with_checks(&section, &csv))
            });
            report.check(run.is_ok(), || format!("{name}: {:?}", run.as_ref().err()));
            let run = run?;
            if name == "experiments.figures" {
                let cached = run
                    .stderr
                    .lines()
                    .filter(|l| l.ends_with("[cached]"))
                    .count();
                let computed = run.stderr.lines().filter(|l| l.ends_with("s)")).count();
                report.set("experiments.points_cached", cached as f64);
                report.set("experiments.points_computed", computed as f64);
            }
            total += run.wall_s;
        }
        Ok(total)
    })?;
    compare_csvs(&mut report, &csv)?;
    for (name, _) in sections() {
        report.set(&format!("{name}_ms"), tracer.total_ms(name));
    }
    report.set("bench.untraced_wall_s", reference.wall_s);
    report.set("bench.traced_wall_s", traced_s);
    report.set("bench.trace_overhead", traced_s / reference.wall_s);

    let panels = ["4a", "4b", "5a", "5b", "6a", "6b"];
    let points = probe::grid(&panels, &Golden::load(&panels)?)?;
    let src = ResultStore::open(&store).map_err(|e| e.to_string())?;
    probe::store(tracer, &mut report, &src, None, &points)?;
    probe::setup(tracer, 5)?;
    probe::layer_metrics(tracer, &SimTotals::default(), &mut report);
    Ok(report)
}
