//! # pipe-experiments
//!
//! The experiment harness that regenerates every table and figure of
//! Farrens & Pleszkun (ISCA 1989):
//!
//! | experiment | function |
//! |---|---|
//! | Table I — inner-loop sizes | [`tables::table1`] |
//! | Table II — IQ/IQB configurations | [`tables::table2`] |
//! | Fig. 4a/4b — access 1, bus 4/8 B | [`figures::try_figure_with`]`("4a" / "4b", runner)` |
//! | Fig. 5a/5b — access 6, bus 4/8 B | [`figures::try_figure_with`]`("5a" / "5b", runner)` |
//! | Fig. 6a/6b — access 6, bus 8 B, non-pipelined/pipelined | [`figures::try_figure_with`]`("6a" / "6b", runner)` |
//! | ablations (access 2–3, priority, prefetch policy, format, TIB) | [`figures::try_ablation_with`] |
//! | design studies (IQ/IQB sizes, partial lines, ...) | [`studies::Study`] |
//! | per-loop cycle profile (PIPE 16-16, conventional at 128 B) | [`profile::try_profile_with`] |
//!
//! Every figure is a cache-size sweep (16–512 bytes) of the five
//! strategies of Table II (conventional plus the four PIPE
//! configurations), measured as **total cycles to execute the 150,575
//! instruction Livermore benchmark** — the paper's metric.
//!
//! The `repro` binary drives all of this from the command line and prints
//! paper-shaped tables; [`report`] renders text and CSV.

pub mod backoff;
pub mod events;
pub mod figures;
pub mod json;
pub mod matrix;
pub mod profile;
pub mod report;
pub mod runner;
pub mod store;
pub mod studies;
pub mod svg;
pub mod sweep;
pub mod tables;
pub mod tracerun;

pub use backoff::BackoffPolicy;
pub use events::RunLog;
pub use figures::{
    ablation_panels, figure_mem, try_ablation_with, try_figure_with, try_figure_with_workload,
    try_joint_id_figure_with, Figure, FigureRun, Series, ALL_ABLATIONS, ALL_FIGURES,
    JOINT_ID_FIGURE,
};
pub use json::stats_json;
pub use matrix::{sweep_sizes, StrategyKind, ALL_STRATEGIES};
pub use profile::{
    render_profile, render_profile_csv, try_profile_with, LoopProfile, LoopShare, ProfileRun,
};
pub use report::{check_expectations, render_csv, render_failures, render_text};
pub use runner::{try_run_point, ExperimentPoint, RegionCounts};
pub use store::{fnv1a64, PruneReport, ResultStore, StoreError, StoredPoint};
pub use svg::render_figure_svg;
pub use sweep::{
    mem_key, FailedJob, FaultInjection, JobError, PointOutcome, SweepError, SweepJob, SweepOutcome,
    SweepRunner, SweepSpec, WorkloadSpec,
};
pub use tracerun::{parse_workload_key, replay_point, trace_program};
