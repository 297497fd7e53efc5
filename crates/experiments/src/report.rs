//! Rendering figures as text/CSV, and checking the paper's expectations.

use crate::figures::Figure;
use crate::matrix::{sweep_sizes, StrategyKind};
use crate::sweep::FailedJob;

/// Renders a figure as a text table: one row per cache size, one column
/// per strategy, cells in kilocycles.
pub fn render_text(fig: &Figure) -> String {
    let mut out = String::new();
    out.push_str(&fig.title);
    out.push('\n');
    out.push_str("cache size |");
    for s in &fig.series {
        out.push_str(&format!(" {:>12}", s.label));
    }
    out.push_str("\n-----------+");
    out.push_str(&"-".repeat(13 * fig.series.len()));
    out.push('\n');
    for &size in sweep_sizes() {
        out.push_str(&format!("{size:>9}B |"));
        for s in &fig.series {
            match s.points.iter().find(|p| p.cache_bytes == size) {
                Some(p) => out.push_str(&format!(" {:>11.0}k", p.cycles as f64 / 1000.0)),
                None => out.push_str(&format!(" {:>12}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders the failed jobs of a partial sweep, one line per point (empty
/// string for a complete run). Rendered tables mark these points as
/// missing (`-`), never zero; this summary names them and says why.
pub fn render_failures(failed: &[FailedJob]) -> String {
    let mut out = String::new();
    if failed.is_empty() {
        return out;
    }
    out.push_str(&format!("  {} point(s) failed:\n", failed.len()));
    for f in failed {
        out.push_str(&format!("  [failed] {f}\n"));
    }
    out
}

/// Renders a figure as CSV (`strategy,cache_bytes,cycles`).
pub fn render_csv(fig: &Figure) -> String {
    let mut out = String::from("strategy,cache_bytes,cycles\n");
    for s in &fig.series {
        for p in &s.points {
            out.push_str(&format!("{},{},{}\n", s.label, p.cache_bytes, p.cycles));
        }
    }
    out
}

fn cycles_at(fig: &Figure, kind: StrategyKind, size: u32) -> Option<u64> {
    fig.series
        .iter()
        .find(|s| s.kind == kind)
        .and_then(|s| s.points.iter().find(|p| p.cache_bytes == size))
        .map(|p| p.cycles)
}

/// Checks a reproduced figure against the paper's qualitative claims,
/// returning a list of violations (empty = every expectation holds).
///
/// Expectations encoded (paper §6):
///
/// * **Monotone-ish curves**: growing the cache never makes a strategy
///   more than 2 % slower.
/// * **Access > 1 cycle ⇒ PIPE wins**: every PIPE configuration beats the
///   conventional cache at every common cache size.
/// * **Small-cache advantage**: at 16–32 B with slow memory, the best PIPE
///   configuration is at least 1.3× faster than conventional.
/// * **Flatness**: for the bus-8 panels, the best PIPE configuration's
///   smallest-cache point is within 45 % of its 512-byte point (the
///   paper's "a 16- or 32-byte cache achieves close to the performance of
///   a 512-byte cache"; the paper's own 5b curves carry some slope).
pub fn check_expectations(fig: &Figure) -> Vec<String> {
    let mut violations = Vec::new();
    let sizes = sweep_sizes();

    for s in &fig.series {
        for w in s.points.windows(2) {
            if w[1].cycles as f64 > w[0].cycles as f64 * 1.02 {
                violations.push(format!(
                    "{}: {} slows down from {}B ({}) to {}B ({})",
                    fig.id, s.label, w[0].cache_bytes, w[0].cycles, w[1].cache_bytes, w[1].cycles
                ));
            }
        }
    }

    if fig.mem.access_cycles > 1 {
        for &size in sizes {
            let Some(conv) = cycles_at(fig, StrategyKind::Conventional, size) else {
                continue;
            };
            for s in &fig.series {
                if !s.kind.is_pipe() {
                    continue;
                }
                if let Some(p) = cycles_at(fig, s.kind, size) {
                    if p > conv {
                        violations.push(format!(
                            "{}: PIPE {} ({p}) loses to conventional ({conv}) at {size}B",
                            fig.id, s.label
                        ));
                    }
                }
            }
        }

        // Small-cache advantage.
        for &size in &[16u32, 32] {
            let (Some(conv), Some(best)) = (
                cycles_at(fig, StrategyKind::Conventional, size),
                fig.series
                    .iter()
                    .filter(|s| s.kind.is_pipe())
                    .filter_map(|s| cycles_at(fig, s.kind, size))
                    .min(),
            ) else {
                continue;
            };
            if (conv as f64) < best as f64 * 1.3 {
                violations.push(format!(
                    "{}: small-cache advantage at {size}B only {:.2}x",
                    fig.id,
                    conv as f64 / best as f64
                ));
            }
        }
    }

    // The flatness claim compares the *best* PIPE configuration, so only
    // check panels carrying the full PIPE family.
    let pipe_series = fig.series.iter().filter(|s| s.kind.is_pipe()).count();
    if fig.mem.in_bus_bytes >= 8 && pipe_series >= 2 {
        let best_flat = fig
            .series
            .iter()
            .filter(|s| s.kind.is_pipe())
            .filter_map(|s| {
                let first = s.points.first()?.cycles as f64;
                let last = s.points.last()?.cycles as f64;
                Some(first / last)
            })
            .fold(f64::INFINITY, f64::min);
        if best_flat > 1.45 {
            violations.push(format!(
                "{}: best PIPE curve not flat (smallest/largest = {best_flat:.2})",
                fig.id
            ));
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Series;
    use crate::runner::ExperimentPoint;
    use pipe_core::SimStats;
    use pipe_mem::MemConfig;

    fn fake_point(cache_bytes: u32, cycles: u64) -> ExperimentPoint {
        ExperimentPoint {
            cache_bytes,
            cycles,
            stats: SimStats::default(),
            profile: None,
        }
    }

    fn fake_figure(conv: &[(u32, u64)], pipe: &[(u32, u64)], access: u32) -> Figure {
        Figure {
            id: "test".into(),
            title: "test".into(),
            mem: MemConfig {
                access_cycles: access,
                in_bus_bytes: 8,
                ..MemConfig::default()
            },
            series: vec![
                Series {
                    label: "conventional".into(),
                    kind: StrategyKind::Conventional,
                    points: conv.iter().map(|&(s, c)| fake_point(s, c)).collect(),
                },
                Series {
                    label: "16-16".into(),
                    kind: StrategyKind::Pipe16x16,
                    points: pipe.iter().map(|&(s, c)| fake_point(s, c)).collect(),
                },
            ],
        }
    }

    #[test]
    fn clean_figure_passes() {
        let fig = fake_figure(
            &[(16, 1000), (32, 800), (64, 600)],
            &[(16, 500), (32, 480), (64, 460)],
            6,
        );
        assert!(check_expectations(&fig).is_empty());
    }

    #[test]
    fn pipe_losing_is_flagged() {
        let fig = fake_figure(&[(16, 500)], &[(16, 900)], 6);
        let v = check_expectations(&fig);
        assert!(
            v.iter().any(|m| m.contains("loses to conventional")),
            "{v:?}"
        );
    }

    #[test]
    fn non_monotone_is_flagged() {
        let fig = fake_figure(&[(16, 500), (32, 900)], &[(16, 300), (32, 290)], 6);
        let v = check_expectations(&fig);
        assert!(v.iter().any(|m| m.contains("slows down")), "{v:?}");
    }

    #[test]
    fn renders() {
        let fig = fake_figure(&[(16, 1000)], &[(16, 500)], 6);
        let text = render_text(&fig);
        assert!(text.contains("conventional"));
        let csv = render_csv(&fig);
        assert!(csv.contains("16-16,16,500"));
    }
}
