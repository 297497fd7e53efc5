//! SVG rendering of reproduced figures — paper-style line charts with no
//! external dependencies.
//!
//! The paper plots total execution time (linear y) against cache size
//! (logarithmic x, 16–512 bytes). [`render_figure_svg`] reproduces that
//! layout: one polyline per strategy, point markers, axis ticks, and a
//! legend.

use crate::figures::Figure;
use crate::matrix::sweep_sizes;

const WIDTH: f64 = 720.0;
const HEIGHT: f64 = 480.0;
const MARGIN_LEFT: f64 = 90.0;
const MARGIN_RIGHT: f64 = 170.0;
const MARGIN_TOP: f64 = 60.0;
const MARGIN_BOTTOM: f64 = 60.0;

/// Curve colors, one per series (colorblind-safe-ish hues).
const COLORS: [&str; 6] = [
    "#444444", "#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00",
];

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Maps a cache size onto the logarithmic x axis.
fn x_pos(size: u32, sizes: &[u32]) -> f64 {
    let lo = (*sizes.first().expect("nonempty") as f64).log2();
    let hi = (*sizes.last().expect("nonempty") as f64).log2();
    let t = ((size as f64).log2() - lo) / (hi - lo);
    MARGIN_LEFT + t * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)
}

/// Maps a cycle count onto the linear y axis (0 at the bottom).
fn y_pos(cycles: u64, max: u64) -> f64 {
    let t = cycles as f64 / max as f64;
    HEIGHT - MARGIN_BOTTOM - t * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)
}

/// Picks a round tick step so the y axis gets 4–8 labeled ticks.
fn y_tick_step(max: u64) -> u64 {
    let mut step = 1u64;
    loop {
        for mult in [1, 2, 5] {
            let candidate = step * mult;
            if max / candidate <= 8 {
                return candidate;
            }
        }
        step *= 10;
    }
}

/// Renders a [`Figure`] as a self-contained SVG document.
pub fn render_figure_svg(fig: &Figure) -> String {
    let sizes = sweep_sizes();
    let max_cycles = fig
        .series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.cycles))
        .max()
        .unwrap_or(1)
        .max(1);
    // Round the axis top up to a tick boundary.
    let step = y_tick_step(max_cycles);
    let y_max = max_cycles.div_ceil(step) * step;

    let mut svg = String::new();
    svg.push_str(&format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">"#
    ));
    svg.push('\n');
    svg.push_str(&format!(
        r#"<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>"#
    ));
    svg.push('\n');

    // Title.
    svg.push_str(&format!(
        r#"<text x="{}" y="28" font-size="15" text-anchor="middle">{}</text>"#,
        (MARGIN_LEFT + WIDTH - MARGIN_RIGHT) / 2.0,
        xml_escape(&fig.title)
    ));
    svg.push('\n');

    // Axes.
    let x0 = MARGIN_LEFT;
    let x1 = WIDTH - MARGIN_RIGHT;
    let y0 = HEIGHT - MARGIN_BOTTOM;
    let y1 = MARGIN_TOP;
    svg.push_str(&format!(
        r#"<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>"#
    ));
    svg.push_str(&format!(
        r#"<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>"#
    ));
    svg.push('\n');

    // X ticks: the swept cache sizes.
    for &size in sizes {
        let x = x_pos(size, sizes);
        svg.push_str(&format!(
            r#"<line x1="{x}" y1="{y0}" x2="{x}" y2="{}" stroke="black"/>"#,
            y0 + 5.0
        ));
        svg.push_str(&format!(
            r#"<text x="{x}" y="{}" font-size="12" text-anchor="middle">{size}</text>"#,
            y0 + 20.0
        ));
        svg.push('\n');
    }
    svg.push_str(&format!(
        r#"<text x="{}" y="{}" font-size="13" text-anchor="middle">cache size (bytes)</text>"#,
        (x0 + x1) / 2.0,
        HEIGHT - 15.0
    ));
    svg.push('\n');

    // Y ticks.
    let mut tick = 0u64;
    while tick <= y_max {
        let y = y_pos(tick, y_max);
        svg.push_str(&format!(
            r#"<line x1="{}" y1="{y}" x2="{x0}" y2="{y}" stroke="black"/>"#,
            x0 - 5.0
        ));
        svg.push_str(&format!(
            r##"<line x1="{x0}" y1="{y}" x2="{x1}" y2="{y}" stroke="#dddddd"/>"##
        ));
        svg.push_str(&format!(
            r#"<text x="{}" y="{}" font-size="12" text-anchor="end">{}k</text>"#,
            x0 - 10.0,
            y + 4.0,
            tick / 1000
        ));
        svg.push('\n');
        tick += step;
    }
    svg.push_str(&format!(
        r#"<text x="20" y="{}" font-size="13" text-anchor="middle" transform="rotate(-90 20 {})">total cycles</text>"#,
        (y0 + y1) / 2.0,
        (y0 + y1) / 2.0
    ));
    svg.push('\n');

    // Series.
    for (i, s) in fig.series.iter().enumerate() {
        let color = COLORS[i % COLORS.len()];
        let pts: Vec<(f64, f64)> = s
            .points
            .iter()
            .map(|p| (x_pos(p.cache_bytes, sizes), y_pos(p.cycles, y_max)))
            .collect();
        if pts.len() > 1 {
            let path: Vec<String> = pts.iter().map(|(x, y)| format!("{x:.1},{y:.1}")).collect();
            svg.push_str(&format!(
                r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="2"/>"#,
                path.join(" ")
            ));
            svg.push('\n');
        }
        for (x, y) in &pts {
            svg.push_str(&format!(
                r#"<circle cx="{x:.1}" cy="{y:.1}" r="3.5" fill="{color}"/>"#
            ));
        }
        svg.push('\n');
        // Legend entry.
        let ly = MARGIN_TOP + 20.0 * i as f64;
        let lx = WIDTH - MARGIN_RIGHT + 20.0;
        svg.push_str(&format!(
            r#"<line x1="{lx}" y1="{ly}" x2="{}" y2="{ly}" stroke="{color}" stroke-width="2"/>"#,
            lx + 24.0
        ));
        svg.push_str(&format!(
            r#"<text x="{}" y="{}" font-size="12">{}</text>"#,
            lx + 30.0,
            ly + 4.0,
            xml_escape(&s.label)
        ));
        svg.push('\n');
    }

    svg.push_str("</svg>\n");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Series;
    use crate::matrix::StrategyKind;
    use crate::runner::ExperimentPoint;
    use pipe_core::SimStats;
    use pipe_mem::MemConfig;

    fn fake_figure() -> Figure {
        let mk = |kind: StrategyKind, pts: &[(u32, u64)]| Series {
            label: kind.label().to_string(),
            kind,
            points: pts
                .iter()
                .map(|&(cache_bytes, cycles)| ExperimentPoint {
                    cache_bytes,
                    cycles,
                    stats: SimStats::default(),
                    profile: None,
                })
                .collect(),
        };
        Figure {
            id: "test".into(),
            title: "Figure <test> & co".into(),
            mem: MemConfig::default(),
            series: vec![
                mk(
                    StrategyKind::Conventional,
                    &[(16, 1_400_000), (64, 1_000_000), (512, 450_000)],
                ),
                mk(StrategyKind::Pipe16x16, &[(16, 700_000), (512, 420_000)]),
            ],
        }
    }

    #[test]
    fn renders_well_formed_svg() {
        let svg = render_figure_svg(&fake_figure());
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert_eq!(svg.matches("<circle").count(), 5);
        // Title XML-escaped.
        assert!(svg.contains("&lt;test&gt; &amp; co"));
        // Legend labels present.
        assert!(svg.contains("conventional"));
        assert!(svg.contains("16-16"));
    }

    #[test]
    fn coordinates_stay_in_viewport() {
        let svg = render_figure_svg(&fake_figure());
        for cap in svg.split("cx=\"").skip(1) {
            let x: f64 = cap.split('"').next().unwrap().parse().unwrap();
            assert!((0.0..=WIDTH).contains(&x), "x {x} out of viewport");
        }
        for cap in svg.split("cy=\"").skip(1) {
            let y: f64 = cap.split('"').next().unwrap().parse().unwrap();
            assert!((0.0..=HEIGHT).contains(&y), "y {y} out of viewport");
        }
    }

    #[test]
    fn tick_steps_are_round() {
        assert_eq!(y_tick_step(7), 1);
        assert_eq!(y_tick_step(80), 10);
        assert_eq!(y_tick_step(450_000), 100_000);
        assert_eq!(y_tick_step(1_500_000), 200_000);
    }

    #[test]
    fn log_x_spacing() {
        let sizes = sweep_sizes();
        let a = x_pos(16, sizes);
        let b = x_pos(32, sizes);
        let c = x_pos(64, sizes);
        assert!((b - a - (c - b)).abs() < 1e-9, "doubling steps are equal");
    }
}
