//! ASCII line charts for terminal figure output.
//!
//! `pn-bench`'s `repro` binary uses these to *draw* each reproduced
//! figure in the terminal, so a reader can eyeball the shape against
//! the paper without a plotting stack.

use crate::series::SeriesView;

/// Plot width in characters (excluding the axis gutter).
const WIDTH: usize = 72;
/// Plot height in rows.
const HEIGHT: usize = 16;
/// Length of a bar chart's largest bar, in blocks.
const BAR_WIDTH: usize = 50;

/// Chart labelling; every chart plots 72×16 characters.
#[derive(Debug, Clone)]
pub struct ChartOptions {
    /// Chart title printed above the plot.
    pub title: String,
    /// Y-axis label.
    pub y_label: String,
    /// X-axis label.
    pub x_label: String,
}

impl ChartOptions {
    /// A chart titled `title`, with no y label and `t` on the x axis.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            y_label: String::new(),
            x_label: "t".into(),
        }
    }

    /// Sets the axis labels (builder style).
    pub fn with_labels(mut self, y: impl Into<String>, x: impl Into<String>) -> Self {
        self.y_label = y.into();
        self.x_label = x.into();
        self
    }
}

/// Renders one or more series as an ASCII chart. Each series gets its
/// own glyph (`*`, `+`, `o`, `x`, …) and a legend line.
///
/// Returns an empty string when every series is empty.
///
/// # Examples
///
/// ```
/// use pn_analysis::ascii::{chart, ChartOptions};
/// use pn_analysis::series::TimeSeries;
///
/// # fn main() -> Result<(), pn_analysis::AnalysisError> {
/// let s = TimeSeries::from_samples("vc", vec![0.0, 1.0, 2.0], vec![5.2, 5.3, 5.25])?;
/// let text = chart(&[&s], &ChartOptions::new("VC over time"));
/// assert!(text.contains("VC over time"));
/// assert!(text.contains('*'));
/// # Ok(())
/// # }
/// ```
pub fn chart<'a, S>(series: &[S], options: &ChartOptions) -> String
where
    S: Into<SeriesView<'a>> + Copy,
{
    const GLYPHS: [char; 6] = ['*', '+', 'o', 'x', '#', '@'];
    let populated: Vec<SeriesView<'a>> =
        series.iter().map(|&s| s.into()).filter(|s| !s.is_empty()).collect();
    if populated.is_empty() {
        return String::new();
    }
    let t_min = populated.iter().filter_map(|s| s.start()).fold(f64::INFINITY, f64::min);
    let t_max = populated.iter().filter_map(|s| s.end()).fold(f64::NEG_INFINITY, f64::max);
    let v_min = populated.iter().filter_map(|s| s.min()).fold(f64::INFINITY, f64::min);
    let v_max = populated.iter().filter_map(|s| s.max()).fold(f64::NEG_INFINITY, f64::max);
    let v_span = if (v_max - v_min).abs() < 1e-12 { 1.0 } else { v_max - v_min };
    let t_span = if (t_max - t_min).abs() < 1e-12 { 1.0 } else { t_max - t_min };

    let (w, h) = (WIDTH, HEIGHT);
    let mut grid = vec![vec![' '; w]; h];
    for (si, s) in populated.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        #[allow(clippy::needless_range_loop)] // each column lands in a different row
        for col in 0..w {
            let t = t_min + t_span * col as f64 / (w - 1) as f64;
            if let Ok(v) = s.sample(t) {
                let norm = ((v - v_min) / v_span).clamp(0.0, 1.0);
                let row = ((1.0 - norm) * (h - 1) as f64).round() as usize;
                grid[row][col] = glyph;
            }
        }
    }

    let mut out = String::new();
    out.push_str(&format!("  {}\n", options.title));
    out.push_str(&format!("  {:>9.3} ┤", v_max));
    out.push_str(&grid[0].iter().collect::<String>());
    out.push('\n');
    for row in grid.iter().take(h - 1).skip(1) {
        out.push_str("            │");
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&format!("  {:>9.3} ┤", v_min));
    out.push_str(&grid[h - 1].iter().collect::<String>());
    out.push('\n');
    out.push_str(&format!(
        "            └{}\n             {:<12.3}{:>width$.3} {}\n",
        "─".repeat(w),
        t_min,
        t_max,
        options.x_label,
        width = w - 12
    ));
    let legend: Vec<String> = populated
        .iter()
        .enumerate()
        .map(|(i, s)| format!("{} {}", GLYPHS[i % GLYPHS.len()], s.name()))
        .collect();
    out.push_str(&format!("  legend: {}", legend.join("   ")));
    if !options.y_label.is_empty() {
        out.push_str(&format!("   [y: {}]", options.y_label));
    }
    out.push('\n');
    out
}

/// Renders a horizontal bar chart from `(label, value)` pairs, the
/// largest bar 50 blocks long — used for the Fig. 13 residency
/// histogram.
pub fn bar_chart(rows: &[(String, f64)], title: &str) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let max = rows.iter().map(|(_, v)| *v).fold(f64::NEG_INFINITY, f64::max).max(1e-12);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = format!("  {title}\n");
    for (label, value) in rows {
        let bar_len = ((value / max) * BAR_WIDTH as f64).round().max(0.0) as usize;
        out.push_str(&format!(
            "  {label:<label_w$} │{} {value:.4}\n",
            "█".repeat(bar_len),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::TimeSeries;

    #[test]
    fn chart_contains_all_glyphs_and_legend() {
        let a = TimeSeries::from_samples("alpha", vec![0.0, 1.0], vec![0.0, 1.0]).unwrap();
        let b = TimeSeries::from_samples("beta", vec![0.0, 1.0], vec![1.0, 0.0]).unwrap();
        let text = chart(&[&a, &b], &ChartOptions::new("two lines"));
        assert!(text.contains('*'));
        assert!(text.contains('+'));
        assert!(text.contains("alpha"));
        assert!(text.contains("beta"));
    }

    #[test]
    fn empty_series_renders_nothing() {
        let e = TimeSeries::new("empty");
        assert!(chart(&[&e], &ChartOptions::new("x")).is_empty());
    }

    #[test]
    fn flat_series_does_not_divide_by_zero() {
        let s = TimeSeries::from_samples("flat", vec![0.0, 1.0], vec![2.0, 2.0]).unwrap();
        let text = chart(&[&s], &ChartOptions::new("flat"));
        assert!(text.contains('*'));
    }

    #[test]
    fn bar_chart_scales_to_max() {
        let rows = vec![("a".to_string(), 1.0), ("bb".to_string(), 2.0)];
        let text = bar_chart(&rows, "bars");
        assert!(text.contains("bars"));
        // The largest bar is the full width, the other half of it.
        assert!(text.contains(&format!("bb │{} 2", "█".repeat(BAR_WIDTH))));
        assert!(text.contains(&format!("a  │{} 1", "█".repeat(BAR_WIDTH / 2))));
    }

    #[test]
    fn bar_chart_empty_is_empty() {
        assert!(bar_chart(&[], "x").is_empty());
    }
}
