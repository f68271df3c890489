//! Shared printing helpers for the `pn-bench` binaries.
//!
//! The `repro` binary prints every figure and table of the paper (the
//! artefact index is the module table of `pn_sim::experiments`) with
//! the same rows or series the paper reports, plus an ASCII rendition
//! of the figure.

use std::fmt::Display;

/// Prints a fixed-width table with a header row and separator.
///
/// # Examples
///
/// ```
/// pn_bench::print_table(
///     &["scheme", "lifetime"],
///     &[vec!["powersave".into(), "60:00".into()]],
/// );
/// ```
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::from("  ");
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    println!("  {}", widths.iter().map(|w| "-".repeat(*w + 2)).collect::<String>());
    for row in rows {
        line(row.clone());
    }
}

/// Prints a banner naming the experiment and its paper artefact.
pub fn banner(id: &str, description: &str) {
    println!();
    println!("════════════════════════════════════════════════════════════════════");
    println!("  {id} — {description}");
    println!("════════════════════════════════════════════════════════════════════");
}

/// Prints one paper-vs-measured comparison line.
pub fn compare(metric: &str, paper: impl Display, measured: impl Display) {
    println!("  {metric:<44} paper: {paper:<12} measured: {measured}");
}

#[cfg(test)]
mod tests {
    #[test]
    fn print_helpers_do_not_panic() {
        super::banner("figX", "test");
        super::print_table(&["a", "b"], &[vec!["1".into(), "22".into()]]);
        super::compare("metric", "1.0", 2.0);
    }
}
