//! CSV export for recorded series and campaign verdicts.

use crate::series::TimeSeries;
use crate::AnalysisError;
use std::io::Write;

/// Writes aligned series as CSV: a `time` column followed by one
/// column per series, resampled onto the first series' time base.
///
/// A mutable reference to any `Write` implementor may be passed (e.g.
/// `&mut Vec<u8>` or `&mut File`).
///
/// # Errors
///
/// * [`AnalysisError::InvalidParameter`] when no series are given,
/// * [`AnalysisError::NotEnoughSamples`] when the first series is
///   empty,
/// * [`AnalysisError::Io`] on write failures.
///
/// # Examples
///
/// ```
/// use pn_analysis::csv::write_csv;
/// use pn_analysis::series::TimeSeries;
///
/// # fn main() -> Result<(), pn_analysis::AnalysisError> {
/// let vc = TimeSeries::from_samples("vc", vec![0.0, 1.0], vec![5.3, 5.2])?;
/// let mut out = Vec::new();
/// write_csv(&mut out, &[&vc])?;
/// let text = String::from_utf8(out).expect("utf8");
/// assert!(text.starts_with("time,vc\n"));
/// # Ok(())
/// # }
/// ```
pub fn write_csv<W: Write>(writer: &mut W, series: &[&TimeSeries]) -> Result<(), AnalysisError> {
    let Some(first) = series.first() else {
        return Err(AnalysisError::InvalidParameter("no series to write"));
    };
    if first.is_empty() {
        return Err(AnalysisError::NotEnoughSamples { needed: 1, available: 0 });
    }
    // Header.
    let mut header = String::from("time");
    for s in series {
        header.push(',');
        header.push_str(s.name());
    }
    header.push('\n');
    writer.write_all(header.as_bytes())?;
    // Rows on the first series' time base.
    for (t, v0) in first.iter() {
        let mut row = format!("{t}");
        row.push(',');
        row.push_str(&format!("{v0}"));
        for s in &series[1..] {
            let v = s.sample(t)?;
            row.push(',');
            row.push_str(&format!("{v}"));
        }
        row.push('\n');
        writer.write_all(row.as_bytes())?;
    }
    Ok(())
}

/// One campaign cell, reduced to plain labels and scalars so the
/// writer stays independent of the simulation crates (pn-sim's
/// `persist` module does the reduction).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Weather-condition token (machine-readable slug).
    pub weather: String,
    /// Cloud-field seed.
    pub seed: u64,
    /// Buffer capacitance, millifarads.
    pub buffer_mf: f64,
    /// Governor token (machine-readable slug).
    pub governor: String,
    /// Supply-model token (machine-readable slug, e.g. `exact` or
    /// `interp:0.001`) — keeps merged CSVs from mixed-model shards
    /// self-describing.
    pub supply_model: String,
    /// Whether the board survived the whole window.
    pub survived: bool,
    /// Lifetime (or full window), seconds.
    pub lifetime_seconds: f64,
    /// Fraction of time `VC` stayed within the ±5 % band.
    pub vc_stability: f64,
    /// Completed instructions, billions.
    pub instructions_billions: f64,
    /// Average renders per minute while alive.
    pub renders_per_minute: f64,
    /// Harvested energy integral, joules.
    pub energy_in_joules: f64,
    /// Consumed energy integral, joules.
    pub energy_out_joules: f64,
    /// OPP transitions performed.
    pub transitions: u64,
    /// Final capacitor voltage, volts.
    pub final_vc: f64,
    /// Time spent resident in idle states, seconds.
    pub idle_time_seconds: f64,
    /// Idle-state entries performed.
    pub idle_entries: u64,
    /// Thermal-model token (machine-readable slug, `off` when the
    /// thermal axis is disabled).
    pub thermal: String,
    /// Workload-arrival token (machine-readable slug, `saturated` for
    /// the always-on default).
    pub arrival: String,
    /// Harvester-fault token (machine-readable slug, `none` when no
    /// faults are injected).
    pub fault: String,
    /// Hottest die temperature reached, Celsius (0 with thermals off).
    pub peak_temp_c: f64,
    /// Time spent under the thermal throttle ceiling, seconds.
    pub throttle_time_seconds: f64,
    /// Time spent in the thermal boost state, seconds.
    pub boost_time_seconds: f64,
    /// Harvester fault events injected over the window.
    pub faults_injected: u64,
}

/// Header row of the campaign CSV document. Pinned: golden-file tests
/// and downstream plots depend on these column names and their order.
pub const CAMPAIGN_CSV_HEADER: &str = "weather,seed,buffer_mf,governor,supply_model,survived,\
lifetime_s,vc_stability,instructions_g,renders_per_min,energy_in_j,energy_out_j,transitions,\
final_vc,idle_time_s,idle_entries,thermal,arrival,fault,peak_temp_c,throttle_time_s,\
boost_time_s,faults_injected";

/// Writes campaign verdicts as CSV, one row per cell under
/// [`CAMPAIGN_CSV_HEADER`]. Floats use Rust's shortest-round-trip
/// formatting, so the document is deterministic across build profiles
/// and parses back to the exact values.
///
/// # Errors
///
/// Returns [`AnalysisError::Io`] on write failures. An empty row set
/// is legal (an empty campaign shard exports a header-only document).
///
/// # Examples
///
/// ```
/// use pn_analysis::csv::{write_campaign_csv, CampaignRow, CAMPAIGN_CSV_HEADER};
///
/// # fn main() -> Result<(), pn_analysis::AnalysisError> {
/// let mut out = Vec::new();
/// write_campaign_csv(&mut out, &[])?;
/// assert_eq!(String::from_utf8(out).unwrap(), format!("{CAMPAIGN_CSV_HEADER}\n"));
/// # Ok(())
/// # }
/// ```
pub fn write_campaign_csv<W: Write>(
    writer: &mut W,
    rows: &[CampaignRow],
) -> Result<(), AnalysisError> {
    writeln!(writer, "{CAMPAIGN_CSV_HEADER}")?;
    for r in rows {
        writeln!(writer, "{}", format_campaign_row(r))?;
    }
    Ok(())
}

/// Formats one campaign row exactly as [`write_campaign_csv`] writes
/// it, without the trailing newline — the incremental emission path.
/// Streaming consumers (the campaign daemon) send rows one at a time
/// as cells complete; because both paths share this formatter, a CSV
/// document assembled from streamed rows is byte-identical to the
/// batch-written one.
///
/// # Examples
///
/// ```
/// use pn_analysis::csv::{format_campaign_row, write_campaign_csv, CampaignRow};
///
/// # fn row() -> CampaignRow {
/// #     CampaignRow {
/// #         weather: "full-sun".into(), seed: 1, buffer_mf: 47.0,
/// #         governor: "power-neutral".into(), supply_model: "exact".into(),
/// #         survived: true, lifetime_seconds: 60.0, vc_stability: 1.0,
/// #         instructions_billions: 1.0, renders_per_minute: 10.0,
/// #         energy_in_joules: 2.0, energy_out_joules: 1.0, transitions: 3,
/// #         final_vc: 5.3, idle_time_seconds: 0.0, idle_entries: 0,
/// #         thermal: "off".into(), arrival: "saturated".into(), fault: "none".into(),
/// #         peak_temp_c: 0.0, throttle_time_seconds: 0.0, boost_time_seconds: 0.0,
/// #         faults_injected: 0,
/// #     }
/// # }
/// let r = row();
/// let mut doc = Vec::new();
/// write_campaign_csv(&mut doc, std::slice::from_ref(&r)).unwrap();
/// assert!(String::from_utf8(doc).unwrap().ends_with(&format!("{}\n", format_campaign_row(&r))));
/// ```
#[must_use]
pub fn format_campaign_row(r: &CampaignRow) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        r.weather,
        r.seed,
        r.buffer_mf,
        r.governor,
        r.supply_model,
        u8::from(r.survived),
        r.lifetime_seconds,
        r.vc_stability,
        r.instructions_billions,
        r.renders_per_minute,
        r.energy_in_joules,
        r.energy_out_joules,
        r.transitions,
        r.final_vc,
        r.idle_time_seconds,
        r.idle_entries,
        r.thermal,
        r.arrival,
        r.fault,
        r.peak_temp_c,
        r.throttle_time_seconds,
        r.boost_time_seconds,
        r.faults_injected,
    )
}

/// One campaign group (a weather condition or a governor), reduced to
/// plain labels and scalars for the summary-only CSV (pn-sim's
/// `persist` module does the reduction from `GroupSummary`).
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRow {
    /// Grouping axis the row belongs to (`weather` or `governor`).
    pub group: String,
    /// Group label (a weather condition or governor name).
    pub label: String,
    /// Number of cells in the group.
    pub cells: u64,
    /// Number of cells that browned out.
    pub brownouts: u64,
    /// Mean fraction of time `VC` stayed within the ±5 % band.
    pub vc_stability_mean: f64,
    /// Worst per-cell `VC` stability in the group.
    pub vc_stability_min: f64,
    /// Best per-cell `VC` stability in the group.
    pub vc_stability_max: f64,
    /// Total completed instructions across the group, billions.
    pub instructions_billions: f64,
    /// Mean harvested-energy utilisation (consumed / harvested).
    pub energy_utilisation_mean: f64,
}

/// Header row of the summary-only CSV document. Pinned: golden-file
/// tests and downstream plots depend on these column names and their
/// order.
pub const SUMMARY_CSV_HEADER: &str = "group,label,cells,brownouts,vc_stability_mean,\
vc_stability_min,vc_stability_max,instructions_g,energy_utilisation_mean";

/// Writes campaign group summaries as CSV, one row per group under
/// [`SUMMARY_CSV_HEADER`]. Floats use Rust's shortest-round-trip
/// formatting, so the document is deterministic across build profiles
/// and parses back to the exact values.
///
/// # Errors
///
/// Returns [`AnalysisError::Io`] on write failures. An empty row set is
/// legal (an empty campaign exports a header-only document).
///
/// # Examples
///
/// ```
/// use pn_analysis::csv::{write_summary_csv, SUMMARY_CSV_HEADER};
///
/// # fn main() -> Result<(), pn_analysis::AnalysisError> {
/// let mut out = Vec::new();
/// write_summary_csv(&mut out, &[])?;
/// assert_eq!(String::from_utf8(out).unwrap(), format!("{SUMMARY_CSV_HEADER}\n"));
/// # Ok(())
/// # }
/// ```
pub fn write_summary_csv<W: Write>(
    writer: &mut W,
    rows: &[SummaryRow],
) -> Result<(), AnalysisError> {
    writeln!(writer, "{SUMMARY_CSV_HEADER}")?;
    for r in rows {
        writeln!(
            writer,
            "{},{},{},{},{},{},{},{},{}",
            r.group,
            r.label,
            r.cells,
            r.brownouts,
            r.vc_stability_mean,
            r.vc_stability_min,
            r.vc_stability_max,
            r.instructions_billions,
            r.energy_utilisation_mean,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_columns() {
        let a = TimeSeries::from_samples("a", vec![0.0, 1.0, 2.0], vec![1.0, 2.0, 3.0]).unwrap();
        let b = TimeSeries::from_samples("b", vec![0.0, 2.0], vec![0.0, 4.0]).unwrap();
        let mut out = Vec::new();
        write_csv(&mut out, &[&a, &b]).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "time,a,b");
        assert_eq!(lines.len(), 4);
        // b interpolates to 2.0 at t=1.
        assert_eq!(lines[2], "1,2,2");
    }

    #[test]
    fn empty_input_errors() {
        let mut out = Vec::new();
        assert!(write_csv(&mut out, &[]).is_err());
        let empty = TimeSeries::new("e");
        assert!(write_csv(&mut out, &[&empty]).is_err());
    }

    #[test]
    fn campaign_rows_are_exact_and_ordered() {
        let row = CampaignRow {
            weather: "partial-sun".into(),
            seed: 7,
            buffer_mf: 47.0,
            governor: "power-neutral".into(),
            supply_model: "interp:0.001".into(),
            survived: true,
            lifetime_seconds: 0.1 + 0.2, // 0.30000000000000004: must survive the trip
            vc_stability: 0.925,
            instructions_billions: 1.5,
            renders_per_minute: 12.0,
            energy_in_joules: 30.25,
            energy_out_joules: 15.125,
            transitions: 9,
            final_vc: 5.3,
            idle_time_seconds: 1.25,
            idle_entries: 6,
            thermal: "rc:25:8:5:75:70:2".into(),
            arrival: "bursty:0.08:8:0.2".into(),
            fault: "brownout:0.002:20:0.85".into(),
            peak_temp_c: 76.5,
            throttle_time_seconds: 12.25,
            boost_time_seconds: 3.5,
            faults_injected: 4,
        };
        let mut out = Vec::new();
        write_campaign_csv(&mut out, std::slice::from_ref(&row)).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], CAMPAIGN_CSV_HEADER);
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
        let fields: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(fields[0], "partial-sun");
        assert_eq!(fields[4], "interp:0.001", "supply model rides along");
        assert_eq!(fields[5], "1", "survived encodes as 1/0");
        // Shortest-round-trip float formatting parses back bitwise.
        assert_eq!(fields[6].parse::<f64>().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(fields[14], "1.25", "idle residency rides along");
        assert_eq!(fields[15], "6", "idle entries ride along");
        assert_eq!(fields[16], "rc:25:8:5:75:70:2", "thermal slug rides along");
        assert_eq!(fields[17], "bursty:0.08:8:0.2", "arrival slug rides along");
        assert_eq!(fields[18], "brownout:0.002:20:0.85", "fault slug rides along");
        assert_eq!(fields[19], "76.5", "peak temperature rides along");
        assert_eq!(fields[20], "12.25", "throttle residency rides along");
        assert_eq!(fields[21], "3.5", "boost residency rides along");
        assert_eq!(fields[22], "4", "fault count rides along");
        // The incremental formatter IS the batch writer's row path.
        assert_eq!(lines[1], format_campaign_row(&row));
    }

    #[test]
    fn summary_rows_are_exact_and_ordered() {
        let row = SummaryRow {
            group: "weather".into(),
            label: "partial sun".into(),
            cells: 4,
            brownouts: 1,
            vc_stability_mean: 1.0 / 3.0, // must survive the round trip
            vc_stability_min: 0.25,
            vc_stability_max: 0.5,
            instructions_billions: 12.75,
            energy_utilisation_mean: 0.875,
        };
        let mut out = Vec::new();
        write_summary_csv(&mut out, std::slice::from_ref(&row)).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], SUMMARY_CSV_HEADER);
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
        let fields: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(fields[0], "weather");
        assert_eq!(fields[1], "partial sun");
        assert_eq!(fields[4].parse::<f64>().unwrap().to_bits(), (1.0f64 / 3.0).to_bits());
    }
}
