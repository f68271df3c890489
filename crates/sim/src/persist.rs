//! Campaign persistence: serialized specs and reports, and the
//! campaign CSV export.
//!
//! A campaign verdict only matters if it can leave the process: shard
//! reports computed on different machines must recompose
//! ([`CampaignReport::merge`]), and analysts need one diffable,
//! plottable row per cell. This module provides both halves:
//!
//! * a versioned, line-oriented wire format for [`CampaignSpec`] and
//!   [`CampaignReport`] ([`spec_to_string`] / [`spec_from_str`],
//!   [`report_to_string`] / [`report_from_str`]). Floats are written
//!   with Rust's shortest-round-trip formatting, so decoding
//!   reproduces every `f64` bitwise and a decode–encode cycle is the
//!   identity;
//! * the campaign CSV export: [`CAMPAIGN_CSV_HEADER`] and [`csv_row`],
//!   the only row encoder (one row per cell, shared by the batch
//!   [`report_csv_string`], the daemon's watch stream and the report's
//!   cell lines), plus the per-group [`report_summary_csv_string`]
//!   under [`SUMMARY_CSV_HEADER`];
//! * the atomic artifact writer ([`write_atomic`]): temp file in the
//!   target's directory, fsync, rename into place. Every campaign
//!   artifact this workspace writes (the `campaign` bin's
//!   `--save`/`--out`/`--summary-out`, the daemon's shard checkpoints
//!   and merged reports) goes through it, so a killed writer can leave
//!   a stale temp file but never a torn artifact. The decoders' exact
//!   token and column counts, which reject a torn trailing line, are
//!   thereby a second line of defence rather than the only one. The writer is
//!   also the fault plane's injection point: [`write_atomic_with`]
//!   consults a [`chaos::IoPolicy`] so seeded chaos runs can exercise
//!   every failure mode deterministically.
//!
//! Each document has exactly one dialect: this build writes and reads
//! `pn-campaign-spec v7` and `pn-campaign-report v9`, and rejects any
//! other version of either header with a version-skew error. The spec's
//! `options` line is the two-token options section
//! `<supply-model-slug> <on|off>`: the supply model and idle flag every
//! cell runs under, always written explicitly.
//!
//! A report is `start <index>`, `cells <n>`, one line per cell, then
//! `digest <hex>` and `end`. A cell line is the cell's [`csv_row`]
//! followed by the identity the CSV lacks,
//! `,<v_width>,<v_q>,<alpha>,<beta>,<duration>,<on|off>`: 29
//! comma-separated columns, none of which can hold a comma (axis slugs
//! use `:`, `+` and `@`). One row parser decodes them and requires the
//! exact column count. The digest is FNV-1a 64 over every line before
//! it, header included, as the decoder reads them: trimmed, each
//! followed by `\n`, blank and `#` comment lines skipped. It is checked
//! once every line has parsed, so a malformed line is still reported
//! by its number, and any other edit to a cell line is rejected too.
//!
//! # Examples
//!
//! ```
//! use pn_sim::campaign::{run_campaign, CampaignSpec};
//! use pn_sim::executor::Executor;
//! use pn_sim::persist;
//!
//! # fn main() -> Result<(), pn_sim::SimError> {
//! let spec = CampaignSpec::smoke().with_duration(pn_units::Seconds::new(2.0));
//! let report = run_campaign(&spec, &Executor::sequential())?;
//! let wire = persist::report_to_string(&report);
//! assert_eq!(persist::report_from_str(&wire)?, report);
//! # Ok(())
//! # }
//! ```

use crate::campaign::{CampaignCell, CampaignReport, CampaignSpec, CellOutcome, GovernorSpec};
use crate::chaos;
use crate::supply::SupplyModel;
use crate::SimError;
use pn_core::params::ControlParams;
use pn_harvest::faults::FaultSpec;
use pn_harvest::weather::Weather;
use pn_soc::thermal::ThermalSpec;
use pn_units::{Seconds, Volts};
use pn_workload::arrival::ArrivalSpec;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Spec header: the first dialect whose `options` line is the
/// two-token options section.
const SPEC_HEADER: &str = "pn-campaign-spec v7";
/// Report header: the first dialect whose cell lines are CSV rows
/// and whose documents close with a digest line.
const REPORT_HEADER: &str = "pn-campaign-report v9";
/// Columns of a report cell line: the [`CAMPAIGN_CSV_HEADER`] columns
/// plus `v_width,v_q,alpha,beta,duration,<on|off>`.
const CELL_COLUMNS: usize = 29;
/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Writes `contents` to `path` atomically: the bytes go to a fresh
/// temp file in the same directory (same filesystem, so the final
/// rename cannot cross a mount boundary), are synced to disk, and the
/// temp file is renamed over `path`. A concurrent reader — or a resume
/// after the writer was killed — therefore sees either the complete
/// previous artifact or the complete new one, never a torn prefix. A
/// writer killed mid-write leaves at most a stale `.<name>.tmp.<pid>`
/// sibling, which the next atomic write of the same path from the same
/// process replaces.
///
/// # Errors
///
/// Returns [`SimError::Persist`] naming the path when `path` has no
/// file name or any step (create, write, sync, rename) fails; the temp
/// file is removed on failure.
///
/// # Examples
///
/// ```
/// use pn_sim::persist::write_atomic;
///
/// let path = std::env::temp_dir().join(format!("pn-atomic-doc-{}.txt", std::process::id()));
/// write_atomic(&path, "whole artifact\n").unwrap();
/// assert_eq!(std::fs::read_to_string(&path).unwrap(), "whole artifact\n");
/// std::fs::remove_file(&path).ok();
/// ```
pub fn write_atomic(path: impl AsRef<Path>, contents: &str) -> Result<(), SimError> {
    write_atomic_with(path, contents, &chaos::Passthrough)
}

/// [`write_atomic`] behind the chaos seam: `policy` is consulted once
/// per call and may inject one of the write path's real failure modes
/// ([`IoFault`](chaos::IoFault)) instead of completing the faulted step. With the
/// default [`chaos::Passthrough`] policy this is exactly
/// [`write_atomic`].
///
/// Whatever the policy injects, the invariant the decoders rely on is
/// preserved: the *final* artifact at `path` is only ever replaced by
/// a complete rename — an injected fault can tear the temp file (the
/// same debris a crashed writer leaves) but never the artifact itself.
///
/// # Errors
///
/// As [`write_atomic`]; injected faults surface as
/// [`SimError::Persist`] whose message carries
/// [`chaos::INJECTED_MARKER`] (see
/// [`SimError::is_injected`](crate::SimError::is_injected)).
pub fn write_atomic_with(
    path: impl AsRef<Path>,
    contents: &str,
    policy: &dyn chaos::IoPolicy,
) -> Result<(), SimError> {
    let path = path.as_ref();
    let Some(file_name) = path.file_name() else {
        return Err(SimError::Persist(format!("cannot write {}: not a file path", path.display())));
    };
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    let tmp = dir.join(format!(".{}.tmp.{}", file_name.to_string_lossy(), std::process::id()));
    let fault = policy.artifact_fault(path);
    let result = (|| {
        if fault == Some(chaos::IoFault::NoSpace) {
            return Err(chaos::injected_io_error("no space left on device"));
        }
        let mut file = std::fs::File::create(&tmp)?;
        if fault == Some(chaos::IoFault::ShortWrite) {
            let bytes = contents.as_bytes();
            file.write_all(&bytes[..bytes.len() / 2])?;
            return Err(chaos::injected_io_error("short write tore the temp file"));
        }
        file.write_all(contents.as_bytes())?;
        if fault == Some(chaos::IoFault::FailSync) {
            return Err(chaos::injected_io_error("sync_all failed"));
        }
        file.sync_all()?;
        if fault == Some(chaos::IoFault::FailRename) {
            return Err(chaos::injected_io_error("rename failed"));
        }
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = result {
        // An injected short write leaves its torn temp file in place —
        // the debris a real crashed writer leaves, which recovery must
        // tolerate. Every other failure removes the temp as before.
        if fault != Some(chaos::IoFault::ShortWrite) {
            let _ = std::fs::remove_file(&tmp);
        }
        return Err(SimError::Persist(format!("cannot write {}: {e}", path.display())));
    }
    Ok(())
}

/// Serializes a campaign spec to the wire format.
pub fn spec_to_string(spec: &CampaignSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{SPEC_HEADER}");
    let _ = writeln!(
        out,
        "weathers {}",
        spec.weathers.iter().map(|w| w.slug()).collect::<Vec<_>>().join(" ")
    );
    let _ = writeln!(out, "seeds {}", join_display(&spec.seeds));
    let _ = writeln!(
        out,
        "thermals {}",
        spec.thermals.iter().map(ThermalSpec::slug).collect::<Vec<_>>().join(" ")
    );
    let _ = writeln!(
        out,
        "arrivals {}",
        spec.arrivals.iter().map(ArrivalSpec::slug).collect::<Vec<_>>().join(" ")
    );
    let _ = writeln!(
        out,
        "faults {}",
        spec.faults.iter().map(FaultSpec::slug).collect::<Vec<_>>().join(" ")
    );
    let _ = writeln!(out, "buffers {}", join_display(&spec.buffers_mf));
    let _ = writeln!(
        out,
        "governors {}",
        spec.governors.iter().map(GovernorSpec::slug).collect::<Vec<_>>().join(" ")
    );
    for p in &spec.params {
        let _ = writeln!(
            out,
            "params {} {} {} {}",
            p.v_width().value(),
            p.v_q().value(),
            p.alpha(),
            p.beta()
        );
    }
    let _ = writeln!(out, "duration {}", spec.duration.value());
    let _ = writeln!(out, "options {}", options_fields(spec.supply_model, spec.idle));
    out.push_str("end\n");
    out
}

/// Decodes a campaign spec from the wire format. Stress-axis lines
/// may be omitted and then decode as the axis defaults.
///
/// # Errors
///
/// Returns [`SimError::Persist`] for a malformed document (including
/// any header other than the current version, and parameter lines that
/// fail [`ControlParams`] validation).
pub fn spec_from_str(text: &str) -> Result<CampaignSpec, SimError> {
    let mut lines = Lines::new(text);
    lines.expect_header(SPEC_HEADER)?;
    let mut spec = CampaignSpec {
        weathers: Vec::new(),
        seeds: Vec::new(),
        thermals: vec![ThermalSpec::Off],
        arrivals: vec![ArrivalSpec::Saturated],
        faults: vec![FaultSpec::None],
        buffers_mf: Vec::new(),
        governors: Vec::new(),
        params: Vec::new(),
        duration: Seconds::ZERO,
        supply_model: SupplyModel::Exact,
        idle: true,
    };
    loop {
        let (no, line) = lines.next_line()?;
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "end" => break,
            "weathers" => spec.weathers = parse_slug_list(no, rest, "weather", Weather::from_slug)?,
            "seeds" => spec.seeds = parse_list(no, rest)?,
            "thermals" => {
                spec.thermals = parse_slug_list(no, rest, "thermal spec", ThermalSpec::from_slug)?;
            }
            "arrivals" => {
                spec.arrivals =
                    parse_slug_list(no, rest, "arrival spec", ArrivalSpec::from_slug)?;
            }
            "faults" => {
                spec.faults = parse_slug_list(no, rest, "fault spec", FaultSpec::from_slug)?;
            }
            "buffers" => spec.buffers_mf = parse_list(no, rest)?,
            "governors" => {
                spec.governors = parse_slug_list(no, rest, "governor", GovernorSpec::from_slug)?;
            }
            "params" => {
                let [vw, vq, alpha, beta] = parse_array(no, rest)?;
                let params = ControlParams::new(Volts::new(vw), Volts::new(vq), alpha, beta)
                    .map_err(|e| persist_err(no, format!("invalid control parameters: {e}")))?;
                spec.params.push(params);
            }
            "duration" => {
                let [d] = parse_array(no, rest)?;
                spec.duration = Seconds::new(d);
            }
            "options" => {
                let tokens: Vec<&str> = rest.split_whitespace().collect();
                (spec.supply_model, spec.idle) = parse_options(no, &tokens)?;
            }
            other => return Err(persist_err(no, format!("unknown spec key {other:?}"))),
        }
    }
    Ok(spec)
}

/// Serializes a (full or shard) campaign report to the wire format:
/// one cell line per outcome, each its [`csv_row`] plus the control
/// parameters, duration and idle flag, then the digest line (see the
/// [module docs](self)).
pub fn report_to_string(report: &CampaignReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{REPORT_HEADER}");
    let _ = writeln!(out, "start {}", report.start());
    let _ = writeln!(out, "cells {}", report.len());
    for c in report.cells() {
        let cell = &c.cell;
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            csv_row(c),
            cell.params.v_width().value(),
            cell.params.v_q().value(),
            cell.params.alpha(),
            cell.params.beta(),
            cell.duration.value(),
            idle_token(cell.idle),
        );
    }
    let _ = writeln!(out, "digest {:016x}", fnv1a(FNV_OFFSET, out.as_bytes()));
    out.push_str("end\n");
    out
}

/// Decodes a campaign report from the wire format. Every `f64` is
/// reproduced bitwise, so `report_from_str(&report_to_string(r)) == r`
/// exactly.
///
/// # Errors
///
/// Returns [`SimError::Persist`] for a malformed document: bad header
/// or version, a `start + cells` past `usize::MAX`, too few cell lines,
/// a cell line without exactly 29 decodable columns, or a digest that
/// does not match the lines before it.
pub fn report_from_str(text: &str) -> Result<CampaignReport, SimError> {
    let mut lines = Lines::new(text);
    lines.expect_header(REPORT_HEADER)?;
    let (no, line) = lines.next_line()?;
    let start: usize = parse_keyed(no, line, "start")?;
    let (no, line) = lines.next_line()?;
    let count: usize = parse_keyed(no, line, "cells")?;
    if start.checked_add(count).is_none() {
        return Err(persist_err(no, format!("{count} cells from index {start} overflow usize")));
    }
    // Grown as lines parse: `count` is the document's claim, not a
    // size to reserve before any cell has decoded.
    let mut cells = Vec::new();
    for _ in 0..count {
        let (no, line) = lines.next_line()?;
        cells.push(parse_cell_line(no, line)?);
    }
    let expected = format!("{:016x}", lines.digest);
    let (digest_no, line) = lines.next_line()?;
    let digest = line
        .strip_prefix("digest ")
        .ok_or_else(|| persist_err(digest_no, format!("expected digest line, found {line:?}")))?;
    let (no, line) = lines.next_line()?;
    if line != "end" {
        return Err(persist_err(no, format!("expected end marker, found {line:?}")));
    }
    if digest != expected {
        return Err(persist_err(
            digest_no,
            "digest does not match the lines before it (the document was corrupted or \
             hand-edited)"
                .into(),
        ));
    }
    Ok(CampaignReport::from_parts(start, cells))
}

/// The one row decoder: a [`report_to_string`] cell line back to its
/// outcome. The column count is exact, so a torn line never decodes.
fn parse_cell_line(no: usize, line: &str) -> Result<CellOutcome, SimError> {
    let columns: Vec<&str> = line.split(',').collect();
    // The CAMPAIGN_CSV_HEADER columns, then the identity suffix.
    let [
        weather, seed, buffer_mf, governor, supply_model, survived,
        lifetime_seconds, vc_stability, instructions_billions, renders_per_minute,
        energy_in_joules, energy_out_joules, transitions, final_vc,
        idle_time_seconds, idle_entries, thermal, arrival, fault, peak_temp_c,
        throttle_time_seconds, boost_time_seconds, faults_injected,
        v_width, v_q, alpha, beta, duration, idle,
    ] = columns[..]
    else {
        return Err(persist_err(
            no,
            format!("cell line wants {CELL_COLUMNS} columns, found {}", columns.len()),
        ));
    };
    let params = ControlParams::new(
        Volts::new(parse_token(no, v_width)?),
        Volts::new(parse_token(no, v_q)?),
        parse_token(no, alpha)?,
        parse_token(no, beta)?,
    )
    .map_err(|e| persist_err(no, format!("invalid control parameters: {e}")))?;
    Ok(CellOutcome {
        cell: CampaignCell {
            weather: parse_slug(no, weather, "weather", Weather::from_slug)?,
            seed: parse_token(no, seed)?,
            thermal: parse_slug(no, thermal, "thermal spec", ThermalSpec::from_slug)?,
            arrival: parse_slug(no, arrival, "arrival spec", ArrivalSpec::from_slug)?,
            fault: parse_slug(no, fault, "fault spec", FaultSpec::from_slug)?,
            buffer_mf: parse_token(no, buffer_mf)?,
            governor: parse_slug(no, governor, "governor", GovernorSpec::from_slug)?,
            params,
            duration: Seconds::new(parse_token(no, duration)?),
            supply_model: parse_slug(no, supply_model, "supply model", SupplyModel::from_slug)?,
            idle: parse_idle(no, idle)?,
        },
        survived: match survived {
            "1" => true,
            "0" => false,
            other => return Err(persist_err(no, format!("bad survived flag {other:?}"))),
        },
        lifetime_seconds: parse_token(no, lifetime_seconds)?,
        vc_stability: parse_token(no, vc_stability)?,
        instructions_billions: parse_token(no, instructions_billions)?,
        renders_per_minute: parse_token(no, renders_per_minute)?,
        energy_in_joules: parse_token(no, energy_in_joules)?,
        energy_out_joules: parse_token(no, energy_out_joules)?,
        transitions: parse_token(no, transitions)?,
        final_vc: parse_token(no, final_vc)?,
        idle_time_seconds: parse_token(no, idle_time_seconds)?,
        idle_entries: parse_token(no, idle_entries)?,
        peak_temp_c: parse_token(no, peak_temp_c)?,
        throttle_time_seconds: parse_token(no, throttle_time_seconds)?,
        boost_time_seconds: parse_token(no, boost_time_seconds)?,
        faults_injected: parse_token(no, faults_injected)?,
    })
}

/// Folds `bytes` into the FNV-1a 64 state `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Number of wire tokens in the spec's options section.
const OPTION_TOKENS: usize = 2;

/// The wire token of an idle flag.
fn idle_token(idle: bool) -> &'static str {
    if idle {
        "on"
    } else {
        "off"
    }
}

fn parse_idle(no: usize, token: &str) -> Result<bool, SimError> {
    match token {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(persist_err(no, format!("unknown idle flag {other:?}"))),
    }
}

/// The two wire tokens of an options section: `<supply-model-slug>
/// <on|off>`.
fn options_fields(supply_model: SupplyModel, idle: bool) -> String {
    format!("{} {}", supply_model.slug(), idle_token(idle))
}

/// Parses the spec's `options` line into its supply model and idle
/// flag. The token count is exact — a mismatch is a torn or tampered
/// line.
fn parse_options(no: usize, tokens: &[&str]) -> Result<(SupplyModel, bool), SimError> {
    let [model, idle] = *tokens else {
        return Err(persist_err(
            no,
            format!("options section wants {OPTION_TOKENS} tokens, found {}", tokens.len()),
        ));
    };
    Ok((parse_slug(no, model, "supply model", SupplyModel::from_slug)?, parse_idle(no, idle)?))
}

/// Header row of the campaign CSV document. Pinned: golden-file tests
/// and downstream plots depend on these column names and their order.
pub const CAMPAIGN_CSV_HEADER: &str = "weather,seed,buffer_mf,governor,supply_model,survived,\
lifetime_s,vc_stability,instructions_g,renders_per_min,energy_in_j,energy_out_j,transitions,\
final_vc,idle_time_s,idle_entries,thermal,arrival,fault,peak_temp_c,throttle_time_s,\
boost_time_s,faults_injected";

/// Header row of the summary-only CSV document. Pinned: golden-file
/// tests and downstream plots depend on these column names and their
/// order.
pub const SUMMARY_CSV_HEADER: &str = "group,label,cells,brownouts,vc_stability_mean,\
vc_stability_min,vc_stability_max,instructions_g,energy_utilisation_mean";

/// Formats one cell as a campaign CSV row under [`CAMPAIGN_CSV_HEADER`],
/// without the trailing newline.
///
/// Axis columns use the stable machine slugs ([`Weather::slug`],
/// [`GovernorSpec::slug`], the effective [`SupplyModel::slug`], ...),
/// `survived` is `1`/`0`, and floats use Rust's shortest-round-trip
/// formatting, so the row is deterministic across build profiles and
/// parses back to the exact values. This is the only row encoder: the
/// batch document ([`report_csv_string`]) and the daemon's watch
/// stream both emit through it, so a document reassembled from
/// streamed rows is byte-identical to the batch-written one.
pub fn csv_row(c: &CellOutcome) -> String {
    let cell = &c.cell;
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        cell.weather.slug(),
        cell.seed,
        cell.buffer_mf,
        cell.governor.slug(),
        cell.supply_model.slug(),
        u8::from(c.survived),
        c.lifetime_seconds,
        c.vc_stability,
        c.instructions_billions,
        c.renders_per_minute,
        c.energy_in_joules,
        c.energy_out_joules,
        c.transitions,
        c.final_vc,
        c.idle_time_seconds,
        c.idle_entries,
        cell.thermal.slug(),
        cell.arrival.slug(),
        cell.fault.slug(),
        c.peak_temp_c,
        c.throttle_time_seconds,
        c.boost_time_seconds,
        c.faults_injected,
    )
}

/// The report's campaign CSV document: [`CAMPAIGN_CSV_HEADER`] plus one
/// [`csv_row`] per cell, in matrix order. An empty report exports a
/// header-only document.
///
/// # Errors
///
/// None today; the `Result` keeps the export's call sites uniform
/// with the other persistence entry points.
pub fn report_csv_string(report: &CampaignReport) -> Result<String, SimError> {
    let mut out = format!("{CAMPAIGN_CSV_HEADER}\n");
    for c in report.cells() {
        out.push_str(&csv_row(c));
        out.push('\n');
    }
    Ok(out)
}

/// The report's summary-only CSV document: [`SUMMARY_CSV_HEADER`] plus
/// one row per [`GroupSummary`](crate::campaign::GroupSummary), weather
/// groups first, each axis in first-seen order. Empty aggregates export
/// as 0; floats use shortest-round-trip formatting.
///
/// # Errors
///
/// None today; see [`report_csv_string`].
pub fn report_summary_csv_string(report: &CampaignReport) -> Result<String, SimError> {
    let mut out = format!("{SUMMARY_CSV_HEADER}\n");
    for (group, summaries) in [("weather", report.by_weather()), ("governor", report.by_governor())]
    {
        for g in summaries {
            let _ = writeln!(
                out,
                "{group},{},{},{},{},{},{},{},{}",
                g.label,
                g.cells,
                g.brownouts,
                g.vc_stability.mean().unwrap_or(0.0),
                g.vc_stability.min().unwrap_or(0.0),
                g.vc_stability.max().unwrap_or(0.0),
                g.instructions_billions.sum(),
                g.energy_utilisation.mean().unwrap_or(0.0),
            );
        }
    }
    Ok(out)
}

fn persist_err(line: usize, why: String) -> SimError {
    SimError::Persist(format!("line {line}: {why}"))
}

fn join_display<T: std::fmt::Display>(items: &[T]) -> String {
    items.iter().map(T::to_string).collect::<Vec<_>>().join(" ")
}

fn parse_token<T: std::str::FromStr>(no: usize, token: &str) -> Result<T, SimError> {
    token.parse().map_err(|_| persist_err(no, format!("undecodable token {token:?}")))
}

fn parse_list<T: std::str::FromStr>(no: usize, rest: &str) -> Result<Vec<T>, SimError> {
    rest.split_whitespace().map(|t| parse_token(no, t)).collect()
}

/// Parses one machine slug, naming the kind and the offending token
/// on failure.
fn parse_slug<T>(
    no: usize,
    token: &str,
    what: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, SimError> {
    parse(token).ok_or_else(|| persist_err(no, format!("unknown {what} {token:?}")))
}

/// Parses a whitespace-separated list of machine slugs (weather-style
/// axis lines).
fn parse_slug_list<T>(
    no: usize,
    rest: &str,
    what: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, SimError> {
    rest.split_whitespace().map(|s| parse_slug(no, s, what, &parse)).collect()
}

fn parse_array<const N: usize>(no: usize, rest: &str) -> Result<[f64; N], SimError> {
    let values: Vec<f64> = parse_list(no, rest)?;
    values
        .try_into()
        .map_err(|v: Vec<f64>| persist_err(no, format!("expected {N} values, found {}", v.len())))
}

fn parse_keyed<T: std::str::FromStr>(no: usize, line: &str, key: &str) -> Result<T, SimError> {
    let value = line
        .strip_prefix(key)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| persist_err(no, format!("expected {key:?} line, found {line:?}")))?;
    parse_token(no, value.trim())
}

/// Line cursor that skips blanks and `#` comments, tracks 1-based
/// line numbers for error messages, and folds every line it yields
/// (trimmed, newline-terminated) into an FNV-1a 64 digest.
struct Lines<'a> {
    iter: std::iter::Enumerate<std::str::Lines<'a>>,
    /// Digest of the lines yielded so far.
    digest: u64,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Self { iter: text.lines().enumerate(), digest: FNV_OFFSET }
    }

    fn next_line(&mut self) -> Result<(usize, &'a str), SimError> {
        for (i, raw) in self.iter.by_ref() {
            let line = raw.trim();
            if !line.is_empty() && !line.starts_with('#') {
                self.digest = fnv1a(fnv1a(self.digest, line.as_bytes()), b"\n");
                return Ok((i + 1, line));
            }
        }
        Err(SimError::Persist("unexpected end of document".into()))
    }

    /// Accepts exactly the `current` header.
    fn expect_header(&mut self, current: &str) -> Result<(), SimError> {
        let (no, line) = self.next_line()?;
        if line == current {
            return Ok(());
        }
        // Distinguish version skew (right document type, wrong
        // version) from a wrong document altogether.
        let stem = current.rsplit_once(" v").map_or(current, |(stem, _)| stem);
        if let Some(version) = line.strip_prefix(stem).and_then(|r| r.strip_prefix(" v")) {
            return Err(persist_err(
                no,
                format!("unsupported {stem} version {version:?}; this build reads {current:?}"),
            ));
        }
        Err(persist_err(no, format!("expected {current:?}, found {line:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> CampaignReport {
        let spec = CampaignSpec::smoke().with_seeds(vec![1, 2]);
        let cells: Vec<CellOutcome> = spec
            .cells()
            .iter()
            .enumerate()
            .map(|(i, &cell)| CellOutcome {
                cell,
                survived: i % 3 != 0,
                // Deliberately awkward values: exact decimals are the
                // easy case, these exercise shortest-round-trip output.
                lifetime_seconds: 29.999999999999996 + i as f64,
                vc_stability: 1.0 / 3.0 + i as f64 * 1e-17,
                instructions_billions: i as f64 * 0.1,
                renders_per_minute: f64::from_bits(0x3FF5_5555_5555_5555 + i as u64),
                energy_in_joules: 12.5,
                energy_out_joules: 6.25,
                transitions: 41 + i as u64,
                final_vc: 5.3,
                idle_time_seconds: i as f64 * (1.0 / 3.0),
                idle_entries: i as u64 % 5,
                peak_temp_c: 25.0 + i as f64 * (1.0 / 7.0),
                throttle_time_seconds: i as f64 * 0.25,
                boost_time_seconds: (i % 3) as f64 * (1.0 / 3.0),
                faults_injected: i as u64 % 4,
            })
            .collect();
        CampaignReport::from_parts(0, cells)
    }

    #[test]
    fn report_round_trips_bitwise() {
        let report = sample_report();
        let wire = report_to_string(&report);
        let decoded = report_from_str(&wire).unwrap();
        assert_eq!(decoded, report);
        // Encode–decode–encode is the identity on the document too.
        assert_eq!(report_to_string(&decoded), wire);
    }

    #[test]
    fn shard_report_round_trips_with_its_offset() {
        let full = sample_report();
        let tail = CampaignReport::from_parts(5, full.cells()[5..].to_vec());
        let decoded = report_from_str(&report_to_string(&tail)).unwrap();
        assert_eq!(decoded.start(), 5);
        assert_eq!(decoded, tail);
    }

    #[test]
    fn spec_round_trips() {
        let spec = CampaignSpec::diverse()
            .with_seeds(vec![1, 9, 1u64 << 60])
            .with_governors(vec![
                GovernorSpec::PowerNeutral,
                GovernorSpec::Userspace(3),
                GovernorSpec::Hold(pn_soc::opp::Opp::lowest()),
            ])
            .with_params(vec![
                ControlParams::paper_optimal().unwrap(),
                ControlParams::fig6_simulation().unwrap(),
            ]);
        let decoded = spec_from_str(&spec_to_string(&spec)).unwrap();
        assert_eq!(decoded, spec);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let wire = report_to_string(&sample_report());
        let annotated = format!("# produced by a test\n\n{}", wire.replace("start", "\n# offset\nstart"));
        assert_eq!(report_from_str(&annotated).unwrap(), sample_report());
    }

    #[test]
    fn malformed_documents_are_rejected_with_line_numbers() {
        let cases = [
            ("", "unexpected end"),
            ("pn-campaign-spec v7\nend\n", "expected \"pn-campaign-report v9\""),
            ("pn-campaign-report v9\nstart 0\ncells 1\nend\n", "wants 29 columns, found 1"),
            ("pn-campaign-report v9\nstart 0\ncells 0\nend\n", "expected digest line"),
            ("pn-campaign-report v9\nstart 0\ncells 0\ndigest 0\nEND\n", "end marker"),
            ("pn-campaign-report v9\nstart 0\ncells 0\ndigest 0\nend\n", "line 4: digest"),
            ("pn-campaign-report v9\nstart zero\ncells 0\nend\n", "undecodable token"),
        ];
        for (doc, needle) in cases {
            let err = report_from_str(doc).unwrap_err();
            assert!(matches!(err, SimError::Persist(_)), "{doc:?} → {err}");
            let err = err.to_string();
            assert!(err.contains(needle), "{doc:?} → {err}");
        }
        let mut wire = report_to_string(&sample_report());
        wire = wire.replacen("full-sun", "full-moon", 1);
        let err = report_from_str(&wire).unwrap_err().to_string();
        assert!(err.contains("unknown weather"), "{err}");
        assert!(err.contains("line 4"), "line number missing: {err}");
    }

    #[test]
    fn truncated_documents_are_rejected_not_panicked() {
        // Cutting the document anywhere before the end marker must
        // yield SimError::Persist, never a panic or a silently short
        // report. (Only the final newline itself is optional.)
        let wire = report_to_string(&sample_report());
        for cut in 1..wire.len() - 1 {
            match report_from_str(&wire[..cut]) {
                Err(SimError::Persist(_)) => {}
                Ok(_) => panic!("truncation at byte {cut} decoded successfully"),
                Err(other) => panic!("truncation at byte {cut} → unexpected error {other}"),
            }
        }
    }

    #[test]
    fn torn_final_lines_without_a_newline_are_rejected() {
        // A document may legitimately lack its trailing newline...
        let wire = report_to_string(&sample_report());
        let trimmed = wire.trim_end_matches('\n');
        assert_eq!(report_from_str(trimmed).unwrap(), sample_report());
        // ...but a final cell line torn mid-write (a crash during
        // append: no newline, trailing bytes missing) must come back
        // as SimError::Persist pointing at that line: the column count
        // is exact and the last column is `on` or `off`, so no prefix
        // decodes.
        let lines: Vec<&str> = wire.lines().collect();
        let last = lines.iter().rposition(|l| l.contains(',')).unwrap();
        let head = lines[..last].join("\n");
        let cell_line = lines[last];
        for keep in 1..cell_line.len() {
            let doc = format!("{head}\n{}", &cell_line[..keep]);
            let err = report_from_str(&doc).unwrap_err();
            assert!(matches!(err, SimError::Persist(_)), "torn at byte {keep}: {err}");
            assert!(
                err.to_string().contains(&format!("line {}:", last + 1)),
                "tear at byte {keep} was not caught on the cell line: {err}"
            );
        }
        // A spec whose final options line lost its last token without
        // a newline is rejected too.
        let spec_doc = spec_to_string(&CampaignSpec::smoke());
        let torn = spec_doc.trim_end_matches("end\n").trim_end();
        let torn = torn.rsplit_once(' ').unwrap().0;
        let err = spec_from_str(torn).unwrap_err();
        assert!(err.to_string().contains("options section wants 2 tokens"), "{err}");
    }

    #[test]
    fn version_skew_is_reported_as_a_persist_error() {
        // Both newer and older versions are rejected — earlier dialects
        // (report v8 still carried space-separated cell lines and
        // summary sections) are not decoded.
        let wire = report_to_string(&sample_report());
        for version in ["v10", "v8", "v1"] {
            let header = format!("pn-campaign-report {version}");
            let skewed = wire.replacen(REPORT_HEADER, &header, 1);
            let err = report_from_str(&skewed).unwrap_err();
            assert!(matches!(err, SimError::Persist(_)), "{err}");
            let msg = err.to_string();
            assert!(msg.contains("unsupported"), "{msg}");
            assert!(msg.contains("v9"), "message {msg:?} does not name the supported version");
        }
        // Specs skew independently.
        let spec_doc = spec_to_string(&CampaignSpec::smoke());
        for version in ["v8", "v6", "v1"] {
            let header = format!("pn-campaign-spec {version}");
            let skewed = spec_doc.replacen(SPEC_HEADER, &header, 1);
            let err = spec_from_str(&skewed).unwrap_err();
            assert!(matches!(err, SimError::Persist(_)), "{err}");
            let msg = err.to_string();
            assert!(msg.contains("unsupported"), "{msg}");
            assert!(msg.contains("v7"), "message {msg:?} does not name the supported version");
        }
    }

    #[test]
    fn any_changed_digit_of_a_cell_line_is_rejected() {
        // Most digit edits still decode column by column (another seed,
        // another float); the digest rejects every one of them.
        let wire = report_to_string(&sample_report());
        let mut offset = 0;
        let mut edits = 0;
        for line in wire.split_inclusive('\n') {
            if line.contains(',') {
                for (i, b) in line.bytes().enumerate().filter(|(_, b)| b.is_ascii_digit()) {
                    let mut bytes = wire.clone().into_bytes();
                    bytes[offset + i] = b'0' + (b - b'0' + 1) % 10;
                    let doc = String::from_utf8(bytes).unwrap();
                    match report_from_str(&doc) {
                        Err(SimError::Persist(_)) => edits += 1,
                        other => panic!("digit {i} of {line:?} edited → {other:?}"),
                    }
                }
            }
            offset += line.len();
        }
        assert!(edits > 500, "only {edits} digits edited");
    }

    #[test]
    fn a_huge_cell_count_is_an_error_not_an_allocation() {
        // The count is the document's claim; decoding must fail on the
        // missing lines instead of reserving for them.
        for count in [usize::MAX, 100_000_000_000] {
            let doc = format!("{REPORT_HEADER}\nstart 0\ncells {count}\nend\n");
            let err = report_from_str(&doc).unwrap_err();
            assert!(matches!(err, SimError::Persist(_)), "cells {count} → {err}");
        }
    }

    #[test]
    fn a_start_that_overflows_the_matrix_index_is_rejected() {
        let cell = sample_report().cells()[0];
        let wire = report_to_string(&CampaignReport::from_parts(usize::MAX, vec![cell]));
        let err = report_from_str(&wire).unwrap_err();
        assert!(matches!(err, SimError::Persist(_)), "{err}");
        assert!(err.to_string().contains("line 3: 1 cells from index"), "{err}");
        // The last index itself is a legal offset for an empty shard.
        let empty = CampaignReport::from_parts(usize::MAX, Vec::new());
        assert_eq!(report_from_str(&report_to_string(&empty)).unwrap(), empty);
    }

    #[test]
    fn per_cell_options_round_trip_bitwise() {
        let model = SupplyModel::Interpolated { tol: 1.0 / 3.0 }; // awkward float
        let spec = CampaignSpec::smoke().with_supply_model(model).with_idle(false);
        assert_eq!(spec_from_str(&spec_to_string(&spec)).unwrap(), spec);
        let cells: Vec<CellOutcome> = spec
            .cells()
            .iter()
            .map(|&cell| CellOutcome {
                cell,
                survived: true,
                lifetime_seconds: 30.0,
                vc_stability: 0.5,
                instructions_billions: 1.0,
                renders_per_minute: 2.0,
                energy_in_joules: 3.0,
                energy_out_joules: 1.5,
                transitions: 4,
                final_vc: 5.3,
                idle_time_seconds: 0.125,
                idle_entries: 3,
                peak_temp_c: 0.0,
                throttle_time_seconds: 0.0,
                boost_time_seconds: 0.0,
                faults_injected: 0,
            })
            .collect();
        let report = CampaignReport::from_parts(0, cells);
        let decoded = report_from_str(&report_to_string(&report)).unwrap();
        assert_eq!(decoded, report);
        let cell = decoded.cells()[0].cell;
        assert_eq!(cell.supply_model, model, "options floats must survive the trip bitwise");
        assert!(!cell.idle);
        assert_eq!(decoded.cells()[0].idle_entries, 3);
        // The CSV exports the supply model slug.
        let slug = model.slug();
        assert!(report.cells().iter().all(|c| csv_row(c).split(',').nth(4) == Some(slug.as_str())));
    }

    #[test]
    fn stress_axes_round_trip_bitwise() {
        let spec = CampaignSpec::smoke()
            .with_thermals(vec![ThermalSpec::Off, ThermalSpec::stress()])
            .with_arrivals(vec![ArrivalSpec::Saturated, ArrivalSpec::bursty_stress()])
            .with_faults(vec![
                FaultSpec::None,
                FaultSpec::shading_stress(),
                FaultSpec::brownout_stress(),
            ]);
        let decoded = spec_from_str(&spec_to_string(&spec)).unwrap();
        assert_eq!(decoded, spec);
        // Awkward-float axis parameters survive the slug trip bitwise.
        let odd = FaultSpec::Brownout { rate_hz: 1.0 / 3.0, len_s: 0.1 + 0.2, depth: 0.95 };
        let spec = spec.with_faults(vec![odd]);
        let decoded = spec_from_str(&spec_to_string(&spec)).unwrap();
        assert_eq!(decoded.faults, vec![odd]);
        // Cells carry their axes through a report round trip, stress
        // metrics and all.
        let cells: Vec<CellOutcome> = spec
            .cells()
            .iter()
            .enumerate()
            .map(|(i, &cell)| CellOutcome {
                cell,
                survived: true,
                lifetime_seconds: 30.0,
                vc_stability: 0.5,
                instructions_billions: 1.0,
                renders_per_minute: 2.0,
                energy_in_joules: 3.0,
                energy_out_joules: 1.5,
                transitions: 4,
                final_vc: 5.3,
                idle_time_seconds: 0.0,
                idle_entries: 0,
                peak_temp_c: 61.0 + i as f64 * (1.0 / 7.0),
                throttle_time_seconds: i as f64 * (1.0 / 3.0),
                boost_time_seconds: 0.1 + 0.2,
                faults_injected: 2 + i as u64,
            })
            .collect();
        let report = CampaignReport::from_parts(0, cells);
        let wire = report_to_string(&report);
        let decoded = report_from_str(&wire).unwrap();
        assert_eq!(decoded, report);
        assert_eq!(report_to_string(&decoded), wire);
        // The CSV exports the axis slugs and stress metrics.
        let rows: Vec<Vec<String>> = decoded
            .cells()
            .iter()
            .map(|c| csv_row(c).split(',').map(str::to_string).collect())
            .collect();
        assert!(rows.iter().all(|r| r[18].starts_with("brownout:")));
        assert!(rows.iter().any(|r| r[16] != "off"));
        assert!(rows.iter().any(|r| r[17].starts_with("bursty:")));
        assert_eq!(rows[0][19].parse::<f64>().unwrap().to_bits(), 61.0f64.to_bits());
        assert_eq!(rows[0][21].parse::<f64>().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
    }

    #[test]
    fn corrupted_identity_columns_are_rejected() {
        let spec =
            CampaignSpec::smoke().with_supply_model(SupplyModel::Interpolated { tol: 1e-3 });
        let cells: Vec<CellOutcome> = spec
            .cells()
            .iter()
            .map(|&cell| CellOutcome {
                cell,
                survived: true,
                lifetime_seconds: 30.0,
                vc_stability: 0.5,
                instructions_billions: 1.0,
                renders_per_minute: 2.0,
                energy_in_joules: 3.0,
                energy_out_joules: 1.5,
                transitions: 4,
                final_vc: 5.3,
                idle_time_seconds: 0.0,
                idle_entries: 0,
                peak_temp_c: 0.0,
                throttle_time_seconds: 0.0,
                boost_time_seconds: 0.0,
                faults_injected: 0,
            })
            .collect();
        let wire = report_to_string(&CampaignReport::from_parts(0, cells));
        let cases = [
            ("interp:0.001", "interp:fast", "unknown supply model"),
            (",on\n", ",maybe\n", "unknown idle flag"),
            (",off,saturated,none,", ",lava,saturated,none,", "unknown thermal spec"),
            (",off,saturated,none,", ",off,sporadic,none,", "unknown arrival spec"),
            (",off,saturated,none,", ",off,saturated,blackout,", "unknown fault spec"),
            (",power-neutral,", ",turbo,", "unknown governor"),
            // A line that lost its idle column, or gained one.
            (",on\n", "\n", "wants 29 columns, found 28"),
            (",on\n", ",on,on\n", "wants 29 columns, found 30"),
            // Space-separated columns are not the CSV dialect.
            (",1,", ", 1,", "undecodable token"),
        ];
        for (needle, replacement, expected) in cases {
            let bad = wire.replacen(needle, replacement, 1);
            assert_ne!(bad, wire, "tamper target {needle:?} not found");
            let err = report_from_str(&bad).unwrap_err();
            assert!(matches!(err, SimError::Persist(_)), "{err}");
            assert!(err.to_string().contains(expected), "{replacement:?} → {err}");
            assert!(err.to_string().contains("line 4:"), "{replacement:?} → {err}");
        }
        // Spec options lines are validated the same way.
        let spec_doc = spec_to_string(&spec);
        let bad = spec_doc.replacen("options interp:0.001 on", "options interp:0.001", 1);
        assert_ne!(bad, spec_doc);
        let err = spec_from_str(&bad).unwrap_err();
        assert!(err.to_string().contains("options section wants 2 tokens"), "{err}");
    }

    #[test]
    fn summary_csv_has_one_row_per_group() {
        let report = sample_report();
        let csv = report_summary_csv_string(&report).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        let expected = report.by_weather().len() + report.by_governor().len();
        assert_eq!(lines.len(), expected + 1);
        assert_eq!(lines[0], SUMMARY_CSV_HEADER);
        assert!(lines[1].starts_with("weather,"));
        assert!(lines.last().unwrap().starts_with("governor,"));
        // Rows mirror the in-memory aggregates bitwise.
        let weather = report.by_weather();
        let fields: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(fields.len(), SUMMARY_CSV_HEADER.split(',').count());
        assert_eq!(fields[1], weather[0].label);
        assert_eq!(fields[2], weather[0].cells.to_string());
        assert_eq!(
            fields[4].parse::<f64>().unwrap().to_bits(),
            weather[0].vc_stability.mean().unwrap().to_bits()
        );
        // A mean of exactly 1/3 (stabilities 0, 1, 0) survives the trip
        // bitwise, under the display label.
        let spec = CampaignSpec::smoke()
            .with_weathers(vec![Weather::PartialSun])
            .with_governors(vec![GovernorSpec::PowerNeutral])
            .with_seeds(vec![1, 2, 3]);
        let base = report.cells()[0];
        let thirds = CampaignReport::from_parts(
            0,
            spec.cells()
                .iter()
                .enumerate()
                .map(|(i, &cell)| CellOutcome {
                    cell,
                    survived: true,
                    vc_stability: if i == 1 { 1.0 } else { 0.0 },
                    ..base
                })
                .collect(),
        );
        let csv = report_summary_csv_string(&thirds).unwrap();
        let fields: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(&fields[..4], ["weather", "partial sun", "3", "0"]);
        assert_eq!(fields[4].parse::<f64>().unwrap().to_bits(), (1.0f64 / 3.0).to_bits());
    }

    #[test]
    fn csv_has_one_row_per_cell_and_a_stable_header() {
        let report = sample_report();
        let csv = report_csv_string(&report).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), report.len() + 1);
        assert_eq!(lines[0], CAMPAIGN_CSV_HEADER);
        assert!(lines[1].starts_with("full-sun,1,47,power-neutral,"));
        // The header and every row have the same 23 columns.
        assert!(lines.iter().all(|l| l.split(',').count() == 23), "{csv}");
        for (line, c) in lines[1..].iter().zip(report.cells()) {
            assert_eq!(*line, csv_row(c), "the document is the row encoder's output");
            let fields: Vec<&str> = line.split(',').collect();
            // Governor column uses the lossless slug, not the display label.
            assert!(GovernorSpec::from_slug(fields[3]).is_some());
            assert_eq!(fields[5], if c.survived { "1" } else { "0" });
        }
        // Every column of a cell whose fields all differ, in pinned
        // order: swapping any two columns breaks this row.
        let spec = CampaignSpec::smoke()
            .with_weathers(vec![Weather::PartialSun])
            .with_seeds(vec![7])
            .with_thermals(vec![ThermalSpec::stress()])
            .with_arrivals(vec![ArrivalSpec::bursty_stress()])
            .with_faults(vec![FaultSpec::brownout_stress()])
            .with_supply_model(SupplyModel::Interpolated { tol: 1e-3 });
        let outcome = CellOutcome {
            cell: spec.cells()[0],
            survived: true,
            lifetime_seconds: 0.1 + 0.2, // 0.30000000000000004: must survive the trip
            vc_stability: 0.925,
            instructions_billions: 1.5,
            renders_per_minute: 12.0,
            energy_in_joules: 30.25,
            energy_out_joules: 15.125,
            transitions: 9,
            final_vc: 5.3,
            idle_time_seconds: 1.75,
            idle_entries: 6,
            peak_temp_c: 76.5,
            throttle_time_seconds: 12.25,
            boost_time_seconds: 3.5,
            faults_injected: 4,
        };
        let row = csv_row(&outcome);
        assert_eq!(
            row,
            "partial-sun,7,47,power-neutral,interp:0.001,1,0.30000000000000004,0.925,1.5,12,\
             30.25,15.125,9,5.3,1.75,6,rc:25:8:5:75:70:2:boost:1.35:1.2:10:45:55,\
             bursty:0.08:8:0.2,brownout:0.004:20:0.95,76.5,12.25,3.5,4"
        );
        let fields: Vec<&str> = row.split(',').collect();
        assert_eq!(fields.len(), 23);
        assert_eq!(fields[4], "interp:0.001", "supply model rides along");
        assert_eq!(fields[5], "1", "survived encodes as 1/0");
        // Shortest-round-trip float formatting parses back bitwise.
        assert_eq!(fields[6].parse::<f64>().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        let died = csv_row(&CellOutcome { survived: false, ..outcome });
        assert_eq!(died.split(',').nth(5), Some("0"));
    }

    #[test]
    fn write_atomic_round_trips_overwrites_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("pn-write-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.pnc");
        write_atomic(&path, "first\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first\n");
        // Overwrite replaces the whole artifact in one step.
        write_atomic(&path, "second, longer contents\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second, longer contents\n");
        // No temp-file droppings survive a successful write.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stale temp files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_rejects_a_directory_target() {
        let dir = std::env::temp_dir().join(format!("pn-write-atomic-dir-{}", std::process::id()));
        let target = dir.join("occupied");
        std::fs::create_dir_all(&target).unwrap();
        // Renaming over an existing directory fails; the temp file must
        // not survive the failure.
        let err = write_atomic(&target, "x").unwrap_err();
        assert!(matches!(err, SimError::Persist(_)), "got {err}");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stale temp files: {leftovers:?}");
        // A missing parent directory fails cleanly too (no panic, no
        // partial artifact).
        let missing = dir.join("no-such-dir").join("a.pnc");
        assert!(write_atomic(&missing, "x").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
