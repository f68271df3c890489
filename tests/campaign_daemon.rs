//! End-to-end contracts of the campaign daemon: streamed rows are
//! byte-identical to a one-shot run's CSV for any number of concurrent
//! watchers, a killed daemon restarted on the same checkpoint
//! directory finishes byte-identically (including after a torn or
//! stale checkpoint), and a failing job is contained without taking
//! the daemon down.

use power_neutral::sim::campaign::{run_campaign, CampaignSpec};
use power_neutral::sim::daemon::{self, Daemon, DaemonConfig, RetryPolicy};
use power_neutral::sim::executor::Executor;
use power_neutral::sim::persist;
use power_neutral::units::Seconds;
use std::path::PathBuf;

/// A fresh per-test checkpoint directory under the system temp dir.
fn checkpoint_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pn-campaignd-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The test matrix: small enough to finish fast, big enough to spread
/// over several shards (2 weathers × 2 seeds × 1 buffer × 2 governors).
fn spec() -> CampaignSpec {
    CampaignSpec::smoke().with_seeds(vec![1, 2]).with_duration(Seconds::new(2.0))
}

fn oneshot_csv(spec: &CampaignSpec) -> String {
    let report = run_campaign(spec, &Executor::new(2)).expect("one-shot run");
    persist::report_csv_string(&report).expect("csv")
}

#[test]
fn concurrent_watchers_stream_the_one_shot_csv_byte_identically() {
    let dir = checkpoint_dir("watch");
    let daemon = Daemon::start(DaemonConfig::new(&dir).with_workers(2)).expect("start");
    let addr = daemon.addr().to_string();

    let spec = spec();
    let ticket = daemon::submit(&addr, &spec, 0).expect("submit");
    assert_eq!(ticket.cells, spec.cell_count());
    assert_eq!(ticket.shards, spec.cell_count(), "shards 0 → one shard per cell");

    // Two clients watch the same job concurrently; each assembles the
    // full document independently from the streamed rows.
    let csvs: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || daemon::watch_csv(&addr, ticket.id).expect("watch"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("watcher thread")).collect()
    });
    let expected = oneshot_csv(&spec);
    assert_eq!(csvs[0], expected, "watcher 0 diverged from the one-shot CSV");
    assert_eq!(csvs[1], expected, "watcher 1 diverged from the one-shot CSV");

    // The merged on-disk report equals the one-shot report bitwise.
    let report = run_campaign(&spec, &Executor::new(2)).expect("one-shot run");
    let on_disk = std::fs::read_to_string(dir.join("job-1").join("report.pnc")).expect("report");
    assert_eq!(on_disk, persist::report_to_string(&report));

    let status = daemon::status(&addr, ticket.id).expect("status");
    assert_eq!(status.state, "done");
    assert_eq!(status.done_cells, spec.cell_count());

    // Unknown jobs are a protocol error, not a hang.
    let err = daemon::watch_csv(&addr, 999).expect_err("unknown job");
    assert!(err.to_string().contains("unknown job"), "{err}");

    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restart_after_torn_and_missing_checkpoints_is_byte_exact() {
    let dir = checkpoint_dir("restart");
    let spec = spec();
    let expected = oneshot_csv(&spec);

    // First life: run the job to completion so every checkpoint exists.
    {
        let daemon = Daemon::start(DaemonConfig::new(&dir).with_workers(2)).expect("start");
        let addr = daemon.addr().to_string();
        let ticket = daemon::submit(&addr, &spec, 3).expect("submit");
        assert_eq!(ticket.shards, 3);
        assert_eq!(daemon::watch_csv(&addr, ticket.id).expect("watch"), expected);
        daemon.stop();
    }

    // Simulate the crash damage a pre-atomic writer could leave: one
    // checkpoint torn mid-file, one lost entirely, no merged report.
    // (write_atomic can no longer produce the torn file itself — this
    // pins that recovery still *detects* and repairs it.)
    let job_dir = dir.join("job-1");
    let shard0 = job_dir.join("shard-0.pnc");
    let intact = std::fs::read_to_string(&shard0).expect("shard 0");
    std::fs::write(&shard0, &intact[..intact.len() * 3 / 5]).expect("tear shard 0");
    std::fs::remove_file(job_dir.join("shard-1.pnc")).expect("drop shard 1");
    std::fs::remove_file(job_dir.join("report.pnc")).expect("drop merged report");

    // Second life: recovery discards the torn checkpoint, recomputes
    // the missing shards, and the stream + merged report come out
    // byte-identical to the uninterrupted run.
    let daemon = Daemon::start(DaemonConfig::new(&dir).with_workers(2)).expect("restart");
    let addr = daemon.addr().to_string();
    assert_eq!(daemon::watch_csv(&addr, 1).expect("watch recovered job"), expected);
    let rewritten = std::fs::read_to_string(&shard0).expect("rewritten shard 0");
    assert_eq!(rewritten, intact, "recomputed checkpoint diverged from the original");
    let report = run_campaign(&spec, &Executor::new(2)).expect("one-shot run");
    let on_disk = std::fs::read_to_string(job_dir.join("report.pnc")).expect("merged report");
    assert_eq!(on_disk, persist::report_to_string(&report));
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_checkpoints_from_an_edited_spec_are_recomputed_not_merged() {
    use power_neutral::sim::supply::SupplyModel;

    let dir = checkpoint_dir("edited");
    let spec = spec();
    {
        let daemon = Daemon::start(DaemonConfig::new(&dir).with_workers(2)).expect("start");
        let addr = daemon.addr().to_string();
        let ticket = daemon::submit(&addr, &spec, 2).expect("submit");
        daemon::watch_csv(&addr, ticket.id).expect("watch");
        daemon.stop();
    }

    // Edit the persisted spec (interpolated supply instead of the
    // default): the existing checkpoints still match by label, but
    // their options no longer match the spec, so recovery must discard
    // them and recompute under the edited spec — whose CSV names the
    // new model in every row.
    let edited = spec.with_supply_model(SupplyModel::interpolated());
    let job_dir = dir.join("job-1");
    std::fs::write(job_dir.join("spec.pnc"), persist::spec_to_string(&edited))
        .expect("edit spec");
    std::fs::remove_file(job_dir.join("report.pnc")).expect("drop merged report");

    let daemon = Daemon::start(DaemonConfig::new(&dir).with_workers(2)).expect("restart");
    let addr = daemon.addr().to_string();
    let streamed = daemon::watch_csv(&addr, 1).expect("watch recovered job");
    assert_eq!(streamed, oneshot_csv(&edited), "recovered job must follow the edited spec");
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_failing_job_is_contained_and_the_daemon_keeps_serving() {
    let dir = checkpoint_dir("contain");
    let daemon = Daemon::start(DaemonConfig::new(&dir).with_workers(1)).expect("start");
    let addr = daemon.addr().to_string();

    // A matrix whose cells are invalid (negative buffer capacitance):
    // the job fails with the engine's message, the daemon survives.
    let broken = spec().with_buffers_mf(vec![-1.0]);
    let ticket = daemon::submit(&addr, &broken, 1).expect("submit broken");
    let err = daemon::watch_csv(&addr, ticket.id).expect_err("job must fail");
    assert!(err.to_string().contains("failed"), "{err}");
    let status = daemon::status(&addr, ticket.id).expect("status");
    assert_eq!(status.state, "failed");

    // The daemon still schedules and completes fresh jobs.
    let good = spec();
    let ticket = daemon::submit(&addr, &good, 0).expect("submit good");
    assert_eq!(daemon::watch_csv(&addr, ticket.id).expect("watch"), oneshot_csv(&good));
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Robustness: deadlines, protocol noise, resumable watch
// ---------------------------------------------------------------------

use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

#[test]
fn a_stalled_client_is_disconnected_by_the_read_deadline() {
    let dir = checkpoint_dir("deadline");
    let daemon = Daemon::start(
        DaemonConfig::new(&dir)
            .with_workers(1)
            .with_deadlines(Duration::from_millis(200), Duration::from_millis(200)),
    )
    .expect("start");
    let addr = daemon.addr().to_string();

    // A client that connects and never sends a command: the handler's
    // read deadline trips and the daemon drops the connection instead
    // of pinning that handler thread forever. (Regression: handlers
    // used to read with no deadline at all.)
    let mut stalled = TcpStream::connect(&addr).expect("connect");
    stalled.set_read_timeout(Some(Duration::from_secs(10))).expect("client timeout");
    let mut sink = Vec::new();
    match stalled.read_to_end(&mut sink) {
        Ok(_) => {} // clean EOF from the daemon's disconnect
        Err(e) => {
            assert!(
                !matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
                "daemon never dropped the stalled connection: {e}"
            );
        }
    }

    // The daemon still schedules and serves after shedding the staller.
    let spec = spec();
    let ticket = daemon::submit(&addr, &spec, 2).expect("submit");
    assert_eq!(daemon::watch_csv(&addr, ticket.id).expect("watch"), oneshot_csv(&spec));
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Sends one raw line (or byte blob) and returns the daemon's reply
/// line, or `None` on a clean disconnect.
fn poke(addr: &str, payload: &[u8], half_close: bool) -> Option<String> {
    let mut out = TcpStream::connect(addr).expect("connect");
    out.set_read_timeout(Some(Duration::from_secs(10))).expect("client timeout");
    out.write_all(payload).expect("send");
    out.flush().expect("flush");
    if half_close {
        out.shutdown(std::net::Shutdown::Write).expect("half-close");
    }
    let mut reader = BufReader::new(out);
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(line),
        Err(_) => None, // reset mid-reply is a clean disconnect too
    }
}

#[test]
fn protocol_noise_gets_an_error_reply_or_a_clean_disconnect() {
    let dir = checkpoint_dir("noise");
    let daemon = Daemon::start(DaemonConfig::new(&dir).with_workers(1)).expect("start");
    let addr = daemon.addr().to_string();

    let corpus: &[&[u8]] = &[
        b"bogus\n",
        b"watch\n",
        b"watch x\n",
        b"watch 1 from\n",
        b"watch 1 from x\n",
        b"watch 1 from 1 2\n",
        b"submit\n",
        b"submit shards many\n",
        b"status\n",
        b"status 1 extra\n",
        b"shutdown now please\n",
        b"row 0 1.0,2.0\n",
        b"header cell\n",
        b"\n",
        b"\x00\xff\xfe garbage \x01\n",
    ];
    for payload in corpus {
        let reply = poke(&addr, payload, false);
        if let Some(line) = reply {
            assert!(
                line.starts_with("error "),
                "noise {payload:?} got a non-error reply: {line:?}"
            );
        }
    }

    // A truncated watch handshake — the command torn before its
    // newline, then the stream half-closed — must produce an error
    // reply or a clean disconnect, never a hang or a panic.
    for torn in [&b"watch"[..], b"watch 1 fr", b"wat", b"submit shards "] {
        let reply = poke(&addr, torn, true);
        if let Some(line) = reply {
            assert!(line.starts_with("error "), "torn {torn:?} got: {line:?}");
        }
    }

    // After the whole corpus the daemon still works end to end.
    let spec = spec();
    let ticket = daemon::submit(&addr, &spec, 0).expect("submit");
    assert_eq!(daemon::watch_csv(&addr, ticket.id).expect("watch"), oneshot_csv(&spec));
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    /// The pure protocol parser never panics and classifies every
    /// input: random byte soup either parses as a legal request or is
    /// rejected with a usage message.
    #[test]
    fn parse_request_is_total_over_noise(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = daemon::parse_request(&line);
    }

    /// Legal watch lines round-trip through the parser for any id and
    /// offset, including the extremes.
    #[test]
    fn parse_request_accepts_every_watch_offset(id in 0u64..u64::MAX, from in 0usize..usize::MAX) {
        prop_assert_eq!(
            daemon::parse_request(&format!("watch {id} from {from}")),
            Ok(daemon::Request::Watch { id, from })
        );
    }
}

#[test]
fn watch_from_resumes_the_stream_byte_identically() {
    let dir = checkpoint_dir("resume");
    let daemon = Daemon::start(DaemonConfig::new(&dir).with_workers(2)).expect("start");
    let addr = daemon.addr().to_string();
    let spec = spec();
    let ticket = daemon::submit(&addr, &spec, 0).expect("submit");

    // First connection: take the header and exactly three rows, then
    // drop mid-stream (the client crashed / the network reset).
    let taken = 3usize;
    let mut rows: Vec<(usize, String)> = Vec::new();
    {
        let out = TcpStream::connect(&addr).expect("connect");
        out.set_read_timeout(Some(Duration::from_secs(30))).expect("client timeout");
        let mut reader = BufReader::new(out.try_clone().expect("clone"));
        let mut out = out;
        writeln!(out, "watch {}", ticket.id).expect("send watch");
        out.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("header");
        assert!(line.starts_with("header "), "{line:?}");
        for _ in 0..taken {
            let mut line = String::new();
            reader.read_line(&mut line).expect("row");
            let rest = line.trim_end().strip_prefix("row ").expect("row line");
            let (index, row) = rest.split_once(' ').expect("row fields");
            rows.push((index.parse().expect("index"), row.to_string()));
        }
        // dropping the connection here abandons the stream at offset 3
    }

    // Second connection resumes at the stream offset: no row is
    // re-streamed, and the combined document is byte-identical to an
    // uninterrupted watch.
    let once = RetryPolicy::no_retry();
    let cells = daemon::watch_rows_with(&addr, ticket.id, taken, &once, &mut |index, row| {
        rows.push((index, row.to_string()));
    })
    .expect("resumed watch");
    assert_eq!(cells, spec.cell_count());
    let combined = daemon::rows_to_csv(cells, rows).expect("combined csv");
    assert_eq!(combined, oneshot_csv(&spec), "resumed stream diverged from the one-shot CSV");

    // Resuming exactly at the end yields the terminal line and nothing
    // else; resuming beyond the matrix is a typed protocol error.
    let end = spec.cell_count();
    let cells = daemon::watch_rows_with(&addr, ticket.id, end, &once, &mut |index, row| {
        panic!("no rows expected past the end, got {index}: {row}");
    })
    .expect("watch from the end");
    assert_eq!(cells, spec.cell_count());
    let err = daemon::watch_rows_with(&addr, ticket.id, end + 1, &once, &mut |_, _| {})
        .expect_err("offset beyond the matrix");
    assert!(err.to_string().contains("beyond"), "{err}");

    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}
