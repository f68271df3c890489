//! End-to-end contracts of the campaign daemon: streamed rows are
//! byte-identical to a one-shot run's CSV for any number of concurrent
//! watchers and concurrent submits, a killed daemon restarted on the
//! same checkpoint directory finishes byte-identically (including
//! after a torn or stale checkpoint, and for a retrying watcher that
//! spans the restart), and a failing job, an oversized request or an
//! oversized matrix is contained without taking the daemon down.

use power_neutral::sim::campaign::{run_campaign, CampaignSpec, GovernorSpec};
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

    // Edit the persisted request's spec (interpolated supply instead of
    // the default): the existing checkpoints still match by label, but
    // their options no longer match the spec, so recovery must discard
    // them and recompute under the edited spec — whose CSV names the
    // new model in every row.
    let edited = spec.with_supply_model(SupplyModel::interpolated());
    let job_dir = dir.join("job-1");
    let request = format!("submit shards 2\n{}", persist::spec_to_string(&edited));
    std::fs::write(job_dir.join("submit.pnc"), request).expect("edit spec");
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

    // Matrices whose cells are invalid (a negative buffer capacitance,
    // a window that never ends): each job fails with the engine's
    // message, and the daemon survives.
    for broken in [
        spec().with_buffers_mf(vec![-1.0]),
        spec().with_duration(Seconds::new(f64::INFINITY)),
    ] {
        let ticket = daemon::submit(&addr, &broken, 1).expect("submit broken");
        let err = daemon::watch_csv(&addr, ticket.id).expect_err("job must fail");
        assert!(err.to_string().contains("failed"), "{err}");
        let status = daemon::status(&addr, ticket.id).expect("status");
        assert_eq!(status.state, "failed");
    }

    // The daemon still schedules and completes fresh jobs.
    let good = spec();
    let ticket = daemon::submit(&addr, &good, 0).expect("submit good");
    assert_eq!(daemon::watch_csv(&addr, ticket.id).expect("watch"), oneshot_csv(&good));
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Robustness: deadlines, protocol noise, request cap, retrying watch
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

/// A one-connection stand-in for the daemon on a free loopback port:
/// it reads one command line, answers with `reply`, and closes.
fn scripted_daemon(reply: String) -> (String, std::thread::JoinHandle<String>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("bound address").to_string();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut command = String::new();
        BufReader::new(&mut stream).read_line(&mut command).expect("command line");
        stream.write_all(reply.as_bytes()).expect("reply");
        command
    });
    (addr, server)
}

#[test]
fn watch_and_status_refuse_a_reply_about_another_job() {
    let spec = spec();
    let csv = oneshot_csv(&spec);
    let mut stream = format!("header {}\n", persist::CAMPAIGN_CSV_HEADER);
    for (index, row) in csv.lines().skip(1).enumerate() {
        stream.push_str(&format!("row {index} {row}\n"));
    }
    stream.push_str(&format!("done 99 cells {}\n", spec.cell_count()));
    // Retries allowed: a typed refusal must still come after one
    // connection, since the stand-in answers only once.
    let policy = RetryPolicy::default().with_attempts(3).with_seed(1);
    let (addr, server) = scripted_daemon(stream);
    let err = daemon::watch_csv_with(&addr, 1, &policy).expect_err("done names job 99");
    assert!(err.to_string().contains("done 99"), "{err}");
    assert_eq!(server.join().expect("server"), "watch 1\n");

    let stream = format!("header {}\nfailed 99 worker panicked\n", persist::CAMPAIGN_CSV_HEADER);
    let (addr, server) = scripted_daemon(stream);
    let err = daemon::watch_csv_with(&addr, 1, &policy).expect_err("failed names job 99");
    assert!(err.to_string().contains("failed 99"), "{err}");
    assert!(!err.to_string().contains("job 1 failed"), "{err}");
    assert_eq!(server.join().expect("server"), "watch 1\n");

    let (addr, server) = scripted_daemon("status 99 done 4 4\n".into());
    let err = daemon::status_with(&addr, 1, &policy).expect_err("status names job 99");
    assert!(err.to_string().contains("status 99"), "{err}");
    assert_eq!(server.join().expect("server"), "status 1\n");
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
        b"watch 1 from 3\n",
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

    /// Legal watch lines round-trip through the parser for any id,
    /// including the extremes.
    #[test]
    fn parse_request_accepts_every_watch_id(id in 0u64..=u64::MAX) {
        prop_assert_eq!(
            daemon::parse_request(&format!("watch {id}")),
            Ok(daemon::Request::Watch { id })
        );
    }
}

#[test]
fn an_over_cap_request_is_rejected_and_the_daemon_keeps_serving() {
    let dir = checkpoint_dir("cap");
    let daemon = Daemon::start(DaemonConfig::new(&dir).with_workers(1)).expect("start");
    let addr = daemon.addr().to_string();

    // Exactly the cap, so the daemon reads every byte sent and its
    // reply is not raced by a reset: once inside a spec document that
    // never reaches its `end` line, once as a single command line.
    let cap = usize::try_from(daemon::MAX_REQUEST_BYTES).expect("cap fits usize");
    let mut in_document = b"submit shards 0\npn-campaign-spec v7\n".to_vec();
    in_document.resize(cap, b'x');
    let mut in_command = b"status ".to_vec();
    in_command.resize(cap, b'1');
    for payload in [in_document, in_command] {
        let reply = poke(&addr, &payload, false).expect("an error reply, not a disconnect");
        assert!(reply.starts_with("error request exceeds"), "{reply:?}");
    }

    // Nothing was registered, and the same daemon still serves a
    // normal submit and watch byte-identically.
    let err = daemon::status(&addr, 1).expect_err("no job from an over-cap submit");
    assert!(err.to_string().contains("unknown job"), "{err}");
    let spec = spec();
    let ticket = daemon::submit(&addr, &spec, 0).expect("submit");
    assert_eq!(ticket.id, 1);
    assert_eq!(daemon::watch_csv(&addr, ticket.id).expect("watch"), oneshot_csv(&spec));
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_over_cap_matrix_is_rejected_before_any_job_file_and_the_daemon_keeps_serving() {
    let dir = checkpoint_dir("cells");
    let daemon = Daemon::start(DaemonConfig::new(&dir).with_workers(1)).expect("start");
    let addr = daemon.addr().to_string();

    // A spec document of a few KB describing 10⁹ cells: enumerating
    // them would need hundreds of GB, so the submit must be refused
    // before the daemon builds the job.
    let huge = CampaignSpec::smoke()
        .with_weathers(vec![power_neutral::harvest::weather::Weather::FullSun])
        .with_seeds((1..=1000).collect())
        .with_buffers_mf((1..=1000).map(f64::from).collect())
        .with_governors(vec![GovernorSpec::Powersave; 1000]);
    assert_eq!(huge.cell_count(), 1_000_000_000);
    let doc = persist::spec_to_string(&huge);
    assert!(doc.len() < 64 * 1024, "the document itself is small: {} bytes", doc.len());
    let request = format!("submit shards 0\n{doc}");
    let reply = poke(&addr, request.as_bytes(), false).expect("an error reply, not a disconnect");
    assert!(reply.starts_with("error "), "{reply:?}");
    assert!(reply.contains(&daemon::MAX_JOB_CELLS.to_string()), "{reply:?}");
    let job_dirs = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("job-"))
                .count()
        })
        .unwrap_or(0);
    assert_eq!(job_dirs, 0, "an over-cap submit left a job directory behind");

    // The same daemon still serves a normal submit and watch
    // byte-identically.
    let spec = spec();
    let ticket = daemon::submit(&addr, &spec, 0).expect("submit");
    assert_eq!(daemon::watch_csv(&addr, ticket.id).expect("watch"), oneshot_csv(&spec));
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_submits_get_distinct_jobs_that_stream_their_own_csv() {
    let dir = checkpoint_dir("submits");
    let daemon = Daemon::start(DaemonConfig::new(&dir).with_workers(2)).expect("start");
    let addr = daemon.addr().to_string();

    // Eight clients submit eight different matrices at the same
    // instant. Each must get its own id and job directory, and each
    // job must stream its own one-shot CSV.
    let specs: Vec<CampaignSpec> = (1..=8u64)
        .map(|seed| CampaignSpec::smoke().with_seeds(vec![seed]).with_duration(Seconds::new(1.0)))
        .collect();
    let barrier = std::sync::Barrier::new(specs.len());
    let tickets: Vec<daemon::JobTicket> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|spec| {
                let (addr, barrier) = (&addr, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    daemon::submit(addr, spec, 0).expect("concurrent submit")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("submit thread")).collect()
    });
    let mut ids: Vec<u64> = tickets.iter().map(|t| t.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (1..=8).collect::<Vec<u64>>(), "job ids collided");
    for (spec, ticket) in specs.iter().zip(&tickets) {
        let streamed = daemon::watch_csv(&addr, ticket.id).expect("watch");
        assert_eq!(streamed, oneshot_csv(spec), "job {} streamed another job's rows", ticket.id);
    }
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_retrying_watch_spans_a_daemon_restart_and_delivers_each_cell_once() {
    let dir = checkpoint_dir("span");
    let config =
        || DaemonConfig::new(&dir).with_workers(1).with_throttle(Duration::from_millis(50));
    let daemon = Daemon::start(config()).expect("start");
    let addr = daemon.addr().to_string();
    let spec = spec();
    let ticket = daemon::submit(&addr, &spec, 0).expect("submit");

    // The watcher retries through the gap between the two daemon lives
    // and watches the second life from the top; dedup by matrix index
    // must hand every cell to the callback exactly once.
    let (first_row, on_first_row) = std::sync::mpsc::channel();
    let watcher = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let policy = RetryPolicy::default()
                .with_attempts(400)
                .with_backoff(Duration::from_millis(10), Duration::from_millis(40));
            let mut rows: Vec<(usize, String)> = Vec::new();
            let cells = daemon::watch_rows_with(&addr, ticket.id, &policy, &mut |index, row| {
                if rows.is_empty() {
                    first_row.send(()).expect("signal the first row");
                }
                rows.push((index, row.to_string()));
            });
            (cells, rows)
        })
    };
    on_first_row.recv().expect("the first row arrives");
    daemon.stop();
    assert!(!dir.join("job-1").join("report.pnc").exists(), "the first life must stop mid-run");
    let daemon = Daemon::start(config().with_addr(addr.clone())).expect("restart");

    let (cells, rows) = watcher.join().expect("watcher thread");
    let cells = cells.expect("the watch converges across the restart");
    assert_eq!(cells, spec.cell_count());
    assert_eq!(rows.len(), cells, "a cell reached the callback more than once");
    assert_eq!(daemon::rows_to_csv(cells, rows).expect("csv"), oneshot_csv(&spec));
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}
