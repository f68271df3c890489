//! The fault plane's payoff property: under any seeded `FaultPlan` —
//! torn temp files, failed syncs and renames, ENOSPC, connection
//! resets, mid-line truncations, stalls — a retrying client either
//! converges to a CSV byte-identical to the fault-free run or surfaces
//! a typed `SimError`. It never gets a torn artifact, a truncated row
//! accepted as data, or a checkpoint that `resume` wrongly accepts.

use power_neutral::sim::campaign::{run_campaign, CampaignSpec};
use power_neutral::sim::chaos::{ChaosProfile, FaultPlan, IoFault, IoPolicy};
use power_neutral::sim::daemon::{self, Daemon, DaemonConfig, RetryPolicy};
use power_neutral::sim::executor::Executor;
use power_neutral::sim::persist;
use power_neutral::units::Seconds;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn checkpoint_dir(tag: &str, case: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("pn-chaos-{tag}-{case}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The chaos matrix: 4 cells, short duration — each proptest case
/// spins up a whole daemon, so the spec must stay cheap.
fn spec() -> CampaignSpec {
    CampaignSpec::smoke().with_seeds(vec![1]).with_duration(Seconds::new(1.0))
}

/// The fault-free reference CSV, computed once across all cases (the
/// engine is bitwise deterministic, so one computation serves all).
fn fault_free_csv() -> &'static str {
    static CSV: OnceLock<String> = OnceLock::new();
    CSV.get_or_init(|| {
        let report = run_campaign(&spec(), &Executor::new(2)).expect("fault-free run");
        persist::report_csv_string(&report).expect("csv")
    })
}

proptest! {
    /// Artifact writes under injected I/O faults never tear the final
    /// file: after every failed attempt the artifact still reads as
    /// the complete previous document, every failure is typed as
    /// injected, and the finite fault budget guarantees a bounded
    /// retry loop eventually succeeds.
    #[test]
    fn injected_faults_never_tear_artifacts_and_eventually_succeed(seed in 0u64..u64::MAX) {
        let dir = checkpoint_dir("artifact", seed);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("artifact.pnc");
        let old = "generation 1\ncomplete document\n";
        let new = "generation 2\nreplacement document\n";
        persist::write_atomic(&path, old).expect("seed write");

        let plan = FaultPlan::new(seed, ChaosProfile::Io).with_rates(0.9, 0.0).with_budget(8);
        let mut succeeded = false;
        for _ in 0..64 {
            match persist::write_atomic_with(&path, new, &plan) {
                Ok(()) => {
                    succeeded = true;
                    break;
                }
                Err(e) => {
                    prop_assert!(e.is_injected(), "unexpected real failure: {e}");
                    let now = std::fs::read_to_string(&path).expect("artifact");
                    prop_assert_eq!(
                        now.as_str(), old,
                        "a failed write must leave the previous artifact intact"
                    );
                }
            }
        }
        prop_assert!(succeeded, "the finite fault budget must let a retry loop converge");
        let settled = std::fs::read_to_string(&path).expect("artifact");
        prop_assert_eq!(settled.as_str(), new);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The end-to-end payoff: a daemon fully armed with chaos (I/O and
    /// stream faults) plus a retrying client still converges to the
    /// byte-identical fault-free CSV, and every artifact left on disk
    /// decodes cleanly.
    #[test]
    fn chaos_armed_daemon_and_retrying_client_converge_byte_identically(
        seed in 0u64..u64::MAX,
    ) {
        let dir = checkpoint_dir("e2e", seed);
        let plan = FaultPlan::new(seed, ChaosProfile::All)
            .with_budget(24)
            .with_stall(Duration::from_millis(2));
        let daemon = Daemon::start(
            DaemonConfig::new(&dir)
                .with_workers(2)
                .with_io_policy(Arc::new(plan))
                .with_retry_budget(64),
        )
        .expect("start");
        let addr = daemon.addr().to_string();

        // The daemon's retry budget (64) exceeds the plan's total
        // fault budget (24), so convergence is guaranteed — any
        // divergence below is a real torn-artifact or torn-stream bug.
        let policy = RetryPolicy::default()
            .with_attempts(64)
            .with_backoff(Duration::from_millis(1), Duration::from_millis(10))
            .with_seed(seed);
        let ticket = daemon::submit_with(&addr, &spec(), 3, &policy).expect("submit");
        let csv = daemon::watch_csv_with(&addr, ticket.id, &policy).expect("watch");
        prop_assert_eq!(csv.as_str(), fault_free_csv(), "chaos changed the streamed bytes");

        let status = daemon::status_with(&addr, ticket.id, &policy).expect("status");
        prop_assert_eq!(status.state.as_str(), "done");
        daemon.stop();

        // Whatever the plan injected, nothing on disk is torn: every
        // checkpoint and the merged report decode cleanly.
        let job_dir = dir.join(format!("job-{}", ticket.id));
        for entry in std::fs::read_dir(&job_dir).expect("job dir") {
            let path = entry.expect("entry").path();
            let name = path.file_name().expect("name").to_string_lossy().into_owned();
            if name.ends_with(".pnc") && (name.starts_with("shard-") || name == "report.pnc") {
                let text = std::fs::read_to_string(&path).expect("artifact");
                prop_assert!(
                    persist::report_from_str(&text).is_ok(),
                    "torn artifact survived chaos: {name}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A hostile policy the budgeted retry cannot outlast: every shard
/// checkpoint write fails, forever.
#[derive(Debug)]
struct ShardWritesAlwaysFail;

impl IoPolicy for ShardWritesAlwaysFail {
    fn artifact_fault(&self, path: &Path) -> Option<IoFault> {
        let name = path.file_name()?.to_string_lossy();
        name.starts_with("shard-").then_some(IoFault::FailSync)
    }
}

#[test]
fn exhausted_retry_budget_fails_typed_and_a_chaos_free_restart_recovers() {
    let dir = checkpoint_dir("exhaust", 0);
    let spec = spec();
    {
        let daemon = Daemon::start(
            DaemonConfig::new(&dir)
                .with_workers(1)
                .with_io_policy(Arc::new(ShardWritesAlwaysFail))
                .with_retry_budget(2),
        )
        .expect("start");
        let addr = daemon.addr().to_string();
        let ticket = daemon::submit(&addr, &spec, 2).expect("submit");
        // The budget (2 retries) cannot outlast an always-failing
        // plane: the job fails with a typed error naming the shard.
        let err = daemon::watch_csv(&addr, ticket.id).expect_err("job must fail");
        let msg = err.to_string();
        assert!(msg.contains("failed") && msg.contains("checkpoint"), "{msg}");
        assert_eq!(daemon::status(&addr, ticket.id).expect("status").state, "failed");
        daemon.stop();
    }

    // No shard checkpoint was ever renamed into place, so the job dir
    // holds nothing a resume could wrongly accept…
    let job_dir = dir.join("job-1");
    for entry in std::fs::read_dir(&job_dir).expect("job dir") {
        let name = entry.expect("entry").file_name().to_string_lossy().into_owned();
        assert!(
            !name.starts_with("shard-") && name != "report.pnc",
            "a failed job must not leave checkpoint artifacts, found {name}"
        );
    }

    // …and a chaos-free restart on the same directory recomputes the
    // job byte-identically to the fault-free run.
    let daemon = Daemon::start(DaemonConfig::new(&dir).with_workers(2)).expect("restart");
    let addr = daemon.addr().to_string();
    assert_eq!(daemon::watch_csv(&addr, 1).expect("recovered watch"), fault_free_csv());
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}
