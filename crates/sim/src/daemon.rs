//! Long-running campaign daemon: a TCP service that accepts campaign
//! specs, schedules their shards across a worker pool, checkpoints
//! every finished shard to disk, and streams per-cell CSV rows to any
//! number of concurrently subscribed clients as cells complete.
//!
//! This is the job-system layer the shard/merge/resume wire format
//! ([`crate::persist`]) was built for: the daemon speaks that format
//! verbatim — a submitted spec is a
//! [`spec_to_string`](crate::persist::spec_to_string) document, every
//! checkpoint is a [`report_to_string`](crate::persist::report_to_string)
//! document — so the one-shot `campaign` bin, `--resume`, and the
//! daemon all interoperate on the same artifacts.
//!
//! # Protocol
//!
//! Line-oriented text over TCP, one command per connection:
//!
//! | Client sends                           | Daemon replies |
//! |----------------------------------------|----------------|
//! | `submit shards <n>` + a spec document  | `job <id> cells <c> shards <s>` |
//! | `watch <id>`                           | `header <csv-header>`, then `row <matrix-index> <csv-row>` per cell, then `done <id> cells <c>` (or `failed <id> <why>`) |
//! | `status <id>`                          | `status <id> <state> <done-cells> <total-cells>` |
//! | `shutdown`                             | `bye` |
//!
//! `submit shards 0` asks for one shard per cell — the finest
//! streaming granularity. Any error is reported as a single
//! `error <why>` line. A connection may send at most
//! [`MAX_REQUEST_BYTES`], and a submitted matrix may hold at most
//! [`MAX_JOB_CELLS`] cells. Rows stream in completion order, tagged with
//! their global matrix index; [`rows_to_csv`] reassembles them into a
//! document byte-identical to [`crate::persist::report_csv_string`] of
//! the merged report, because both sides share
//! [`crate::persist::csv_row`].
//!
//! The matrix index is a row's only identity. Every `watch` streams
//! the job from its first finished row, so a watcher that lost its
//! connection — even across a daemon restart, which may finish cells
//! in another order — simply watches again and drops the indices it
//! already holds. [`watch_rows_with`] wraps that reconnect loop:
//! exponential backoff with seeded jitter, then per-matrix-index dedup.
//!
//! # Robustness
//!
//! Every accepted connection gets read/write deadlines
//! ([`DaemonConfig::with_deadlines`]) so a stalled client can wedge
//! neither a handler thread nor a watch stream: a watcher that stops
//! draining rows is disconnected (with a best-effort
//! `error watcher stalled ...` line) once a row write blocks past the
//! deadline, and rows are streamed in bounded chunks of 256. Client
//! helpers connect with a timeout and honour a [`RetryPolicy`].
//!
//! The daemon's own fault behaviour is testable under the seeded
//! chaos plane ([`crate::chaos`]): install a
//! [`FaultPlan`](crate::chaos::FaultPlan) with
//! [`DaemonConfig::with_io_policy`] and every artifact write and watch
//! stream line may be deterministically faulted. Injected checkpoint
//! write failures are retried up to a per-shard budget
//! ([`DaemonConfig::with_retry_budget`]); deterministic failures
//! (engine errors, genuinely unwritable paths) are not.
//!
//! # Checkpoint layout and crash recovery
//!
//! Under the daemon's checkpoint directory, each job owns one
//! subdirectory:
//!
//! ```text
//! <dir>/job-<id>/submit.pnc     the submit request as received: the
//!                               command line, then the spec document
//! <dir>/job-<id>/shard-<i>.pnc  one finished shard (report wire format)
//! <dir>/job-<id>/report.pnc     the merged report, once complete
//! ```
//!
//! Every file is written with [`crate::persist::write_atomic`], so a
//! `SIGKILL` at any instant leaves each artifact either absent or
//! complete — never torn. A checkpoint's cell lines are the same
//! [`csv_row`](crate::persist::csv_row)s the watch stream sends, plus
//! each cell's parameters, duration and idle flag, and a digest line
//! closes the document, so an edited or corrupted checkpoint fails to
//! decode. On start the daemon rescans the directory and reopens each
//! job from its `submit.pnc` through the same decoder a live submit
//! uses, so a recovered job is the job the submit opened. Then its
//! valid shard checkpoints are adopted as-is after revalidation
//! against the job's spec (the same position + label + per-cell
//! options check [`resume_campaign`](crate::campaign::resume_campaign)
//! applies, so a checkpoint from an edited spec is discarded instead
//! of silently merged), and only the missing shards are re-enqueued.
//! A shard is a matrix-index range into the job's one cell vector, and
//! its checkpoint must cover exactly that range. The merged report
//! lives only on disk. Because every cell is bitwise deterministic, the
//! recovered run's merged report and CSV are byte-identical to an
//! uninterrupted run's. A `submit.pnc` that a live submit would refuse
//! (a matrix past [`MAX_JOB_CELLS`], no submit command line) is
//! skipped like one that is missing or torn, and a shard count past
//! the matrix is clamped to one shard per cell, as a live submit
//! clamps it.
//!
//! A panicking cell is contained by the worker (the panic is caught,
//! the job is marked failed, watchers are told why) without taking the
//! daemon down; other jobs keep running.
//!
//! # Examples
//!
//! Submit a campaign to an in-process daemon, stream its rows, and
//! check the assembled CSV against a one-shot run:
//!
//! ```
//! use pn_sim::campaign::{run_campaign, CampaignSpec};
//! use pn_sim::daemon::{self, Daemon, DaemonConfig};
//! use pn_sim::executor::Executor;
//!
//! # fn main() -> Result<(), pn_sim::SimError> {
//! let dir = std::env::temp_dir().join(format!("pn-daemon-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let daemon = Daemon::start(DaemonConfig::new(&dir))?;
//! let addr = daemon.addr().to_string();
//!
//! let spec = CampaignSpec::smoke().with_duration(pn_units::Seconds::new(2.0));
//! let ticket = daemon::submit(&addr, &spec, 0)?; // 0 → one shard per cell
//! let streamed = daemon::watch_csv(&addr, ticket.id)?;
//!
//! let oneshot = run_campaign(&spec, &Executor::sequential())?;
//! assert_eq!(streamed, pn_sim::persist::report_csv_string(&oneshot)?);
//! daemon.stop();
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

use crate::campaign::{run_cells, validate_saved_slice, CampaignCell, CampaignReport, CampaignSpec};
use crate::chaos::{self, IoPolicy, StreamAction};
use crate::executor::Executor;
use crate::persist;
use crate::SimError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Take, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Default per-connection read/write deadline: long enough for any
/// legitimate pause (a watch stream between rows is written, not
/// read), short enough that a stalled client frees its handler thread
/// promptly.
const DEFAULT_DEADLINE: Duration = Duration::from_secs(10);
/// Default per-shard budget of retried *injected* checkpoint-write
/// faults before the job is failed.
const DEFAULT_RETRY_BUDGET: u32 = 8;
/// Bound on rows cloned out of the job state per watch iteration —
/// the slow-watcher backpressure buffer.
const DEFAULT_WATCH_CHUNK: usize = 256;
/// Bytes the daemon reads from one connection, command line and spec
/// document together. A client that keeps sending past it gets an
/// `error` reply instead of growing the daemon's memory. Spec
/// documents are a few hundred bytes.
pub const MAX_REQUEST_BYTES: u64 = 1 << 20;
/// Cells one submitted job may enumerate. A spec document of a few KB
/// can describe a matrix far too large to hold in memory; a submit
/// past this cap gets an `error` reply before any job file is written.
pub const MAX_JOB_CELLS: usize = 1 << 20;

/// Configuration for [`Daemon::start`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address; the default `127.0.0.1:0` picks a free port
    /// (query it with [`Daemon::addr`]).
    pub addr: String,
    /// Checkpoint directory (created if missing); restartable state
    /// lives here and nowhere else.
    pub dir: PathBuf,
    /// Worker-thread count; `0` selects the machine's available
    /// parallelism, capped at 16.
    pub workers: usize,
    /// Optional pause after each finished shard — a scheduling
    /// throttle for tests and demos that want to interrupt a run
    /// mid-campaign deterministically.
    pub throttle: Option<Duration>,
    /// The fault-injection seam: every artifact write and watch-stream
    /// line consults this policy. Default [`chaos::Passthrough`]
    /// injects nothing.
    pub policy: Arc<dyn IoPolicy>,
    /// Per-connection read deadline (a client that sends nothing is
    /// disconnected after this long).
    pub read_timeout: Duration,
    /// Per-connection write deadline (a watcher that stops draining
    /// rows is disconnected once a write blocks this long).
    pub write_timeout: Duration,
    /// How many *injected* checkpoint-write faults each shard retries
    /// before its job is failed. Deterministic failures are never
    /// retried.
    pub retry_budget: u32,
}

impl DaemonConfig {
    /// A daemon on a free loopback port, default worker count, no
    /// throttle, no chaos, default deadlines, checkpointing into `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            dir: dir.into(),
            workers: 0,
            throttle: None,
            policy: Arc::new(chaos::Passthrough),
            read_timeout: DEFAULT_DEADLINE,
            write_timeout: DEFAULT_DEADLINE,
            retry_budget: DEFAULT_RETRY_BUDGET,
        }
    }

    /// Sets the bind address (builder style).
    #[must_use]
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the worker-thread count (builder style); `0` selects the
    /// default parallelism.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-shard throttle pause (builder style).
    #[must_use]
    pub fn with_throttle(mut self, pause: Duration) -> Self {
        self.throttle = Some(pause);
        self
    }

    /// Installs an arbitrary [`IoPolicy`] (builder style) — e.g. a
    /// shared [`chaos::FaultPlan`] whose injection counters the caller
    /// wants to keep reading.
    #[must_use]
    pub fn with_io_policy(mut self, policy: Arc<dyn IoPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the per-connection read and write deadlines (builder
    /// style).
    #[must_use]
    pub fn with_deadlines(mut self, read: Duration, write: Duration) -> Self {
        self.read_timeout = read;
        self.write_timeout = write;
        self
    }

    /// Sets the per-shard injected-fault retry budget (builder style).
    #[must_use]
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }
}

/// One scheduled unit of work: a shard of a submitted job.
struct Task {
    job: Arc<Job>,
    shard: usize,
}

/// A submitted campaign with its sharding, per-shard progress, and the
/// stream of finished rows watchers replay.
struct Job {
    id: u64,
    dir: PathBuf,
    cells: Vec<CampaignCell>,
    /// Each shard's matrix-index range into `cells`.
    shards: Vec<Range<usize>>,
    state: Mutex<JobState>,
    /// Notified whenever rows are appended, the job finishes, or it
    /// fails — and on daemon shutdown, so watchers can unblock.
    cond: Condvar,
}

/// Mutable progress of a job.
struct JobState {
    /// Finished shard reports, indexed by shard number, until the job
    /// is done: the merge takes them, so a finished job keeps only its
    /// rows.
    shard_reports: Vec<Option<CampaignReport>>,
    /// Finished rows in completion order: (global matrix index,
    /// formatted CSV row). Watchers replay this from the top.
    rows: Vec<(usize, String)>,
    /// First failure (engine error or contained worker panic).
    failed: Option<String>,
    /// Every shard is done and the validated merged report is on disk
    /// as `report.pnc`.
    done: bool,
}

impl Job {
    fn new(id: u64, dir: PathBuf, spec: &CampaignSpec, shard_count: usize) -> Self {
        let cells = spec.cells();
        let shards = spec.shard(shard_count);
        let state = JobState {
            shard_reports: vec![None; shards.len()],
            rows: Vec::with_capacity(cells.len()),
            failed: None,
            done: false,
        };
        Self { id, dir, cells, shards, state: Mutex::new(state), cond: Condvar::new() }
    }
}

/// State shared by the accept loop, connection handlers and workers.
struct Shared {
    config: DaemonConfig,
    /// The address the listener bound (`config.addr` may ask for port 0).
    addr: SocketAddr,
    jobs: Mutex<Vec<Arc<Job>>>,
    /// The highest job id taken, by a submit or by a `job-<id>`
    /// directory on disk, loadable or not (`0`: none). A submit takes
    /// the id above it; past `u64::MAX` no id is left.
    last_id: AtomicU64,
    queue: Mutex<VecDeque<Task>>,
    queue_cond: Condvar,
    shutdown: AtomicBool,
}

/// Writes an artifact through the daemon's fault-injection seam,
/// retrying *injected* faults up to the configured budget. A
/// deterministic failure (unwritable path, full disk for real) is
/// returned on first sight — retrying cannot fix it.
fn write_artifact(shared: &Shared, path: &Path, contents: &str) -> Result<(), SimError> {
    let mut retried = 0u32;
    loop {
        match persist::write_atomic_with(path, contents, shared.config.policy.as_ref()) {
            Ok(()) => return Ok(()),
            Err(e) if e.is_injected() && retried < shared.config.retry_budget => retried += 1,
            Err(e) => return Err(e),
        }
    }
}

/// A running campaign daemon.
///
/// Start one with [`Daemon::start`]; talk to it with the client
/// helpers ([`submit`], [`watch`], [`status`], [`shutdown`]) or any
/// line-oriented TCP client. Dropping the handle without calling
/// [`Daemon::stop`] leaves the daemon running until the process exits.
pub struct Daemon {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Binds the listener, recovers every job found in the checkpoint
    /// directory (adopting valid shard checkpoints, re-enqueueing the
    /// rest), and spawns the worker pool and accept loop.
    ///
    /// Recovery happens *before* the listener accepts, so a client
    /// that connects right after start sees the recovered jobs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Daemon`] when the checkpoint directory
    /// cannot be created or the address cannot be bound.
    pub fn start(config: DaemonConfig) -> Result<Self, SimError> {
        std::fs::create_dir_all(&config.dir).map_err(|e| {
            SimError::Daemon(format!(
                "cannot create checkpoint dir {}: {e}",
                config.dir.display()
            ))
        })?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| SimError::Daemon(format!("cannot bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| SimError::Daemon(format!("cannot resolve bound address: {e}")))?;
        let worker_count = Executor::new(config.workers).threads();
        let shared = Arc::new(Shared {
            config,
            addr,
            jobs: Mutex::new(Vec::new()),
            last_id: AtomicU64::new(0),
            queue: Mutex::new(VecDeque::new()),
            queue_cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        recover_jobs(&shared);
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("campaignd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("campaignd-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept thread")
        };
        Ok(Self { shared, accept: Some(accept), workers })
    }

    /// The bound listen address (useful with the default `:0` port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Signals shutdown and joins the accept loop and workers. Shards
    /// already running finish (and checkpoint); queued shards stay on
    /// disk as missing checkpoints for the next start to resume.
    pub fn stop(mut self) {
        begin_shutdown(&self.shared);
        self.join_threads();
    }

    /// Blocks until a client sends the `shutdown` command, then joins
    /// the worker pool — the `campaignd` bin's main loop.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        begin_shutdown(&self.shared);
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Flags shutdown, wakes every blocked worker and watcher, and pokes
/// the accept loop so its blocking `accept` returns. Each notify is
/// sent under its waiters' mutex, so none lands between a waiter's
/// check of the flag and its wait. The jobs list is locked before a
/// job's state, the order every path takes them in.
fn begin_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    {
        let _queue = shared.queue.lock().expect("queue lock");
        shared.queue_cond.notify_all();
    }
    for job in shared.jobs.lock().expect("jobs lock").iter() {
        let _state = job.state.lock().expect("job state lock");
        job.cond.notify_all();
    }
    let _ = TcpStream::connect(shared.addr);
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

/// Rescans the checkpoint directory and re-registers every decodable
/// job. A job whose `submit.pnc` is missing or torn was never
/// acknowledged to a client (the request is written before the submit
/// reply) and is skipped with a note on stderr.
fn recover_jobs(shared: &Arc<Shared>) {
    let Ok(entries) = std::fs::read_dir(&shared.config.dir) else {
        return;
    };
    let mut found: Vec<(u64, PathBuf)> = entries
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let id: u64 = name.strip_prefix("job-")?.parse().ok()?;
            entry.file_type().ok()?.is_dir().then(|| (id, entry.path()))
        })
        .collect();
    found.sort_by_key(|&(id, _)| id);
    for (id, dir) in found {
        // A skipped directory still holds files; never hand its id out.
        shared.last_id.fetch_max(id, Ordering::SeqCst);
        match load_job(id, &dir) {
            Ok(job) => register_job(shared, &job),
            Err(e) => eprintln!("campaignd: skipping {}: {e}", dir.display()),
        }
    }
}

/// Loads one job directory: reopen the job from its `submit.pnc` with
/// [`decode_submit`], then adopt every shard checkpoint that decodes
/// *and* matches the spec (position, labels, per-cell options). Torn or
/// stale checkpoints are deleted so the shard reruns.
fn load_job(id: u64, dir: &Path) -> Result<Arc<Job>, SimError> {
    let request = std::fs::read_to_string(dir.join("submit.pnc"))
        .map_err(|e| SimError::Daemon(format!("cannot read submit.pnc: {e}")))?;
    let (spec, shard_count) = decode_submit(&request)?;
    let job = Arc::new(Job::new(id, dir.to_path_buf(), &spec, shard_count));
    let mut state = job.state.lock().expect("job state lock");
    for (i, range) in job.shards.iter().enumerate() {
        let path = dir.join(format!("shard-{i}.pnc"));
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue; // missing: the shard never checkpointed
        };
        match decode_checkpoint(&text, &job.cells, range) {
            Ok(report) => {
                push_shard_rows(&mut state, &report);
                state.shard_reports[i] = Some(report);
            }
            Err(e) => {
                eprintln!(
                    "campaignd: discarding checkpoint {} (will recompute): {e}",
                    path.display()
                );
                let _ = std::fs::remove_file(&path);
            }
        }
    }
    drop(state);
    Ok(job)
}

/// Decodes one shard checkpoint and validates it against the job's
/// spec: it must cover exactly its shard's matrix-index range and
/// carry exactly the spec's cells there — the same check
/// `resume_campaign` applies, so an edited spec orphans its stale
/// checkpoints instead of merging them.
fn decode_checkpoint(
    text: &str,
    cells: &[CampaignCell],
    range: &Range<usize>,
) -> Result<CampaignReport, SimError> {
    let report = persist::report_from_str(text)?;
    let covered = report.start()..report.start() + report.len();
    if covered != *range {
        return Err(SimError::Campaign(format!(
            "checkpoint covers matrix indices {covered:?} but the shard is {range:?}"
        )));
    }
    validate_saved_slice(cells, &report)?;
    Ok(report)
}

/// Adds a job to the registry and enqueues its unfinished shards (in
/// shard order); a fully checkpointed job is merged immediately.
fn register_job(shared: &Arc<Shared>, job: &Arc<Job>) {
    shared.jobs.lock().expect("jobs lock").push(Arc::clone(job));
    maybe_finish(shared, job);
    let missing: Vec<usize> = {
        let state = job.state.lock().expect("job state lock");
        if state.done || state.failed.is_some() {
            Vec::new()
        } else {
            (0..job.shards.len()).filter(|&i| state.shard_reports[i].is_none()).collect()
        }
    };
    if missing.is_empty() {
        return;
    }
    let mut queue = shared.queue.lock().expect("queue lock");
    for shard in missing {
        queue.push_back(Task { job: Arc::clone(job), shard });
    }
    drop(queue);
    shared.queue_cond.notify_all();
}

// ---------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                queue = shared.queue_cond.wait(queue).expect("queue lock");
            }
        };
        let executed = run_task(&task, shared);
        if executed {
            if let Some(pause) = shared.config.throttle {
                std::thread::sleep(pause);
            }
        }
    }
}

/// Runs one shard to completion: simulate (panic contained),
/// checkpoint atomically, publish its rows, and merge the job when it
/// was the last shard. Returns whether the shard was actually
/// simulated (vs. skipped because it was already done or its job had
/// failed).
fn run_task(task: &Task, shared: &Shared) -> bool {
    let job = &task.job;
    {
        let state = job.state.lock().expect("job state lock");
        if state.done || state.failed.is_some() || state.shard_reports[task.shard].is_some() {
            return false;
        }
    }
    let range = job.shards[task.shard].clone();
    // One sequential executor per shard: parallelism comes from the
    // worker pool (shards run concurrently), and shards of one day share
    // its trace through the day memo. The catch_unwind contains a
    // poisoned cell to its job — the daemon itself must survive any
    // panic.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_cells(&job.cells, range, &Executor::sequential())
    }));
    match outcome {
        Ok(Ok(report)) => {
            let path = job.dir.join(format!("shard-{}.pnc", task.shard));
            // Injected (transient) write faults are retried within the
            // shard's budget; a deterministic write failure — like the
            // deterministic engine failure below — fails the job.
            if let Err(e) = write_artifact(shared, &path, &persist::report_to_string(&report)) {
                fail_job(job, format!("cannot checkpoint shard {}: {e}", task.shard));
                return true;
            }
            let mut state = job.state.lock().expect("job state lock");
            push_shard_rows(&mut state, &report);
            state.shard_reports[task.shard] = Some(report);
            drop(state);
            job.cond.notify_all();
            maybe_finish(shared, job);
            true
        }
        Ok(Err(e)) => {
            fail_job(job, format!("shard {} failed: {e}", task.shard));
            true
        }
        Err(payload) => {
            fail_job(job, format!("shard {} worker panicked: {}", task.shard, panic_message(&payload)));
            true
        }
    }
}

/// Formats the finished shard's cells as CSV rows tagged with their
/// global matrix indices and appends them to the watch stream.
fn push_shard_rows(state: &mut JobState, report: &CampaignReport) {
    for (offset, cell) in report.cells().iter().enumerate() {
        state.rows.push((report.start() + offset, persist::csv_row(cell)));
    }
}

/// Merges and persists the final report once every shard is done.
fn maybe_finish(shared: &Shared, job: &Arc<Job>) {
    let mut state = job.state.lock().expect("job state lock");
    if state.done || state.failed.is_some() {
        return;
    }
    if state.shard_reports.iter().any(Option::is_none) {
        return;
    }
    let parts: Vec<CampaignReport> =
        std::mem::take(&mut state.shard_reports).into_iter().flatten().collect();
    let merged = CampaignReport::merge(parts)
        .and_then(|report| validate_saved_slice(&job.cells, &report).map(|()| report));
    match merged {
        Ok(report) => {
            match write_artifact(
                shared,
                &job.dir.join("report.pnc"),
                &persist::report_to_string(&report),
            ) {
                Ok(()) => state.done = true,
                Err(e) => state.failed = Some(format!("cannot persist merged report: {e}")),
            }
        }
        Err(e) => state.failed = Some(format!("shard merge failed: {e}")),
    }
    drop(state);
    job.cond.notify_all();
}

fn fail_job(job: &Job, why: String) {
    let mut state = job.state.lock().expect("job state lock");
    if state.failed.is_none() {
        state.failed = Some(why);
    }
    drop(state);
    job.cond.notify_all();
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("campaignd-conn".into())
            .spawn(move || {
                let _ = handle_connection(stream, &shared);
            });
    }
}

/// A parsed protocol command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `submit shards <n>` — a spec document follows.
    Submit {
        /// Requested shard count (`0` → one shard per cell).
        shards: usize,
    },
    /// `watch <id>` — stream every finished row of the job.
    Watch {
        /// Job id to watch.
        id: u64,
    },
    /// `status <id>`.
    Status {
        /// Job id to query.
        id: u64,
    },
    /// `shutdown`.
    Shutdown,
}

/// Parses one protocol command line. Pure and total: any input —
/// noise, truncated commands, absurd numbers — yields either a
/// [`Request`] or a human-readable rejection; it never panics.
///
/// # Errors
///
/// Returns the `error ...` reply body for malformed lines.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (command, rest) = line.split_once(' ').unwrap_or((line, ""));
    let rest = rest.trim();
    match command {
        "submit" => match rest.strip_prefix("shards").map(str::trim) {
            Some(n) => match n.parse::<usize>() {
                Ok(shards) => Ok(Request::Submit { shards }),
                Err(_) => Err("submit wants: submit shards <n>".into()),
            },
            None => Err("submit wants: submit shards <n>".into()),
        },
        "watch" => match rest.parse::<u64>() {
            Ok(id) => Ok(Request::Watch { id }),
            Err(_) => Err("watch wants: watch <job-id>".into()),
        },
        "status" => match rest.parse::<u64>() {
            Ok(id) if rest.split_whitespace().count() == 1 => Ok(Request::Status { id }),
            _ => Err("status wants: status <job-id>".into()),
        },
        "shutdown" if rest.is_empty() => Ok(Request::Shutdown),
        "shutdown" => Err("shutdown takes no arguments".into()),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    // Deadlines on both directions: a client that stalls mid-command
    // (or a watcher that stops draining its socket) times out instead
    // of pinning this handler thread forever.
    stream.set_read_timeout(Some(shared.config.read_timeout))?;
    stream.set_write_timeout(Some(shared.config.write_timeout))?;
    // The byte cap bounds what one connection can make the daemon
    // buffer: past it every read sees end-of-file.
    let mut reader = BufReader::new(stream.try_clone()?.take(MAX_REQUEST_BYTES));
    let mut out = stream;
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(()); // the shutdown poke, or a client that gave up
    }
    if reader.get_ref().limit() == 0 {
        return writeln!(out, "error {}", over_cap());
    }
    match parse_request(&line) {
        Ok(Request::Submit { .. }) => handle_submit(line, &mut reader, &mut out, shared),
        Ok(Request::Watch { id }) => handle_watch(id, &mut out, shared),
        Ok(Request::Status { id }) => handle_status(id, &mut out, shared),
        Ok(Request::Shutdown) => {
            writeln!(out, "bye")?;
            out.flush()?;
            begin_shutdown(shared);
            Ok(())
        }
        Err(why) => writeln!(out, "error {why}"),
    }
}

fn over_cap() -> String {
    format!("request exceeds the {MAX_REQUEST_BYTES}-byte limit")
}

/// Reads the spec document that follows a submit command line, up to
/// its own `end` line, and opens the job the whole request describes.
fn handle_submit(
    mut request: String,
    reader: &mut BufReader<Take<TcpStream>>,
    out: &mut TcpStream,
    shared: &Arc<Shared>,
) -> std::io::Result<()> {
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            if reader.get_ref().limit() == 0 {
                return writeln!(out, "error {}", over_cap());
            }
            return writeln!(out, "error submit ended before the spec document's end line");
        }
        let done = line.trim() == "end";
        request.push_str(&line);
        if done {
            break;
        }
    }
    match submit_job(shared, &request) {
        Ok(job) => {
            writeln!(out, "job {} cells {} shards {}", job.id, job.cells.len(), job.shards.len())
        }
        Err(e) => writeln!(out, "error {e}"),
    }
}

/// The cell count of a job's matrix, or why the daemon will not hold
/// it: the matrix is empty or exceeds [`MAX_JOB_CELLS`]. Computed
/// without enumerating a cell.
fn job_cells(spec: &CampaignSpec) -> Result<usize, SimError> {
    let cells = spec.cell_count();
    if cells == 0 {
        return Err(SimError::InvalidConfig("campaign matrix is empty"));
    }
    if cells > MAX_JOB_CELLS {
        return Err(SimError::Daemon(format!(
            "campaign matrix of {cells} cells exceeds the {MAX_JOB_CELLS}-cell job limit"
        )));
    }
    Ok(cells)
}

/// Decodes a submit request, the `submit shards <n>` line and then the
/// spec document, into the job's spec and shard count: `0` asks for one
/// shard per cell, and any count past the matrix is clamped to it. A
/// live submit and recovery both open their job through here.
fn decode_submit(request: &str) -> Result<(CampaignSpec, usize), SimError> {
    let (line, doc) = request.split_once('\n').unwrap_or((request, ""));
    let Ok(Request::Submit { shards }) = parse_request(line) else {
        return Err(SimError::Daemon(format!("not a submit request: {line:?}")));
    };
    let spec = persist::spec_from_str(doc)?;
    let cells = job_cells(&spec)?;
    let shard_count = if shards == 0 { cells } else { shards.min(cells) };
    Ok((spec, shard_count))
}

/// Registers a new job: decode the request, take a fresh id, persist
/// the request (atomic, before the submit reply), enqueue every shard.
/// Ids come from one counter that never wraps, so no two jobs share a
/// job directory; once `u64::MAX` is taken, a submit is refused.
fn submit_job(shared: &Arc<Shared>, request: &str) -> Result<Arc<Job>, SimError> {
    let (spec, shard_count) = decode_submit(request)?;
    let id = shared
        .last_id
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |last| last.checked_add(1))
        .map_err(|last| SimError::Daemon(format!("no job id is left above {last}")))?
        + 1;
    let dir = shared.config.dir.join(format!("job-{id}"));
    std::fs::create_dir_all(&dir).map_err(|e| {
        SimError::Daemon(format!("cannot create job dir {}: {e}", dir.display()))
    })?;
    write_artifact(shared, &dir.join("submit.pnc"), request)?;
    let job = Arc::new(Job::new(id, dir, &spec, shard_count));
    register_job(shared, &job);
    Ok(job)
}

/// Writes one protocol line through the chaos seam. [`StreamAction`]s
/// map onto the failure modes a real network exhibits: `Reset` drops
/// the connection cold, `Truncate` sends a torn prefix (no newline)
/// and then drops, `Stall` delays the write.
fn stream_line(out: &mut TcpStream, policy: &dyn IoPolicy, line: &str) -> std::io::Result<()> {
    match policy.stream_fault(line.len() + 1) {
        StreamAction::Pass => writeln!(out, "{line}"),
        StreamAction::Stall(pause) => {
            std::thread::sleep(pause);
            writeln!(out, "{line}")
        }
        StreamAction::Truncate => {
            let bytes = line.as_bytes();
            out.write_all(&bytes[..(bytes.len() / 2).max(1)])?;
            out.flush()?;
            Err(chaos::injected_io_error("stream truncated"))
        }
        StreamAction::Reset => Err(chaos::injected_io_error("connection reset")),
    }
}

/// Streams every finished row of job `id` from the top, then waits for
/// more until the job is done or failed. Rows carry their matrix index,
/// which is all a reconnecting client needs to drop rows it already has.
fn handle_watch(id: u64, out: &mut TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    let Some(job) = find_job(shared, id) else {
        return writeln!(out, "error unknown job {id}");
    };
    let policy = Arc::clone(&shared.config.policy);
    stream_line(out, policy.as_ref(), &format!("header {}", persist::CAMPAIGN_CSV_HEADER))?;
    out.flush()?;
    let mut cursor = 0;
    loop {
        enum Step {
            Rows(Vec<(usize, String)>),
            Done(usize),
            Failed(String),
            Shutdown,
        }
        let step = {
            let mut state = job.state.lock().expect("job state lock");
            loop {
                if cursor < state.rows.len() {
                    // Bounded chunks: a slow watcher holds at most
                    // `DEFAULT_WATCH_CHUNK` rows of copied backlog at a
                    // time instead of cloning the whole tail in one go.
                    let upto = state.rows.len().min(cursor + DEFAULT_WATCH_CHUNK);
                    break Step::Rows(state.rows[cursor..upto].to_vec());
                }
                if let Some(why) = &state.failed {
                    break Step::Failed(why.clone());
                }
                if state.done {
                    break Step::Done(job.cells.len());
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break Step::Shutdown;
                }
                state = job.cond.wait(state).expect("job state lock");
            }
        };
        match step {
            Step::Rows(rows) => {
                cursor += rows.len();
                for (index, row) in rows {
                    if let Err(e) = stream_line(out, policy.as_ref(), &format!("row {index} {row}")) {
                        // A watcher that stopped draining its socket
                        // hits the write deadline: disconnect it with
                        // a typed error instead of blocking forever.
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) {
                            let _ = writeln!(out, "error watcher stalled past the write deadline");
                            return Ok(());
                        }
                        return Err(e);
                    }
                }
                out.flush()?;
            }
            Step::Done(cells) => {
                stream_line(out, policy.as_ref(), &format!("done {id} cells {cells}"))?;
                return out.flush();
            }
            Step::Failed(why) => {
                stream_line(out, policy.as_ref(), &format!("failed {id} {why}"))?;
                return out.flush();
            }
            // Closing without a terminal line tells the client the
            // stream died mid-run (mirrors a crash).
            Step::Shutdown => return Ok(()),
        }
    }
}

fn handle_status(id: u64, out: &mut TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    let Some(job) = find_job(shared, id) else {
        return writeln!(out, "error unknown job {id}");
    };
    let state = job.state.lock().expect("job state lock");
    let label = if state.failed.is_some() {
        "failed"
    } else if state.done {
        "done"
    } else {
        "running"
    };
    let done_cells = state.rows.len();
    drop(state);
    writeln!(out, "status {id} {label} {done_cells} {}", job.cells.len())
}

fn find_job(shared: &Shared, id: u64) -> Option<Arc<Job>> {
    shared.jobs.lock().expect("jobs lock").iter().find(|j| j.id == id).cloned()
}

// ---------------------------------------------------------------------
// Client helpers
// ---------------------------------------------------------------------

/// The daemon's acknowledgement of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTicket {
    /// Daemon-assigned job id (watch/status handle).
    pub id: u64,
    /// Cells in the submitted matrix.
    pub cells: usize,
    /// Shards the daemon split the matrix into.
    pub shards: usize,
}

/// A job's progress as reported by the `status` command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// The job id queried.
    pub id: u64,
    /// `running`, `done`, or `failed`.
    pub state: String,
    /// Cells finished so far.
    pub done_cells: usize,
}

/// A client's deadline for establishing a TCP connection.
const CLIENT_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// A client's per-read deadline on an established connection.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(30);
/// A client's per-write deadline on an established connection.
const CLIENT_WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// How a client call retries: attempt budget and a seeded exponential
/// backoff with jitter. `Default` gives three attempts and 50 ms → 2 s
/// backoff; [`RetryPolicy::no_retry`] makes exactly one attempt. Every
/// attempt connects within 5 s and then reads within 30 s and writes
/// within 10 s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total connection attempts (clamped to at least 1).
    pub attempts: u32,
    /// First backoff pause (doubles per retry, jittered ×[0.5, 1.5)).
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the jitter stream — same seed, same pauses.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// One attempt: the behaviour of the plain client helpers.
    pub fn no_retry() -> Self {
        Self { attempts: 1, ..Self::default() }
    }

    /// Sets the attempt budget (clamped to at least 1).
    #[must_use]
    pub fn with_attempts(mut self, attempts: u32) -> Self {
        self.attempts = attempts.max(1);
        self
    }

    /// Sets the backoff window.
    #[must_use]
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> Self {
        self.base_backoff = base;
        self.max_backoff = max.max(base);
        self
    }

    /// Sets the jitter seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Seeded exponential backoff: pause `base × 2^n`, jittered by a
/// uniform factor in `[0.5, 1.5)`, capped at `max`. The jitter stream
/// is deterministic per seed so tests can pin wall-clock behaviour.
struct Backoff {
    rng: StdRng,
    delay: Duration,
    max: Duration,
}

impl Backoff {
    fn new(policy: &RetryPolicy) -> Self {
        Self {
            rng: StdRng::seed_from_u64(policy.seed ^ 0x9E37_79B9_7F4A_7C15),
            delay: policy.base_backoff,
            max: policy.max_backoff,
        }
    }

    fn pause(&mut self) {
        let jittered = self.delay.mul_f64(0.5 + self.rng.gen::<f64>());
        std::thread::sleep(jittered.min(self.max));
        self.delay = self.delay.saturating_mul(2).min(self.max);
    }
}

/// How a client operation failed — drives the retry decision.
enum ClientFailure {
    /// The transport failed (connect refused, dropped connection, torn
    /// line, deadline): transient, a retry may heal it.
    Net(String),
    /// The daemon answered with a deterministic rejection (`error`,
    /// `failed`, malformed protocol): retrying cannot change it.
    Typed(SimError),
}

impl ClientFailure {
    fn into_sim_error(self) -> SimError {
        match self {
            ClientFailure::Net(why) => SimError::Daemon(why),
            ClientFailure::Typed(e) => e,
        }
    }
}

/// A connect error is a transport fault; anything else is typed.
impl From<SimError> for ClientFailure {
    fn from(e: SimError) -> Self {
        match e {
            SimError::Daemon(why) => ClientFailure::Net(why),
            other => ClientFailure::Typed(other),
        }
    }
}

/// Connects within [`CLIENT_CONNECT_TIMEOUT`], then sets the client's
/// per-read and per-write deadlines on the stream.
fn connect_once(addr: &str) -> Result<(BufReader<TcpStream>, TcpStream), SimError> {
    let io_err = |e: std::io::Error| {
        SimError::Daemon(format!("cannot connect to campaign daemon at {addr}: {e}"))
    };
    let sock: SocketAddr = addr.to_socket_addrs().map_err(io_err)?.next().ok_or_else(|| {
        SimError::Daemon(format!("cannot connect to campaign daemon at {addr}: no address"))
    })?;
    let stream = TcpStream::connect_timeout(&sock, CLIENT_CONNECT_TIMEOUT).map_err(io_err)?;
    stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT)).map_err(io_err)?;
    stream.set_write_timeout(Some(CLIENT_WRITE_TIMEOUT)).map_err(io_err)?;
    let reader = BufReader::new(stream.try_clone().map_err(io_err)?);
    Ok((reader, stream))
}

/// Runs `op` up to the policy's attempt budget, backing off between
/// attempts: a `Net` failure retries, anything else (success or a
/// `Typed` failure) returns at once. Out of attempts, the last `Net`
/// failure is returned.
fn retrying<T>(
    policy: &RetryPolicy,
    mut op: impl FnMut() -> Result<T, ClientFailure>,
) -> Result<T, ClientFailure> {
    let mut backoff = Backoff::new(policy);
    let mut attempt = 1;
    loop {
        match op() {
            Err(ClientFailure::Net(_)) if attempt < policy.attempts => {
                backoff.pause();
                attempt += 1;
            }
            result => return result,
        }
    }
}

/// [`connect_once`] with the policy's backoff-and-retry: returns the
/// first established connection, or the last connect error.
fn connect_with(
    addr: &str,
    policy: &RetryPolicy,
) -> Result<(BufReader<TcpStream>, TcpStream), SimError> {
    retrying(policy, || connect_once(addr).map_err(ClientFailure::from))
        .map_err(ClientFailure::into_sim_error)
}

/// Reads one protocol line, classifying the failure: transport faults
/// (io error, EOF, a line torn short of its newline) are `Net`; daemon
/// `error <why>` replies are `Typed`. A torn line is never surfaced as
/// data — a truncated CSV float would otherwise parse as a valid,
/// wrong value.
fn read_stream_line(reader: &mut BufReader<TcpStream>) -> Result<String, ClientFailure> {
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .map_err(|e| ClientFailure::Net(format!("daemon connection failed: {e}")))?;
    if n == 0 {
        return Err(ClientFailure::Net("daemon closed the connection mid-stream".into()));
    }
    if !line.ends_with('\n') {
        return Err(ClientFailure::Net(format!("stream truncated mid-line: {line:?}")));
    }
    let line = line.trim_end().to_string();
    match line.strip_prefix("error ") {
        Some(why) => Err(ClientFailure::Typed(SimError::Daemon(why.to_string()))),
        None => Ok(line),
    }
}

/// Reads one protocol line; `error <why>` lines become `Err`, EOF is
/// reported as a dropped connection.
fn read_reply(reader: &mut BufReader<TcpStream>) -> Result<String, SimError> {
    read_stream_line(reader).map_err(ClientFailure::into_sim_error)
}

/// Submits `spec` to the daemon at `addr`, split into `shards` shards
/// (`0` → one shard per cell).
///
/// # Errors
///
/// Returns [`SimError::Daemon`] on connection failures or daemon-side
/// rejections (malformed spec, empty matrix).
pub fn submit(addr: &str, spec: &CampaignSpec, shards: usize) -> Result<JobTicket, SimError> {
    submit_with(addr, spec, shards, &RetryPolicy::no_retry())
}

/// [`submit`] with retry: connection attempts back off and retry per
/// `policy`, but once a connection is established the submission runs
/// exactly once — retrying after a lost reply could double-submit the
/// job, so post-connect failures surface immediately.
///
/// # Errors
///
/// As [`submit`], after exhausting the policy's connect attempts.
pub fn submit_with(
    addr: &str,
    spec: &CampaignSpec,
    shards: usize,
    policy: &RetryPolicy,
) -> Result<JobTicket, SimError> {
    let (mut reader, mut out) = connect_with(addr, policy)?;
    let send_err = |e: std::io::Error| SimError::Daemon(format!("cannot send submit: {e}"));
    writeln!(out, "submit shards {shards}").map_err(send_err)?;
    out.write_all(persist::spec_to_string(spec).as_bytes()).map_err(send_err)?;
    out.flush().map_err(send_err)?;
    let reply = read_reply(&mut reader)?;
    let fields: Vec<&str> = reply.split_whitespace().collect();
    match fields.as_slice() {
        ["job", id, "cells", cells, "shards", shards] => {
            let parse = |s: &str| {
                s.parse::<u64>().map_err(|_| {
                    SimError::Daemon(format!("malformed submit reply: {reply:?}"))
                })
            };
            Ok(JobTicket {
                id: parse(id)?,
                cells: parse(cells)? as usize,
                shards: parse(shards)? as usize,
            })
        }
        _ => Err(SimError::Daemon(format!("malformed submit reply: {reply:?}"))),
    }
}

/// Watches job `id` on the daemon at `addr`, invoking `on_row` with
/// every streamed cell (global matrix index, formatted CSV row) until
/// the job completes. Returns the final cell count. This is
/// [`watch_rows_with`] with a single attempt.
///
/// # Errors
///
/// Returns [`SimError::Daemon`] when the job fails, the job id is
/// unknown, the daemon dies mid-stream (dropped connection), or the
/// finished stream does not cover the matrix.
pub fn watch(
    addr: &str,
    id: u64,
    on_row: &mut dyn FnMut(usize, &str),
) -> Result<usize, SimError> {
    watch_rows_with(addr, id, &RetryPolicy::no_retry(), on_row)
}

/// One watch connection: sends `watch <id>` and streams rows into
/// `seen`, deduplicated by matrix index. The engine is bitwise
/// deterministic, so a row an earlier connection already delivered is
/// dropped, while conflicting bytes for one index are a typed protocol
/// error.
fn watch_conn(
    addr: &str,
    id: u64,
    seen: &mut BTreeMap<usize, String>,
    on_row: &mut dyn FnMut(usize, &str),
) -> Result<usize, ClientFailure> {
    let (mut reader, mut out) = connect_once(addr)?;
    writeln!(out, "watch {id}")
        .and_then(|()| out.flush())
        .map_err(|e| ClientFailure::Net(format!("cannot send watch: {e}")))?;
    let header = read_stream_line(&mut reader)?;
    if header != format!("header {}", persist::CAMPAIGN_CSV_HEADER) {
        return Err(ClientFailure::Typed(SimError::Daemon(format!(
            "malformed watch header: {header:?}"
        ))));
    }
    loop {
        let line = read_stream_line(&mut reader)?;
        if let Some(rest) = line.strip_prefix("row ") {
            let Some((index, row)) = rest.split_once(' ') else {
                return Err(ClientFailure::Typed(SimError::Daemon(format!(
                    "malformed row line: {line:?}"
                ))));
            };
            let index = index.parse::<usize>().map_err(|_| {
                ClientFailure::Typed(SimError::Daemon(format!("malformed row index: {line:?}")))
            })?;
            match seen.get(&index) {
                None => {
                    seen.insert(index, row.to_string());
                    on_row(index, row);
                }
                Some(prior) if prior == row => {} // harmless duplicate
                Some(prior) => {
                    return Err(ClientFailure::Typed(SimError::Daemon(format!(
                        "conflicting rows for cell {index}: {prior:?} vs {row:?}"
                    ))));
                }
            }
        } else if line.starts_with("done ") {
            // `done <id> cells <c>`, about the job this watch asked for.
            let fields: Vec<&str> = line.split_whitespace().collect();
            let cells = match fields.as_slice() {
                ["done", rid, "cells", cells] if rid.parse() == Ok(id) => cells.parse().ok(),
                _ => None,
            };
            return cells.ok_or_else(|| {
                ClientFailure::Typed(SimError::Daemon(format!(
                    "malformed done line for job {id}: {line:?}"
                )))
            });
        } else if let Some(rest) = line.strip_prefix("failed ") {
            return Err(ClientFailure::Typed(SimError::Daemon(format!(
                "job {id} failed: {rest}"
            ))));
        } else {
            return Err(ClientFailure::Typed(SimError::Daemon(format!(
                "unexpected watch line: {line:?}"
            ))));
        }
    }
}

/// [`watch`] with reconnect: transport failures (dropped connections,
/// torn lines, deadlines, refused connects) back off and watch again
/// from the top; deterministic failures (job failed, unknown id,
/// protocol violations) surface immediately. Rows are deduplicated by
/// matrix index, so each cell reaches `on_row` exactly once even when a
/// reconnect — possibly to a restarted daemon that completes cells in
/// another order — streams rows again.
///
/// # Errors
///
/// Returns [`SimError::Daemon`] when the job fails, the id is unknown,
/// the finished stream does not cover the matrix, or the transport
/// keeps failing past the policy's attempt budget.
pub fn watch_rows_with(
    addr: &str,
    id: u64,
    policy: &RetryPolicy,
    on_row: &mut dyn FnMut(usize, &str),
) -> Result<usize, SimError> {
    watch_rows(addr, id, policy, on_row).map(|rows| rows.len())
}

/// The reconnect loop behind [`watch_rows_with`]: every row once, keyed
/// by matrix index, checked to cover the matrix exactly.
fn watch_rows(
    addr: &str,
    id: u64,
    policy: &RetryPolicy,
    on_row: &mut dyn FnMut(usize, &str),
) -> Result<BTreeMap<usize, String>, SimError> {
    let mut seen = BTreeMap::new();
    retrying(policy, || {
        let cells = watch_conn(addr, id, &mut seen, on_row)?;
        if seen.len() == cells && seen.keys().copied().eq(0..cells) {
            return Ok(());
        }
        // A finished stream from the top that still leaves a gap is a
        // deterministic protocol violation, not a transport fault.
        Err(ClientFailure::Typed(SimError::Daemon(format!(
            "streamed rows do not cover the matrix: got {} rows for {cells} cells",
            seen.len(),
        ))))
    })
    .map_err(|failure| match failure {
        ClientFailure::Net(why) => SimError::Daemon(format!(
            "watch {id} failed after {} attempts: {why}",
            policy.attempts.max(1),
        )),
        ClientFailure::Typed(e) => e,
    })?;
    Ok(seen)
}

/// [`watch_rows_with`], assembled into the canonical CSV document —
/// byte-identical to the fault-free [`watch_csv`].
///
/// # Errors
///
/// As [`watch_rows_with`].
pub fn watch_csv_with(addr: &str, id: u64, policy: &RetryPolicy) -> Result<String, SimError> {
    let rows = watch_rows(addr, id, policy, &mut |_, _| {})?;
    Ok(persist::csv_document(rows.values()))
}

/// [`watch`], assembled into a complete CSV document — byte-identical
/// to [`crate::persist::report_csv_string`] of the job's merged
/// report.
///
/// # Errors
///
/// As [`watch`], plus [`SimError::Daemon`] when the streamed rows do
/// not cover the matrix exactly.
pub fn watch_csv(addr: &str, id: u64) -> Result<String, SimError> {
    watch_csv_with(addr, id, &RetryPolicy::no_retry())
}

/// Reassembles streamed `(matrix index, row)` pairs into the canonical
/// campaign CSV document: header first, rows in matrix order. The
/// result is byte-identical to the batch-written CSV of the merged
/// report because both share [`persist::csv_row`].
///
/// # Errors
///
/// Returns [`SimError::Daemon`] when the rows do not cover
/// `0..cells` exactly (a gap, duplicate, or stray index).
pub fn rows_to_csv(cells: usize, mut rows: Vec<(usize, String)>) -> Result<String, SimError> {
    rows.sort_by_key(|&(index, _)| index);
    if rows.len() != cells || rows.iter().enumerate().any(|(i, (index, _))| i != *index) {
        return Err(SimError::Daemon(format!(
            "streamed rows do not cover the matrix: got {} rows for {cells} cells",
            rows.len(),
        )));
    }
    Ok(persist::csv_document(rows.iter().map(|(_, row)| row)))
}

/// Queries a job's progress.
///
/// # Errors
///
/// Returns [`SimError::Daemon`] on connection failures or an unknown
/// job id.
pub fn status(addr: &str, id: u64) -> Result<JobStatus, SimError> {
    status_with(addr, id, &RetryPolicy::no_retry())
}

/// [`status`] with retry: the query is idempotent, so connect failures
/// back off and retry per `policy`; daemon-side rejections (unknown
/// job) surface immediately.
///
/// # Errors
///
/// As [`status`], after exhausting the policy's connect attempts.
pub fn status_with(addr: &str, id: u64, policy: &RetryPolicy) -> Result<JobStatus, SimError> {
    let (mut reader, mut out) = connect_with(addr, policy)?;
    writeln!(out, "status {id}")
        .and_then(|()| out.flush())
        .map_err(|e| SimError::Daemon(format!("cannot send status: {e}")))?;
    let reply = read_reply(&mut reader)?;
    let fields: Vec<&str> = reply.split_whitespace().collect();
    match fields.as_slice() {
        ["status", rid, state, done, total] if rid.parse() == Ok(id) => {
            let bad = || SimError::Daemon(format!("malformed status reply: {reply:?}"));
            // The reply still ends with the matrix size, which the
            // submit ticket already gave the client: check, then drop.
            total.parse::<usize>().map_err(|_| bad())?;
            Ok(JobStatus {
                id,
                state: (*state).to_string(),
                done_cells: done.parse().map_err(|_| bad())?,
            })
        }
        _ => Err(SimError::Daemon(format!("malformed status reply for job {id}: {reply:?}"))),
    }
}

/// Asks the daemon to shut down (running shards finish and checkpoint;
/// queued shards stay on disk for the next start).
///
/// # Errors
///
/// Returns [`SimError::Daemon`] on connection failures or an
/// unexpected reply.
pub fn shutdown(addr: &str) -> Result<(), SimError> {
    let (mut reader, mut out) = connect_once(addr)?;
    writeln!(out, "shutdown")
        .and_then(|()| out.flush())
        .map_err(|e| SimError::Daemon(format!("cannot send shutdown: {e}")))?;
    let reply = read_reply(&mut reader)?;
    if reply == "bye" {
        Ok(())
    } else {
        Err(SimError::Daemon(format!("unexpected shutdown reply: {reply:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh per-test checkpoint directory under the system temp dir.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pn-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A short smoke matrix (four cells) that finishes in milliseconds.
    fn quick_spec() -> CampaignSpec {
        CampaignSpec::smoke().with_duration(pn_units::Seconds::new(2.0))
    }

    /// The bytes a submit of `spec` in `shards` shards sends.
    fn submit_request(spec: &CampaignSpec, shards: usize) -> String {
        format!("submit shards {shards}\n{}", persist::spec_to_string(spec))
    }

    #[test]
    fn recovery_skips_jobs_no_submit_could_have_written() {
        let dir = scratch_dir("load-cap");
        std::fs::create_dir_all(&dir).unwrap();
        let write = |text: &str| std::fs::write(dir.join("submit.pnc"), text).unwrap();
        // A hand-edited spec of a few KB whose matrix is just past the
        // cap: 2 weathers × 513 seeds × 512 buffers × 2 governors.
        let over_cap = CampaignSpec::smoke()
            .with_seeds((0..513).collect())
            .with_buffers_mf((1..=512).map(f64::from).collect());
        assert!(over_cap.cell_count() > MAX_JOB_CELLS);
        write(&submit_request(&over_cap, 1));
        let err = load_job(1, &dir).err().expect("an over-cap job must not load");
        assert!(matches!(err, SimError::Daemon(_)), "{err}");
        assert!(err.to_string().contains("job limit"), "{err}");
        // A spec document without its submit line is refused too.
        write(&persist::spec_to_string(&CampaignSpec::smoke()));
        let err = load_job(1, &dir).err().expect("a bare spec must not load");
        assert!(matches!(err, SimError::Daemon(_)), "{err}");
        // A request for more shards than cells loads clamped to one
        // shard per cell, as a live submit clamps it.
        write(&submit_request(&CampaignSpec::smoke(), usize::MAX));
        let job = load_job(1, &dir).unwrap();
        assert_eq!(job.shards, (0..4).map(|i| i..i + 1).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn live_and_recovered_jobs_agree() {
        let dir = scratch_dir("agree");
        let daemon = Daemon::start(DaemonConfig::new(&dir).with_workers(1)).unwrap();
        let addr = daemon.addr().to_string();
        let spec = quick_spec();
        let cells = spec.cell_count();
        for shards in [0, 1, 3, cells + 5, usize::MAX] {
            let ticket = submit(&addr, &spec, shards).unwrap();
            let live = find_job(&daemon.shared, ticket.id).unwrap();
            let recovered = load_job(ticket.id, &live.dir).unwrap();
            assert_eq!(recovered.cells, live.cells, "shards {shards}");
            assert_eq!(recovered.shards, live.shards, "shards {shards}");
            assert_eq!(live.shards.len(), if shards == 0 { cells } else { shards.min(cells) });
            watch_csv(&addr, ticket.id).unwrap();
        }
        daemon.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_job_directory_at_the_last_id_is_recovered_and_no_id_is_left() {
        let dir = scratch_dir("last-id");
        let last = dir.join(format!("job-{}", u64::MAX));
        std::fs::create_dir_all(&last).unwrap();
        let spec = quick_spec();
        std::fs::write(last.join("submit.pnc"), submit_request(&spec, 2)).unwrap();
        let daemon = Daemon::start(DaemonConfig::new(&dir).with_workers(1)).unwrap();
        let addr = daemon.addr().to_string();
        let err = submit(&addr, &spec, 0).expect_err("no job id is left");
        assert!(matches!(err, SimError::Daemon(_)), "{err}");
        // The daemon keeps serving: the recovered job streams its CSV.
        let expected = persist::report_csv_string(
            &crate::campaign::run_campaign(&spec, &Executor::sequential()).unwrap(),
        )
        .unwrap();
        assert_eq!(watch_csv(&addr, u64::MAX).unwrap(), expected);
        daemon.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn submits_never_reuse_an_id_a_job_directory_holds() {
        let dir = scratch_dir("wrap");
        let spec = quick_spec();
        let first = dir.join("job-1");
        std::fs::create_dir_all(&first).unwrap();
        std::fs::write(first.join("submit.pnc"), submit_request(&spec, 1)).unwrap();
        std::fs::create_dir_all(dir.join(format!("job-{}", u64::MAX - 1))).unwrap();
        let daemon = Daemon::start(DaemonConfig::new(&dir).with_workers(1)).unwrap();
        let addr = daemon.addr().to_string();
        let other = spec.clone().with_seeds(vec![7]);
        assert_eq!(submit(&addr, &other, 0).unwrap().id, u64::MAX);
        for _ in 0..2 {
            let err = submit(&addr, &other, 0).expect_err("no job id is left");
            assert!(matches!(err, SimError::Daemon(_)), "{err}");
        }
        // Job 1 is still the job its directory holds, on disk and on
        // the wire.
        let on_disk = std::fs::read_to_string(first.join("submit.pnc")).unwrap();
        assert_eq!(on_disk, submit_request(&spec, 1));
        let job = find_job(&daemon.shared, 1).unwrap();
        assert_eq!(job.cells, spec.cells());
        assert_eq!(job.shards.len(), 1);
        daemon.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_finished_job_keeps_only_its_rows() {
        let dir = scratch_dir("rows");
        let daemon = Daemon::start(DaemonConfig::new(&dir).with_workers(1)).unwrap();
        let addr = daemon.addr().to_string();
        let spec = quick_spec();
        let ticket = submit(&addr, &spec, 2).unwrap();
        watch_csv(&addr, ticket.id).unwrap();
        let job = find_job(&daemon.shared, ticket.id).unwrap();
        let state = job.state.lock().unwrap();
        assert!(state.done);
        // The merge took the shard reports; watchers replay the rows.
        assert!(state.shard_reports.is_empty());
        assert_eq!(state.rows.len(), spec.cell_count());
        drop(state);
        // On disk: the request, one checkpoint per shard, the report.
        let mut files: Vec<String> = std::fs::read_dir(&job.dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files, ["report.pnc", "shard-0.pnc", "shard-1.pnc", "submit.pnc"]);
        daemon.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_request_accepts_the_protocol() {
        assert_eq!(parse_request("submit shards 4\n"), Ok(Request::Submit { shards: 4 }));
        assert_eq!(parse_request("watch 7"), Ok(Request::Watch { id: 7 }));
        assert_eq!(parse_request("status 3"), Ok(Request::Status { id: 3 }));
        assert_eq!(parse_request("shutdown"), Ok(Request::Shutdown));
        assert_eq!(parse_request("  watch 7  "), Ok(Request::Watch { id: 7 }));
    }

    #[test]
    fn parse_request_rejects_noise() {
        for bad in [
            "",
            "nonsense",
            "submit",
            "submit shards",
            "submit shards four",
            "submit shards -1",
            "watch",
            "watch x",
            "watch 7 from",
            "watch 7 from x",
            "watch 7 from 12",
            "watch 7 from 1 2",
            "watch 7 upto 9",
            "status",
            "status 1 2",
            "status abc",
            "shutdown now",
            "row 0 1.0",
            "header x",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn retry_policy_clamps() {
        assert_eq!(RetryPolicy::default().with_attempts(0).attempts, 1);
        let p = RetryPolicy::no_retry();
        assert_eq!(p.attempts, 1);
        let p = p.with_backoff(Duration::from_millis(10), Duration::from_millis(1));
        assert_eq!(p.max_backoff, Duration::from_millis(10));
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let policy = RetryPolicy::default().with_seed(42);
        let mut a = Backoff::new(&policy);
        let mut b = Backoff::new(&policy);
        for _ in 0..4 {
            let ja = a.delay.mul_f64(0.5 + a.rng.gen::<f64>());
            let jb = b.delay.mul_f64(0.5 + b.rng.gen::<f64>());
            assert_eq!(ja, jb);
            a.delay = a.delay.saturating_mul(2).min(a.max);
            b.delay = b.delay.saturating_mul(2).min(b.max);
        }
    }
}
