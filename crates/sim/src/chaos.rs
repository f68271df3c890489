//! Deterministic fault plane for the persistence and daemon layers.
//!
//! The paper's premise is graceful operation under an unreliable power
//! supply; [`pn_harvest::faults`] made the *harvester* testable under
//! seeded fault injection. This module does the same for the management
//! plane itself: a seeded [`FaultPlan`] injects I/O faults (short
//! writes, failed `sync_all`, failed rename, `ENOSPC`) into
//! [`crate::persist::write_atomic_with`] and network faults (connection
//! reset, mid-line truncation, stalls) into the campaign daemon's watch
//! streams, so the crash-recovery and client-retry machinery can be
//! exercised deterministically instead of waiting for a flaky disk.
//!
//! The seam is the [`IoPolicy`] trait: production call sites take
//! `&dyn IoPolicy` and the default [`Passthrough`] policy injects
//! nothing, so with chaos off every code path is byte-for-byte the one
//! that shipped before this module existed. A [`FaultPlan`] drops into
//! the same seam ([`crate::daemon::DaemonConfig::with_io_policy`], the
//! `campaignd` bin's `--chaos seed[:profile]`).
//!
//! # Determinism
//!
//! A plan draws every decision from one seeded generator, so the
//! *sequence* of injected faults is a pure function of `(seed,
//! profile, budget)`. Which concurrent operation receives which
//! decision still depends on thread interleaving — the contract the
//! chaos suite verifies is therefore interleaving-independent: for any
//! seeded plan, a retrying client either converges to a CSV
//! byte-identical to the fault-free run or surfaces a typed
//! [`SimError`](crate::SimError), and no torn artifact is ever left
//! where `resume` could accept it.
//!
//! Every injected error message carries [`INJECTED_MARKER`], so
//! retry loops can distinguish injected (transient) faults from
//! deterministic failures — see
//! [`SimError::is_injected`](crate::SimError::is_injected).
//!
//! # Examples
//!
//! ```
//! use pn_sim::chaos::{ChaosProfile, FaultPlan, IoPolicy, Passthrough};
//!
//! // The default policy is a no-op: nothing is ever injected.
//! assert!(Passthrough.artifact_fault(std::path::Path::new("a.pnc")).is_none());
//!
//! // A seeded plan injects deterministically until its budget runs dry.
//! let plan = FaultPlan::new(7, ChaosProfile::Io).with_budget(2).with_rates(1.0, 0.0);
//! assert!(plan.artifact_fault(std::path::Path::new("a.pnc")).is_some());
//! assert!(plan.artifact_fault(std::path::Path::new("a.pnc")).is_some());
//! assert!(plan.artifact_fault(std::path::Path::new("a.pnc")).is_none(), "budget spent");
//! assert_eq!(plan.injected(), (2, 0));
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

/// Marker embedded in every injected error message, so retry budgets
/// can tell injected (transient, worth retrying) faults apart from
/// deterministic failures (a genuinely unwritable path, an engine
/// error) that retrying cannot fix.
pub const INJECTED_MARKER: &str = "pn-chaos-injected";

/// Builds the `std::io::Error` an injected fault surfaces as. The
/// message carries [`INJECTED_MARKER`] so it stays recognisable after
/// being wrapped into a [`SimError`](crate::SimError) string.
pub fn injected_io_error(what: &str) -> std::io::Error {
    std::io::Error::other(format!("{INJECTED_MARKER}: {what}"))
}

/// One injectable fault on the atomic-artifact write path, mirroring
/// the real failure modes of [`crate::persist::write_atomic`]'s four
/// steps (create/write, sync, rename).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Only a prefix of the bytes reaches the temp file before the
    /// write fails — the torn temp is left behind, exactly the debris
    /// a crashed writer leaves. The final artifact is untouched.
    ShortWrite,
    /// The bytes are written but `sync_all` fails before the rename.
    FailSync,
    /// Everything is durable in the temp file but the rename into
    /// place fails.
    FailRename,
    /// The write fails up front, as `ENOSPC` would.
    NoSpace,
}

/// The fate of one chunk about to be written to a daemon stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamAction {
    /// Write normally.
    Pass,
    /// Drop the connection without writing — a connection reset.
    Reset,
    /// Write only a prefix of the line (no terminating newline), then
    /// drop the connection — a mid-line truncation. Clients must treat
    /// a line without its newline as torn, never as data.
    Truncate,
    /// Sleep this long before writing — a stalled peer or congested
    /// link. Long stalls trip the other side's read deadline.
    Stall(Duration),
}

/// The injection seam threaded through [`crate::persist`] and
/// [`crate::daemon`]. Production call sites hold a `&dyn IoPolicy`
/// (or an `Arc` of one); the default [`Passthrough`] injects nothing,
/// so chaos-off code paths are untouched.
pub trait IoPolicy: Send + Sync + fmt::Debug {
    /// Consulted once per atomic artifact write; `Some` injects the
    /// fault instead of performing the faulted step.
    fn artifact_fault(&self, path: &Path) -> Option<IoFault> {
        let _ = path;
        None
    }

    /// Consulted once per line written to a daemon watch stream.
    fn stream_fault(&self, bytes: usize) -> StreamAction {
        let _ = bytes;
        StreamAction::Pass
    }
}

/// The default policy: never injects anything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Passthrough;

impl IoPolicy for Passthrough {}

/// Which fault families a [`FaultPlan`] draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosProfile {
    /// Only persistence faults (short write, failed sync/rename,
    /// `ENOSPC`).
    Io,
    /// Only stream faults (reset, truncation, stall).
    Net,
    /// Both families.
    All,
}

impl ChaosProfile {
    /// Stable token for the CLI and logs.
    fn slug(self) -> &'static str {
        match self {
            ChaosProfile::Io => "io",
            ChaosProfile::Net => "net",
            ChaosProfile::All => "all",
        }
    }

    /// Inverse of [`ChaosProfile::slug`].
    fn from_slug(slug: &str) -> Option<Self> {
        match slug {
            "io" => Some(ChaosProfile::Io),
            "net" => Some(ChaosProfile::Net),
            "all" => Some(ChaosProfile::All),
            _ => None,
        }
    }
}

impl fmt::Display for ChaosProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// Default injection probability per consulted operation.
const DEFAULT_RATE: f64 = 0.2;
/// Default total fault budget: once spent, the plan passes everything
/// through, so any retrying client with a larger attempt budget is
/// guaranteed to converge.
const DEFAULT_BUDGET: u32 = 32;
/// Default injected stall length; well below the daemon's default
/// write deadline, so a stall is a delay rather than a disconnect.
const DEFAULT_STALL: Duration = Duration::from_millis(25);

/// Mutable draw state of a plan, behind one lock so the decision
/// sequence is a deterministic function of the seed.
#[derive(Debug)]
struct PlanState {
    rng: StdRng,
    remaining: u32,
    io_injected: u64,
    net_injected: u64,
}

/// A seeded, budgeted schedule of injectable faults.
///
/// Construct one with [`FaultPlan::new`] (or [`FaultPlan::from_arg`]
/// for the `--chaos seed[:profile]` CLI form), tune it with the
/// builder methods, and install it wherever an [`IoPolicy`] is
/// accepted.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    profile: ChaosProfile,
    io_rate: f64,
    net_rate: f64,
    stall: Duration,
    state: Mutex<PlanState>,
}

impl FaultPlan {
    /// A plan drawing from `profile`'s fault families at the default
    /// rate, with the default total budget of injected faults.
    pub fn new(seed: u64, profile: ChaosProfile) -> Self {
        let (io_rate, net_rate) = match profile {
            ChaosProfile::Io => (DEFAULT_RATE, 0.0),
            ChaosProfile::Net => (0.0, DEFAULT_RATE),
            ChaosProfile::All => (DEFAULT_RATE, DEFAULT_RATE),
        };
        Self {
            seed,
            profile,
            io_rate,
            net_rate,
            stall: DEFAULT_STALL,
            state: Mutex::new(PlanState {
                rng: StdRng::seed_from_u64(seed ^ 0xC4A0_5F17_0000_0001),
                remaining: DEFAULT_BUDGET,
                io_injected: 0,
                net_injected: 0,
            }),
        }
    }

    /// Parses the CLI form `seed[:profile]` (profile defaults to
    /// `all`): `"7"`, `"7:io"`, `"7:net"`, `"7:all"`.
    ///
    /// # Errors
    ///
    /// Returns a usage message for a malformed seed or unknown
    /// profile slug.
    pub fn from_arg(arg: &str) -> Result<Self, String> {
        let (seed, profile) = match arg.split_once(':') {
            Some((seed, profile)) => (
                seed,
                ChaosProfile::from_slug(profile)
                    .ok_or_else(|| format!("chaos profile must be io, net or all, got {profile:?}"))?,
            ),
            None => (arg, ChaosProfile::All),
        };
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("chaos wants seed[:profile] with a numeric seed, got {arg:?}"))?;
        Ok(Self::new(seed, profile))
    }

    /// Caps the total number of faults the plan will ever inject
    /// (builder style). A finite budget guarantees every retry loop
    /// with a larger attempt budget converges.
    #[must_use]
    pub fn with_budget(self, faults: u32) -> Self {
        self.state.lock().expect("chaos plan lock").remaining = faults;
        self
    }

    /// Sets the per-operation injection probabilities (builder style),
    /// clamped to `[0, 1]`. Rates for families outside the profile are
    /// honoured as given — this overrides the profile's defaults.
    #[must_use]
    pub fn with_rates(mut self, io_rate: f64, net_rate: f64) -> Self {
        self.io_rate = io_rate.clamp(0.0, 1.0);
        self.net_rate = net_rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the injected stall length (builder style).
    #[must_use]
    pub fn with_stall(mut self, stall: Duration) -> Self {
        self.stall = stall;
        self
    }

    /// The seed this plan draws from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault families this plan draws from.
    pub fn profile(&self) -> ChaosProfile {
        self.profile
    }

    /// How many faults have been injected so far: `(io, net)`.
    pub fn injected(&self) -> (u64, u64) {
        let state = self.state.lock().expect("chaos plan lock");
        (state.io_injected, state.net_injected)
    }

    /// Draws one decision: `Some(shape)` when a fault with probability
    /// `rate` fires and budget remains, where `shape` is a uniform
    /// draw in `[0, 1)` selecting the fault kind.
    fn draw(&self, rate: f64, net: bool) -> Option<f64> {
        if rate <= 0.0 {
            return None;
        }
        let mut state = self.state.lock().expect("chaos plan lock");
        if state.remaining == 0 {
            return None;
        }
        // Both draws happen unconditionally so the decision stream
        // stays aligned whatever the outcome of each decision.
        let fire: f64 = state.rng.gen();
        let shape: f64 = state.rng.gen();
        if fire >= rate {
            return None;
        }
        state.remaining -= 1;
        if net {
            state.net_injected += 1;
        } else {
            state.io_injected += 1;
        }
        Some(shape)
    }
}

impl IoPolicy for FaultPlan {
    fn artifact_fault(&self, _path: &Path) -> Option<IoFault> {
        let shape = self.draw(self.io_rate, false)?;
        Some(match (shape * 4.0) as u32 {
            0 => IoFault::ShortWrite,
            1 => IoFault::FailSync,
            2 => IoFault::FailRename,
            _ => IoFault::NoSpace,
        })
    }

    fn stream_fault(&self, _bytes: usize) -> StreamAction {
        let Some(shape) = self.draw(self.net_rate, true) else {
            return StreamAction::Pass;
        };
        match (shape * 3.0) as u32 {
            0 => StreamAction::Reset,
            1 => StreamAction::Truncate,
            _ => StreamAction::Stall(self.stall),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_never_injects() {
        let p = Passthrough;
        for _ in 0..64 {
            assert_eq!(p.artifact_fault(Path::new("x")), None);
            assert_eq!(p.stream_fault(100), StreamAction::Pass);
        }
    }

    #[test]
    fn profiles_gate_their_fault_families() {
        let io = FaultPlan::new(3, ChaosProfile::Io).with_rates(1.0, 0.0);
        assert!(io.artifact_fault(Path::new("x")).is_some());
        assert_eq!(io.stream_fault(10), StreamAction::Pass);

        let net = FaultPlan::new(3, ChaosProfile::Net).with_rates(0.0, 1.0);
        assert_eq!(net.artifact_fault(Path::new("x")), None);
        assert_ne!(net.stream_fault(10), StreamAction::Pass);
    }

    #[test]
    fn same_seed_same_decision_sequence() {
        let a = FaultPlan::new(42, ChaosProfile::All);
        let b = FaultPlan::new(42, ChaosProfile::All);
        for _ in 0..256 {
            assert_eq!(a.artifact_fault(Path::new("x")), b.artifact_fault(Path::new("x")));
            assert_eq!(a.stream_fault(64), b.stream_fault(64));
        }
        assert_eq!(a.injected(), b.injected());
    }

    #[test]
    fn budget_exhaustion_turns_the_plan_into_a_passthrough() {
        let plan = FaultPlan::new(9, ChaosProfile::All).with_rates(1.0, 1.0).with_budget(5);
        let mut injected = 0;
        for _ in 0..5 {
            if plan.artifact_fault(Path::new("x")).is_some() {
                injected += 1;
            }
        }
        assert_eq!(injected, 5);
        for _ in 0..32 {
            assert_eq!(plan.artifact_fault(Path::new("x")), None);
            assert_eq!(plan.stream_fault(10), StreamAction::Pass);
        }
        let (io, net) = plan.injected();
        assert_eq!((io, net), (5, 0));
    }

    #[test]
    fn all_fault_kinds_are_reachable() {
        let plan = FaultPlan::new(1, ChaosProfile::All).with_rates(1.0, 1.0).with_budget(u32::MAX);
        let mut io_kinds = std::collections::HashSet::new();
        let mut net_kinds = std::collections::HashSet::new();
        for _ in 0..512 {
            if let Some(f) = plan.artifact_fault(Path::new("x")) {
                io_kinds.insert(format!("{f:?}"));
            }
            match plan.stream_fault(10) {
                StreamAction::Pass => {}
                a => {
                    net_kinds.insert(format!("{a:?}"));
                }
            }
        }
        assert_eq!(io_kinds.len(), 4, "{io_kinds:?}");
        assert_eq!(net_kinds.len(), 3, "{net_kinds:?}");
    }

    #[test]
    fn from_arg_parses_seed_and_profile() {
        let plan = FaultPlan::from_arg("7").unwrap();
        assert_eq!((plan.seed(), plan.profile()), (7, ChaosProfile::All));
        let plan = FaultPlan::from_arg("11:io").unwrap();
        assert_eq!((plan.seed(), plan.profile()), (11, ChaosProfile::Io));
        let plan = FaultPlan::from_arg("0:net").unwrap();
        assert_eq!((plan.seed(), plan.profile()), (0, ChaosProfile::Net));
        assert!(FaultPlan::from_arg("x").is_err());
        assert!(FaultPlan::from_arg("7:bogus").is_err());
        assert!(FaultPlan::from_arg("").is_err());
        assert!(FaultPlan::from_arg(":io").is_err());
    }

    #[test]
    fn injected_errors_carry_the_marker() {
        let e = injected_io_error("sync_all failed");
        assert!(e.to_string().contains(INJECTED_MARKER));
        assert!(e.to_string().contains("sync_all failed"));
    }
}
