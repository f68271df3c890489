//! The benchmark workload as the simulator sees it: work accounting and
//! seeded arrival traces.
//!
//! The paper benchmarks its platform with *smallpt*, a path tracer
//! rendering at 5 samples per pixel: a trivially parallel,
//! CPU-saturating workload. The simulator never runs it. Its throughput
//! models (frames/s and instructions/s per OPP) live in `pn-soc`, and
//! this crate provides:
//!
//! * [`work`] — the accounting that integrates those rates over
//!   simulated time into completed frames, renders and instructions
//!   (the Table II metrics);
//! * [`arrival`] — seeded bursty arrival traces, expanded once per run
//!   into piecewise-constant duty segments.

pub mod arrival;
pub mod work;
