//! Shared parallel executor for batch simulation.
//!
//! Every batch workload in this workspace — the §III parameter sweep,
//! the Table II governor comparison, and whole scenario campaigns — is
//! embarrassingly parallel: many independent simulations whose results
//! are gathered in a fixed order. [`Executor`] runs such batches over a
//! scoped pool of worker threads that claim items one at a time from a
//! shared counter. Simulation cells vary wildly in cost (a brownout ends
//! a run within milliseconds of simulated time; a survivor integrates
//! the full window), so a worker that finishes early simply claims the
//! next item instead of idling behind a static split.
//!
//! Each claim is one item, not a chunk. Campaign cells are enumerated
//! weather-major, so the costly cells sit together and a guided chunk
//! (`remaining / (2·workers)` items per claim) hands them all to one
//! worker: measured on `campaign_sweep`, guided chunks cost +42 %
//! ns per cell. A chunk would also break the panic contract of
//! [`Executor::map`]: a panicking worker would abandon the rest of its
//! chunk, where a single-item claim loses only the item that panicked.
//!
//! Results are returned in item order regardless of which worker ran
//! which item, so a batch is bitwise-deterministic across thread
//! counts.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A shared-counter executor over a fixed number of threads.
///
/// # Examples
///
/// ```
/// use pn_sim::executor::Executor;
///
/// let squares = Executor::new(4).map(&[1u64, 2, 3, 4, 5], |_, x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// Creates an executor with exactly `threads` workers; `0` selects
    /// [`Executor::default_parallelism`].
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 { Self::default_parallelism() } else { threads };
        Self { threads }
    }

    /// A single-threaded executor (runs items inline, no threads
    /// spawned).
    pub fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// The default worker count: the machine's available parallelism,
    /// capped at 16 (simulation batches stop scaling long before the
    /// core counts of large servers).
    pub fn default_parallelism() -> usize {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item and returns the results in item order.
    ///
    /// `f` receives the item index alongside the item.
    ///
    /// # Panics
    ///
    /// A panic in `f` propagates to the caller with its original
    /// payload: the surviving workers drain the remaining items, every
    /// worker is joined, and the first panicking worker's payload is
    /// re-raised via [`std::panic::resume_unwind`]. Results are
    /// gathered through join handles rather than a shared lock, so one
    /// panicking item cannot poison its siblings' result path and bury
    /// the real message behind a poisoned-mutex error.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        if self.threads == 1 || n == 1 {
            return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }

        let workers = self.threads.min(n);
        // `Relaxed` suffices: the counter publishes no data. The
        // read-modify-write alone hands every index to exactly one
        // worker; `items` is shared read-only from before the spawn,
        // and results come back through the join handles, which
        // synchronise with each worker's exit.
        let next = AtomicUsize::new(0);
        let mut gathered: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    let f = &f;
                    scope.spawn(move || {
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= n {
                                break local;
                            }
                            local.push((idx, f(idx, &items[idx])));
                        }
                    })
                })
                .collect();
            // Joining inside the scope (instead of letting the scope
            // join implicitly) is what keeps a worker panic from
            // masking itself: each worker's results come back through
            // its own join handle, and a panicked worker yields its
            // payload here instead of poisoning a shared collection.
            for handle in handles {
                match handle.join() {
                    Ok(local) => gathered.push(local),
                    Err(payload) => {
                        if first_panic.is_none() {
                            first_panic = Some(payload);
                        }
                    }
                }
            }
        });
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }

        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for chunk in gathered {
            for (idx, r) in chunk {
                debug_assert!(slots[idx].is_none(), "item {idx} executed twice");
                slots[idx] = Some(r);
            }
        }
        slots.into_iter().map(|s| s.expect("every item executed")).collect()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn maps_in_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 4, 7] {
            let out = Executor::new(threads).map(&items, |i, x| {
                assert_eq!(i, *x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let ex = Executor::new(8);
        let empty: Vec<u32> = Vec::new();
        assert!(ex.map(&empty, |_, x| *x).is_empty());
        assert_eq!(ex.map(&[41u32], |_, x| x + 1), vec![42]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..counters.len()).collect();
        Executor::new(6).map(&items, |_, &i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn unbalanced_work_is_stolen() {
        // The last items are far heavier than the rest, so a static
        // split would leave one worker with all of them. The test
        // asserts completion and correctness: no item is lost or run
        // twice while idle workers keep claiming from the counter.
        let items: Vec<u64> = (0..64).collect();
        let out = Executor::new(4).map(&items, |_, &x| {
            let spins = if x >= 56 { 20_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spins {
                acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
            let _ = acc;
            x * 2
        });
        let expected: Vec<u64> = items.iter().map(|x| x * 2).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let items: Vec<u64> = (0..40).collect();
        let runs: HashSet<Vec<u64>> = [1usize, 2, 3, 8]
            .iter()
            .map(|&t| Executor::new(t).map(&items, |i, x| x.wrapping_mul(i as u64 + 7)))
            .collect();
        assert_eq!(runs.len(), 1, "thread count changed the result");
    }

    #[test]
    fn a_panicking_item_surfaces_its_own_message() {
        // One poisoned cell must not take its siblings down or bury
        // its message behind a poisoned-lock panic: every other item
        // still runs, and the caller sees the original payload.
        let items: Vec<usize> = (0..97).collect();
        let completed = AtomicUsize::new(0);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Executor::new(4).map(&items, |_, &x| {
                if x == 17 {
                    panic!("item {x} exploded");
                }
                completed.fetch_add(1, Ordering::Relaxed);
            });
        }))
        .expect_err("the worker panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("panic payload is a message");
        assert_eq!(message, "item 17 exploded");
        // The panicked worker abandons only its claimed item; the
        // surviving workers drain everything else before the batch
        // unwinds.
        assert_eq!(completed.load(Ordering::Relaxed), items.len() - 1);
    }

    #[test]
    fn a_panicking_item_propagates_inline_too() {
        let items: Vec<usize> = (0..3).collect();
        let payload = std::panic::catch_unwind(|| {
            Executor::sequential().map(&items, |_, &x| {
                assert_ne!(x, 1, "inline boom");
            });
        })
        .expect_err("the inline panic must reach the caller");
        let message =
            payload.downcast_ref::<String>().cloned().expect("assert payload is a String");
        assert!(message.contains("inline boom"), "got: {message}");
    }

    #[test]
    fn zero_threads_selects_default() {
        assert_eq!(Executor::new(0).threads(), Executor::default_parallelism());
        assert_eq!(Executor::sequential().threads(), 1);
    }
}
