//! Deterministic host-parallel execution of independent simulation cells.
//!
//! A *cell* is one complete, self-contained simulation (one graph × one
//! application × one config). Cells share no mutable state — each owns its
//! memory subsystem, event queue and mining state — so running them on
//! separate host threads cannot perturb any simulated quantity. The only
//! thing parallelism could disturb is *presentation order*, and
//! [`run_cells`] removes that freedom: results are returned indexed by
//! cell position, exactly as a serial loop would produce them. A
//! multi-threaded run is therefore byte-identical to `--sim-threads=1`
//! (asserted by `sharded_matches_serial` below and the golden
//! integration tests).
//!
//! The scheduler is a work-stealing index over the cell list: threads
//! claim the next unclaimed cell until none remain. Claim order affects
//! only wall-clock time, never output — determinism comes from the
//! index-keyed result slots, not from the claim sequence.

use crate::config::MAX_SIM_THREADS;
use crate::error::ConfigError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable consulted by [`resolve_sim_threads`] when no
/// explicit thread count is given.
pub const SIM_THREADS_ENV: &str = "GRAMER_SIM_THREADS";

/// Resolves the host thread count for cell execution: an explicit value
/// (CLI flag, job config) wins, else the `GRAMER_SIM_THREADS` environment
/// variable, else `1` — parallelism is strictly opt-in, so existing
/// invocations behave exactly as before.
///
/// Fails with [`ConfigError::BadSimThreads`] when the explicit value or
/// the environment variable is outside `1..=`[`MAX_SIM_THREADS`] (an
/// unparseable environment value is rejected the same way rather than
/// silently ignored).
pub fn resolve_sim_threads(explicit: Option<usize>) -> Result<usize, ConfigError> {
    let n = match explicit {
        Some(n) => n,
        None => match std::env::var(SIM_THREADS_ENV) {
            Ok(raw) => raw
                .trim()
                .parse::<usize>()
                .map_err(|_| ConfigError::BadSimThreads(0))?,
            Err(_) => return Ok(1),
        },
    };
    if !(1..=MAX_SIM_THREADS).contains(&n) {
        return Err(ConfigError::BadSimThreads(n));
    }
    Ok(n)
}

/// Runs every cell and returns their results in cell order.
///
/// `sim_threads` is clamped to `1..=`[`MAX_SIM_THREADS`] and to the cell
/// count; with one thread (or one cell) the cells run serially on the
/// calling thread, byte-identical to the historical loop. With more, a
/// scoped thread pool claims cells through a shared atomic index; each
/// result lands in the slot of its cell's index, so the returned vector
/// never depends on thread interleaving.
///
/// # Panics
///
/// If a cell panics, the panic is propagated to the caller once all
/// threads have stopped (the behavior of [`std::thread::scope`]).
pub fn run_cells<T, F>(sim_threads: usize, cells: Vec<F>) -> Vec<T>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let n = cells.len();
    let threads = sim_threads.clamp(1, MAX_SIM_THREADS).min(n.max(1));
    if threads <= 1 {
        return cells.into_iter().map(|cell| cell()).collect();
    }

    // Each cell is taken exactly once (guarded by its own mutex) and its
    // result stored at the same index; the atomic hands out indices.
    let work: Vec<Mutex<Option<F>>> = cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let out: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // The locks cannot be poisoned: a panicking cell body runs
                // outside both critical sections, and a panic anywhere
                // aborts the whole scope. Recover defensively anyway.
                let cell = match work[i].lock() {
                    Ok(mut slot) => slot.take(),
                    Err(poisoned) => poisoned.into_inner().take(),
                };
                if let Some(cell) = cell {
                    let result = cell();
                    match out[i].lock() {
                        Ok(mut slot) => *slot = Some(result),
                        Err(poisoned) => *poisoned.into_inner() = Some(result),
                    }
                }
            });
        }
    });
    out.into_iter()
        .map(|m| {
            let slot = match m.into_inner() {
                Ok(slot) => slot,
                Err(poisoned) => poisoned.into_inner(),
            };
            match slot {
                Some(result) => result,
                // Unreachable: the scope joins every worker, and each
                // index below `n` is claimed by exactly one of them.
                None => unreachable!("cell result missing after scope join"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn serial_and_sharded_results_are_identical_and_ordered() {
        let mk = |threads: usize| {
            let cells: Vec<_> = (0..13u64).map(|i| move || (i, i * i + 7)).collect();
            run_cells(threads, cells)
        };
        let serial = mk(1);
        for threads in [2, 4, 13, MAX_SIM_THREADS] {
            assert_eq!(mk(threads), serial, "threads={threads}");
        }
        // Order is cell order, not completion order.
        assert_eq!(serial[0], (0, 7));
        assert_eq!(serial[12], (12, 151));
    }

    #[test]
    fn sharded_cells_overlap_in_time() {
        // Four sleeping cells on four threads must overlap even on a
        // single-CPU host: sleeping threads do not occupy the CPU, so
        // total wall stays well under the 320 ms serial sum.
        let cells: Vec<_> = (0..4)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_millis(80));
                    i
                }
            })
            .collect();
        let t0 = Instant::now();
        let out = run_cells(4, cells);
        let wall = t0.elapsed();
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert!(
            wall < Duration::from_millis(240),
            "cells did not overlap: {wall:?}"
        );
    }

    #[test]
    fn thread_count_clamped_to_cells() {
        // More threads than cells must not deadlock or drop results.
        let cells: Vec<_> = (0..2).map(|i| move || i).collect();
        assert_eq!(run_cells(64, cells), vec![0, 1]);
        // Zero cells, any thread count.
        let empty: Vec<fn() -> i32> = Vec::new();
        assert_eq!(run_cells(4, empty), Vec::<i32>::new());
    }

    #[test]
    fn resolve_prefers_explicit_over_env() {
        // Explicit always wins and is validated.
        assert_eq!(resolve_sim_threads(Some(3)), Ok(3));
        assert_eq!(
            resolve_sim_threads(Some(0)),
            Err(ConfigError::BadSimThreads(0))
        );
        assert_eq!(
            resolve_sim_threads(Some(MAX_SIM_THREADS + 1)),
            Err(ConfigError::BadSimThreads(MAX_SIM_THREADS + 1))
        );
    }

    #[test]
    fn resolve_reads_env_and_defaults_to_one() {
        // Env-var interactions run in one test (process-global state).
        std::env::remove_var(SIM_THREADS_ENV);
        assert_eq!(resolve_sim_threads(None), Ok(1));
        std::env::set_var(SIM_THREADS_ENV, "4");
        assert_eq!(resolve_sim_threads(None), Ok(4));
        // Explicit still wins over the env var.
        assert_eq!(resolve_sim_threads(Some(2)), Ok(2));
        std::env::set_var(SIM_THREADS_ENV, "0");
        assert_eq!(
            resolve_sim_threads(None),
            Err(ConfigError::BadSimThreads(0))
        );
        std::env::set_var(SIM_THREADS_ENV, "not-a-number");
        assert_eq!(
            resolve_sim_threads(None),
            Err(ConfigError::BadSimThreads(0))
        );
        std::env::remove_var(SIM_THREADS_ENV);
    }
}
