//! # mg-runtime
//!
//! Std-only parallel execution substrate for the AdamGNN reproduction.
//!
//! Everything above this crate (tensor kernels, GNN layers, the full
//! training loop) funnels data-parallel work through two primitives:
//!
//! * [`Pool`] — a persistent "work-stealing-lite" thread pool: one shared
//!   chunk queue per parallel region, claimed by atomic increment under a
//!   mutex, with the calling thread participating as a worker. No
//!   external dependencies, no per-region thread spawning.
//! * [`parallel_rows`] — deterministic contiguous row-range partitioning.
//!   Every output row is computed wholly by one task, with the same
//!   per-row reduction order as the serial code, so parallel results are
//!   **bitwise identical** to serial results for any thread count.
//!
//! Thread count resolution, in order of precedence:
//! 1. a scoped override installed with [`with_pool`] (used by tests to
//!    sweep thread counts deterministically),
//! 2. the `MG_NUM_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! With one thread, every entry point degrades to a plain loop on the
//! calling thread — no workers are spawned, no locks are taken.
//!
//! The crate also hosts [`KernelStats`], a process-wide registry of call
//! counts and cumulative nanoseconds per kernel, written out as mg-obs's
//! `kernel_stats` trace record.

mod pool;
mod stats;

pub use pool::{
    chunk_bounds, current_threads, global, parallel_rows, parallel_rows_in, with_pool, Pool,
    SendPtr,
};
pub use stats::{timed, KernelStats, OpStat};

/// Parse an `MG_NUM_THREADS`-style override.
///
/// `None`, empty, unparsable, or `0` fall back to `available`; anything
/// else is used as-is (values larger than the machine are allowed — the
/// partitioning stays deterministic regardless).
pub fn parse_threads(var: Option<&str>, available: usize) -> usize {
    match var.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => available.max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_override_and_fallbacks() {
        assert_eq!(parse_threads(Some("4"), 8), 4);
        assert_eq!(parse_threads(Some(" 2 "), 8), 2);
        assert_eq!(parse_threads(Some("0"), 8), 8);
        assert_eq!(parse_threads(Some("nope"), 8), 8);
        assert_eq!(parse_threads(None, 8), 8);
        assert_eq!(parse_threads(None, 0), 1);
        assert_eq!(parse_threads(Some("16"), 1), 16);
    }
}
