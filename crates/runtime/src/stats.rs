//! Process-wide per-kernel timing registry.
//!
//! Kernels wrap their bodies in [`timed`]; the registry accumulates call
//! counts and cumulative nanoseconds per op name, and
//! [`KernelStats::snapshot`] reads it out (the trainers write it to their
//! mg-obs trace as a `kernel_stats` record, its one output). The registry
//! is always on, in serial and parallel builds alike — one uncontended
//! mutex lock plus two `Instant` reads per kernel call, which is noise
//! next to the kernels it measures.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Accumulated statistics for one kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStat {
    /// Number of recorded calls.
    pub calls: u64,
    /// Total time across calls, in nanoseconds.
    pub total_ns: u64,
}

static REGISTRY: OnceLock<Mutex<HashMap<&'static str, OpStat>>> = OnceLock::new();

fn registry() -> &'static Mutex<HashMap<&'static str, OpStat>> {
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The per-kernel timing registry. All methods are associated functions
/// on a unit struct so call sites read `KernelStats::snapshot()`.
pub struct KernelStats;

impl KernelStats {
    /// Record one call of `name` taking `ns` nanoseconds.
    pub fn record(name: &'static str, ns: u64) {
        let mut map = registry().lock().expect("KernelStats lock poisoned");
        let stat = map.entry(name).or_default();
        stat.calls += 1;
        stat.total_ns += ns;
    }

    /// Snapshot of all stats, sorted by descending total time.
    pub fn snapshot() -> Vec<(&'static str, OpStat)> {
        let map = registry().lock().expect("KernelStats lock poisoned");
        let mut v: Vec<_> = map.iter().map(|(&k, &s)| (k, s)).collect();
        v.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
        v
    }
}

thread_local! {
    /// Nesting depth of [`timed`] scopes on this thread.
    static TIMED_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Restores the thread-local depth even if `f` unwinds, so a panicking
/// kernel cannot permanently mute the registry on its thread.
struct DepthGuard;

impl Drop for DepthGuard {
    fn drop(&mut self) {
        TIMED_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Time `f` and record it under `name`.
///
/// Only the *outermost* timed scope on a thread records: when a timed
/// kernel calls another timed kernel (a fused op wrapping the primitive
/// it fuses, say), the inner call runs unrecorded instead of counting
/// the same nanoseconds under two names. The registry thus stays a
/// partition of wall time — summing `total_ns` over ops never exceeds
/// the time actually spent in kernels.
#[inline]
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let depth = TIMED_DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    let _guard = DepthGuard;
    if depth > 0 {
        return f();
    }
    let start = Instant::now();
    let out = f();
    KernelStats::record(name, start.elapsed().as_nanos() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and tests run concurrently, so each
    // test uses its own op names instead of resetting.

    #[test]
    fn record_accumulates() {
        KernelStats::record("test_op_a", 10);
        KernelStats::record("test_op_a", 30);
        let snap = KernelStats::snapshot();
        let (_, s) = snap.iter().find(|(n, _)| *n == "test_op_a").unwrap();
        assert_eq!(s.calls, 2);
        assert_eq!(s.total_ns, 40);
    }

    #[test]
    fn timed_returns_value_and_records() {
        let v = timed("test_op_b", || 7 * 6);
        assert_eq!(v, 42);
        let snap = KernelStats::snapshot();
        assert!(snap.iter().any(|(n, s)| *n == "test_op_b" && s.calls >= 1));
    }

    #[test]
    fn nested_timed_records_outermost_only() {
        timed("test_op_outer", || timed("test_op_inner", || 1 + 1));
        let snap = KernelStats::snapshot();
        assert!(
            snap.iter()
                .any(|(n, s)| *n == "test_op_outer" && s.calls == 1),
            "outermost scope must record"
        );
        assert!(
            !snap.iter().any(|(n, _)| *n == "test_op_inner"),
            "nested scope must not double-count into the registry"
        );
    }

    #[test]
    fn sibling_timed_calls_both_record() {
        timed("test_op_sib1", || ());
        timed("test_op_sib2", || ());
        let snap = KernelStats::snapshot();
        assert!(snap
            .iter()
            .any(|(n, s)| *n == "test_op_sib1" && s.calls == 1));
        assert!(snap
            .iter()
            .any(|(n, s)| *n == "test_op_sib2" && s.calls == 1));
    }

    #[test]
    fn panicking_timed_scope_does_not_mute_thread() {
        let r = std::panic::catch_unwind(|| timed("test_op_panics", || panic!("boom")));
        assert!(r.is_err());
        timed("test_op_after_panic", || ());
        let snap = KernelStats::snapshot();
        assert!(
            snap.iter()
                .any(|(n, s)| *n == "test_op_after_panic" && s.calls == 1),
            "depth must unwind back to zero after a panic"
        );
    }
}
